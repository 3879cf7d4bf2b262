//! What a run produced, folded into a 64-bit digest as it goes, plus the
//! few windows and MATCH answers kept whole for the reference check.

use sgs_archive::MatchOutcome;
use sgs_core::WindowId;
use sgs_csgs::WindowOutput;
use sgs_summarize::Sgs;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// A MATCH answer kept for the oracle check.
pub struct KeptMatch {
    pub query: Sgs,
    pub outcome: MatchOutcome,
    /// Patterns in the history when the query ran.
    pub history_len: usize,
}

/// Transcript of one run (or of one rung of a traced run).
pub struct Transcript {
    /// Windows and MATCH answers are folded apart, so rungs of a traced
    /// run that ask no MATCH can still be compared on their windows.
    window_digest: Digest,
    match_digest: Digest,
    /// Windows seen, clusters and skeletal cells in them.
    pub windows: u64,
    pub clusters: u64,
    pub cells: u64,
    /// MATCH answers seen and their filter counts.
    pub matches_run: u64,
    pub candidates: u64,
    pub refined: u64,
    pub matched: u64,
    /// Every `keep_every`-th window and MATCH answer, kept whole.
    keep_every: u64,
    pub kept_windows: Vec<(WindowId, WindowOutput)>,
    pub kept_matches: Vec<KeptMatch>,
}

impl Transcript {
    /// Keep every `keep_every`-th window/answer for verification
    /// (0 keeps none).
    pub fn new(keep_every: u64) -> Self {
        Transcript {
            window_digest: Digest::new(),
            match_digest: Digest::new(),
            windows: 0,
            clusters: 0,
            cells: 0,
            matches_run: 0,
            candidates: 0,
            refined: 0,
            matched: 0,
            keep_every,
            kept_windows: Vec::new(),
            kept_matches: Vec::new(),
        }
    }

    /// Fold one window in: its id, and per cluster the core and edge
    /// counts and the summary's volume and population.
    pub fn window(&mut self, id: WindowId, output: &WindowOutput) {
        let d = &mut self.window_digest;
        d.word(id.0);
        d.word(output.len() as u64);
        for c in output {
            d.word(c.cores.len() as u64);
            d.word(c.edges.len() as u64);
            d.word(c.sgs.volume() as u64);
            d.word(u64::from(c.sgs.population()));
            self.cells += c.sgs.volume() as u64;
        }
        self.clusters += output.len() as u64;
        if self.keep_every > 0 && self.windows.is_multiple_of(self.keep_every) {
            self.kept_windows.push((id, output.clone()));
        }
        self.windows += 1;
    }

    /// Fold one MATCH answer in: the matched ids and distance bits.
    pub fn matches(&mut self, query: &Sgs, outcome: &MatchOutcome, history_len: usize) {
        self.match_digest.word(outcome.matches.len() as u64);
        for m in &outcome.matches {
            self.match_digest.word(m.id.0);
            self.match_digest.word(m.distance.to_bits());
        }
        self.candidates += outcome.candidates as u64;
        self.refined += outcome.refined as u64;
        self.matched += outcome.matches.len() as u64;
        if self.keep_every > 0 && self.matches_run.is_multiple_of(self.keep_every) {
            self.kept_matches.push(KeptMatch {
                query: query.clone(),
                outcome: outcome.clone(),
                history_len,
            });
        }
        self.matches_run += 1;
    }

    /// Digest of the windows alone.
    pub fn window_digest(&self) -> u64 {
        self.window_digest.value()
    }

    /// Digest of the whole transcript.
    pub fn digest(&self) -> u64 {
        let mut d = self.window_digest;
        d.word(self.match_digest.value());
        d.value()
    }
}
