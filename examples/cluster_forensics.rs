//! Cluster forensics: long-term pattern archival and retrieval.
//!
//! Demonstrates the storage-side machinery of §6–§7 end to end, including
//! the concurrent extractor → archiver pipeline of Fig. 4:
//!
//! 1. an extraction thread runs the continuous query and ships each
//!    window's summaries over a bounded channel,
//! 2. an archiver thread applies budget-aware multi-resolution selection
//!    (§6.1) and appends to a shared pattern base,
//! 3. the main thread — the analyst — issues matching queries against the
//!    live archive and finally inspects it: §8.2's 23-bytes-per-cell
//!    count beside the lossless encoding summaries are stored in.
//!
//! ```text
//! cargo run --release --example cluster_forensics
//! ```

use streamsum::archive::shared_pattern_base;
use streamsum::prelude::*;
use streamsum::summarize::{coarsen, codec, multires, packed};

fn main() -> Result<()> {
    let query = ClusterQuery::new(0.5, 6, 2, WindowSpec::count(3000, 750)?)?;
    let stream = generate_gmti(&GmtiConfig {
        n_records: 30_000,
        ..GmtiConfig::default()
    });

    let base = shared_pattern_base();
    let (tx, rx) = std::sync::mpsc::sync_channel::<(WindowId, Vec<Sgs>)>(8);

    // Extraction thread: windowed C-SGS, summaries only over the wire.
    let extract_query = query.clone();
    let extractor = std::thread::spawn(move || -> Result<u64> {
        let mut engine = WindowEngine::new(extract_query.window, extract_query.dim);
        let mut csgs = CSgs::new(extract_query);
        let mut outs = Vec::new();
        let mut windows = 0u64;
        for p in stream {
            engine.push(p, &mut csgs, &mut outs)?;
            for (w, clusters) in outs.drain(..) {
                windows += 1;
                let summaries: Vec<Sgs> = clusters.iter().map(|c| c.sgs.clone()).collect();
                if tx.send((w, summaries)).is_err() {
                    return Ok(windows);
                }
            }
        }
        Ok(windows)
    });

    // Archiver thread: budget-aware resolution selection (≤ 600 bytes per
    // archived summary, θ = 3, up to level 2), then append to the shared
    // base.
    let archive_base = base.clone();
    let archiver = std::thread::spawn(move || {
        let mut archived = 0usize;
        let mut coarse = 0usize;
        for (w, summaries) in rx {
            let mut batch = Vec::new();
            for sgs in summaries {
                let level = streamsum::archive::choose_level(&sgs, 3, 600, 2);
                let mut stored = sgs;
                for _ in 0..level {
                    stored = coarsen(&stored, 3);
                }
                if level > 0 {
                    coarse += 1;
                }
                batch.push((stored, w));
            }
            // One write per window; a memory-only base cannot fail it.
            let ids = archive_base.write().try_insert_all(batch);
            archived += ids.expect("memory-only insert").len();
        }
        (archived, coarse)
    });

    // Analyst: poll the growing archive with matching queries.
    let config = MatchConfig::equal_weights(false, 0.3);
    let mut polls = 0;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(30));
        let guard = base.read();
        if guard.len() >= 10 || polls > 100 {
            if let Some(pattern) = guard.iter().last() {
                let outcome = guard.match_query(&pattern.sgs.clone(), &config);
                println!(
                    "live query against {} archived patterns: {} candidates, \
                     {} matches",
                    guard.len(),
                    outcome.candidates,
                    outcome.matches.len()
                );
            }
            break;
        }
        polls += 1;
    }

    let windows = extractor.join().expect("extractor thread")?;
    let (archived, coarse) = archiver.join().expect("archiver thread");
    println!(
        "\npipeline done: {windows} windows, {archived} summaries archived \
         ({coarse} stored at a coarser resolution to meet the 600-byte budget)"
    );

    // Inspect the final archive: §8.2 packed sizes, the lossless encoding
    // summaries are sent and stored in, and multi-resolution costs.
    let guard = base.read();
    println!("total packed archive: {} bytes", guard.archived_bytes());
    if let Some(p) = guard.iter().max_by_key(|p| p.sgs.volume()) {
        let mut bytes = Vec::new();
        codec::encode(&p.sgs, &mut bytes);
        let decoded = codec::decode(&mut &bytes[..]).expect("roundtrip");
        println!(
            "largest summary: {} cells at level {}, {} bytes packed \
             ({} bytes/cell), {} bytes encoded; decode roundtrip ok: {}",
            p.sgs.volume(),
            p.sgs.level,
            packed::archived_bytes(&p.sgs),
            packed::bytes_per_cell(p.sgs.dim),
            bytes.len(),
            decoded == p.sgs,
        );
        for level in 0..=2u8 {
            println!(
                "   would cost {} bytes at level {level}",
                multires::archived_bytes_at_level(&p.sgs, 3, level)
            );
        }
    }
    Ok(())
}
