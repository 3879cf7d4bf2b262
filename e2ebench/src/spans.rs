//! Bench-side tracing: spans recorded around the calls into each layer's
//! public functions, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// "No parent" marker in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One timed call. Spans of one window share `window`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub window: u64,
}

/// Records spans on one thread; the open spans form a stack, so a span's
/// parent is whatever was open when it started. A disabled recorder
/// (untraced runs) never reads the clock.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    window: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            window: 0,
        }
    }

    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Tag spans opened from now on with this window number.
    pub fn set_window(&mut self, window: u64) {
        self.window = window;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(ROOT),
            name,
            start_ns,
            end_ns: start_ns,
            window: self.window,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `{id, parent, name, start_ns, end_ns, window}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"window\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.window
            )?;
        }
        Ok(())
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// that its child spans cover (children may overlap each other; covered
/// time is counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sum duration and self time by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Durations (µs) of every span called `name`, in recording order.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            window: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, ROOT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 30, 60), // overlaps span 1 on [30, 40)
            span(3, 0, 80, 90),
            span(4, 1, 15, 20), // grandchild: only span 1 pays for it
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (50 + 10));
        assert_eq!(selfs[1], 30 - 5);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn recorder_nests_by_open_stack() {
        let mut rec = Recorder::new();
        rec.set_window(7);
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].window, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = totals_by_name(spans);
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(
            totals["outer"].self_ns + totals["inner"].total_ns,
            totals["outer"].total_ns
        );
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"name\":\"outer\""));
        assert_eq!(text.lines().count(), 2);
    }
}
