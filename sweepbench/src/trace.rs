//! In-memory span ledger for the traced run: every span records its
//! name, start, end and parent; nothing is written until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over a ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self times (duration minus the children's), seconds.
    pub self_s: f64,
}

pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds `by` to the counter `name` (work done at a layer boundary).
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per-name count, total and self time.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let agg = out.entry(s.name).or_default();
            agg.count += 1;
            agg.total_s += dur as f64 * 1e-9;
            agg.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes the per-name table to stderr.
    pub fn write_summary(&self) {
        eprintln!("span                         count     total_ms      self_ms");
        for (name, a) in self.aggregate() {
            eprintln!(
                "{name:<26} {:>8} {:>12.3} {:>12.3}",
                a.count,
                a.total_s * 1e3,
                a.self_s * 1e3
            );
        }
        for (name, v) in &self.counts {
            eprintln!("counter {name:<18} {v}");
        }
    }
}
