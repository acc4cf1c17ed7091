//! The traced run's span recorder.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions, and kept in memory: one span per call, with a
//! name, start, end, parent, and the id of the grid cell or request it
//! belongs to. A layer's *self time* is its spans' durations minus the part
//! their child spans cover. The untraced replay passes `None` instead of a
//! recorder and makes no clock reads at all, which is what lets the traced
//! run report its own overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log for one traced replay.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// The cell or request id the next spans belong to.
    id: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: self.id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize) {
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close in LIFO order");
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_default() += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name` when tracing; a plain call otherwise.
pub fn span<T>(rec: &mut Option<Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        None => f(),
        Some(r) => {
            let idx = r.enter(name);
            let out = f();
            r.exit(idx);
            out
        }
    }
}

/// Opens a root span for one cell or request; close it with [`close`].
pub fn open(rec: &mut Option<Recorder>, name: &'static str, id: u64) -> Option<usize> {
    rec.as_mut().map(|r| {
        r.id = id;
        r.enter(name)
    })
}

/// Closes a span opened with [`open`].
pub fn close(rec: &mut Option<Recorder>, idx: Option<usize>) {
    if let (Some(r), Some(i)) = (rec.as_mut(), idx) {
        r.exit(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Some(Recorder::new());
        let root = open(&mut rec, "cell", 7);
        span(&mut rec, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        close(&mut rec, root);
        let r = rec.expect("recorder");
        let selfs = r.self_seconds();
        assert!(selfs["child"] >= 0.02);
        assert!(selfs["cell"] < selfs["child"]);
        assert_eq!(r.len(), 2);
    }
}
