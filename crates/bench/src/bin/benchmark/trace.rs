//! The benchmark-owned span recorder of the traced pass.
//!
//! One span per call into the program (name, start, end, the serving
//! round that caused it, the request ids it carried), kept in memory
//! and written as JSON lines when the run ends. Spans come from
//! *outside* the program — around the calls in `sut.rs` — so a layer's
//! time is what its caller waited for it; spans inside the program are
//! a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The `round` (or `outage`) span that caused this one; 0 for none.
    pub parent: u32,
    /// Request ids (admission, batch windows) or the shard (compaction)
    /// the call carried; a top-level span's own id.
    pub ids: Box<[u64]>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the top-level span of one serving round.
pub const ROUND: &str = "round";
/// Name of the top-level span of one power failure → recovered window.
pub const OUTAGE: &str = "outage";

/// The recorder. A disabled recorder (the end-to-end pass) never reads
/// the clock: `time` just runs the closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// 1-based id of the open top-level span.
    parent: u32,
    tops: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            parent: 0,
            tops: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a top-level span (`ROUND` or `OUTAGE`); spans recorded
    /// until `end_top` name it as their parent.
    pub fn begin_top(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.tops += 1;
        self.parent = self.tops;
        self.now()
    }

    pub fn end_top(&mut self, name: &'static str, start_ns: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            ids: Box::new([self.parent as u64]),
        });
        self.parent = 0;
    }

    /// Runs `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_ids(name, &[], f)
    }

    /// Runs `f` as one span that carried `ids`.
    pub fn time_ids<T>(&mut self, name: &'static str, ids: &[u64], f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.parent,
            ids: ids.into(),
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, over spans that start at or
    /// after `from_ns`.
    pub fn totals_since(&self, from_ns: u64) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.start_ns >= from_ns) {
            *out.entry(s.name).or_default() += s.dur_ns();
        }
        out
    }

    /// Nanoseconds since the recorder's epoch — the clock spans use.
    pub fn clock_ns(&self) -> u64 {
        self.now()
    }

    /// Share of top-level (`ROUND`) wall time covered by child spans:
    /// what is left is the harness's own bookkeeping between calls.
    pub fn round_coverage_since(&self, from_ns: u64) -> f64 {
        let mut rounds = 0u64;
        let mut children = 0u64;
        let mut round_ids = std::collections::HashSet::new();
        for s in self.spans.iter().filter(|s| s.start_ns >= from_ns) {
            if s.name == ROUND {
                rounds += s.dur_ns();
                round_ids.insert(s.ids[0] as u32);
            }
        }
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            if round_ids.contains(&s.parent) {
                children += s.dur_ns();
            }
        }
        if rounds == 0 {
            0.0
        } else {
            children as f64 / rounds as f64
        }
    }

    /// Writes every span as one JSON object per line. A top-level
    /// span's `id` is what its children carry as `parent`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let ids: Vec<String> = s.ids.iter().map(u64::to_string).collect();
            if s.name == ROUND || s.name == OUTAGE {
                writeln!(
                    w,
                    "{{\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name,
                    ids.join(","),
                    s.start_ns,
                    s.end_ns
                )?;
            } else {
                writeln!(
                    w,
                    "{{\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"ids\":[{}]}}",
                    s.name,
                    s.parent,
                    s.start_ns,
                    s.end_ns,
                    ids.join(",")
                )?;
            }
        }
        w.flush()
    }
}
