//! What the two instruments cost: the persist-order sanitizer (PSan)
//! and the flight recorder.
//!
//! Both are compiled into every build and switched at run time: PSan
//! per region (`PMemBuilder::psan`), the recorder by a live
//! [`TraceSession`]. Each workload runs four rows:
//!
//! * **off** — PSan off, no session: what every build runs and the
//!   baseline the other benches report. The recorder's hooks are in
//!   it, idle.
//! * **psan** — every access shadowed by PSan's per-line state
//!   machine, plus the durable-set updates at fence time. The
//!   workloads are violation-free, so this is pure bookkeeping.
//! * **recorder_idle** — the recorder hooks one `off` operation
//!   crosses (counted from a recorded run), called alone with no
//!   session: each is one relaxed atomic load and a branch. Its time
//!   is the idle-hook share of `off`, measured.
//! * **recording** — PSan off inside a session: a timestamp and a
//!   seqlock ring push per event, what a campaign pays for its
//!   timeline.
//!
//! The workloads: the raw write → flush → fence persist cycle over a
//! 64-line window, and the KV put path (a group commit of one, which
//! also crosses the `op_label` spans). Each row prints its persist
//! economy, identical across rows: neither instrument adds a persist.
//!
//! A row's mean moves between runs by more than one run's confidence
//! interval on a shared host, so every row runs [`RUNS`] times, the
//! four rows alternated run by run, and prints the median and the
//! min–max of its per-run means. A row is distinguishable from `off`
//! only when those ranges do not overlap.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use pstack_bench::report_persist_economy;
use pstack_heap::PHeap;
use pstack_kv::{KvBatchOp, KvVariant, PKvStore};
use pstack_nvram::{PMem, PMemBuilder, POffset, StatsSnapshot};
use pstack_telemetry::{EventKind, TraceSession};

/// Operations recorded to count a workload's hooks.
const COUNTED_OPS: usize = 512;

/// Alternated runs of every row.
const RUNS: usize = 5;

/// The recorder hooks one operation crosses, by kind.
#[derive(Debug, Default)]
struct Hooks {
    spans: usize,
    persists: usize,
    fences: usize,
}

impl Hooks {
    /// Records [`COUNTED_OPS`] calls of `op` and rounds the events to a
    /// count per call.
    fn count(op: &mut impl FnMut()) -> Self {
        let session = TraceSession::start();
        for _ in 0..COUNTED_OPS {
            op();
        }
        let mut total = Hooks::default();
        for event in session.finish().threads.iter().flat_map(|t| &t.events) {
            match event.kind {
                EventKind::SpanEnter { .. } => total.spans += 1,
                EventKind::Persist { .. } => total.persists += 1,
                EventKind::Fence { .. } => total.fences += 1,
                _ => {}
            }
        }
        let per_op = |n: usize| (n + COUNTED_OPS / 2) / COUNTED_OPS;
        Hooks {
            spans: per_op(total.spans),
            persists: per_op(total.persists),
            fences: per_op(total.fences),
        }
    }

    /// Calls the same hooks with nothing around them.
    fn cross(&self) {
        for _ in 0..self.spans {
            let _span = pstack_telemetry::span("bench.idle");
        }
        for _ in 0..self.persists {
            pstack_telemetry::persist_probe().record(0, 1);
        }
        for _ in 0..self.fences {
            pstack_telemetry::fence_event(0);
        }
    }
}

fn region(len: usize, psan: bool) -> PMem {
    PMemBuilder::new().len(len).psan(psan).build_in_memory()
}

/// The per-run means of one row.
#[derive(Debug, Default)]
struct Spread(Vec<Duration>);

impl Spread {
    fn median(&self) -> Duration {
        let mut means = self.0.clone();
        means.sort();
        means[means.len() / 2]
    }

    fn range(&self) -> (Duration, Duration) {
        let min = self.0.iter().min().copied().unwrap_or_default();
        (min, self.0.iter().max().copied().unwrap_or_default())
    }

    /// `true` when the two rows' min–max ranges of per-run means do
    /// not overlap: the difference outlasts the host's drift between
    /// runs, not only one run's sampling noise.
    fn distinguishable_from(&self, other: &Spread) -> bool {
        let ((lo, hi), (other_lo, other_hi)) = (self.range(), other.range());
        hi < other_lo || other_hi < lo
    }
}

/// One timed row: its system, its operation, and what the runs so far
/// measured and cost.
struct Row<Op> {
    label: &'static str,
    pmem: PMem,
    op: Op,
    before: StatsSnapshot,
    ops: u64,
    means: Spread,
}

impl<Op: FnMut()> Row<Op> {
    fn new(label: &'static str, (pmem, op): (PMem, Op)) -> Self {
        let before = pmem.stats().snapshot();
        Row {
            label,
            pmem,
            op,
            before,
            ops: 0,
            means: Spread::default(),
        }
    }

    /// One run of the row.
    fn run(&mut self, g: &mut BenchmarkGroup<'_>) {
        let (op, ops) = (&mut self.op, &mut self.ops);
        let m = g.bench_measured(self.label, |b| {
            b.iter(|| {
                op();
                *ops += 1;
            });
        });
        assert_eq!(self.pmem.psan_violation_count(), 0, "workload is clean");
        self.means.0.push(m.mean);
    }

    /// Prints the row's persist economy over every run.
    fn report_economy(&self, name: &str) {
        let delta = self.pmem.stats().snapshot() - self.before;
        report_persist_economy(
            &format!("{name}/{}", self.label),
            self.pmem.line_size(),
            delta,
            self.ops as f64,
        );
    }
}

/// The four rows of one workload, alternated over [`RUNS`] runs;
/// `make(psan)` builds a fresh system and returns its region and one
/// operation.
fn rows<Op: FnMut()>(c: &mut Criterion, workload: &str, make: impl Fn(bool) -> (PMem, Op)) {
    let name = format!("instrumentation/{workload}");
    let mut g = c.benchmark_group(name.as_str());
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));
    g.throughput(Throughput::Elements(1));

    let (pmem, mut op) = make(false);
    let hooks = Hooks::count(&mut op);
    let mut off = Row::new("off", (pmem, op));
    let mut psan = Row::new("psan", make(true));
    let mut recording = Row::new("recording", make(false));
    let mut idle = Spread::default();
    for _ in 0..RUNS {
        off.run(&mut g);
        psan.run(&mut g);
        idle.0.push(
            g.bench_measured("recorder_idle", |b| b.iter(|| hooks.cross()))
                .mean,
        );
        let session = TraceSession::start();
        recording.run(&mut g);
        drop(session);
    }
    g.finish();

    for row in [&off, &psan, &recording] {
        row.report_economy(&name);
    }
    for (label, spread) in [
        ("off", &off.means),
        ("psan", &psan.means),
        ("recorder_idle", &idle),
        ("recording", &recording.means),
    ] {
        let (lo, hi) = spread.range();
        println!(
            "{name:<55} {label}: median {:.1?}, per-run means {lo:.1?}–{hi:.1?} over {RUNS} runs",
            spread.median()
        );
    }
    println!(
        "{name:<55} idle hooks/op: {} spans + {} persist probes + {} fences = {:.1?} \
         ({:.1} % of off, medians)",
        hooks.spans,
        hooks.persists,
        hooks.fences,
        idle.median(),
        100.0 * idle.median().as_secs_f64() / off.means.median().as_secs_f64()
    );
    for row in [&psan, &recording] {
        println!(
            "{name:<55} {} vs off: x{:.2} (medians), distinguishable from off: {}",
            row.label,
            off.means.median().as_secs_f64() / row.means.median().as_secs_f64(),
            row.means.distinguishable_from(&off.means)
        );
    }
}

/// write → flush → fence over a 64-line window: the minimal persist
/// cycle, every step of which both instruments see.
fn bench_raw_persist(c: &mut Criterion) {
    rows(c, "raw_persist", |psan| {
        let pmem = region(1 << 20, psan);
        let window = 64 * pmem.line_size() as u64;
        let mut off = 0u64;
        let cycle = pmem.clone();
        let op = move || {
            let at = POffset::new(off);
            cycle.write_u64(at, off).unwrap();
            cycle.flush(at, 8).unwrap();
            cycle.fence();
            off = (off + cycle.line_size() as u64) % window;
        };
        (pmem, op)
    });
}

/// The KV put path: log append and bucket publish under the op label,
/// the workload the campaign gates run.
fn bench_kv_put(c: &mut Criterion) {
    // The log is sized so the hook count, warm-up and measurement never
    // exhaust it: a mid-measurement generation rebuild would bill one
    // sample for the whole re-format and swamp the per-put signal.
    const LOG_CAP: u64 = 3_000_000;
    const KEYS: u64 = 1024;
    rows(c, "kv_put", |psan| {
        let len = 1usize << 28;
        let pmem = region(len, psan);
        let heap = PHeap::format(pmem.clone(), POffset::new(0), len as u64).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 256, LOG_CAP, KvVariant::Nsrl).unwrap();
        let mut seq = 0u64;
        let op = move || {
            seq += 1;
            let put = KvBatchOp::Put {
                pid: 1,
                seq,
                key: seq % KEYS,
                value: seq as i64,
            };
            assert!(
                kv.apply_batch(&[put]).unwrap()[0].took_effect(),
                "log sized too small"
            );
        };
        (pmem, op)
    });
}

criterion_group!(benches, bench_raw_persist, bench_kv_put);
criterion_main!(benches);
