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

use std::time::Duration;

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, Comparison, Criterion, Measurement, Throughput,
};
use pstack_bench::report_persist_economy;
use pstack_heap::PHeap;
use pstack_kv::{KvBatchOp, KvVariant, PKvStore};
use pstack_nvram::{PMem, PMemBuilder, POffset};
use pstack_telemetry::{EventKind, TraceSession};

/// Operations recorded to count a workload's hooks.
const COUNTED_OPS: usize = 512;

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

/// Times `op` on `pmem` as row `row`, then prints its persist economy.
fn measure(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    row: &str,
    (pmem, mut op): (PMem, impl FnMut()),
) -> Measurement {
    let before = pmem.stats().snapshot();
    let mut ops = 0u64;
    let m = g.bench_measured(row, |b| {
        b.iter(|| {
            op();
            ops += 1;
        });
    });
    assert_eq!(pmem.psan_violation_count(), 0, "workload is clean");
    let delta = pmem.stats().snapshot() - before;
    report_persist_economy(
        &format!("{name}/{row}"),
        pmem.line_size(),
        delta,
        ops as f64,
    );
    m
}

/// The four rows of one workload; `make(psan)` builds a fresh system
/// and returns its region and one operation.
fn rows<Op: FnMut()>(c: &mut Criterion, workload: &str, make: impl Fn(bool) -> (PMem, Op)) {
    let name = format!("instrumentation/{workload}");
    let mut g = c.benchmark_group(name.as_str());
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g.throughput(Throughput::Elements(1));

    let (pmem, mut op) = make(false);
    let hooks = Hooks::count(&mut op);
    let off = measure(&mut g, &name, "off", (pmem, op));
    let psan = measure(&mut g, &name, "psan", make(true));
    let idle = g.bench_measured("recorder_idle", |b| b.iter(|| hooks.cross()));
    let session = TraceSession::start();
    let recording = measure(&mut g, &name, "recording", make(false));
    drop(session);
    g.finish();

    println!(
        "{name:<55} idle hooks/op: {} spans + {} persist probes + {} fences = {:.1?} \
         ({:.1} % of off)",
        hooks.spans,
        hooks.persists,
        hooks.fences,
        idle.mean,
        100.0 * idle.mean.as_secs_f64() / off.mean.as_secs_f64()
    );
    let vs_off = Comparison::new(name.as_str(), "off", off);
    for (row, m) in [("psan", psan), ("recording", recording)] {
        vs_off.versus(row, m);
        println!(
            "{name:<55} {row} distinguishable from off: {}",
            m.distinguishable_from(&off)
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
