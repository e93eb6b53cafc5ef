//! What the flight recorder costs when it rides along.
//!
//! The recorder has three cost regimes, and this bench pins each one:
//!
//! * **compiled out** (`--no-default-features`): every hook is a
//!   `const false` branch the optimizer deletes. Building this bench
//!   in that mode *is* the proof — the hooks are in the measured hot
//!   paths, so if anything survived compilation it would show against
//!   the `psan_overhead` baselines. The header line prints
//!   `compiled = false` and the "recording" rows collect nothing.
//! * **idle** (compiled in, no [`TraceSession`] active): each hook is
//!   one relaxed atomic load and a branch. This is the tax every
//!   default build pays on writes, flushes, fences and KV puts.
//! * **recording** (a session active): timestamp read + a seqlock ring
//!   push per event. This is what campaigns pay for a timeline.
//!
//! Workloads mirror `psan_overhead` so the columns line up: the raw
//! write→flush→fence persist cycle, and the KV put path (which also
//! crosses the `op_label` span hooks).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pstack_heap::PHeap;
use pstack_kv::{KvBatchOp, KvVariant, PKvStore};
use pstack_nvram::{PMemBuilder, POffset};
use pstack_telemetry::TraceSession;

/// Runs `body` once with the recorder idle and once inside an active
/// trace session (a no-op pair when the recorder is compiled out).
fn with_modes(mut body: impl FnMut(&str)) {
    body("idle");
    let session = TraceSession::start();
    body("recording");
    let snap = session.finish();
    let events: usize = snap.threads.iter().map(|t| t.events.len()).sum();
    println!("  recording mode captured {events} events");
}

/// write → flush → fence over a 64-line window: the minimal persist
/// cycle; the flush and fence paths carry recorder hooks.
fn bench_raw_persist(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead/raw_persist");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g.throughput(Throughput::Elements(1));
    with_modes(|mode| {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let window = 64 * pmem.line_size() as u64;
        let mut off = 0u64;
        g.bench_function(mode, |b| {
            b.iter(|| {
                let at = POffset::new(off);
                pmem.write_u64(at, off).unwrap();
                pmem.flush(at, 8).unwrap();
                pmem.fence();
                off = (off + pmem.line_size() as u64) % window;
            });
        });
    });
    g.finish();
}

/// The KV put path: spans (via the op label), persist probes, and the
/// log append — the recorder's densest hot path.
fn bench_kv_put(c: &mut Criterion) {
    // Sized like psan_overhead's kv_put: the log must absorb warm-up
    // plus every sample without a mid-measurement rebuild.
    const LOG_CAP: u64 = 3_000_000;
    const KEYS: u64 = 1024;
    let mut g = c.benchmark_group("telemetry_overhead/kv_put");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g.throughput(Throughput::Elements(1));
    with_modes(|mode| {
        let len = 1usize << 28;
        let pmem = PMemBuilder::new().len(len).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), len as u64).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 256, LOG_CAP, KvVariant::Nsrl).unwrap();
        let mut seq = 0u64;
        g.bench_function(mode, |b| {
            b.iter(|| {
                seq += 1;
                let put = KvBatchOp::Put {
                    pid: 0,
                    seq,
                    key: seq % KEYS,
                    value: seq as i64,
                };
                assert!(
                    kv.apply_batch(&[put]).unwrap()[0].took_effect(),
                    "log sized too small"
                );
            });
        });
    });
    g.finish();
}

/// The bare hooks, isolated: a span enter/exit pair per iteration.
/// Idle mode is the per-call tax every instrumented function pays in a
/// default build; compiled-out builds optimize the closure to nothing.
fn bench_span_hook(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead/span_hook");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));
    g.throughput(Throughput::Elements(1));
    with_modes(|mode| {
        g.bench_function(mode, |b| {
            b.iter(|| {
                let _span = pstack_telemetry::span("bench.span_hook");
            });
        });
    });
    g.finish();
}

fn bench_header(_c: &mut Criterion) {
    println!(
        "telemetry_overhead: recorder compiled = {}",
        pstack_telemetry::compiled()
    );
}

criterion_group!(
    benches,
    bench_header,
    bench_raw_persist,
    bench_kv_put,
    bench_span_hook
);
criterion_main!(benches);
