//! What the persist-order sanitizer costs when it rides along.
//!
//! PSan shadows every `PMem` access with a per-line state machine, so
//! its overhead lands exactly on the hot paths the other benches
//! measure: writes, flushes, fences and KV puts. This bench runs the
//! same workloads with shadow tracking off and on — the off rows are
//! the baseline every other bench reports (campaign configs leave
//! `psan: false` here), the on rows are the price of running the
//! sanitizer always-on in tests and campaigns.
//!
//! The workloads are violation-free by construction, so the cost shown
//! is pure bookkeeping: shadow-line transitions plus the durable-set
//! updates at fence time. A final stats line per configuration reports
//! the persist economy (identical across off/on — PSan observes, it
//! never adds persists).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pstack_bench::report_persist_economy;
use pstack_heap::PHeap;
use pstack_kv::{KvBatchOp, KvVariant, PKvStore};
use pstack_nvram::{PMem, PMemBuilder, POffset};

fn region(len: usize, psan: bool) -> PMem {
    PMemBuilder::new().len(len).psan(psan).build_in_memory()
}

/// write → flush → fence over a 64-line window: the minimal persist
/// cycle, every step of which PSan shadows.
fn bench_raw_persist(c: &mut Criterion) {
    let mut g = c.benchmark_group("psan_overhead/raw_persist");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g.throughput(Throughput::Elements(1));
    for (tracking, psan) in [("psan_off", false), ("psan_on", true)] {
        let pmem = region(1 << 20, psan);
        let window = 64 * pmem.line_size() as u64;
        let mut off = 0u64;
        g.bench_function(tracking, |b| {
            b.iter(|| {
                let at = POffset::new(off);
                pmem.write_u64(at, off).unwrap();
                pmem.flush(at, 8).unwrap();
                pmem.fence();
                off = (off + pmem.line_size() as u64) % window;
            });
        });
        assert_eq!(pmem.psan_violation_count(), 0, "workload is clean");
    }
    g.finish();
}

/// The KV put path: log append + bucket publish, the workload the
/// campaign gates run under PSan.
fn bench_kv_put(c: &mut Criterion) {
    // The log is sized so warm-up plus measurement never exhaust it: a
    // mid-measurement generation rebuild would bill one sample for the
    // whole re-format and swamp the per-put signal.
    const LOG_CAP: u64 = 3_000_000;
    const KEYS: u64 = 1024;
    let mut g = c.benchmark_group("psan_overhead/kv_put");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g.throughput(Throughput::Elements(1));
    for (tracking, psan) in [("psan_off", false), ("psan_on", true)] {
        let len = 1usize << 28;
        let pmem = region(len, psan);
        let heap = PHeap::format(pmem.clone(), POffset::new(0), len as u64).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 256, LOG_CAP, KvVariant::Nsrl).unwrap();
        let mut seq = 0u64;
        let before = pmem.stats().snapshot();
        g.bench_function(tracking, |b| {
            b.iter(|| {
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
            });
        });
        let delta = pmem.stats().snapshot() - before;
        assert_eq!(pmem.psan_violation_count(), 0, "workload is clean");
        report_persist_economy(
            &format!("psan_overhead/kv_put/{tracking}"),
            pmem.line_size(),
            delta,
            seq as f64,
        );
    }
    g.finish();
}

criterion_group!(benches, bench_raw_persist, bench_kv_put);
criterion_main!(benches);
