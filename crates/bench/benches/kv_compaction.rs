//! E18: compaction pause and persist economy of the generational log.
//!
//! Compaction rewrites the **live** heads into a fresh generation and
//! commits with one root swap, so its persist bill must be O(live
//! keys) — one coalesced block flush and two root-cell round-trips —
//! and never O(history). Two views:
//!
//! * `kv_compaction/pause` — wall-clock compaction pause on a buffered
//!   region with an emulated 50 µs per-round-trip persist latency
//!   (persist costs dominate, as on real PM). The sweep crosses live
//!   sets with history depths; the shim's new σ/±(95%) fields say
//!   whether two pauses actually differ, and the `Comparison` lines at
//!   the end show history depth moving the pause far less than live
//!   size.
//! * the **counters** section — persist round-trips, lines persisted
//!   and their per-live-key ratios for each configuration, read
//!   straight from the `PMem` stats (persists/live-key collapses as
//!   the live set grows: the round-trip count is constant and only
//!   lines scale).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Comparison, Criterion, Throughput};
use pstack_heap::PHeap;
use pstack_kv::{KvBatchOp, KvVariant, PKvStore};
use pstack_nvram::{PMem, PMemBuilder, POffset};

/// Emulated per-round-trip persist latency (same knob as the sharded
/// sweep): makes the persist economy visible in wall-clock.
const LATENCY: Duration = Duration::from_micros(50);

/// (live keys, history mutations) grid.
const GRID: [(u64, u64); 3] = [(64, 512), (64, 4096), (512, 4096)];

/// Builds a buffered store holding `hist` published mutations over
/// `live` distinct keys (live set = exactly the `live` keys), ready to
/// compact.
fn build_filled(live: u64, hist: u64, latency: Duration) -> (PMem, PHeap, PKvStore) {
    let log_cap = hist + 16;
    let region_len = (PKvStore::required_len(64, log_cap) * 4 + (1 << 16)).next_power_of_two();
    let pmem = PMemBuilder::new()
        .len(region_len)
        .flush_latency(latency)
        .build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), region_len as u64).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 64, log_cap, KvVariant::Nsrl).unwrap();
    let ops: Vec<KvBatchOp> = (0..hist)
        .map(|i| KvBatchOp::Put {
            pid: 0,
            seq: i + 1,
            key: i % live,
            value: i as i64,
        })
        .collect();
    for chunk in ops.chunks(64) {
        assert!(kv
            .apply_batch(chunk)
            .unwrap()
            .iter()
            .all(|o| o.took_effect()));
    }
    (pmem, heap, kv)
}

fn bench_pause(c: &mut Criterion) {
    let mut measurements = Vec::new();
    {
        let mut g = c.benchmark_group("kv_compaction");
        g.sample_size(10)
            .warm_up_time(Duration::from_millis(50))
            .measurement_time(Duration::from_millis(400));
        for &(live, hist) in &GRID {
            g.throughput(Throughput::Elements(live));
            let m = g.bench_measured(
                BenchmarkId::new("pause", format!("live={live},hist={hist}")),
                |b| {
                    b.iter_with_setup(
                        || build_filled(live, hist, LATENCY),
                        |(_pmem, heap, kv)| kv.compact(&heap).unwrap(),
                    );
                },
            );
            measurements.push((live, hist, m));
        }
        g.finish();
    }

    // History depth must barely move the pause; live size may.
    let find = |live: u64, hist: u64| {
        measurements
            .iter()
            .find(|&&(l, h, _)| l == live && h == hist)
            .map(|&(_, _, m)| m)
            .expect("grid point measured")
    };
    let base = find(64, 512);
    let cmp = Comparison::new("kv_compaction/pause", "live=64,hist=512", base);
    cmp.versus("live=64,hist=4096 (8× history)", find(64, 4096));
    cmp.versus("live=512,hist=4096 (8× live)", find(512, 4096));

    // The counters: the persist bill itself, per live key. No latency
    // here — this is pure accounting.
    println!("\nkv_compaction persist economy (per compaction):");
    for &(live, hist) in &GRID {
        let (pmem, heap, kv) = build_filled(live, hist, Duration::ZERO);
        let before = pmem.stats().snapshot();
        let stats = kv.compact(&heap).unwrap();
        let delta = pmem.stats().snapshot() - before;
        assert_eq!(stats.carried, live);
        println!(
            "  live={live:<4} hist={hist:<5} persists={:<3} lines={:<5} \
             persists/live-key={:.3} lines/live-key={:.2}",
            delta.persists,
            delta.lines_persisted,
            delta.persists as f64 / live as f64,
            delta.lines_persisted as f64 / live as f64,
        );
    }
}

criterion_group!(benches, bench_pause);
criterion_main!(benches);
