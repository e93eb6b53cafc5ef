//! E17: sharded-KV thread-scaling sweep and group-commit ablation.
//!
//! Writes to a persistent store are **persist-latency-bound**: the
//! device charges a round-trip per persist (the paper's evaluation
//! emulates NVRAM with an HDD-backed mmap for exactly this reason).
//! The sweeps therefore run the in-memory backend with an emulated
//! per-round-trip `flush_latency`, which makes the scaling levers
//! measurable in wall-clock regardless of host core count:
//!
//! * **Sharding** multiplies persist channels — each shard's region is
//!   its own device, so `N` shards overlap `N` round-trips;
//! * **group commit** divides round-trips — a batch persists all its
//!   records (and the log tail and heads) in two round-trips instead
//!   of ≥ 2 per mutation.
//!
//! Benchmarks:
//!
//! * `kv_sharded/scale_puts_batched` — aggregate write throughput at
//!   1/2/4/8 threads × 1/4/8 shards with group commits of 16: the two
//!   levers compound. Ends with a `Comparison` ratio line (shim format
//!   in README).
//! * `kv_sharded/group_commit` — single-shard batch-size ablation:
//!   wall-clock next to persist round-trips, lines and coalesced
//!   bytes per mutation, read straight from the `PMem` stats
//!   counters (visible even on DRAM, where wall-clock barely moves).

//! * `kv_sharded/runtime_driven` — the same batched write workload
//!   driven directly versus as `StripedRuntime` batch-window tasks
//!   over a preloaded request table — the served path's own executor,
//!   `KvServeFunction` (one persistent frame + one coalesced answer
//!   persist per window on top of each group commit): the price of
//!   putting the stack on the sharded hot path.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Comparison, Criterion, Measurement, Throughput};
use pstack_core::{RuntimeConfig, StripedRuntime};
use pstack_heap::PHeap;
use pstack_kv::{KvBatchOp, KvServeFunction, KvTaskOp, KvVariant, PKvStore, ShardedKvStore};
use pstack_nvram::{PMemBuilder, POffset};

/// Emulated per-round-trip persist latency for the scaling sweeps.
const LATENCY: Duration = Duration::from_micros(50);

/// Puts per writer thread in the latency-bound sweeps.
const OPS_PER_THREAD: u64 = 48;

fn fresh_store(shards: usize, threads: u64) -> ShardedKvStore {
    let total = threads * OPS_PER_THREAD;
    // Keys spread ~uniformly; 3× headroom absorbs shard skew.
    let log_cap = (total / shards as u64) * 3 + 64;
    let region_len = (PKvStore::required_len(1024, log_cap) + (1 << 16)).next_power_of_two();
    let stripe = PMemBuilder::new()
        .len(region_len)
        .flush_latency(LATENCY)
        .build_striped(shards);
    ShardedKvStore::format(stripe.regions(), 1024, log_cap, KvVariant::Nsrl).unwrap()
}

/// `threads` writers, each putting `OPS_PER_THREAD` distinct keys of
/// its own shard (`thread % shards` — the shard-affine partitioning a
/// fronting router gives a sharded store, and what the crash campaign
/// workers do), group-committed through `KvBatch` in batches of
/// `batch` — `batch = 1` is what a per-op put is, a group commit of one.
fn run_writers(kv: &ShardedKvStore, threads: u64, batch: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let kv = kv.clone();
            s.spawn(move || {
                let own = (t as usize) % kv.nshards();
                let keys: Vec<u64> = (0u64..)
                    .filter(|&k| kv.shard_of(k) == own)
                    .skip((t as usize / kv.nshards()) * OPS_PER_THREAD as usize)
                    .take(OPS_PER_THREAD as usize)
                    .collect();
                let mut seq = 0u64;
                for chunk in keys.chunks(batch) {
                    let mut b = kv.batch();
                    for &key in chunk {
                        seq += 1;
                        b.put(t, seq, key, key as i64);
                    }
                    assert!(b.commit().unwrap().iter().all(|o| o.took_effect()));
                }
            });
        }
    });
}

fn sweep(c: &mut Criterion, name: &str, batch: usize) -> Vec<(usize, u64, Measurement)> {
    let mut g = c.benchmark_group(format!("kv_sharded/{name}"));
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let mut out = Vec::new();
    for shards in [1usize, 4, 8] {
        for threads in [1u64, 2, 4, 8] {
            g.throughput(Throughput::Elements(threads * OPS_PER_THREAD));
            let m = g.bench_measured(format!("s{shards}_t{threads}"), |b| {
                b.iter_with_setup(
                    || fresh_store(shards, threads),
                    |kv| run_writers(&kv, threads, batch),
                );
            });
            out.push((shards, threads, m));
        }
    }
    g.finish();
    out
}

fn find(ms: &[(usize, u64, Measurement)], shards: usize, threads: u64) -> Measurement {
    ms.iter()
        .find(|&&(s, t, _)| s == shards && t == threads)
        .map(|&(_, _, m)| m)
        .expect("measured configuration")
}

fn bench_scaling_batched(c: &mut Criterion) {
    let batched = sweep(c, "scale_puts_batched", 16);
    let cmp = Comparison::new(
        "kv_sharded/scale_puts_batched",
        "1 shard x 4 threads",
        find(&batched, 1, 4),
    );
    cmp.versus("4 shards x 4 threads", find(&batched, 4, 4));
}

fn bench_group_commit(c: &mut Criterion) {
    const N: u64 = 512;
    let mut g = c.benchmark_group("kv_sharded/group_commit");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    g.throughput(Throughput::Elements(N));

    let build = || {
        let pmem = PMemBuilder::new()
            .len(1 << 20)
            .flush_latency(LATENCY)
            .build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 20).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 256, N + 64, KvVariant::Nsrl).unwrap();
        (pmem, kv)
    };
    let workload = |kv: &PKvStore, batch: usize| {
        let ops: Vec<KvBatchOp> = (0..N)
            .map(|key| KvBatchOp::Put {
                pid: 0,
                seq: key + 1,
                key,
                value: key as i64,
            })
            .collect();
        for chunk in ops.chunks(batch) {
            assert!(kv
                .apply_batch(chunk)
                .unwrap()
                .iter()
                .all(|o| o.took_effect()));
        }
    };

    // Every group commit issues its record and log-tail persists as two
    // overlapping flights.
    for batch in [1usize, 8, 16, 64] {
        let name = format!("buffered_batch{batch}");
        g.bench_function(name.clone(), |b| {
            b.iter_with_setup(build, |(_, kv)| workload(&kv, batch));
        });
        // Instrumented pass: the persist economy of this config, from
        // the region's own counters.
        let (pmem, kv) = build();
        let before = pmem.stats().snapshot();
        workload(&kv, batch);
        let d = pmem.stats().snapshot() - before;
        pstack_bench::report_persist_economy(
            &format!("kv_sharded/group_commit/{name}"),
            pmem.line_size(),
            d,
            N as f64,
        );
    }
    g.finish();
}

/// E18: the persistent stack on the sharded hot path. Direct-drive
/// group commits versus the identical workload running as
/// `StripedRuntime` batch-window tasks — each window pays a frame
/// push/pop on the worker's persistent stack and one coalesced
/// answer-table persist on top of its group commit.
fn bench_runtime_driven(c: &mut Criterion) {
    const SHARDS: usize = 4;
    const THREADS: u64 = 4;
    const BATCH: usize = 16;
    let total = THREADS * OPS_PER_THREAD;
    let mut g = c.benchmark_group("kv_sharded/runtime_driven");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    g.throughput(Throughput::Elements(total));

    let direct = g.bench_measured("direct_batched", |b| {
        b.iter_with_setup(
            || fresh_store(SHARDS, THREADS),
            |kv| run_writers(&kv, THREADS, BATCH),
        );
    });

    let build_runtime = || {
        let log_cap = total / SHARDS as u64 * 3 + 64;
        let region_len = (PKvStore::required_len(1024, log_cap) + (1 << 17)).next_power_of_two();
        let stripe = PMemBuilder::new()
            .len(region_len)
            .flush_latency(LATENCY)
            .build_striped(SHARDS);
        let store = ShardedKvStore::format(stripe.regions(), 1024, log_cap, KvVariant::Nsrl)
            .expect("store formats");
        let ops: Vec<KvTaskOp> = (0..total)
            .map(|key| KvTaskOp::Put {
                key,
                value: key as i64,
            })
            .collect();
        let exec = KvServeFunction::preload(store, &ops).expect("tables preload");
        let tasks = exec.pending_tasks(BATCH).expect("pending tasks");
        let registry = exec.registry().expect("function registers");
        // The control region is not latency-emulated: the comparison
        // isolates the stack's persist traffic, not a slower device.
        let control = PMemBuilder::new().len(1 << 20).build_in_memory();
        let rt = StripedRuntime::format(
            control,
            stripe,
            RuntimeConfig::new(THREADS as usize).stack_capacity(8 * 1024),
            &registry,
        )
        .expect("runtime formats");
        (rt, tasks)
    };
    let runtime = g.bench_measured("runtime_batched", |b| {
        b.iter_with_setup(build_runtime, |(rt, tasks)| {
            let report = rt.run_tasks(tasks);
            assert!(!report.crashed && report.task_errors == 0);
        });
    });
    g.finish();

    let cmp = Comparison::new("kv_sharded/runtime_driven", "direct group commits", direct);
    cmp.versus("StripedRuntime batch windows", runtime);
}

criterion_group!(
    benches,
    bench_scaling_batched,
    bench_group_commit,
    bench_runtime_driven
);
criterion_main!(benches);
