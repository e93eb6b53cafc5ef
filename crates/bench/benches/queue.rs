//! E15: recoverable-queue operation and recovery-scan costs.
//!
//! * `queue/enqueue_dequeue_pair` — steady-state cost of one enqueue
//!   immediately consumed by one dequeue (slot CAS + counter help, each
//!   flushed as it lands).
//! * `queue/recover_scan` — the price of the NSRL evidence scan as a
//!   function of how many slots are already occupied: recovery is
//!   linear in the touched prefix, which is the design trade-off for
//!   needing no helping matrix.
//! * `queue/contended_throughput` — items moved per second with 4
//!   producers and 2 consumers racing on one queue.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pstack_bench::region;
use pstack_heap::PHeap;
use pstack_nvram::POffset;
use pstack_recoverable::{QueueVariant, RecoverableQueue};

fn fixture(len: usize) -> PHeap {
    PHeap::format(region(len), POffset::new(0), len as u64).unwrap()
}

fn bench_enqueue_dequeue_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue/enqueue_dequeue_pair");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // The queue is a bounded log, so give the benchmark a large slot
    // budget and reformat when it runs out.
    let heap = fixture(1 << 26);
    let capacity = 400_000u64;
    let queue =
        RecoverableQueue::format(heap.pmem().clone(), &heap, capacity, QueueVariant::Nsrl).unwrap();
    let mut seq = 0u64;
    g.bench_function("nsrl", |b| {
        b.iter(|| {
            seq += 1;
            if seq * 2 >= capacity {
                // Out of slots: this bench measures steady state, not
                // capacity exhaustion; stop enqueueing past the end.
                seq = capacity / 2;
            }
            let _ = queue.enqueue(0, seq, seq as i64).unwrap();
            let _ = queue.dequeue(1, seq).unwrap();
        });
    });
    g.finish();
}

fn bench_recover_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue/recover_scan");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for occupied in [16u64, 256, 4096] {
        let heap = fixture(1 << 24);
        let queue =
            RecoverableQueue::format(heap.pmem().clone(), &heap, occupied + 8, QueueVariant::Nsrl)
                .unwrap();
        for i in 0..occupied {
            queue.enqueue(0, i + 1, i as i64).unwrap();
        }
        g.bench_with_input(BenchmarkId::from_parameter(occupied), &occupied, |b, _| {
            b.iter(|| {
                // Recover an operation that *did* linearize (tag found
                // at the end of the scan — the worst case).
                let done = queue.recover_enqueue(0, occupied, 0).unwrap();
                assert!(done);
            });
        });
    }
    g.finish();
}

fn bench_contended_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue/contended_throughput");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let items_per_producer = 128u64;
    let producers = 4u64;
    g.throughput(Throughput::Elements(items_per_producer * producers));
    g.bench_function("4p2c", |b| {
        b.iter(|| {
            let heap = fixture(1 << 22);
            let queue = RecoverableQueue::format(
                heap.pmem().clone(),
                &heap,
                items_per_producer * producers,
                QueueVariant::Nsrl,
            )
            .unwrap();
            std::thread::scope(|s| {
                for p in 0..producers {
                    let queue = queue.clone();
                    s.spawn(move || {
                        for i in 0..items_per_producer {
                            queue.enqueue(p, i + 1, (p * 1000 + i) as i64).unwrap();
                        }
                    });
                }
                for cid in 0..2u64 {
                    let queue = queue.clone();
                    s.spawn(move || {
                        let mut got = 0u64;
                        let mut seq = 0u64;
                        while got < items_per_producer * producers / 2 {
                            seq += 1;
                            if queue.dequeue(100 + cid, seq).unwrap().is_some() {
                                got += 1;
                            }
                        }
                    });
                }
            });
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_enqueue_dequeue_pair,
    bench_recover_scan,
    bench_contended_throughput
);
criterion_main!(benches);
