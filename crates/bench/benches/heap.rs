//! E16: persistent-heap allocator costs — the substrate every unbounded
//! stack block, big return value and recoverable object sits on.
//!
//! * `heap/alloc_free_pair` — steady-state cost of one allocation
//!   immediately freed, by size class.
//! * `heap/open_rebuild` — the recovery-boot cost of rebuilding the
//!   volatile free list by walking block headers, as a function of how
//!   fragmented the heap is (the design trades this walk for having no
//!   persistent free-list pointers to corrupt).
//! * `heap/alloc_aligned` — cache-line-aligned allocations (the path
//!   all §5 objects use so their cells never straddle lines).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pstack_bench::region;
use pstack_heap::PHeap;
use pstack_nvram::POffset;

fn bench_alloc_free_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap/alloc_free_pair");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for size in [32usize, 256, 4096, 65536] {
        let pmem = region(1 << 24);
        let heap = PHeap::format(pmem, POffset::new(0), 1 << 24).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                let p = heap.alloc(size).unwrap();
                heap.free(p).unwrap();
            });
        });
    }
    g.finish();
}

fn bench_open_rebuild(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap/open_rebuild");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for live_blocks in [16usize, 256, 2048] {
        let pmem = region(1 << 24);
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 24).unwrap();
        // Fragment the heap: allocate 2N blocks, free every other one.
        let blocks: Vec<_> = (0..live_blocks * 2)
            .map(|_| heap.alloc(128).unwrap())
            .collect();
        for chunk in blocks.chunks(2) {
            heap.free(chunk[0]).unwrap();
        }
        g.bench_with_input(
            BenchmarkId::from_parameter(live_blocks),
            &live_blocks,
            |b, _| {
                b.iter(|| {
                    let reopened = PHeap::open(pmem.clone(), POffset::new(0)).unwrap();
                    std::hint::black_box(reopened.stats());
                });
            },
        );
    }
    g.finish();
}

fn bench_alloc_aligned(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap/alloc_aligned");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let pmem = region(1 << 24);
    let heap = PHeap::format(pmem, POffset::new(0), 1 << 24).unwrap();
    g.bench_function("64B_align", |b| {
        b.iter(|| {
            let p = heap.alloc_aligned(256, 64).unwrap();
            assert!(p.is_aligned(64));
            heap.free(p).unwrap();
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_alloc_free_pair,
    bench_open_rebuild,
    bench_alloc_aligned
);
criterion_main!(benches);
