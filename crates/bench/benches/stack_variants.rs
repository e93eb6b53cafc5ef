//! E12: fixed vs resizable-array vs linked-list stacks (Appendix A):
//! steady-state ops, deep growth (amortizing relocations / chaining),
//! and the shrink ablation for the resizable variant. Steady state
//! prints the exact persists and lines of one push and one pop; the
//! growth runs print persists and lines per operation over one run.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pstack_bench::{make_stack, region_with_heap, report_persist_economy, report_push_pop};
use pstack_core::{PersistentStack, StackKind, VecStack};
use pstack_nvram::POffset;

const KINDS: [StackKind; 3] = [StackKind::Fixed, StackKind::Vec, StackKind::List];

fn bench_steady_state(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_variants/steady_push_pop");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // Warm stacks at a fixed depth where no variant needs to grow.
    for kind in KINDS {
        let (pmem, heap) = region_with_heap(1 << 21);
        let mut stack = make_stack(kind, &pmem, &heap, 16 * 1024);
        for i in 0..8u64 {
            stack.push(i, &[0u8; 24]).unwrap();
        }
        let label = format!("stack_variants/steady_push_pop/{kind}");
        report_push_pop(&label, &pmem, stack.as_mut(), &[5u8; 24]);
        g.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, _| {
            b.iter(|| {
                stack.push(99, &[5u8; 24]).unwrap();
                stack.pop().unwrap();
            });
        });
    }
    g.finish();
}

fn bench_deep_growth(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_variants/grow_then_drain");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    // N pushes followed by N pops from tiny initial capacity: the
    // unbounded variants pay their growth machinery (array copies vs
    // block chaining), the fixed variant is the no-growth baseline.
    let setup = |kind| {
        let (pmem, heap) = region_with_heap(1 << 22);
        // Fixed gets full capacity; unbounded start tiny.
        let cap = match kind {
            StackKind::Fixed => 1 << 20,
            _ => 128,
        };
        (make_stack(kind, &pmem, &heap, cap), pmem)
    };
    let run = |stack: &mut dyn PersistentStack, depth: usize| {
        for i in 0..depth {
            stack.push(i as u64, &[0u8; 24]).unwrap();
        }
        for _ in 0..depth {
            stack.pop().unwrap();
        }
    };
    for depth in [64usize, 512] {
        for kind in KINDS {
            let (mut stack, pmem) = setup(kind);
            let before = pmem.stats().snapshot();
            run(stack.as_mut(), depth);
            report_persist_economy(
                &format!("stack_variants/grow_then_drain/{kind}/{depth}"),
                pmem.line_size(),
                pmem.stats().snapshot() - before,
                2.0 * depth as f64,
            );
            let id = BenchmarkId::new(format!("{kind}"), depth);
            g.bench_with_input(id, &(kind, depth), |b, &(kind, depth)| {
                b.iter_with_setup(|| setup(kind).0, |mut stack| run(stack.as_mut(), depth));
            });
        }
    }
    g.finish();
}

fn bench_vec_shrink_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_variants/vec_shrink_ablation");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    // Appendix A.2 shrinks when capacity > 4 × size; measure the cost
    // of that policy against never shrinking.
    for (name, shrink) in [("shrink_on", true), ("shrink_off", false)] {
        g.bench_function(name, |b| {
            b.iter_with_setup(
                || {
                    let (pmem, heap) = region_with_heap(1 << 22);
                    let mut s = VecStack::format(pmem, heap, POffset::new(0), 128).unwrap();
                    s.set_shrink(shrink);
                    s
                },
                |mut stack| {
                    for i in 0..256u64 {
                        stack.push(i, &[0u8; 24]).unwrap();
                    }
                    for _ in 0..256 {
                        stack.pop().unwrap();
                    }
                },
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_steady_state,
    bench_deep_growth,
    bench_vec_shrink_ablation
);
criterion_main!(benches);
