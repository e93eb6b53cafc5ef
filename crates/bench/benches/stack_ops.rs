//! E1/E2/E3: persistent-stack push and pop latency on the fixed layout,
//! including the long-frame (multi-cache-line) regime and the cost of
//! buffered vs eager flushing. Each configuration first prints the
//! exact persists and lines of one push and one pop.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pstack_bench::{region, report_push_pop};
use pstack_core::{FixedStack, PersistentStack};
use pstack_nvram::{PMemBuilder, POffset};

fn bench_push_pop_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_ops/push_pop_pair");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // E1+E2: one push immediately undone by one pop, per argument size.
    // Sizes below and above one 64-byte cache line (E3's long frames).
    for arg_len in [0usize, 8, 32, 64, 256, 1024] {
        let pmem = region(1 << 20);
        let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 512 * 1024).unwrap();
        let args = vec![0xA5u8; arg_len];
        let label = format!("stack_ops/push_pop_pair/{arg_len}");
        report_push_pop(&label, &pmem, &mut stack, &args);
        g.bench_with_input(BenchmarkId::from_parameter(arg_len), &arg_len, |b, _| {
            b.iter(|| {
                stack.push(1, &args).unwrap();
                stack.pop().unwrap();
            });
        });
    }
    g.finish();
}

fn bench_push_at_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_ops/push_at_depth");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // Push cost is O(1) in stack depth — the protocol touches only the
    // frame being written and one marker byte.
    for depth in [0usize, 16, 128, 512] {
        let pmem = region(1 << 21);
        let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 1 << 20).unwrap();
        for i in 0..depth {
            stack.push(1, &(i as u64).to_le_bytes()).unwrap();
        }
        let label = format!("stack_ops/push_at_depth/{depth}");
        report_push_pop(&label, &pmem, &mut stack, &[1u8; 16]);
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| {
                stack.push(2, &[1u8; 16]).unwrap();
                stack.pop().unwrap();
            });
        });
    }
    g.finish();
}

fn bench_eager_vs_buffered(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_ops/eager_vs_buffered");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for (name, eager) in [("buffered", false), ("eager", true)] {
        let pmem = PMemBuilder::new()
            .len(1 << 20)
            .eager_flush(eager)
            .build_in_memory();
        let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 512 * 1024).unwrap();
        let label = format!("stack_ops/eager_vs_buffered/{name}");
        report_push_pop(&label, &pmem, &mut stack, &[7u8; 64]);
        g.bench_function(name, |b| {
            b.iter(|| {
                stack.push(1, &[7u8; 64]).unwrap();
                stack.pop().unwrap();
            });
        });
    }
    g.finish();
}

fn bench_line_size_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_ops/line_size_sweep");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // Smaller lines mean more per-line persists for the same frame: the
    // long-frame effect (E3) amplified.
    for line in [16usize, 64, 256] {
        let pmem = PMemBuilder::new()
            .len(1 << 20)
            .line_size(line)
            .build_in_memory();
        let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 512 * 1024).unwrap();
        let label = format!("stack_ops/line_size_sweep/{line}");
        report_push_pop(&label, &pmem, &mut stack, &[9u8; 256]);
        g.bench_with_input(BenchmarkId::from_parameter(line), &line, |b, _| {
            b.iter(|| {
                stack.push(1, &[9u8; 256]).unwrap();
                stack.pop().unwrap();
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_push_pop_pair,
    bench_push_at_depth,
    bench_eager_vs_buffered,
    bench_line_size_sweep
);
criterion_main!(benches);
