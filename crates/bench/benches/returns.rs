//! E14: return-value paths (§4.2) — small results through the frame's
//! return slot vs big results through a preallocated NVRAM heap cell.
//! Each configuration first prints the exact persists and lines of one
//! call.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pstack_bench::report_exact_counts;
use pstack_core::{FunctionRegistry, PContext, Runtime, RuntimeConfig};
use pstack_heap::PHeap;
use pstack_nvram::{PMemBuilder, POffset};

const SMALL_RET: u64 = 1;
const BIG_RET: u64 = 2;

fn registry(big_len: usize) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    // Small: 8 bytes through the caller-frame slot.
    reg.register_pair(
        SMALL_RET,
        |_c, _a| Ok(Some(0xABCD_u64.to_le_bytes())),
        |_c, _a| Ok(Some(0xABCD_u64.to_le_bytes())),
    )
    .unwrap();
    // Big: callee persists `big_len` bytes into the heap cell whose
    // offset arrives in the arguments.
    let body = move |c: &mut PContext<'_>, args: &[u8]| {
        let cell = POffset::new(u64::from_le_bytes(args[..8].try_into().unwrap()));
        let payload = vec![0x77u8; big_len];
        c.pmem.write(cell, &payload)?;
        c.pmem.flush(cell, payload.len())?;
        Ok(None)
    };
    reg.register_pair(BIG_RET, body, body).unwrap();
    reg
}

fn bench_return_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("returns/path");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    // Small value: one nested call returning through the slot.
    {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry(64);
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &reg).unwrap();
        let mut stack = rt.open_stack(0).unwrap();
        let heap = rt.heap().clone();
        let user_root = rt.user_root().unwrap();
        // The routine runs once per sample; its counts are printed once.
        let mut counted = false;
        g.bench_function("small_on_stack", |b| {
            let mut ctx = PContext::new(
                pmem.clone(),
                heap.clone(),
                rt.registry(),
                stack.as_mut(),
                0,
                user_root,
            );
            if !std::mem::replace(&mut counted, true) {
                report_exact_counts("returns/path/small_on_stack call", &pmem, || {
                    ctx.call(SMALL_RET, &[]).unwrap();
                });
            }
            b.iter(|| {
                let r = ctx.call(SMALL_RET, &[]).unwrap();
                assert_eq!(r, Some(0xABCD_u64.to_le_bytes()));
            });
        });
    }

    // Big values: the caller allocates the cell once and reuses it, so
    // the measurement isolates the write/flush of the result itself.
    for big_len in [64usize, 256, 1024] {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry(big_len);
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &reg).unwrap();
        let cell = rt.heap().alloc(big_len).unwrap();
        let mut stack = rt.open_stack(0).unwrap();
        let heap = rt.heap().clone();
        let user_root = rt.user_root().unwrap();
        let id = BenchmarkId::new("big_in_heap", big_len);
        let mut counted = false;
        g.bench_with_input(id, &big_len, |b, _| {
            let mut ctx = PContext::new(
                pmem.clone(),
                heap.clone(),
                rt.registry(),
                stack.as_mut(),
                0,
                user_root,
            );
            let args = cell.get().to_le_bytes().to_vec();
            if !std::mem::replace(&mut counted, true) {
                let label = format!("returns/path/big_in_heap/{big_len} call");
                report_exact_counts(&label, &pmem, || {
                    ctx.call(BIG_RET, &args).unwrap();
                });
            }
            b.iter(|| {
                ctx.call(BIG_RET, &args).unwrap();
            });
        });
    }
    g.finish();
}

fn bench_nested_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("returns/nested_call_depth");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    // A recursive function returning values back up D persistent frames.
    const RECURSE: u64 = 3;
    for depth in [4u64, 16, 64] {
        let pmem = PMemBuilder::new().len(1 << 21).build_in_memory();
        let mut reg = FunctionRegistry::new();
        let body = |c: &mut PContext<'_>, args: &[u8]| {
            let d = u64::from_le_bytes(args[..8].try_into().unwrap());
            if d == 0 {
                return Ok(Some(1u64.to_le_bytes()));
            }
            let r = c.call(RECURSE, &(d - 1).to_le_bytes())?.unwrap();
            let v = u64::from_le_bytes(r) + 1;
            Ok(Some(v.to_le_bytes()))
        };
        reg.register_pair(RECURSE, body, body).unwrap();
        let rt = Runtime::format(
            pmem.clone(),
            RuntimeConfig::new(1).stack_capacity(64 * 1024),
            &reg,
        )
        .unwrap();
        let heap: PHeap = rt.heap().clone();
        let user_root = rt.user_root().unwrap();
        let mut stack = rt.open_stack(0).unwrap();
        let mut counted = false;
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let mut ctx = PContext::new(
                pmem.clone(),
                heap.clone(),
                rt.registry(),
                stack.as_mut(),
                0,
                user_root,
            );
            if !std::mem::replace(&mut counted, true) {
                let label = format!("returns/nested_call_depth/{depth} call");
                report_exact_counts(&label, &pmem, || {
                    ctx.call(RECURSE, &depth.to_le_bytes()).unwrap();
                });
            }
            b.iter(|| {
                let r = ctx.call(RECURSE, &depth.to_le_bytes()).unwrap().unwrap();
                assert_eq!(u64::from_le_bytes(r), depth + 1);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_return_paths, bench_nested_depth);
criterion_main!(benches);
