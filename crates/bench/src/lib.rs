//! Shared workload builders for the benchmark harness.
//!
//! Every table and figure reproduction in EXPERIMENTS.md is regenerated
//! either by a criterion bench in `benches/` or by the `tables` binary
//! (`cargo run -p pstack-bench --bin tables --release`); both build
//! their systems through the helpers here so the configurations stay
//! comparable.

use pstack_core::{
    FixedStack, FunctionRegistry, ListStack, PContext, PersistentStack, Runtime, RuntimeConfig,
    StackKind, VecStack,
};
use pstack_heap::PHeap;
use pstack_nvram::{PMem, PMemBuilder, POffset, StatsSnapshot};

/// Function id of the no-op workload function used by recovery benches.
pub const NOOP_FUNC: u64 = 900;

/// Function id of the slot-writer workload function.
pub const SLOT_FUNC: u64 = 901;

/// Builds an in-memory region of `len` bytes.
#[must_use]
pub fn region(len: usize) -> PMem {
    PMemBuilder::new().len(len).build_in_memory()
}

/// Prints a measured run's persist economy — persist round-trips,
/// durable lines and coalesced bytes per operation, derived from a
/// `PMem` stats delta over `ops` operations. One format for every
/// bench that reports the counters (flush ablation, group-commit
/// sweep), so the lines stay comparable.
pub fn report_persist_economy(label: &str, line_size: usize, delta: StatsSnapshot, ops: f64) {
    println!(
        "{label:<55} stats: persists/op={:.3} lines/op={:.3} coalesced_bytes/op={:.1} \
         redundant_persists/op={:.3}",
        delta.persists as f64 / ops,
        delta.lines_persisted as f64 / ops,
        delta.coalesced_lines as f64 * line_size as f64 / ops,
        delta.redundant_persists as f64 / ops,
    );
    // Pipeline economy: of the device latency charged to async
    // flights, how much was hidden behind record building rather than
    // waited out at the ticket. 1.0 = fully overlapped, 0.0 = the
    // awaits absorbed every charged nanosecond (a synchronous pipeline
    // in disguise). Only printed when flights were actually issued.
    if delta.async_flushes > 0 {
        let charged = delta.async_latency_charged_ns as f64;
        let waited = delta.async_latency_waited_ns as f64;
        let overlap = if charged > 0.0 {
            (1.0 - waited / charged).max(0.0)
        } else {
            0.0
        };
        println!(
            "{label:<55} pipeline: async_flushes/op={:.3} elided_lines/op={:.3} \
             overlap_fraction={overlap:.3}",
            delta.async_flushes as f64 / ops,
            delta.elided_lines as f64 / ops,
        );
    }
}

/// Runs `op` once, outside any timed loop, and prints the exact persist
/// counts it cost `pmem` — the figures' claim on an emulated device is
/// these counts; the CPU times next to them are indicative.
pub fn report_exact_counts(label: &str, pmem: &PMem, op: impl FnOnce()) {
    let before = pmem.stats().snapshot();
    op();
    let d = pmem.stats().snapshot() - before;
    println!(
        "{label:<55} counts: persists={} lines={} flush_calls={} writes={}",
        d.persists, d.lines_persisted, d.flush_calls, d.writes
    );
}

/// One push and one pop of `args`, their exact counts printed apart as
/// `{label} push` and `{label} pop`.
pub fn report_push_pop(label: &str, pmem: &PMem, stack: &mut dyn PersistentStack, args: &[u8]) {
    report_exact_counts(&format!("{label} push"), pmem, || {
        stack.push(1, args).unwrap();
    });
    report_exact_counts(&format!("{label} pop"), pmem, || stack.pop().unwrap());
}

/// Builds a region plus a heap occupying its upper half.
#[must_use]
pub fn region_with_heap(len: usize) -> (PMem, PHeap) {
    let pmem = region(len);
    let heap_base = (len / 2) as u64;
    let heap = PHeap::format(
        pmem.clone(),
        POffset::new(heap_base),
        len as u64 - heap_base,
    )
    .expect("heap formats");
    (pmem, heap)
}

/// Builds a stack of the given layout at offset 0 (fixed capacity or
/// initial/default block of `capacity` bytes).
#[must_use]
pub fn make_stack(
    kind: StackKind,
    pmem: &PMem,
    heap: &PHeap,
    capacity: u64,
) -> Box<dyn PersistentStack> {
    match kind {
        StackKind::Fixed => {
            Box::new(FixedStack::format(pmem.clone(), POffset::new(0), capacity).unwrap())
        }
        StackKind::Vec => Box::new(
            VecStack::format(pmem.clone(), heap.clone(), POffset::new(0), capacity).unwrap(),
        ),
        StackKind::List => Box::new(
            ListStack::format(pmem.clone(), heap.clone(), POffset::new(0), capacity).unwrap(),
        ),
    }
}

/// Registry with the two standard workload functions: [`NOOP_FUNC`]
/// (its recover dual spins for the number of iterations encoded in its
/// 8-byte argument — zero means a pure no-op) and [`SLOT_FUNC`]
/// (persists `args[8..16]` into user slot `args[0..8]`, idempotent).
#[must_use]
pub fn workload_registry() -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    let spin = |_c: &mut PContext<'_>, args: &[u8]| {
        let iters = args
            .get(..8)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0);
        // CPU-bound application work, as real recover duals perform
        // when completing or rolling back an interrupted operation.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..iters {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        Ok(None)
    };
    reg.register_pair(NOOP_FUNC, spin, spin).unwrap();
    let body = |c: &mut PContext<'_>, args: &[u8]| {
        let slot = u64::from_le_bytes(args[..8].try_into().unwrap());
        let val = u64::from_le_bytes(args[8..16].try_into().unwrap());
        let off = c.user_root() + slot * 8;
        c.pmem.write_u64(off, val)?;
        c.pmem.flush(off, 8)?;
        Ok(None)
    };
    reg.register_pair(SLOT_FUNC, body, body).unwrap();
    reg
}

/// Builds a crashed system with `workers` stacks each holding `depth`
/// in-flight [`NOOP_FUNC`] frames whose recover duals each perform
/// `work_iters` iterations of CPU work, reopened and ready for
/// `Runtime::recover` — the recovery-benchmark fixture (E5).
/// `work_iters == 0` measures the bare stack-walk machinery.
#[must_use]
pub fn crashed_system(
    workers: usize,
    depth: usize,
    work_iters: u64,
) -> (PMem, Runtime, FunctionRegistry) {
    let pmem = region(1 << 22);
    let reg = workload_registry();
    let rt = Runtime::format(
        pmem.clone(),
        RuntimeConfig::new(workers).stack_capacity(64 * 1024),
        &reg,
    )
    .unwrap();
    for pid in 0..workers {
        let mut stack = rt.open_stack(pid).unwrap();
        for _ in 0..depth {
            stack.push(NOOP_FUNC, &work_iters.to_le_bytes()).unwrap();
        }
    }
    pmem.crash_now(0, 1.0);
    let pmem = pmem.reopen().unwrap();
    let rt = Runtime::open(pmem.clone(), &reg).unwrap();
    (pmem, rt, reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_core::RecoveryMode;

    #[test]
    fn crashed_system_recovers_expected_frames() {
        let (_, rt, _) = crashed_system(3, 7, 100);
        let report = rt.recover(RecoveryMode::Parallel).unwrap();
        assert_eq!(report.frames_recovered, vec![7, 7, 7]);
    }

    #[test]
    fn make_stack_builds_all_kinds() {
        for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
            let (pmem, heap) = region_with_heap(1 << 18);
            let mut s = make_stack(kind, &pmem, &heap, 4096);
            s.push(1, b"x").unwrap();
            assert_eq!(s.depth(), 1);
        }
    }
}
