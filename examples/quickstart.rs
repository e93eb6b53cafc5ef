//! Quickstart: run recoverable functions on the persistent-stack
//! runtime, crash the system mid-flight, and recover.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pstack::core::{
    FunctionRegistry, PContext, PError, RecoveryMode, Runtime, RuntimeConfig, Task,
};
use pstack::nvram::{FailPlan, PMemBuilder};

/// Function ids must be stable across restarts: the persistent stack
/// records ids, and every boot's registry maps them back to code.
const STORE_SQUARED: u64 = 1;
const AUDIT_LOG: u64 = 2;

/// Offset of the per-item audit marks in the user area.
const MARKS: u64 = 512;
/// Items the example processes.
const ITEMS: u64 = 24;

fn build_registry() -> Result<FunctionRegistry, PError> {
    let mut registry = FunctionRegistry::new();

    // STORE_SQUARED(i): persist i² into slot i of the user area, then
    // invoke AUDIT_LOG as a nested persistent call. The body is
    // idempotent, so the recover dual can simply re-run it.
    let store = |ctx: &mut PContext<'_>, args: &[u8]| {
        let i = u64::from_le_bytes(args[..8].try_into().expect("8-byte argument"));
        let slot = ctx.user_root() + i * 8;
        ctx.pmem.write_u64(slot, i * i)?;
        ctx.pmem.flush(slot, 8)?;
        // Nested call: AUDIT_LOG gets its own persistent frame.
        ctx.call(AUDIT_LOG, args)?;
        Ok(Some((i * i).to_le_bytes()))
    };
    registry.register_pair(STORE_SQUARED, store, store)?;

    // AUDIT_LOG(i): mark item i processed — one durable byte per item.
    // Setting a mark twice is harmless, so the recover dual re-runs it,
    // and the audit count is the number of marks set: no shared counter
    // for two workers to race on, and no second store for a power
    // failure to split from the mark.
    let audit = |ctx: &mut PContext<'_>, args: &[u8]| {
        let i = u64::from_le_bytes(args[..8].try_into().expect("8-byte argument"));
        let mark = ctx.user_root() + MARKS + i;
        if ctx.pmem.read_u8(mark)? == 0 {
            ctx.pmem.write_u8(mark, 1)?;
            ctx.pmem.flush(mark, 1)?;
        }
        Ok(None)
    };
    registry.register_pair(AUDIT_LOG, audit, audit)?;
    Ok(registry)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = build_registry()?;

    // Standard-mode boot: format a fresh region and run tasks — but arm
    // a crash partway through, emulating a power failure.
    let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
    let runtime = Runtime::format(pmem.clone(), RuntimeConfig::new(2), &registry)?;
    pmem.arm_failpoint(FailPlan::after_events(120));

    let tasks: Vec<Task> = (0..ITEMS)
        .map(|i| Task::new(STORE_SQUARED, i.to_le_bytes().to_vec()))
        .collect();
    let report = runtime.run_tasks(tasks);
    println!(
        "standard mode: completed={} crashed={}",
        report.completed, report.crashed
    );

    if report.crashed {
        // Recovery-mode boot: reopen the surviving image, walk every
        // worker stack top-to-bottom, run the recover duals.
        let pmem = pmem.reopen()?;
        let runtime = Runtime::open(pmem.clone(), &registry)?;
        let recovery = runtime.recover(RecoveryMode::Parallel)?;
        println!(
            "recovery mode: {} in-flight frame(s) recovered in {:?}",
            recovery.total_frames(),
            recovery.elapsed
        );

        // Back to standard mode: finish whatever never started.
        // (A real system would persist which tasks completed; here we
        // simply re-run everything — the functions are idempotent.)
        let tasks: Vec<Task> = (0..ITEMS)
            .map(|i| Task::new(STORE_SQUARED, i.to_le_bytes().to_vec()))
            .collect();
        let report = runtime.run_tasks(tasks);
        println!("resumed: completed={}", report.completed);

        let root = runtime.user_root()?;
        for i in [3u64, 7, 23] {
            let v = pmem.read_u64(root + i * 8)?;
            assert_eq!(v, i * i);
        }
        let mut audited = 0;
        for i in 0..ITEMS {
            audited += u64::from(pmem.read_u8(root + MARKS + i)?);
        }
        println!("audited items: {audited} (expected {ITEMS})");
        assert_eq!(audited, ITEMS);
    }
    println!("quickstart finished; all invariants hold");
    Ok(())
}
