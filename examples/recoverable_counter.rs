//! A recoverable counter under crash fire: increments survive exactly
//! once each, however many times the system dies and recovers.
//!
//! Structure: the driving loop resubmits work after every crash, so a
//! persistent done-bitmap records which increments already happened.
//! The per-process sequence tags of [`RecoverableCounter`] make the
//! *recover* path idempotent (same worker re-runs the same increment),
//! while the bitmap makes *resubmission* idempotent (a different worker
//! might pick the task up next round).
//!
//! ```sh
//! cargo run --example recoverable_counter
//! ```

use pstack::core::{
    FunctionRegistry, PContext, PError, RecoveryMode, Runtime, RuntimeConfig, Task,
};
use pstack::nvram::{FailPlan, PMemBuilder, POffset};
use pstack::recoverable::RecoverableCounter;

const WORKERS: usize = 4;
const INCREMENTS: u64 = 200;
const COUNT_ONCE: u64 = 77;

/// User root record: `[counter_base: u64][bitmap_base: u64]`.
fn build_registry() -> Result<FunctionRegistry, PError> {
    let mut registry = FunctionRegistry::new();
    let body = |ctx: &mut PContext<'_>, args: &[u8]| {
        let i = u64::from_le_bytes(args[..8].try_into().expect("8-byte index"));
        let root = ctx.user_root();
        let counter_base = POffset::new(ctx.pmem.read_u64(root)?);
        let bitmap = POffset::new(ctx.pmem.read_u64(root + 8u64)?);
        if ctx.pmem.read_u8(bitmap + i)? == 1 {
            return Ok(None); // resubmitted after completion
        }
        let counter = RecoverableCounter::open(ctx.pmem.clone(), counter_base, WORKERS);
        counter.increment(ctx.pid, i + 1)?; // idempotent per (pid, seq)
        ctx.pmem.write_u8(bitmap + i, 1)?;
        ctx.pmem.flush(bitmap + i, 1)?;
        Ok(None)
    };
    registry.register_pair(COUNT_ONCE, body, body)?;
    Ok(registry)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The counter's NSRL algorithm assumes cache-less NVRAM; it runs
    // on a buffered region by flushing every line it writes at once.
    let mut pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
    let registry = build_registry()?;

    // Boot, create the counter + bitmap, persist a root record.
    let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(WORKERS), &registry)?;
    let counter = RecoverableCounter::format(pmem.clone(), rt.heap(), WORKERS)?;
    let bitmap = rt.heap().alloc_zeroed(INCREMENTS as usize)?;
    let record = rt.heap().alloc(16)?;
    pmem.write_u64(record, counter.base().get())?;
    pmem.write_u64(record + 8u64, bitmap.get())?;
    pmem.flush(record, 16)?;
    rt.set_user_root(record)?;
    let counter_base = counter.base();

    let mut crashes = 0u64;
    loop {
        let rt = Runtime::open(pmem.clone(), &registry)?;
        if crashes < 6 {
            pmem.arm_failpoint(FailPlan::after_events(150 + crashes * 60));
        }
        let tasks: Vec<Task> = (0..INCREMENTS)
            .map(|i| Task::new(COUNT_ONCE, i.to_le_bytes().to_vec()))
            .collect();
        let report = rt.run_tasks(tasks);
        if !report.crashed {
            println!("final round: completed {} tasks cleanly", report.completed);
            break;
        }
        crashes += 1;
        pmem = pmem.reopen()?;
        let rt = Runtime::open(pmem.clone(), &registry)?;
        let recovery = rt.recover(RecoveryMode::Parallel)?;
        println!(
            "crash #{crashes}: recovered {} in-flight increment(s)",
            recovery.total_frames()
        );
    }

    let counter = RecoverableCounter::open(pmem.clone(), counter_base, WORKERS);
    let value = counter.read()?;
    println!("counter value after {crashes} crashes: {value} (expected {INCREMENTS})");
    assert_eq!(
        value, INCREMENTS,
        "every increment must apply exactly once despite crashes"
    );
    println!("recoverable counter example finished");
    Ok(())
}
