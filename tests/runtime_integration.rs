//! Cross-crate integration: the full §4.3 runtime executing recoverable
//! workloads across stack variants, with crashes, recovery modes and
//! re-submission loops.

use pstack::core::{
    FunctionRegistry, PContext, RecoveryMode, Runtime, RuntimeConfig, StackKind, Task,
};
use pstack::nvram::{FailPlan, PMemBuilder};

const MARK_SLOT: u64 = 1;
const FANOUT: u64 = 2;

/// MARK_SLOT(slot, value): persist `value` into user slot `slot`,
/// idempotently.
fn mark_slot_registry() -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    let body = |c: &mut PContext<'_>, args: &[u8]| {
        let slot = u64::from_le_bytes(args[..8].try_into().unwrap());
        let val = u64::from_le_bytes(args[8..16].try_into().unwrap());
        let off = c.user_root() + slot * 8;
        c.pmem.write_u64(off, val)?;
        c.pmem.flush(off, 8)?;
        Ok(None)
    };
    reg.register_pair(MARK_SLOT, body, body).unwrap();

    // FANOUT(slot, value): calls MARK_SLOT three times (slot, slot+1,
    // slot+2) as nested persistent calls; recovery must resume without
    // redoing completed children (checked via child_status).
    let fan = |c: &mut PContext<'_>, args: &[u8]| {
        let slot = u64::from_le_bytes(args[..8].try_into().unwrap());
        let val = u64::from_le_bytes(args[8..16].try_into().unwrap());
        for k in 0..3u64 {
            let mut a = (slot + k).to_le_bytes().to_vec();
            a.extend_from_slice(&val.to_le_bytes());
            c.call(MARK_SLOT, &a)?;
        }
        Ok(None)
    };
    reg.register_pair(FANOUT, fan, fan).unwrap();
    reg
}

fn mark_task(slot: u64, val: u64) -> Task {
    let mut args = slot.to_le_bytes().to_vec();
    args.extend_from_slice(&val.to_le_bytes());
    Task::new(MARK_SLOT, args)
}

#[test]
fn all_stack_kinds_run_identical_workloads() {
    for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = mark_slot_registry();
        let rt = Runtime::format(
            pmem.clone(),
            RuntimeConfig::new(3).stack_kind(kind).stack_capacity(2048),
            &reg,
        )
        .unwrap();
        let report = rt.run_tasks((0..60).map(|i| mark_task(i, i * 7)));
        assert_eq!(report.completed, 60, "{kind}");
        let root = rt.user_root().unwrap();
        for i in 0..60u64 {
            assert_eq!(pmem.read_u64(root + i * 8).unwrap(), i * 7, "{kind}");
        }
    }
}

#[test]
fn crash_restart_resubmit_until_done() {
    // The full §5.2-style driving loop with a generic workload: crash,
    // recover, resubmit, repeat; at the end every slot is written and
    // no slot is torn.
    for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
        let mut pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = mark_slot_registry();
        let _ = Runtime::format(
            pmem.clone(),
            RuntimeConfig::new(4).stack_kind(kind).stack_capacity(4096),
            &reg,
        )
        .unwrap();

        let mut crashes = 0;
        loop {
            let rt = Runtime::open(pmem.clone(), &reg).unwrap();
            if crashes < 5 {
                pmem.arm_failpoint(FailPlan::after_events(60 + crashes * 30));
            }
            let report = rt.run_tasks((0..80).map(|i| mark_task(i, 1000 + i)));
            if !report.crashed {
                break;
            }
            crashes += 1;
            pmem = pmem.reopen().unwrap();
            let rt = Runtime::open(pmem.clone(), &reg).unwrap();
            rt.recover(RecoveryMode::Parallel).unwrap();
        }
        assert!(crashes > 0, "{kind}: the fail-points should fire");
        let rt = Runtime::open(pmem.clone(), &reg).unwrap();
        let root = rt.user_root().unwrap();
        for i in 0..80u64 {
            assert_eq!(pmem.read_u64(root + i * 8).unwrap(), 1000 + i, "{kind}");
        }
    }
}

#[test]
fn nested_calls_crash_and_recover_cleanly() {
    let mut pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
    let reg = mark_slot_registry();
    let _ = Runtime::format(pmem.clone(), RuntimeConfig::new(2), &reg).unwrap();

    let fan_task = |slot: u64| {
        let mut args = slot.to_le_bytes().to_vec();
        args.extend_from_slice(&5u64.to_le_bytes());
        Task::new(FANOUT, args)
    };

    let mut crashes = 0;
    loop {
        let rt = Runtime::open(pmem.clone(), &reg).unwrap();
        if crashes < 4 {
            pmem.arm_failpoint(FailPlan::after_events(45 + crashes * 25));
        }
        let report = rt.run_tasks((0..10).map(|t| fan_task(t * 3)));
        if !report.crashed {
            break;
        }
        crashes += 1;
        pmem = pmem.reopen().unwrap();
        let rt = Runtime::open(pmem.clone(), &reg).unwrap();
        rt.recover(RecoveryMode::Parallel).unwrap();
        // After recovery every stack is balanced.
        for pid in 0..2 {
            assert_eq!(rt.open_stack(pid).unwrap().depth(), 0);
        }
    }
    let rt = Runtime::open(pmem.clone(), &reg).unwrap();
    let root = rt.user_root().unwrap();
    for slot in 0..30u64 {
        assert_eq!(pmem.read_u64(root + slot * 8).unwrap(), 5, "slot {slot}");
    }
}

#[test]
fn serial_and_parallel_recovery_have_identical_effects() {
    // Build two identical crashed systems; recover one serially and one
    // in parallel; the persistent outcomes must match.
    let build_crashed = || {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = mark_slot_registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(4), &reg).unwrap();
        // Plant one un-recovered frame per worker deterministically.
        for pid in 0..4 {
            let mut stack = rt.open_stack(pid).unwrap();
            let mut args = (200 + pid as u64).to_le_bytes().to_vec();
            args.extend_from_slice(&(90 + pid as u64).to_le_bytes());
            stack.push(MARK_SLOT, &args).unwrap();
        }
        pmem.crash_now(0, 1.0);
        (pmem.reopen().unwrap(), reg)
    };

    let mut outcomes = Vec::new();
    for mode in [RecoveryMode::Serial, RecoveryMode::Parallel] {
        let (pmem, reg) = build_crashed();
        let rt = Runtime::open(pmem.clone(), &reg).unwrap();
        let report = rt.recover(mode).unwrap();
        assert_eq!(report.total_frames(), 4);
        assert_eq!(report.frames_recovered, vec![1, 1, 1, 1]);
        let root = rt.user_root().unwrap();
        let vals: Vec<u64> = (0..4)
            .map(|pid| pmem.read_u64(root + (200 + pid as u64) * 8).unwrap())
            .collect();
        outcomes.push(vals);
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0], vec![90, 91, 92, 93]);
}

#[test]
fn small_line_size_region_works_end_to_end() {
    // 16-byte cache lines: frames span many lines, marker flips still
    // single-line. Exercises the long-frame path pervasively (E3).
    let mut pmem = PMemBuilder::new()
        .len(1 << 20)
        .line_size(16)
        .build_in_memory();
    let reg = mark_slot_registry();
    let _ = Runtime::format(pmem.clone(), RuntimeConfig::new(2), &reg).unwrap();
    let mut crashes = 0;
    loop {
        let rt = Runtime::open(pmem.clone(), &reg).unwrap();
        if crashes < 3 {
            pmem.arm_failpoint(FailPlan::after_events(80));
        }
        let report = rt.run_tasks((0..30).map(|i| mark_task(i, i)));
        if !report.crashed {
            break;
        }
        crashes += 1;
        pmem = pmem.reopen().unwrap();
        Runtime::open(pmem.clone(), &reg)
            .unwrap()
            .recover(RecoveryMode::Parallel)
            .unwrap();
    }
    let rt = Runtime::open(pmem.clone(), &reg).unwrap();
    let root = rt.user_root().unwrap();
    for i in 0..30u64 {
        assert_eq!(pmem.read_u64(root + i * 8).unwrap(), i);
    }
}
