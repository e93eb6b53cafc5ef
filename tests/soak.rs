//! Long-running soak tests — excluded from the default test run.
//!
//! ```sh
//! cargo test --release --test soak -- --ignored
//! ```
//!
//! Each test grinds a §5.2-style campaign far past the sizes of the CI
//! suites: hundreds of operations, dozens of crashes (including crashes
//! during recovery), across every stack layout and both workloads, and
//! a deep transactional loop over the unbounded stacks. Run these when
//! touching any of the persistence protocols.

use std::sync::Arc;

use pstack::chaos::{run_campaign, CampaignConfig, Workload};
use pstack::core::{
    FunctionRegistry, RecoveryMode, Runtime, RuntimeConfig, StackKind, TxnLoop, U64CellStep,
};
use pstack::nvram::{FailPlan, PMemBuilder};
use pstack::recoverable::QueueVariant;

#[test]
#[ignore = "soak: long-running; use cargo test --release --test soak -- --ignored"]
fn cas_campaigns_soak() {
    for seed in 0..96u64 {
        for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
            let cfg = CampaignConfig {
                max_crashes: 24,
                recovery_crash_prob: 0.5,
                ..CampaignConfig::narrow(500, seed)
            }
            .stack(kind);
            let report = run_campaign(&cfg).expect("campaign completes");
            assert!(
                report.is_consistent(),
                "seed {seed}, stack {kind}: {:?}",
                report.execution
            );
            assert_eq!(report.execution.ops(), 500);
        }
    }
}

#[test]
#[ignore = "soak: long-running; use cargo test --release --test soak -- --ignored"]
fn queue_campaigns_soak() {
    for seed in 0..96u64 {
        for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
            let cfg = CampaignConfig {
                max_crashes: 24,
                recovery_crash_prob: 0.5,
                ..CampaignConfig::new(Workload::Queue(QueueVariant::Nsrl), 500, seed)
            }
            .stack(kind);
            let report = run_campaign(&cfg).expect("campaign completes");
            assert!(
                report.is_consistent(),
                "seed {seed}, stack {kind}: {:?}",
                report.execution
            );
        }
    }
}

#[test]
#[ignore = "soak: long-running; use cargo test --release --test soak -- --ignored"]
fn deep_transactions_soak() {
    const TXN_FN: u64 = 0x50AC;
    for kind in [StackKind::Vec, StackKind::List] {
        for crash_events in [500u64, 5_000, 50_000, 200_000] {
            let count = 8_000u64;
            let pmem = PMemBuilder::new().len(1 << 24).build_in_memory();
            let stub = FunctionRegistry::new();
            let rt = Runtime::format(
                pmem.clone(),
                RuntimeConfig::new(1).stack_kind(kind).stack_capacity(1024),
                &stub,
            )
            .unwrap();
            let step = U64CellStep::format(&rt, count, Arc::new(|v| v + 3)).unwrap();
            let before = step.read_all().unwrap();
            let after: Vec<u64> = before.iter().map(|v| v + 3).collect();
            let mut registry = FunctionRegistry::new();
            let txn = TxnLoop::register(&mut registry, TXN_FN, Arc::new(step.clone())).unwrap();
            // 8000 persistent frames mirror 8000 host frames: give the
            // workers a big volatile stack (see Runtime::host_stack_size).
            let rt = Runtime::open(pmem.clone(), &registry)
                .unwrap()
                .host_stack_size(256 << 20);
            step.begin().unwrap();
            pmem.arm_failpoint(FailPlan::after_events(crash_events));
            let report = rt.run_tasks(vec![txn.task(count)]);
            if !report.crashed {
                assert_eq!(step.read_all().unwrap(), after);
                continue;
            }
            let pmem2 = pmem.reopen().unwrap();
            let stub = FunctionRegistry::new();
            let probe = Runtime::open(pmem2.clone(), &stub).unwrap();
            let step2 = U64CellStep::open(&probe, step.base(), Arc::new(|v| v + 3)).unwrap();
            let mut registry = FunctionRegistry::new();
            TxnLoop::register(&mut registry, TXN_FN, Arc::new(step2.clone())).unwrap();
            let rt2 = Runtime::open(pmem2, &registry).unwrap();
            rt2.recover(RecoveryMode::Parallel).unwrap();
            let got = step2.read_all().unwrap();
            assert!(
                got == before || got == after,
                "{kind}, crash at {crash_events}: torn 8000-item transaction"
            );
        }
    }
}
