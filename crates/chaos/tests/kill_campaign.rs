//! End-to-end test of the kill(1) policy (§5.2's actual methodology):
//! worker processes over image files, SIGKILLed by the driver once they
//! report the event count drawn for their round.
//!
//! These tests spawn the `kill_campaign` binary, so they run only as
//! integration tests of the `pstack-chaos` crate (Cargo builds the
//! binary and exposes its path via `CARGO_BIN_EXE_kill_campaign`).

use std::path::PathBuf;

use pstack_chaos::{run_campaign, CampaignConfig, CampaignReport, Execution, Kill, Workload};
use pstack_core::StackKind;
use pstack_recoverable::{CasVariant, QueueVariant};

fn tmp_image(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pstack-killtest-{tag}-{}.img", std::process::id()));
    p
}

/// `row` under kill(1) on a fresh image, killed up to `max_kills` times
/// at 5..=60 events into a worker, the CLI's window.
fn killed(tag: &str, row: CampaignConfig, max_kills: usize) -> CampaignReport {
    let image = tmp_image(tag);
    let cfg = CampaignConfig {
        kill: Kill::Processes {
            exe: PathBuf::from(env!("CARGO_BIN_EXE_kill_campaign")),
        },
        image: Some(image.clone()),
        max_crashes: max_kills,
        crash_window: (5, 60),
        ..row
    };
    let report = run_campaign(&cfg).expect("campaign completes");
    let mut stripe_file = image.clone().into_os_string();
    stripe_file.push(".0");
    let _ = std::fs::remove_file(stripe_file);
    let _ = std::fs::remove_file(&image);
    report
}

#[test]
fn killed_processes_leave_a_serializable_history() {
    // The headline §5.2 result, with genuine process deaths: the
    // correct CAS + persistent-stack recovery always yields a
    // serializable execution, no matter where SIGKILL lands.
    let report = killed("wide", CampaignConfig::wide(36, 1), 4);
    assert!(report.is_consistent(), "{:?}", report.execution);
    assert_eq!(report.execution.ops(), 36);
    assert_eq!(
        report.crashes, 4,
        "every kill lands while the worker runs (rounds: {})",
        report.rounds
    );
}

#[test]
fn narrow_range_campaign_survives_kills() {
    // Narrow operands force duplicate values (multigraph edges in the
    // verifier) — same guarantee must hold.
    let report = killed("narrow", CampaignConfig::narrow(30, 2), 3);
    assert!(report.is_consistent(), "{:?}", report.execution);
}

#[test]
fn unbounded_stacks_survive_process_kills() {
    // The list-of-blocks stack keeps block pointers in the NVRAM heap;
    // a SIGKILL must never leave it unparseable for the next process.
    let row = CampaignConfig::wide(24, 3).stack(StackKind::List);
    let report = killed("list", row, 3);
    assert!(report.is_consistent(), "{:?}", report.execution);
}

#[test]
fn queue_workload_survives_process_kills() {
    // Future-work direction 1 under the paper's literal methodology:
    // the recoverable queue driven by killed worker processes must
    // still verify as FIFO against its slot witness.
    let row = CampaignConfig::new(Workload::Queue(QueueVariant::Nsrl), 30, 5);
    let report = killed("queue", row, 3);
    assert!(report.is_consistent(), "{:?}", report.execution);
    assert!(matches!(report.execution, Execution::Queue { .. }));
    assert_eq!(report.execution.ops(), 30);
}

#[test]
fn buggy_variant_still_terminates_under_kills() {
    // The no-matrix CAS is *wrong*, not stuck: the campaign must still
    // drive every descriptor to completion and produce a verdict.
    // (Non-serializability detection is probabilistic — the in-process
    // rows assert it with controlled schedules; here we only require
    // liveness plus a well-formed history.)
    let row = CampaignConfig::new(
        Workload::Cas {
            variant: CasVariant::NoMatrix,
            value_range: (-10, 10),
        },
        24,
        4,
    );
    let report = killed("buggy", row, 3);
    assert_eq!(report.execution.ops(), 24);
}
