//! End-to-end test of the real-`kill(1)` campaign (§5.2's actual
//! methodology): worker processes over a file-backed NVRAM image,
//! SIGKILLed by the driver at random wall-clock moments.
//!
//! These tests spawn the `kill_campaign` binary, so they run only as
//! integration tests of the `pstack-chaos` crate (Cargo builds the
//! binary and exposes its path via `CARGO_BIN_EXE_kill_campaign`).

use std::path::{Path, PathBuf};

use pstack_chaos::{run_kill_campaign, KillCampaignConfig, KillOutcome};
use pstack_core::StackKind;
use pstack_recoverable::{CasVariant, QueueVariant};

fn harness_exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_kill_campaign"))
}

fn tmp_image(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pstack-killtest-{tag}-{}.img", std::process::id()));
    p
}

#[test]
fn killed_processes_leave_a_serializable_history() {
    // The headline §5.2 result, with genuine process deaths: the
    // correct CAS + persistent-stack recovery always yields a
    // serializable execution, no matter where SIGKILL lands.
    // A worker persists only what it flushes, one line per store, so
    // its run is a few milliseconds of persist delay: kills come early.
    let image = tmp_image("wide");
    let cfg = KillCampaignConfig::new(&image, 36, 1)
        .kill_delay_ms(1, 8)
        .max_kills(4);
    let report = run_kill_campaign(harness_exe(), &cfg).expect("campaign completes");
    assert!(
        report.is_serializable(),
        "real-kill campaign non-serializable: {:?}",
        report.outcome
    );
    assert_eq!(report.outcome.ops(), 36);
    assert!(
        report.kills > 0,
        "slow persists must let the driver land kills (rounds: {})",
        report.rounds
    );
    assert!(report.recovery_attempts >= report.kills);
    let _ = std::fs::remove_file(&image);
}

#[test]
fn narrow_range_campaign_survives_kills() {
    // Narrow operands force duplicate values (multigraph edges in the
    // verifier) — same guarantee must hold.
    let image = tmp_image("narrow");
    let cfg = KillCampaignConfig::new(&image, 30, 2)
        .narrow()
        .kill_delay_ms(1, 10)
        .max_kills(3);
    let report = run_kill_campaign(harness_exe(), &cfg).expect("campaign completes");
    assert!(report.is_serializable(), "{:?}", report.outcome);
    let _ = std::fs::remove_file(&image);
}

#[test]
fn unbounded_stacks_survive_process_kills() {
    // The list-of-blocks stack keeps block pointers in the NVRAM heap;
    // a SIGKILL must never leave it unparseable for the next process.
    let image = tmp_image("list");
    let mut cfg = KillCampaignConfig::new(&image, 24, 3)
        .kill_delay_ms(1, 8)
        .max_kills(3);
    cfg.stack_kind = StackKind::List;
    let report = run_kill_campaign(harness_exe(), &cfg).expect("campaign completes");
    assert!(report.is_serializable(), "{:?}", report.outcome);
    let _ = std::fs::remove_file(&image);
}

#[test]
fn queue_workload_survives_process_kills() {
    // Future-work direction 1 under the paper's literal methodology:
    // the recoverable queue driven by killed worker processes must
    // still verify as FIFO against its slot witness.
    let image = tmp_image("queue");
    let cfg = KillCampaignConfig::new(&image, 30, 5)
        .queue(QueueVariant::Nsrl)
        .kill_delay_ms(2, 15)
        .max_kills(3);
    let report = run_kill_campaign(harness_exe(), &cfg).expect("campaign completes");
    assert!(report.is_consistent(), "{:?}", report.outcome);
    assert!(matches!(report.outcome, KillOutcome::Queue { .. }));
    assert_eq!(report.outcome.ops(), 30);
    let _ = std::fs::remove_file(&image);
}

#[test]
fn buggy_variant_still_terminates_under_kills() {
    // The no-matrix CAS is *wrong*, not stuck: the campaign must still
    // drive every descriptor to completion and produce a verdict.
    // (Non-serializability detection is probabilistic — the in-process
    // campaign test asserts it with controlled schedules; here we only
    // require liveness plus a well-formed history.)
    let image = tmp_image("buggy");
    let cfg = KillCampaignConfig::new(&image, 24, 4)
        .variant(CasVariant::NoMatrix)
        .narrow()
        .kill_delay_ms(1, 8)
        .max_kills(3);
    let report = run_kill_campaign(harness_exe(), &cfg).expect("campaign completes");
    assert_eq!(report.outcome.ops(), 24);
    let _ = std::fs::remove_file(&image);
}
