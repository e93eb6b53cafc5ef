//! End-to-end §5.2 campaigns as integration tests: correct CAS always
//! serializable across configurations; verifier agrees with the
//! linearizability checker on tiny single-worker executions.

use pstack::chaos::{run_campaign, CampaignConfig, CampaignReport, Execution, Workload};
use pstack::core::StackKind;
use pstack::recoverable::CasVariant;
use pstack::verify::{
    check_linearizability, CasHistory, LinVerdict, SerialVerdict, TimedHistory, TimedOp,
};

fn cas(report: &CampaignReport) -> (&CasHistory, &SerialVerdict) {
    let Execution::Cas { history, verdict } = &report.execution else {
        panic!("not a CAS row: {:?}", report.execution);
    };
    (history, verdict)
}

#[test]
fn campaign_wide_serializable() {
    let report = run_campaign(&CampaignConfig::wide(80, 1)).unwrap();
    assert!(report.is_consistent(), "{:?}", report.execution);
    assert!(report.crashes > 0);
}

#[test]
fn campaign_narrow_serializable() {
    let report = run_campaign(&CampaignConfig::narrow(80, 2)).unwrap();
    assert!(report.is_consistent(), "{:?}", report.execution);
}

#[test]
fn campaigns_on_unbounded_stacks() {
    for kind in [StackKind::Vec, StackKind::List] {
        let report = run_campaign(&CampaignConfig::narrow(40, 3).stack(kind)).unwrap();
        assert!(report.is_consistent(), "{kind}: {:?}", report.execution);
    }
}

#[test]
fn single_worker_campaign_history_is_linearizable() {
    // With one worker the execution is sequential, so the untimed
    // history must also pass the (stricter) linearizability checker
    // when given sequential timestamps in completion order... which we
    // don't know; but serializability's witness gives a valid order.
    // Use a tiny campaign and check via the witness that a sequential
    // timing exists: assign each op its witness position as interval.
    let cfg = CampaignConfig {
        workers: 1,
        n_ops: 12,
        ..CampaignConfig::narrow(12, 9)
    };
    let report = run_campaign(&cfg).unwrap();
    let (history, verdict) = cas(&report);
    let order = match verdict {
        SerialVerdict::Serializable { order } => order,
        other => panic!("single-worker campaign not serializable: {other:?}"),
    };
    // Build a timed history where op order[i] occupies interval
    // [2i, 2i+1]: sequential and in witness order. It must linearize.
    let mut timed = vec![None; history.ops.len()];
    for (pos, &idx) in order.iter().enumerate() {
        timed[idx] = Some(TimedOp {
            op: history.ops[idx],
            invoked: 2 * pos as u64,
            returned: 2 * pos as u64 + 1,
        });
    }
    let h = TimedHistory::new(
        history.init,
        timed.into_iter().map(|t| t.unwrap()).collect(),
    );
    assert!(matches!(
        check_linearizability(&h),
        LinVerdict::Linearizable { .. }
    ));
}

#[test]
fn buggy_campaign_reports_are_well_formed() {
    // Whether or not the bug manifests for this seed, the report must
    // be complete and internally consistent.
    let cfg = CampaignConfig::new(
        Workload::Cas {
            variant: CasVariant::NoMatrix,
            value_range: (-10, 10),
        },
        30,
        5,
    );
    let report = run_campaign(&cfg).unwrap();
    assert_eq!(cas(&report).0.ops.len(), 30);
    assert!(report.rounds >= 1);
}
