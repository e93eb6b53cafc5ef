//! The queue's half of the static harness: the §5.2 methodology applied
//! to the recoverable queue — the paper's future-work direction 1
//! ("implement and test other NVRAM algorithms") executed end to end —
//! as a [`Workload::Queue`](crate::Workload::Queue) row. The CAS register
//! is replaced by a [`RecoverableQueue`] (the descriptor table stays the
//! one [`TaskTable`], holding queue ops), and the §5.1 Eulerian-path
//! check by [`pstack_verify::check_fifo`]'s slot-witness check.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::Rng;

use pstack_core::{FunctionRegistry, PError};
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};
use pstack_recoverable::{
    QueueTaskFunction, QueueVariant, RecoverableQueue, TaskOp, TaskResult, TaskTable,
    QUEUE_TASK_FUNC_ID,
};
use pstack_verify::{check_fifo, QueueAnswer, QueueHistory, QueueOp, QueueOpKind, SlotWitness};

use crate::campaign::{answered, open_table, Execution, Objects};
use crate::cycle::{self, ROOT_OFF};

/// Inclusive range enqueue values are drawn from.
const VALUE_RANGE: (i64, i64) = (-100, 100);

/// Probability a generated descriptor is an enqueue (the rest are
/// dequeues).
const ENQUEUE_BIAS: f64 = 0.6;

/// Draws `n_ops` descriptors and formats the queue (sized for every
/// enqueue) and its table in `region`. Root record: `[queue base, table
/// base, variant]`.
pub(crate) fn format(
    region: &PMem,
    heap: &PHeap,
    rng: &mut SmallRng,
    n_ops: usize,
    variant: QueueVariant,
) -> Result<(), PError> {
    let (lo, hi) = VALUE_RANGE;
    let ops: Vec<TaskOp> = (0..n_ops)
        .map(|_| {
            if rng.random_bool(ENQUEUE_BIAS) {
                TaskOp::Enqueue(rng.random_range(lo..=hi))
            } else {
                TaskOp::Dequeue
            }
        })
        .collect();
    let enqueues = ops.iter().filter(|o| matches!(o, TaskOp::Enqueue(_)));
    let capacity = enqueues.count().max(1) as u64;
    let queue = RecoverableQueue::format(region.clone(), heap, capacity, variant)?;
    let table = TaskTable::format(region.clone(), heap, &ops)?;
    let root = [
        queue.base().get(),
        table.base().get(),
        u64::from(variant.as_u8()),
    ];
    cycle::write_root(region, ROOT_OFF, &root)
}

/// Re-attaches the queue and its table, beside the registry that runs
/// their descriptors.
pub(crate) fn open(region: &PMem) -> Result<(FunctionRegistry, Objects), PError> {
    let root = |i| cycle::read_root(region, ROOT_OFF, i);
    let variant = QueueVariant::from_u8(root(2)? as u8)?;
    let queue = RecoverableQueue::open(region.clone(), POffset::new(root(0)?), variant)?;
    let table = open_table(region)?;
    let mut registry = FunctionRegistry::new();
    let func = QueueTaskFunction::new(queue.clone(), table.clone());
    registry.register(QUEUE_TASK_FUNC_ID, func.into_arc())?;
    Ok((registry, Objects::Queue { queue, table }))
}

/// Step 9: the FIFO verdict on the quiescent queue and table.
///
/// Per-process program order is not reconstructable from the quiescent
/// state (the §5.2 protocol records answers, not invocation times), so
/// each process's operations are listed in witness order; the
/// producer-order condition of [`check_fifo`] is therefore satisfied by
/// construction here and exercised separately by the verifier's unit
/// tests. All other conditions — exactly-once application, no phantom
/// or lost effects, value fidelity, tombstone-prefix — are fully
/// checked.
///
/// # Errors
///
/// [`PError::Task`] if a descriptor is still pending.
pub(crate) fn verify(queue: &RecoverableQueue, table: &TaskTable) -> Result<Execution, PError> {
    let snapshot: Vec<SlotWitness> = queue
        .snapshot()?
        .into_iter()
        .map(|s| SlotWitness {
            value: s.value,
            pid: s.pid,
            seq: s.seq,
            dequeued_by: s.is_tombstone().then_some((s.deq_pid, s.deq_seq)),
        })
        .collect();

    // Witness position of each enqueue/dequeue tag, for ordering each
    // process's ops by linearization.
    let slots = snapshot.iter().enumerate();
    let slot_pos: HashMap<(u64, u64), usize> =
        slots.clone().map(|(i, s)| ((s.pid, s.seq), i)).collect();
    let tomb_pos: HashMap<(u64, u64), usize> = slots
        .filter_map(|(i, s)| s.dequeued_by.map(|tag| (tag, i)))
        .collect();

    let mut ops = answered(table, |idx, op, answer| {
        let (kind, value, ans) = match (op, answer.result) {
            (TaskOp::Enqueue(v), TaskResult::Accepted(ok)) => {
                (QueueOpKind::Enqueue, v, QueueAnswer::Accepted(ok))
            }
            (TaskOp::Dequeue, TaskResult::Dequeued(v)) => {
                (QueueOpKind::Dequeue, 0, QueueAnswer::Dequeued(v))
            }
            _ => return None,
        };
        Some(QueueOp {
            pid: u64::from(answer.executor),
            seq: idx as u64 + 1,
            kind,
            value,
            answer: ans,
        })
    })?;
    // Witness order within each process (see above).
    ops.sort_by_key(|op| {
        let pos = match op.kind {
            QueueOpKind::Enqueue => slot_pos.get(&(op.pid, op.seq)),
            QueueOpKind::Dequeue => tomb_pos.get(&(op.pid, op.seq)),
        };
        (op.pid, pos.copied().unwrap_or(usize::MAX), op.seq)
    });
    let history = QueueHistory { ops, snapshot };
    let verdict = check_fifo(&history);
    Ok(Execution::Queue { history, verdict })
}

#[cfg(test)]
mod tests {
    use pstack_core::CrashRegion;

    use crate::campaign::table::{caught, duplicate_enqueue, STACK_KINDS};
    use crate::{run_campaign, CampaignConfig, Workload};

    use super::*;

    fn queue(n_ops: usize, seed: u64) -> CampaignConfig {
        CampaignConfig::new(Workload::Queue(QueueVariant::Nsrl), n_ops, seed)
    }

    #[test]
    fn queue_campaign_is_fifo_and_crashes() {
        let report = run_campaign(&queue(60, 17)).unwrap();
        assert!(report.is_consistent(), "{:?}", report.execution);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert_eq!(report.execution.ops(), 60);
        assert!(report.rounds > 1);
        assert_eq!(report.psan_violations, []);
        // The queue's persists and the stack's own are hit apart.
        assert!(
            report.kills_in(CrashRegion::Shard(0)) > 0,
            "no kill in the queue's region: {:?}",
            report.crash_sites
        );
        assert!(
            report.kills_in(CrashRegion::Runtime) > 0,
            "no kill in the control region: {:?}",
            report.crash_sites
        );
    }

    #[test]
    fn queue_campaigns_are_deterministic_per_seed() {
        let cfg = CampaignConfig {
            workers: 1,
            ..queue(30, 5)
        };
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.execution, b.execution);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.psan_violations, []);
    }

    #[test]
    fn queue_campaign_works_on_all_stack_kinds() {
        for kind in STACK_KINDS {
            let report = run_campaign(&queue(30, 23).stack(kind)).unwrap();
            assert!(
                report.is_consistent(),
                "stack {kind}: {:?}",
                report.execution
            );
            assert_eq!(report.psan_violations, [], "stack {kind}");
        }
    }

    #[test]
    fn correct_queue_never_flagged_across_seeds() {
        for seed in 200..208 {
            let report = run_campaign(&queue(40, seed)).unwrap();
            assert!(
                report.is_consistent(),
                "seed {seed}: {:?}",
                report.execution
            );
            assert_eq!(report.psan_violations, [], "seed {seed}");
        }
    }

    #[test]
    fn noscan_queue_is_caught_across_seeds() {
        // The queue analogue of §5.2's matrix-removal experiment: the
        // no-scan recovery double-applies operations whose answers were
        // lost; the FIFO verifier reports the duplicate tags. Detection
        // is probabilistic per run, so scan seeds with a crash-heavy row.
        let detected = caught(
            |seed| CampaignConfig {
                workload: Workload::Queue(QueueVariant::NoScan),
                max_crashes: 40,
                crash_window: (10, 80),
                recovery_crash_prob: 0.5,
                access_jitter: Some((0.15, 40)),
                ..queue(80, seed)
            },
            duplicate_enqueue,
        );
        assert!(detected > 0, "no duplicate enqueue in no-scan runs");
    }
}
