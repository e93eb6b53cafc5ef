//! The §5.2 crash-campaign methodology applied to the recoverable
//! queue — the paper's future-work direction 1 ("implement and test
//! other NVRAM algorithms") executed end to end: random workload,
//! random crashes, restart + recovery until completion, then a
//! semantic verdict from the FIFO verifier.
//!
//! Mirrors [`crate::run_campaign`] with the CAS register replaced by a
//! [`RecoverableQueue`], the descriptor table by a [`QueueOpTable`],
//! and the §5.1 Eulerian-path check by
//! [`pstack_verify::check_fifo`]'s slot-witness check.

use rand::rngs::SmallRng;
use rand::Rng;

use pstack_core::{FunctionRegistry, PError, StackKind, Task};
use pstack_heap::PHeap;
use pstack_nvram::{PMem, PMemBuilder, POffset};
use pstack_recoverable::{
    QueueOpTable, QueueTaskFunction, QueueTaskOp, QueueTaskResult, QueueVariant, RecoverableQueue,
    QUEUE_TASK_FUNC_ID,
};
use pstack_verify::{
    check_fifo, FifoVerdict, QueueAnswer, QueueHistory, QueueOp, QueueOpKind, SlotWitness,
};

use crate::campaign::{index_tasks, REPLAY_FUSE};
use crate::cycle::{self, Cx, Policy, Single, StaticWorkload, Tally, ROOT_OFF};

/// Configuration of one queue crash campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueCampaignConfig {
    /// Number of queue operations (descriptors).
    pub n_ops: usize,
    /// Worker threads — 4, like the paper's CAS campaign.
    pub workers: usize,
    /// Inclusive range enqueue values are drawn from.
    pub value_range: (i64, i64),
    /// Master seed; campaigns are deterministic given the seed (for a
    /// single worker).
    pub seed: u64,
    /// Stack layout for the workers.
    pub stack_kind: StackKind,
    /// Correct NSRL queue or the no-scan bug.
    pub variant: QueueVariant,
    /// Crashes stop after this many, so the campaign terminates.
    pub max_crashes: usize,
    /// Fail-point countdown drawn uniformly from this range.
    pub crash_window: (u64, u64),
    /// Probability of injecting a crash into each recovery pass.
    pub recovery_crash_prob: f64,
    /// Scheduling noise `(probability, pause-events)`; see
    /// [`crate::CampaignConfig::access_jitter`].
    pub access_jitter: Option<(f64, u64)>,
}

impl QueueCampaignConfig {
    /// Defaults mirroring the paper's CAS campaign: 4 workers, values
    /// in `[-100, 100]`, 60% enqueues.
    #[must_use]
    pub fn new(n_ops: usize, seed: u64) -> Self {
        QueueCampaignConfig {
            n_ops,
            workers: 4,
            value_range: (-100, 100),
            seed,
            stack_kind: StackKind::Fixed,
            variant: QueueVariant::Nsrl,
            max_crashes: 8,
            crash_window: (40, 400),
            recovery_crash_prob: 0.3,
            access_jitter: None,
        }
    }

    /// Selects the queue variant.
    #[must_use]
    pub fn variant(mut self, variant: QueueVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the stack layout.
    #[must_use]
    pub fn stack(mut self, kind: StackKind) -> Self {
        self.stack_kind = kind;
        self
    }
}

/// Outcome of a queue campaign.
#[derive(Debug, Clone)]
pub struct QueueCampaignReport {
    /// Rounds, crashes, recovered frames and sanitizer findings
    /// (expected empty, as for the CAS campaign).
    pub tally: Tally,
    /// The collected execution (answers + slot witness).
    pub history: QueueHistory,
    /// The FIFO verdict.
    pub verdict: FifoVerdict,
}
cycle::report_derefs_to_tally!(QueueCampaignReport);

impl QueueCampaignReport {
    /// `true` if the execution passed the FIFO check.
    #[must_use]
    pub fn is_fifo(&self) -> bool {
        self.verdict.is_fifo()
    }
}

/// The persist-order sanitizer shadows every queue campaign whenever
/// the crate's `psan` feature is on.
const PSAN: bool = cfg!(feature = "psan");

/// Probability a generated descriptor is an enqueue (the rest are
/// dequeues).
const ENQUEUE_BIAS: f64 = 0.6;

/// The queue workload: a [`RecoverableQueue`] and the table of
/// enqueue/dequeue descriptors run against it. Root record:
/// `[queue base, table base, variant]`.
pub(crate) struct QueueWorkload;

impl QueueWorkload {
    /// Draws the descriptors and formats the queue (sized for every
    /// enqueue) and its table.
    pub(crate) fn format(
        pmem: &PMem,
        heap: &PHeap,
        rng: &mut SmallRng,
        n_ops: usize,
        (lo, hi): (i64, i64),
        variant: QueueVariant,
    ) -> Result<(), PError> {
        assert!(lo <= hi, "empty value range");
        let ops: Vec<QueueTaskOp> = (0..n_ops)
            .map(|_| {
                if rng.random_bool(ENQUEUE_BIAS) {
                    QueueTaskOp::Enqueue(rng.random_range(lo..=hi))
                } else {
                    QueueTaskOp::Dequeue
                }
            })
            .collect();
        let capacity = ops
            .iter()
            .filter(|o| matches!(o, QueueTaskOp::Enqueue(_)))
            .count()
            .max(1) as u64;
        let queue = RecoverableQueue::format(pmem.clone(), heap, capacity, variant)?;
        let table = QueueOpTable::format(pmem.clone(), heap, &ops)?;
        let root = [
            queue.base().get(),
            table.base().get(),
            u64::from(variant.as_u8()),
        ];
        cycle::write_root(pmem, ROOT_OFF, &root)
    }

    /// Step 9: the FIFO verdict on the quiescent queue and table.
    ///
    /// # Errors
    ///
    /// [`PError::Task`] if a descriptor is still pending.
    pub(crate) fn verify(
        (queue, table): &(RecoverableQueue, QueueOpTable),
    ) -> Result<(QueueHistory, FifoVerdict), PError> {
        let history = build_queue_history(queue, table)?;
        let verdict = check_fifo(&history);
        Ok((history, verdict))
    }
}

impl StaticWorkload<PMem> for QueueWorkload {
    type Attached = (RecoverableQueue, QueueOpTable);

    fn attach(&mut self, pmem: &PMem) -> Result<(FunctionRegistry, Self::Attached), PError> {
        let root = |i| cycle::read_root(pmem, ROOT_OFF, i);
        let variant = QueueVariant::from_u8(root(2)? as u8)?;
        let queue = RecoverableQueue::open(pmem.clone(), POffset::new(root(0)?), variant)?;
        let table = QueueOpTable::open(pmem.clone(), POffset::new(root(1)?))?;
        let mut registry = FunctionRegistry::new();
        registry.register(
            QUEUE_TASK_FUNC_ID,
            QueueTaskFunction::new(queue.clone(), table.clone()).into_arc(),
        )?;
        Ok((registry, (queue, table)))
    }

    fn pending(&mut self, (_, table): &Self::Attached) -> Result<Vec<Task>, PError> {
        Ok(index_tasks(QUEUE_TASK_FUNC_ID, table.pending()?))
    }
}

/// Builds the verifier history from the quiescent table and queue.
///
/// Per-process program order is not reconstructable from the quiescent
/// state (the §5.2 protocol records answers, not invocation times), so
/// each process's operations are listed in witness order; the
/// producer-order condition of [`check_fifo`] is therefore satisfied by
/// construction here and exercised separately by the verifier's unit
/// tests. All other conditions — exactly-once application, no phantom
/// or lost effects, value fidelity, tombstone-prefix — are fully
/// checked.
fn build_queue_history(
    queue: &RecoverableQueue,
    table: &QueueOpTable,
) -> Result<QueueHistory, PError> {
    let snapshot: Vec<SlotWitness> = queue
        .snapshot()?
        .into_iter()
        .map(|s| SlotWitness {
            value: s.value,
            pid: s.pid,
            seq: s.seq,
            dequeued_by: if s.is_tombstone() {
                Some((s.deq_pid, s.deq_seq))
            } else {
                None
            },
        })
        .collect();

    // Witness position of each enqueue/dequeue tag, for ordering each
    // process's ops by linearization.
    let slot_pos: std::collections::HashMap<(u64, u64), usize> = snapshot
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.pid, s.seq), i))
        .collect();
    let tomb_pos: std::collections::HashMap<(u64, u64), usize> = snapshot
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.dequeued_by.map(|tag| (tag, i)))
        .collect();

    let mut ops = Vec::with_capacity(table.len());
    for idx in 0..table.len() {
        let answer = table.result(idx)?.ok_or_else(|| {
            PError::Task(format!(
                "descriptor {idx} still pending; campaign incomplete"
            ))
        })?;
        let pid = u64::from(answer.executor);
        let seq = idx as u64 + 1;
        let (kind, value, ans) = match (table.op(idx)?, answer.result) {
            (QueueTaskOp::Enqueue(v), QueueTaskResult::Accepted(ok)) => {
                (QueueOpKind::Enqueue, v, QueueAnswer::Accepted(ok))
            }
            (QueueTaskOp::Dequeue, QueueTaskResult::Dequeued(v)) => {
                (QueueOpKind::Dequeue, 0, QueueAnswer::Dequeued(v))
            }
            (op, res) => {
                return Err(PError::Task(format!(
                    "descriptor {idx}: answer {res:?} does not match op {op:?}"
                )))
            }
        };
        ops.push(QueueOp {
            pid,
            seq,
            kind,
            value,
            answer: ans,
        });
    }
    // Witness order within each process (see the function docs).
    ops.sort_by_key(|op| {
        let pos = match op.kind {
            QueueOpKind::Enqueue => slot_pos.get(&(op.pid, op.seq)),
            QueueOpKind::Dequeue => tomb_pos.get(&(op.pid, op.seq)),
        };
        (op.pid, pos.copied().unwrap_or(usize::MAX), op.seq)
    });
    Ok(QueueHistory { ops, snapshot })
}

/// Runs one full queue crash campaign (the §5.2 loop with the queue as
/// the object under test). Deterministic for a given configuration
/// with a single worker.
///
/// # Errors
///
/// Propagates setup failures; the crash/restart loop itself handles
/// crashes as part of the experiment.
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_queue_campaign, QueueCampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_queue_campaign(&QueueCampaignConfig::new(30, 7))?;
/// assert!(report.is_fifo());
/// # Ok(())
/// # }
/// ```
pub fn run_queue_campaign(cfg: &QueueCampaignConfig) -> Result<QueueCampaignReport, PError> {
    let mut cx = Cx::new(
        cfg.seed,
        Policy {
            max_crashes: cfg.max_crashes,
            crash_window: cfg.crash_window,
            crash_prob: 1.0,
            recovery_crash_prob: cfg.recovery_crash_prob,
            recovery_fuse: REPLAY_FUSE,
        },
    );
    let (mut machine, rt) = Single::format(
        PMemBuilder::new().psan(PSAN),
        cfg.access_jitter,
        None,
        cfg.workers,
        cfg.stack_kind,
    )?;
    QueueWorkload::format(
        &machine.pmem,
        rt.heap(),
        &mut cx.rng,
        cfg.n_ops,
        cfg.value_range,
        cfg.variant,
    )?;
    let objects = cycle::cycle(&mut machine, &mut QueueWorkload, &mut cx)?;
    let (history, verdict) = QueueWorkload::verify(&objects)?;
    Ok(QueueCampaignReport {
        tally: cx.tally,
        history,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_campaign_is_fifo_and_crashes() {
        let report = run_queue_campaign(&QueueCampaignConfig::new(60, 17)).unwrap();
        assert!(report.is_fifo(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert_eq!(report.history.ops.len(), 60);
        assert!(report.rounds > 1);
        assert_eq!(report.psan_violations, []);
    }

    #[test]
    fn queue_campaigns_are_deterministic_per_seed() {
        let cfg = QueueCampaignConfig {
            workers: 1,
            ..QueueCampaignConfig::new(30, 5)
        };
        let a = run_queue_campaign(&cfg).unwrap();
        let b = run_queue_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.psan_violations, []);
    }

    #[test]
    fn queue_campaign_works_on_all_stack_kinds() {
        for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
            let report = run_queue_campaign(&QueueCampaignConfig::new(30, 23).stack(kind)).unwrap();
            assert!(report.is_fifo(), "stack {kind}: {:?}", report.verdict);
            assert_eq!(report.psan_violations, [], "stack {kind}");
        }
    }

    #[test]
    fn correct_queue_never_flagged_across_seeds() {
        for seed in 200..208 {
            let report = run_queue_campaign(&QueueCampaignConfig::new(40, seed)).unwrap();
            assert!(report.is_fifo(), "seed {seed}: {:?}", report.verdict);
            assert_eq!(report.psan_violations, [], "seed {seed}");
        }
    }

    #[test]
    fn noscan_queue_is_caught_across_seeds() {
        // The queue analogue of §5.2's matrix-removal experiment: the
        // no-scan recovery double-applies operations whose answers were
        // lost; the FIFO verifier reports duplicate tags. Detection is
        // probabilistic per run, so scan seeds with a crash-heavy
        // configuration.
        let mut detected = 0;
        let mut runs = 0;
        for seed in 0..24 {
            if detected >= 2 {
                break;
            }
            let cfg = QueueCampaignConfig {
                max_crashes: 40,
                crash_window: (10, 80),
                recovery_crash_prob: 0.5,
                access_jitter: Some((0.15, 40)),
                ..QueueCampaignConfig::new(80, seed)
            }
            .variant(QueueVariant::NoScan);
            let report = run_queue_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_fifo() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no FIFO violation detected in {runs} no-scan runs"
        );
    }
}
