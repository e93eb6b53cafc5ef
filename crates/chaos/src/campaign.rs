//! The one crash campaign of §5.2. A [`CampaignConfig`] is a row of its
//! scenario table and [`run_campaign`] runs it: what runs is the
//! [`Workload`] column, how the system dies the [`Kill`] column, and the
//! other columns are the knobs both share. Every row formats a control
//! region (superblock, worker stacks) beside a stripe of data regions and
//! runs its tasks on persistent stacks.
//!
//! The §5 objects — §5.2's recoverable CAS register, or the recoverable
//! queue — live with their descriptor tables in a one-region stripe
//! beside the control region, the shape a one-shard KV row has. That
//! static harness is here, with the register's half of it; the queue's
//! half is in `queue_campaign.rs`, the KV and served harnesses in their
//! own modules.

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use pstack_core::{FunctionRegistry, PError, StackKind, Task};
use pstack_heap::PHeap;
use pstack_kv::KvVariant;
use pstack_nvram::{PMem, PMemBuilder, PMemStripe, POffset};
use pstack_recoverable::{
    CasTaskFunction, CasVariant, QueueVariant, RecoverableCas, RecoverableQueue, TaskAnswer,
    TaskOp, TaskResult, TaskTable, CAS_TASK_FUNC_ID, QUEUE_TASK_FUNC_ID,
};
use pstack_verify::{
    check_serializability, replay_witness, CasHistory, CasOp, FifoVerdict, KvShardedHistory,
    KvVerdict, QueueHistory, SerialVerdict,
};

use crate::cycle::{self, Cx, Harness, Machine, Policy, Striped, Tally, CONTROL_REGION_LEN};
use crate::kv_campaign::{self, KvWorkload, ShardLogUsage, ANSWER_REPLAY_FUSE, SERVED_REPLAY_FUSE};
use crate::server_campaign::{self, ServedStats};

/// One row of the campaign table. Every row runs under the
/// persist-order sanitizer, whose findings its report collects, and the
/// flight recorder, whose summary it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Operations (descriptors) the workload generates; a served row's
    /// clients bring their own.
    pub n_ops: usize,
    /// Runtime worker threads — the paper uses 4.
    pub workers: usize,
    /// Master seed: workload generation, enqueue order and kill
    /// placement all draw from it. A fail-point row is deterministic per
    /// seed with one worker.
    pub seed: u64,
    /// Stack layout of the workers.
    pub stack_kind: StackKind,
    /// What runs.
    pub workload: Workload,
    /// How the system dies.
    pub kill: Kill,
    /// Kills of normal-mode rounds stop after this many; recovery passes
    /// are killed while the campaign's total stays under twice that.
    pub max_crashes: usize,
    /// Kill countdown of a normal-mode round, in persistence events:
    /// per armed region under fail-points, into the child's run under
    /// kill(1).
    pub crash_window: (u64, u64),
    /// Probability a given stripe region is armed in a given round (the
    /// control region: half of it). kill(1) arms every round.
    pub crash_prob: f64,
    /// Probability a recovery pass gets a kill.
    pub recovery_crash_prob: f64,
    /// Scheduling noise `(probability, pause-events)` on the stripe: with
    /// that probability a thread pauses after a mutating access until
    /// that many events happened on other threads — the OS preemption
    /// and slow persists of the paper's HDD deployment. `None` keeps a
    /// row deterministic.
    pub access_jitter: Option<(f64, u64)>,
    /// Where the regions live: `None` in memory; else this control file
    /// plus one file per stripe region beside it (`<image>.0`, …), made
    /// afresh — the paper's deployment, and what kill(1) runs over.
    pub image: Option<PathBuf>,
}

/// What a row runs, and the check its execution must pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// §5.2's recoverable CAS register, its operands and initial value
    /// drawn from `value_range`; §5.1 serializability.
    Cas {
        /// Correct NSRL CAS or the §5.2 buggy no-matrix variant.
        variant: CasVariant,
        /// Inclusive range operands are drawn from.
        value_range: (i64, i64),
    },
    /// The recoverable queue (future work 1), 60 % enqueues of values in
    /// `[-100, 100]`; FIFO against its slot witness.
    Queue(QueueVariant),
    /// The recoverable KV store: preloaded request tables on 1 … n
    /// shards, run as batch windows (and compactions); per-shard chains
    /// across generations, unique tags, key routing, carry-overs.
    Kv(KvWorkload),
    /// The served KV store: closed-loop clients with timeouts and
    /// retries against the server on 4 shards; exactly-once from the
    /// clients' chair.
    Served {
        /// Closed-loop clients (ids `1..=clients`).
        clients: usize,
        /// Operations each client must complete (done **and** acked).
        ops_per_client: usize,
        /// Per-shard admission-queue capacity; excess load sheds as
        /// explicit `Overloaded` responses.
        queue_capacity: usize,
        /// Correct NSRL recovery or the no-scan bug.
        variant: KvVariant,
    },
}

/// How a row's system dies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kill {
    /// Seeded fail-points in this process.
    FailPoints,
    /// `kill(1)`: `exe child-run <image>` and `exe child-recover <image>`
    /// processes over the row's image, each SIGKILLed once it reports
    /// the drawn event count. CAS and queue rows, unix, `kill-harness`
    /// feature; kill timing is not reproducible, the verdicts are.
    Processes {
        /// A binary whose child modes call [`crate::child_run`] and
        /// [`crate::child_recover`] — normally the `kill_campaign` CLI.
        exe: PathBuf,
    },
}

/// The paper's wide operand range, `[-10⁵, 10⁵]`.
const WIDE: (i64, i64) = (-100_000, 100_000);

impl CampaignConfig {
    /// A fail-point row of `workload` with the paper's defaults: 4
    /// workers on fixed stacks, in memory, every round armed while 8
    /// kills last, 30 % of recovery passes killed. Countdowns are
    /// 40..=400 events, or 10..=100 in a §5 object's region, which sees
    /// its object's persists but not the stack's.
    #[must_use]
    pub fn new(workload: Workload, n_ops: usize, seed: u64) -> Self {
        let crash_window = match workload {
            Workload::Cas { .. } | Workload::Queue(_) => (10, 100),
            _ => (40, 400),
        };
        CampaignConfig {
            n_ops,
            workers: 4,
            seed,
            stack_kind: StackKind::Fixed,
            workload,
            kill: Kill::FailPoints,
            max_crashes: 8,
            crash_window,
            crash_prob: 1.0,
            recovery_crash_prob: 0.3,
            access_jitter: None,
            image: None,
        }
    }

    /// §5.2's wide-range CAS row: operands in `[-10⁵, 10⁵]`.
    #[must_use]
    pub fn wide(n_ops: usize, seed: u64) -> Self {
        let workload = Workload::Cas {
            variant: CasVariant::Nsrl,
            value_range: WIDE,
        };
        Self::new(workload, n_ops, seed)
    }

    /// §5.2's narrow-range CAS row: operands in `[-10, 10]`, which forces
    /// duplicate values (multigraph edges in the verifier).
    #[must_use]
    pub fn narrow(n_ops: usize, seed: u64) -> Self {
        let workload = Workload::Cas {
            variant: CasVariant::Nsrl,
            value_range: (-10, 10),
        };
        Self::new(workload, n_ops, seed)
    }

    /// A served row: `clients` completing `ops_per_client` each over
    /// 64-entry admission queues, one worker (deterministic per seed),
    /// shard regions armed with probability ½ and countdowns of 8..=60
    /// events.
    #[must_use]
    pub fn served(clients: usize, ops_per_client: usize, seed: u64) -> Self {
        let workload = Workload::Served {
            clients,
            ops_per_client,
            queue_capacity: 64,
            variant: KvVariant::Nsrl,
        };
        CampaignConfig {
            workers: 1,
            crash_window: (8, 60),
            crash_prob: 0.5,
            ..Self::new(workload, 0, seed)
        }
    }

    /// Selects the stack layout.
    #[must_use]
    pub fn stack(mut self, kind: StackKind) -> Self {
        self.stack_kind = kind;
        self
    }

    fn policy(&self) -> Policy {
        let recovery_fuse = match &self.workload {
            Workload::Kv(kv) => kv.recovery_fuse(),
            Workload::Served { .. } => SERVED_REPLAY_FUSE,
            _ => ANSWER_REPLAY_FUSE,
        };
        Policy {
            max_crashes: self.max_crashes,
            crash_window: self.crash_window,
            crash_prob: self.crash_prob,
            recovery_crash_prob: self.recovery_crash_prob,
            recovery_fuse,
        }
    }

    /// The row's control region and a stripe of `shards` regions of
    /// `len` bytes, in memory or on fresh image files.
    pub(crate) fn regions(&self, shards: usize, len: usize) -> Result<(PMem, PMemStripe), PError> {
        let control = PMemBuilder::new().psan(true).len(CONTROL_REGION_LEN);
        let mut data = PMemBuilder::new().psan(true).len(len);
        if let Some((prob, pause_events)) = self.access_jitter {
            data = data.access_jitter(prob, pause_events);
        }
        let Some(image) = &self.image else {
            return Ok((control.build_in_memory(), data.build_striped(shards)));
        };
        let fresh = |builder: PMemBuilder, path: &Path| {
            let _ = std::fs::remove_file(path);
            builder.build_file(path)
        };
        let _ = std::fs::remove_file(stripe_file(image, shards));
        let regions = (0..shards).map(|i| {
            let region = fresh(data.clone(), &stripe_file(image, i))?;
            region.set_label(&format!("shard-{i}"));
            Ok(region)
        });
        let regions = regions.collect::<Result<Vec<_>, PError>>()?;
        Ok((fresh(control, image)?, PMemStripe::from_regions(regions)))
    }
}

/// Stripe region `i`'s file beside an image's control file.
pub(crate) fn stripe_file(image: &Path, i: usize) -> PathBuf {
    let mut path = image.as_os_str().to_owned();
    path.push(format!(".{i}"));
    path.into()
}

/// The collected execution and the verdict of its workload's check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Execution {
    /// A CAS row's history and §5.1 verdict (a positive one with its
    /// witness replayed).
    Cas {
        /// Answers, initial and final value.
        history: CasHistory,
        /// The §5.1 verdict.
        verdict: SerialVerdict,
    },
    /// A queue row's history and FIFO verdict.
    Queue {
        /// Answers plus the slot witness.
        history: QueueHistory,
        /// The FIFO verdict.
        verdict: FifoVerdict,
    },
    /// A KV or served row's history — answers (the clients' own
    /// observations in a served row) plus each shard's chain witness
    /// across its generations — and the generation-aware sharded
    /// linearizability verdict.
    Kv {
        /// Answers plus chain witnesses.
        history: KvShardedHistory,
        /// The sharded verdict.
        verdict: KvVerdict,
    },
}

impl Execution {
    /// `true` if the execution passed its check.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        match self {
            Execution::Cas { verdict, .. } => verdict.is_serializable(),
            Execution::Queue { verdict, .. } => verdict.is_fifo(),
            Execution::Kv { verdict, .. } => verdict.is_linearizable(),
        }
    }

    /// Operations in the collected history.
    #[must_use]
    pub fn ops(&self) -> usize {
        match self {
            Execution::Cas { history, .. } => history.ops.len(),
            Execution::Queue { history, .. } => history.ops.len(),
            Execution::Kv { history, .. } => history.ops.len(),
        }
    }
}

/// What a campaign found. Reads as its [`Tally`]: `report.crashes`,
/// `report.crash_sites`, `report.total_crashes()`, ….
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Rounds, crashes, recovered frames, crash sites, recovery
    /// durations, the stripe's NVRAM statistics, sanitizer findings
    /// (expected empty unless the row seeds a persist-order bug) and the
    /// flight-recorder summary.
    pub tally: Tally,
    /// The collected execution and its verdict.
    pub execution: Execution,
    /// KV and served rows: per-shard log usage of the active generations
    /// at the end.
    pub log_usage: Vec<ShardLogUsage>,
    /// KV and served rows: per-shard active generation at the end — the
    /// compactions each shard committed.
    pub generations: Vec<u64>,
    /// KV rows: the per-shard log capacity the store was formatted with.
    pub log_cap: u64,
    /// KV rows: mutation descriptors in the workload (put/delete/cas).
    pub mutations: usize,
    /// KV rows: normal-mode crashes that landed in a round's compaction
    /// tasks.
    pub compaction_kills: usize,
    /// KV rows: compaction kills the next completed recovery pass settled
    /// by replaying a `KvCompactFunction` frame.
    pub compaction_replays: usize,
    /// Served rows: what the clients saw.
    pub served: Option<ServedStats>,
}

impl Deref for CampaignReport {
    type Target = Tally;

    fn deref(&self) -> &Tally {
        &self.tally
    }
}

impl DerefMut for CampaignReport {
    fn deref_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

impl CampaignReport {
    pub(crate) fn new(tally: Tally, execution: Execution) -> Self {
        CampaignReport {
            tally,
            execution,
            log_usage: Vec::new(),
            generations: Vec::new(),
            log_cap: 0,
            mutations: 0,
            compaction_kills: 0,
            compaction_replays: 0,
            served: None,
        }
    }

    /// `true` if the execution passed its workload's check.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.execution.is_consistent()
    }
}

/// Runs one row: formats its system, runs §5.2's loop under its kill
/// policy, and checks the quiescent execution (step 9). A fail-point row
/// is deterministic per seed with one worker.
///
/// # Errors
///
/// Setup failures, and [`PError::InvalidConfig`] for a kill(1) row that
/// is not a CAS or queue row, has no image, or was built without the
/// `kill-harness` feature on unix. Crashes are the experiment, not
/// errors.
///
/// # Panics
///
/// On a row with no worker, no shard, an empty key space or value range,
/// and if a runtime worker thread panics.
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_campaign, CampaignConfig, KvWorkload, Workload};
/// use pstack_recoverable::QueueVariant;
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// assert!(run_campaign(&CampaignConfig::wide(40, 7))?.is_consistent());
/// let queue = CampaignConfig::new(Workload::Queue(QueueVariant::Nsrl), 30, 7);
/// assert!(run_campaign(&queue)?.is_consistent());
/// let sharded = KvWorkload { shards: 4, group_commit: 8, ..KvWorkload::default() };
/// let report = run_campaign(&CampaignConfig::new(Workload::Kv(sharded), 40, 7))?;
/// assert!(report.is_consistent());
/// assert_eq!(report.log_usage.len(), 4);
/// let served = run_campaign(&CampaignConfig::served(2, 6, 11))?;
/// assert!(served.is_consistent());
/// assert_eq!(served.served.map(|s| s.client_stats.completed), Some(12));
/// # Ok(())
/// # }
/// ```
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, PError> {
    assert!(cfg.workers > 0, "at least one worker");
    cycle::traced(|| {
        let mut cx = Cx::new(cfg.seed, cfg.policy());
        match (&cfg.workload, &cfg.kill) {
            (Workload::Kv(kv), Kill::FailPoints) => return kv_campaign::run(cfg, kv, cx),
            (Workload::Served { .. }, Kill::FailPoints) => return server_campaign::run(cfg, cx),
            (Workload::Kv(_) | Workload::Served { .. }, Kill::Processes { .. }) => {
                let msg = "kill(1) rows run the CAS and queue workloads only";
                return Err(PError::InvalidConfig(msg.into()));
            }
            _ => {}
        }
        let (control, stripe) = cfg.regions(1, OBJECT_REGION_LEN)?;
        let mut object = Object::format(cfg, stripe.region(0), &mut cx.rng)?;
        let mut machine = Striped::format(control, stripe, cfg.workers, cfg.stack_kind)?;
        let objects = match &cfg.kill {
            Kill::FailPoints => cycle::cycle(&mut machine, &mut object, &mut cx)?,
            Kill::Processes { exe } => kill_processes(&machine, object, exe, cfg, &mut cx)?,
        };
        Ok(CampaignReport::new(cx.tally, objects.verify()?))
    })
}

#[cfg(all(unix, feature = "kill-harness"))]
use crate::killharness::drive as kill_processes;

#[cfg(not(all(unix, feature = "kill-harness")))]
fn kill_processes(
    _: &Striped,
    _: Object,
    _: &Path,
    _: &CampaignConfig,
    _: &mut Cx,
) -> Result<Objects, PError> {
    let msg = "kill(1) rows need the `kill-harness` feature on unix";
    Err(PError::InvalidConfig(msg.into()))
}

/// Length of the stripe region a §5 object and its descriptor table live
/// in.
pub(crate) const OBJECT_REGION_LEN: usize = 1 << 20;

/// Where the object heap starts in that region, past its root record
/// (at [`cycle::ROOT_OFF`]).
const OBJECT_HEAP_OFF: u64 = 128;

/// A static row's object: what its descriptor tasks run against, and
/// what a kill(1) image's header records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {
    /// The recoverable CAS register.
    Cas = 0,
    /// The recoverable queue.
    Queue = 1,
}

/// An object and its descriptor table on one boot's stripe.
pub(crate) enum Objects {
    Cas {
        cas: RecoverableCas,
        table: TaskTable,
        init: i64,
    },
    Queue {
        queue: RecoverableQueue,
        table: TaskTable,
    },
}

impl Object {
    /// Steps 1–2 and the format: draws the row's descriptors and formats
    /// the object, its table and their root record in `region`.
    pub(crate) fn format(
        cfg: &CampaignConfig,
        region: &PMem,
        rng: &mut SmallRng,
    ) -> Result<Object, PError> {
        let heap_len = region.len() as u64 - OBJECT_HEAP_OFF;
        let heap = PHeap::format(region.clone(), POffset::new(OBJECT_HEAP_OFF), heap_len)?;
        match cfg.workload {
            Workload::Cas {
                variant,
                value_range,
            } => {
                format_cas(region, &heap, rng, cfg, value_range, variant)?;
                Ok(Object::Cas)
            }
            Workload::Queue(variant) => {
                crate::queue_campaign::format(region, &heap, rng, cfg.n_ops, variant)?;
                Ok(Object::Queue)
            }
            _ => unreachable!("KV and served rows format their own stripe"),
        }
    }

    /// Re-attaches the object and its table in region 0 of `stripe`,
    /// beside the registry that runs their descriptors.
    pub(crate) fn open(self, stripe: &PMemStripe) -> Result<(FunctionRegistry, Objects), PError> {
        let region = stripe.region(0);
        match self {
            Object::Cas => open_cas(region),
            Object::Queue => crate::queue_campaign::open(region),
        }
    }
}

impl Objects {
    /// One task per descriptor still pending.
    pub(crate) fn pending(&self) -> Result<Vec<Task>, PError> {
        let (func_id, pending) = match self {
            Objects::Cas { table, .. } => (CAS_TASK_FUNC_ID, table.pending()?),
            Objects::Queue { table, .. } => (QUEUE_TASK_FUNC_ID, table.pending()?),
        };
        let task = |i: usize| Task::new(func_id, (i as u64).to_le_bytes().to_vec());
        Ok(pending.into_iter().map(task).collect())
    }

    /// Step 9: answers, the object's final state, the workload's check.
    ///
    /// # Errors
    ///
    /// [`PError::Task`] if a descriptor is still pending.
    pub(crate) fn verify(&self) -> Result<Execution, PError> {
        match self {
            Objects::Cas { cas, table, init } => verify_cas(cas, table, *init),
            Objects::Queue { queue, table } => crate::queue_campaign::verify(queue, table),
        }
    }
}

/// A static workload: the pending descriptors are each round's tasks, in
/// random order, and a recovery pass is frame replay alone.
impl<M: Machine> Harness<M> for Object {
    type Attached = Objects;
    type Work = Vec<Task>;

    fn attach(&mut self, stripe: &PMemStripe) -> Result<(FunctionRegistry, Objects), PError> {
        self.open(stripe)
    }

    fn enqueue(&mut self, objects: &Objects, cx: &mut Cx) -> Result<Option<Vec<Task>>, PError> {
        let mut tasks = objects.pending()?;
        tasks.shuffle(&mut cx.rng);
        Ok((!tasks.is_empty()).then_some(tasks))
    }

    fn run(
        &mut self,
        (m, rt, _): (&M, &M::Runtime, &Objects),
        tasks: Vec<Task>,
    ) -> Result<bool, PError> {
        m.run_tasks(rt, tasks)
    }

    fn recover(&mut self, (m, rt, _): (&M, &M::Runtime, &Objects)) -> Result<usize, PError> {
        m.replay(rt, None)
    }
}

/// The word of a §5 row's root record that holds its descriptor table's
/// base: `[object base, table base, …]`.
const ROOT_TABLE: u64 = 1;

/// The descriptor table of a §5 row's `region`, found at the row's root
/// record.
///
/// # Errors
///
/// As [`TaskTable::open`], or NVRAM errors.
pub(crate) fn open_table(region: &PMem) -> Result<TaskTable, PError> {
    let base = cycle::read_root(region, cycle::ROOT_OFF, ROOT_TABLE)?;
    TaskTable::open(region.clone(), POffset::new(base))
}

/// §5.2 steps 1–2: draws the initial value and the `(old, new)` operands
/// from `(lo, hi)`, and formats the register — one process per worker —
/// and its descriptor table. Root record: `[cas base, table base,
/// initial value, workers, variant]`.
fn format_cas(
    region: &PMem,
    heap: &PHeap,
    rng: &mut SmallRng,
    cfg: &CampaignConfig,
    (lo, hi): (i64, i64),
    variant: CasVariant,
) -> Result<(), PError> {
    assert!(lo <= hi, "empty value range");
    let init: i64 = rng.random_range(lo..=hi);
    let ops: Vec<TaskOp> = (0..cfg.n_ops)
        .map(|_| TaskOp::Cas {
            old: rng.random_range(lo..=hi),
            new: rng.random_range(lo..=hi),
        })
        .collect();
    let cas = RecoverableCas::format(region.clone(), heap, cfg.workers, init, variant)?;
    let table = TaskTable::format(region.clone(), heap, &ops)?;
    let root = [
        cas.base().get(),
        table.base().get(),
        init as u64,
        cfg.workers as u64,
        u64::from(variant.as_u8()),
    ];
    cycle::write_root(region, cycle::ROOT_OFF, &root)
}

fn open_cas(region: &PMem) -> Result<(FunctionRegistry, Objects), PError> {
    let root = |i| cycle::read_root(region, cycle::ROOT_OFF, i);
    let variant = CasVariant::from_u8(root(4)? as u8)?;
    let base = POffset::new(root(0)?);
    let cas = RecoverableCas::open(region.clone(), base, root(3)? as usize, variant);
    let table = open_table(region)?;
    let mut registry = FunctionRegistry::new();
    let func = CasTaskFunction::new(cas.clone(), table.clone());
    registry.register(CAS_TASK_FUNC_ID, func.into_arc())?;
    let init = root(2)? as i64;
    Ok((registry, Objects::Cas { cas, table, init }))
}

fn verify_cas(cas: &RecoverableCas, table: &TaskTable, init: i64) -> Result<Execution, PError> {
    let ops = answered(table, |_, op, answer| match (op, answer.result) {
        (TaskOp::Cas { old, new }, TaskResult::Swapped(success)) => Some(CasOp {
            pid: answer.executor as usize,
            old,
            new,
            success,
        }),
        _ => None,
    })?;
    let history = CasHistory::new(init, cas.read()?, ops);
    let verdict = check_serializability(&history);
    if let SerialVerdict::Serializable { order } = &verdict {
        // Positive verdicts are independently replayed; a failure here
        // would be a checker bug, not an execution bug.
        replay_witness(&history, order).expect("serializability witness must replay");
    }
    Ok(Execution::Cas { history, verdict })
}

/// Step 9's input: every descriptor of `table` with its answer, each
/// mapped by `f` (handed the index, the op and the answer; `None` for an
/// op the workload does not run).
///
/// # Errors
///
/// [`PError::Task`] if a descriptor is still pending or `f` refuses one.
pub(crate) fn answered<T>(
    table: &TaskTable,
    mut f: impl FnMut(usize, TaskOp, TaskAnswer) -> Option<T>,
) -> Result<Vec<T>, PError> {
    (0..table.len())
        .map(|idx| {
            let answer = table.result(idx)?.ok_or_else(|| {
                PError::Task(format!(
                    "descriptor {idx} still pending; campaign incomplete"
                ))
            })?;
            let op = table.op(idx)?;
            f(idx, op, answer).ok_or_else(|| {
                PError::Task(format!(
                    "descriptor {idx}: {op:?} is not this workload's op"
                ))
            })
        })
        .collect()
}

#[cfg(test)]
/// The scenario table's test side: the shapes rows start from, and the
/// two ways a row runs — as a ≥ 200-cycle gate, or as a negative control
/// scanned across seeds until its check rejects it with the expected
/// verdict. The workload modules' tests hold the rows.
pub(crate) mod table {
    use super::*;
    use pstack_core::CrashRegion;
    use pstack_verify::{FifoViolation, KvViolation};

    /// The three stack layouts.
    pub(crate) const STACK_KINDS: [StackKind; 3] =
        [StackKind::Fixed, StackKind::Vec, StackKind::List];

    /// A KV row of `kv`'s shape on [`CampaignConfig::new`]'s defaults.
    pub(crate) fn kv(kv: KvWorkload, n_ops: usize, seed: u64) -> CampaignConfig {
        CampaignConfig::new(Workload::Kv(kv), n_ops, seed)
    }

    /// `row` with its KV columns changed by `f`.
    pub(crate) fn with_kv(
        mut row: CampaignConfig,
        f: impl FnOnce(&mut KvWorkload),
    ) -> CampaignConfig {
        let Workload::Kv(kv) = &mut row.workload else {
            panic!("not a KV row: {row:?}");
        };
        f(kv);
        row
    }

    /// Four shards in group commits of 8, kill countdowns short enough to
    /// land inside batch windows.
    pub(crate) fn sharded(n_ops: usize, seed: u64) -> CampaignConfig {
        let shape = KvWorkload {
            shards: 4,
            group_commit: 8,
            ..KvWorkload::default()
        };
        CampaignConfig {
            crash_window: (8, 80),
            crash_prob: 0.6,
            recovery_crash_prob: 0.35,
            ..kv(shape, n_ops, seed)
        }
    }

    /// Two shards whose 32-slot logs the traffic (10 hot keys) overruns
    /// several times, compacted below 35 % headroom by one worker, with
    /// kills inside half of the compactions.
    pub(crate) fn compacting(n_ops: usize, seed: u64) -> CampaignConfig {
        let shape = KvWorkload {
            shards: 2,
            group_commit: 4,
            key_space: 10,
            op_mix: (0.55, 0.2, 0.1),
            compact_threshold: 0.35,
            log_cap_per_shard: Some(32),
            compaction_crash_prob: 0.5,
            ..KvWorkload::default()
        };
        CampaignConfig {
            workers: 1,
            max_crashes: 10,
            crash_window: (4, 60),
            crash_prob: 0.25,
            recovery_crash_prob: 0.4,
            ..kv(shape, n_ops, seed)
        }
    }

    /// What a gate's campaigns added up to, per kill class.
    #[derive(Debug, Default)]
    pub(crate) struct Gate {
        pub campaigns: usize,
        pub cycles: usize,
        pub recovery_kills: usize,
        pub shard_kills: usize,
        pub control_kills: usize,
        pub compaction_kills: usize,
        pub compaction_replays: usize,
        pub frames: usize,
        pub outlived: usize,
        pub async_flushes: u64,
        pub flights_cut: u64,
    }

    /// Runs `row(0)`, `row(1)`, … until the campaigns add up to ≥ 200
    /// crash/recover cycles, and prints the kills per class. Every
    /// campaign must verify and be PSan-clean; a KV row that does not
    /// compact must keep log headroom (a filled log stops exercising
    /// recovery), and a served row must finish every client.
    pub(crate) fn gate(row: impl Fn(u64) -> CampaignConfig) -> Gate {
        let mut g = Gate::default();
        for seed in 0.. {
            let cfg = row(seed);
            let report = run_campaign(&cfg).unwrap();
            let at = format!("seed {}", cfg.seed);
            assert!(
                report.is_consistent(),
                "{at}: after {} crashes ({} in compactions): {:?}",
                report.total_crashes(),
                report.compaction_kills,
                report.execution
            );
            assert!(
                report.psan_violations.is_empty(),
                "{at}: sanitizer findings: {:?}",
                report.psan_violations
            );
            match cfg.workload {
                Workload::Kv(kv) if kv.compact_threshold == 0.0 => assert!(
                    report.log_had_headroom(),
                    "{at}: {} filled — cycles stopped exercising recovery",
                    report.tightest_shard()
                ),
                Workload::Served {
                    clients,
                    ops_per_client,
                    ..
                } => {
                    let served = report.served.as_ref().expect("served rows report clients");
                    let completed = served.client_stats.completed as usize;
                    assert_eq!(completed, clients * ops_per_client, "{at}: lost acks");
                    assert!(!served.slo.is_empty(), "{at}: no SLO summary");
                }
                _ => {}
            }
            let control_kills = report.kills_in(CrashRegion::Runtime);
            g.campaigns += 1;
            g.cycles += report.total_crashes();
            g.recovery_kills += report.recovery_crashes;
            g.control_kills += control_kills;
            g.shard_kills += report.crash_sites.len() - control_kills;
            g.compaction_kills += report.compaction_kills;
            g.compaction_replays += report.compaction_replays;
            g.frames += report.recovered_frames;
            g.outlived += usize::from(report.outlived_original_capacity());
            g.async_flushes += report.stats.async_flushes;
            g.flights_cut += report.stats.flights_cut;
            if g.cycles >= 200 {
                break;
            }
        }
        println!("gate: {g:?}");
        g
    }

    /// Runs a negative-control row over seeds 0..64, stopping at the
    /// second campaign whose execution shows the `expected` verdict; how
    /// many did.
    pub(crate) fn caught(
        row: impl Fn(u64) -> CampaignConfig,
        expected: impl Fn(&Execution) -> bool,
    ) -> usize {
        let mut detected = 0;
        for seed in 0..64 {
            if detected >= 2 {
                break;
            }
            if expected(&run_campaign(&row(seed)).unwrap().execution) {
                detected += 1;
            }
        }
        detected
    }

    /// §5.2's verdict on the no-matrix CAS: not serializable.
    pub(crate) fn non_serializable(e: &Execution) -> bool {
        let not = |v: &SerialVerdict| matches!(v, SerialVerdict::NotSerializable { .. });
        matches!(e, Execution::Cas { verdict, .. } if not(verdict))
    }

    /// An enqueue applied twice.
    pub(crate) fn duplicate_enqueue(e: &Execution) -> bool {
        let dup = |v: &FifoVerdict| {
            matches!(
                v,
                FifoVerdict::NotFifo {
                    violation: FifoViolation::DuplicateEnqueue { .. }
                }
            )
        };
        matches!(e, Execution::Queue { verdict, .. } if dup(verdict))
    }

    /// A KV mutation applied twice.
    pub(crate) fn duplicate_application(e: &Execution) -> bool {
        let dup = |v: &KvVerdict| {
            matches!(
                v.violation(),
                Some(KvViolation::DuplicateApplication { .. })
            )
        };
        matches!(e, Execution::Kv { verdict, .. } if dup(verdict))
    }
}

#[cfg(test)]
mod tests {
    use super::table::{caught, non_serializable, STACK_KINDS};
    use super::*;
    use pstack_core::CrashRegion;

    fn cas_history(report: &CampaignReport) -> &CasHistory {
        let Execution::Cas { history, .. } = &report.execution else {
            panic!("not a CAS row: {:?}", report.execution);
        };
        history
    }

    #[test]
    fn wide_campaign_is_serializable_and_crashes() {
        let report = run_campaign(&CampaignConfig::wide(60, 42)).unwrap();
        assert!(report.is_consistent(), "{:?}", report.execution);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert_eq!(report.execution.ops(), 60);
        assert!(report.rounds > 1);
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
        // The register's persists and the stack's own are hit apart.
        assert!(
            report.kills_in(CrashRegion::Shard(0)) > 0,
            "no kill in the register's region: {:?}",
            report.crash_sites
        );
        assert!(
            report.kills_in(CrashRegion::Runtime) > 0,
            "no kill in the control region: {:?}",
            report.crash_sites
        );
    }

    #[test]
    fn narrow_campaign_is_serializable_with_duplicates() {
        let report = run_campaign(&CampaignConfig::narrow(60, 43)).unwrap();
        assert!(report.is_consistent(), "{:?}", report.execution);
        assert_eq!(report.psan_violations, []);
        // Narrow range all but guarantees duplicate operand pairs.
        let ops = cas_history(&report).ops.iter();
        let mut pairs: Vec<(i64, i64)> = ops.map(|o| (o.old, o.new)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert!(pairs.len() < 60, "narrow range should produce duplicates");
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        // Single worker: thread scheduling cannot perturb the history,
        // so two runs with one seed must agree bit for bit.
        let cfg = CampaignConfig {
            workers: 1,
            ..CampaignConfig::wide(30, 7)
        };
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.execution, b.execution);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.psan_violations, []);
    }

    #[test]
    fn all_stack_kinds_complete_campaigns() {
        for kind in STACK_KINDS {
            let report = run_campaign(&CampaignConfig::wide(30, 11).stack(kind)).unwrap();
            assert!(
                report.is_consistent(),
                "stack {kind}: {:?}",
                report.execution
            );
            assert_eq!(report.psan_violations, [], "stack {kind}");
        }
    }

    #[test]
    fn buggy_cas_is_caught_across_seeds() {
        // §5.2: executions of the no-matrix CAS "were reported to be
        // non-serializable". Detection is per-run probabilistic — the
        // bug needs a crash to land between a CAS taking effect and its
        // answer persisting, with a concurrent overwrite in between —
        // so scan seeds with a high-contention, crash-heavy row.
        let detected = caught(
            |seed| CampaignConfig {
                workload: Workload::Cas {
                    variant: CasVariant::NoMatrix,
                    value_range: (-1, 1),
                },
                max_crashes: 40,
                crash_window: (10, 80),
                recovery_crash_prob: 0.5,
                access_jitter: Some((0.15, 40)),
                ..CampaignConfig::wide(80, seed)
            },
            non_serializable,
        );
        assert!(detected > 0, "no non-serializable execution detected");
    }

    #[test]
    fn file_backed_campaign_matches_paper_deployment() {
        // §5.2 ran on HDD-backed mmap; the same campaign on image files
        // must behave identically (and leave a valid image).
        let mut path = std::env::temp_dir();
        path.push(format!("pstack-campaign-{}.img", std::process::id()));
        let cfg = CampaignConfig {
            image: Some(path.clone()),
            ..CampaignConfig::narrow(30, 21)
        };
        let report = run_campaign(&cfg).unwrap();
        assert!(report.is_consistent(), "{:?}", report.execution);
        assert_eq!(report.psan_violations, []);
        assert!(path.exists() && stripe_file(&path, 0).exists());
        let _ = std::fs::remove_file(stripe_file(&path, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn correct_cas_never_flagged_across_seeds() {
        for seed in 100..110 {
            let report = run_campaign(&CampaignConfig::narrow(40, seed)).unwrap();
            assert!(
                report.is_consistent(),
                "seed {seed}: correct CAS flagged non-serializable: {:?}",
                report.execution
            );
            assert_eq!(report.psan_violations, [], "seed {seed}");
        }
    }
}
