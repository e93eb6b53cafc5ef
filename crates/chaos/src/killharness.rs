//! The §5.2 experiment with a *real* `kill(1)`: separate OS processes
//! over a file-backed NVRAM image.
//!
//! The in-process campaign ([`crate::run_campaign`]) emulates the kill
//! with deterministic fail-points. This module removes the emulation:
//! a **driver** process formats an NVRAM image file, then repeatedly
//! spawns a **worker** process (the same binary, `child-run` mode) that
//! executes CAS descriptors against the file, and SIGKILLs it at a
//! random wall-clock moment — exactly the paper's methodology ("we used
//! UNIX utility `kill` to interrupt the system at random moments"). The
//! worker's volatile state (its in-process dirty-line cache, threads,
//! volatile stack indexes) genuinely evaporates with the process; only
//! what the write-through file backend persisted survives. After each
//! kill the driver runs a **recovery** process (`child-recover` mode),
//! which it may also kill — the paper's repeated-failure scenario —
//! until one recovery pass completes. When every descriptor is done the
//! driver reads the answers from the image and runs the workload's
//! semantic verifier — §5.1 serializability for the CAS workload, the
//! FIFO witness check for the queue workload ([`KillWorkload`]).
//!
//! The driver/worker protocol lives in this module so both the
//! `kill_campaign` binary and the integration tests can drive it; see
//! `crates/chaos/src/bin/kill_campaign.rs` for the CLI.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pstack_core::{FunctionRegistry, PError, RecoveryMode, Runtime, StackKind, Task};
use pstack_kv::ShardedKvStore;
use pstack_nvram::{MemError, PMem, PMemBuilder};
use pstack_recoverable::{CasVariant, QueueVariant};
use pstack_verify::{CasHistory, FifoVerdict, QueueHistory, SerialVerdict};

use crate::campaign::CasWorkload;
use crate::cycle::{self, Cx, Machine, Policy, Single, Stacked, StaticWorkload, Tally, ROOT_OFF};
use crate::queue_campaign::QueueWorkload;

/// Magic word opening the harness header.
const ROOT_MAGIC: u64 = 0x4B49_4C4C_524F_4F54; // "KILLROOT"
/// The harness header — `[magic, workload kind]` — sits in the user
/// scratch area past the workload's own root record.
const HEADER_OFF: u64 = ROOT_OFF + 64;
/// Per-line persist latency every child runs under, emulating the
/// paper's slow HDD persists. Without it the emulated device is so fast
/// that worker processes finish before any wall-clock kill can land
/// mid-operation.
const PERSIST_DELAY: Duration = Duration::from_micros(150);
/// Probability that a recovery process is also killed (repeated
/// failures), while the kill budget lasts.
const RECOVERY_KILL_PROB: f64 = 0.3;

/// Which object (and semantic check) a kill campaign exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillWorkload {
    /// The §5.2 recoverable CAS, verified for serializability.
    Cas(CasVariant),
    /// The recoverable queue (future work 1), verified for FIFO.
    Queue(QueueVariant),
}

impl Default for KillWorkload {
    fn default() -> Self {
        KillWorkload::Cas(CasVariant::Nsrl)
    }
}

/// The workload kind as the header stores it (the variant lives in the
/// workload's own root record).
#[derive(Clone, Copy)]
enum Kind {
    Cas = 0,
    Queue = 1,
}

/// Configuration of one real-`kill` campaign.
///
/// # Example
///
/// ```
/// use pstack_chaos::KillCampaignConfig;
///
/// let cfg = KillCampaignConfig::new("/tmp/pstack-kill.img", 40, 7)
///     .kill_delay_ms(2, 20)
///     .max_kills(4);
/// assert_eq!(cfg.n_ops, 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KillCampaignConfig {
    /// Path of the NVRAM image file (created by the driver).
    pub image: PathBuf,
    /// Number of CAS descriptors.
    pub n_ops: usize,
    /// Worker threads inside each worker process — the paper uses 4.
    pub workers: usize,
    /// Inclusive operand range.
    pub value_range: (i64, i64),
    /// Seed for the workload (operands and initial value). Kill timing
    /// is wall-clock and therefore *not* reproducible — as in the paper.
    pub seed: u64,
    /// Which object (and check) the campaign exercises.
    pub workload: KillWorkload,
    /// Stack layout for the worker threads.
    pub stack_kind: StackKind,
    /// Kills of normal-mode worker processes before the driver lets the
    /// campaign run to completion.
    pub max_kills: usize,
    /// Range (inclusive, milliseconds) the driver sleeps before killing
    /// a worker process.
    pub kill_delay: (u64, u64),
}

impl KillCampaignConfig {
    /// Starts a configuration with the paper's §5.2 defaults: 4 worker
    /// threads, operands in the wide range `[-10⁵, 10⁵]`, the correct
    /// NSRL CAS, fixed stacks and a 2 MiB image.
    #[must_use]
    pub fn new(image: impl Into<PathBuf>, n_ops: usize, seed: u64) -> Self {
        KillCampaignConfig {
            image: image.into(),
            n_ops,
            workers: 4,
            value_range: (-100_000, 100_000),
            seed,
            workload: KillWorkload::Cas(CasVariant::Nsrl),
            stack_kind: StackKind::Fixed,
            max_kills: 6,
            kill_delay: (2, 25),
        }
    }

    /// Selects the CAS variant (and the CAS workload).
    #[must_use]
    pub fn variant(mut self, variant: CasVariant) -> Self {
        self.workload = KillWorkload::Cas(variant);
        self
    }

    /// Switches the campaign to the queue workload with the given
    /// variant; operand range narrows to `[-100, 100]` like the
    /// in-process queue campaign.
    #[must_use]
    pub fn queue(mut self, variant: QueueVariant) -> Self {
        self.workload = KillWorkload::Queue(variant);
        self.value_range = (-100, 100);
        self
    }

    /// Narrows the operand range to the paper's `[-10, 10]` setup.
    #[must_use]
    pub fn narrow(mut self) -> Self {
        self.value_range = (-10, 10);
        self
    }

    /// Sets the kill-delay window in milliseconds.
    #[must_use]
    pub fn kill_delay_ms(mut self, lo: u64, hi: u64) -> Self {
        self.kill_delay = (lo, hi);
        self
    }

    /// Sets the kill budget.
    #[must_use]
    pub fn max_kills(mut self, kills: usize) -> Self {
        self.max_kills = kills;
        self
    }
}

/// The collected execution and its semantic verdict, per workload.
#[derive(Debug, Clone)]
pub enum KillOutcome {
    /// A CAS campaign's history and §5.1 serializability verdict.
    Cas {
        /// The collected execution.
        history: CasHistory,
        /// The §5.1 verdict.
        verdict: SerialVerdict,
    },
    /// A queue campaign's history and FIFO verdict.
    Queue {
        /// The collected execution (answers + slot witness).
        history: QueueHistory,
        /// The FIFO verdict.
        verdict: FifoVerdict,
    },
}

impl KillOutcome {
    /// `true` if the execution passed its semantic check
    /// (serializability for CAS, FIFO for the queue).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        match self {
            KillOutcome::Cas { verdict, .. } => verdict.is_serializable(),
            KillOutcome::Queue { verdict, .. } => verdict.is_fifo(),
        }
    }

    /// Number of operations in the collected history.
    #[must_use]
    pub fn ops(&self) -> usize {
        match self {
            KillOutcome::Cas { history, .. } => history.ops.len(),
            KillOutcome::Queue { history, .. } => history.ops.len(),
        }
    }
}

/// Outcome of a real-`kill` campaign.
#[derive(Debug, Clone)]
pub struct KillCampaignReport {
    /// Worker processes spawned (killed or completed).
    pub rounds: usize,
    /// Worker processes killed by the driver.
    pub kills: usize,
    /// Recovery processes killed by the driver (repeated failures).
    pub recovery_kills: usize,
    /// Recovery processes spawned in total.
    pub recovery_attempts: usize,
    /// The collected execution and its verdict.
    pub outcome: KillOutcome,
}

impl KillCampaignReport {
    /// `true` if the execution passed its semantic check.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.outcome.is_consistent()
    }

    /// `true` if this was a CAS campaign and it verified serializable
    /// (kept for symmetry with the paper's §5.2 wording).
    #[must_use]
    pub fn is_serializable(&self) -> bool {
        matches!(
            &self.outcome,
            KillOutcome::Cas { verdict, .. } if verdict.is_serializable()
        )
    }
}

/// Opens a formatted image and says which workload it holds.
fn open_image(path: &Path) -> Result<(PMem, Kind), PError> {
    let len = std::fs::metadata(path)
        .map_err(|e| PError::InvalidConfig(format!("cannot stat image {}: {e}", path.display())))?
        .len() as usize;
    let pmem = PMemBuilder::new()
        .len(len)
        .persist_delay(PERSIST_DELAY)
        .build_file(path)?;
    let magic = cycle::read_root(&pmem, HEADER_OFF, 0)?;
    if magic != ROOT_MAGIC {
        return Err(PError::CorruptStack(format!(
            "image {} has no kill-harness root record (magic {magic:#x})",
            path.display()
        )));
    }
    let kind = match cycle::read_root(&pmem, HEADER_OFF, 1)? {
        0 => Kind::Cas,
        1 => Kind::Queue,
        other => {
            return Err(PError::InvalidConfig(format!(
                "unknown kill workload kind {other}"
            )))
        }
    };
    Ok((pmem, kind))
}

/// Re-attaches the image's workload: its registry and one task per
/// descriptor still pending.
fn attach(pmem: &PMem, kind: Kind) -> Result<(FunctionRegistry, Vec<Task>), PError> {
    fn of<W: StaticWorkload<PMem>>(
        mut w: W,
        pmem: &PMem,
    ) -> Result<(FunctionRegistry, Vec<Task>), PError> {
        let (registry, att) = w.attach(pmem)?;
        Ok((registry, w.pending(&att)?))
    }
    match kind {
        Kind::Cas => of(CasWorkload, pmem),
        Kind::Queue => of(QueueWorkload, pmem),
    }
}

/// Formats the image file for a campaign: runtime layout, the workload
/// object, its descriptor table and root record, and the harness
/// header. Run by the driver before the first worker process.
///
/// # Errors
///
/// File I/O, layout or formatting failures.
pub fn format_image(cfg: &KillCampaignConfig) -> Result<(), PError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Formatting runs without the persist delay: no process is racing a
    // kill against it.
    let (machine, rt) = Single::format(
        PMemBuilder::new(),
        None,
        Some(&cfg.image),
        cfg.workers,
        cfg.stack_kind,
    )?;
    let (pmem, heap) = (&machine.pmem, rt.heap());
    let (n_ops, range) = (cfg.n_ops, cfg.value_range);
    let kind = match cfg.workload {
        KillWorkload::Cas(variant) => {
            CasWorkload::format(pmem, heap, &mut rng, n_ops, range, cfg.workers, variant)?;
            Kind::Cas
        }
        KillWorkload::Queue(variant) => {
            QueueWorkload::format(pmem, heap, &mut rng, n_ops, range, variant)?;
            Kind::Queue
        }
    };
    cycle::write_root(pmem, HEADER_OFF, &[ROOT_MAGIC, kind as u64])
}

/// What a worker process found to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildOutcome {
    /// Every descriptor was already done; nothing ran.
    AllDone,
    /// The worker ran (and completed) the pending descriptors.
    Ran {
        /// Tasks completed in this process.
        completed: usize,
    },
}

/// Normal-mode body of a worker process: attach to the image, enqueue
/// the still-pending descriptors in random order, and run them on
/// `workers` threads. The process is expected to be SIGKILLed at any
/// moment; everything it must not lose is persisted through the file
/// backend.
///
/// # Errors
///
/// Attachment failures, or an in-process crash signal (which cannot
/// happen in a worker process — no fail-points are armed — and is
/// therefore reported as an error).
pub fn child_run(image: &Path) -> Result<ChildOutcome, PError> {
    let (pmem, kind) = open_image(image)?;
    let (registry, mut tasks) = attach(&pmem, kind)?;
    let rt = Runtime::open(pmem, &registry)?;
    if tasks.is_empty() {
        return Ok(ChildOutcome::AllDone);
    }
    // Shuffle from OS entropy: kill timing already makes runs
    // non-reproducible, and distinct processes must not replay one
    // fixed order.
    tasks.shuffle(&mut SmallRng::seed_from_u64(rand::rng().random()));
    let report = rt.run_tasks(tasks);
    if report.crashed {
        return Err(PError::Task(
            "worker process observed an in-process crash signal".into(),
        ));
    }
    Ok(ChildOutcome::Ran {
        completed: report.completed,
    })
}

/// Recovery-mode body: attach and run one parallel recovery pass over
/// all worker stacks. Returns the number of frames recovered.
///
/// # Errors
///
/// Attachment or recovery failures.
pub fn child_recover(image: &Path) -> Result<usize, PError> {
    let (pmem, kind) = open_image(image)?;
    let rt = Runtime::open(pmem.clone(), &attach(&pmem, kind)?.0)?;
    Ok(rt.recover(RecoveryMode::Parallel)?.total_frames())
}

/// Reads the completed campaign's answers from the image and runs the
/// workload's semantic check (step 9): §5.1 serializability for CAS,
/// the FIFO witness check for the queue.
///
/// # Errors
///
/// Attachment failures, or [`PError::Task`] if any descriptor is still
/// pending (the campaign has not finished).
pub fn collect_report(image: &Path) -> Result<KillOutcome, PError> {
    let (pmem, kind) = open_image(image)?;
    Ok(match kind {
        Kind::Cas => {
            let (history, verdict) = CasWorkload::verify(&CasWorkload.attach(&pmem)?.1)?;
            KillOutcome::Cas { history, verdict }
        }
        Kind::Queue => {
            let (history, verdict) = QueueWorkload::verify(&QueueWorkload.attach(&pmem)?.1)?;
            KillOutcome::Queue { history, verdict }
        }
    })
}

/// Child subcommands the driver spawns; the binary maps these onto
/// [`child_run`] / [`child_recover`].
const CHILD_RUN: &str = "child-run";
const CHILD_RECOVER: &str = "child-recover";

fn spawn_child(exe: &Path, mode: &str, image: &Path) -> std::io::Result<std::process::Child> {
    Command::new(exe)
        .arg(mode)
        .arg(image)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
}

/// Waits up to `delay`, then reports whether the child exited on its
/// own (`Some(status)`) or is still running (`None`).
fn wait_with_deadline(
    child: &mut std::process::Child,
    delay: Duration,
) -> std::io::Result<Option<std::process::ExitStatus>> {
    let deadline = std::time::Instant::now() + delay;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        if std::time::Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_micros(300));
    }
}

/// The paper's own machine: the system is an OS process over a
/// file-backed image, and it dies by SIGKILL. Its volatile state (the
/// in-process dirty-line cache, threads, volatile stack indexes)
/// genuinely evaporates; only what the write-through file backend
/// persisted survives. A kill is a wall-clock delay, not an event
/// count, so the policy's windows are milliseconds here.
struct Processes<'a> {
    exe: &'a Path,
    image: &'a Path,
    /// The driver's own handle on the image, for the quiescence check
    /// between children. It loads the file at open, so every child that
    /// ran makes it stale.
    pmem: PMem,
    /// How long the next child lives, when it is to be killed.
    deadline: Cell<Option<Duration>>,
    recovery_attempts: Cell<usize>,
}

impl Processes<'_> {
    /// Runs one child to completion or to its deadline. `true` if the
    /// driver killed it.
    fn child(&self, mode: &str, what: &str) -> Result<bool, PError> {
        let io_err =
            |context: &str, e: std::io::Error| PError::Task(format!("{context} {what}: {e}"));
        let mut child = spawn_child(self.exe, mode, self.image).map_err(|e| io_err("spawn", e))?;
        let status = match self.deadline.take() {
            Some(delay) => wait_with_deadline(&mut child, delay),
            None => child.wait().map(Some),
        }
        .map_err(|e| io_err("wait for", e))?;
        match status {
            Some(status) if status.success() => Ok(false),
            // A child that *exits with an error* is a failure; one that
            // dies from the driver's own SIGKILL is the experiment.
            Some(status) => Err(PError::Task(format!("{what} process failed: {status}"))),
            None => {
                // §5.2 step 5: the process dies with SIGKILL; its
                // unflushed dirty lines are lost with it.
                let _ = child.kill();
                let _ = child.wait();
                Ok(true)
            }
        }
    }

    fn refresh(&mut self) -> Result<(), PError> {
        self.pmem = open_image(self.image)?.0;
        Ok(())
    }
}

impl Machine for Processes<'_> {
    type Regions = PMem;
    /// Every child opens its own runtime.
    type Runtime = ();

    fn regions(&self) -> &PMem {
        &self.pmem
    }

    fn open(&self, _: &FunctionRegistry) -> Result<(), PError> {
        Ok(())
    }

    fn arm_run(&self, rng: &mut SmallRng, policy: &Policy) {
        let delay = Duration::from_millis(policy.window(rng));
        self.deadline.set(Some(delay));
    }

    fn arm_recovery(&self, rng: &mut SmallRng, policy: &Policy) {
        if policy.recovery_kill(rng) {
            let delay = Duration::from_millis(policy.fuse(rng));
            self.deadline.set(Some(delay));
        }
    }

    /// The child exited on its own; the image is what it left.
    fn disarm(&mut self) -> Result<(), PError> {
        self.refresh()
    }

    fn reopen(
        &mut self,
        (): &(),
        _: &mut dyn FnMut(&PMem) -> Result<FunctionRegistry, PError>,
        _: &mut Tally,
    ) -> Result<(), PError> {
        self.refresh()
    }

    fn sweep(&self, _: &mut Tally) {}
}

impl Stacked for Processes<'_> {
    /// The worker process re-derives the pending set from the image and
    /// enqueues it in an order of its own.
    fn run_tasks(&self, (): &(), _: Vec<Task>) -> Result<bool, PError> {
        self.child(CHILD_RUN, "worker")
    }

    fn replay(&self, (): &(), _: Option<&ShardedKvStore>) -> Result<usize, PError> {
        self.recovery_attempts.set(self.recovery_attempts.get() + 1);
        if self.child(CHILD_RECOVER, "recovery")? {
            return Err(MemError::Crashed.into());
        }
        Ok(0)
    }
}

/// Range (inclusive, milliseconds) a recovery process lives before the
/// driver kills it.
const RECOVERY_KILL_DELAY: (u64, u64) = (1, 6);

/// Runs a full real-`kill` campaign: format the image, repeatedly spawn
/// `exe child-run <image>` and SIGKILL it at a random moment, run (and
/// occasionally kill) `exe child-recover <image>` passes, and loop
/// until every descriptor completed; finally verify serializability.
///
/// `exe` must be a binary whose `child-run`/`child-recover` subcommands
/// call [`child_run`]/[`child_recover`] — normally the `kill_campaign`
/// binary itself (the driver re-invokes its own executable).
///
/// # Errors
///
/// Formatting, spawning or attachment failures, and child processes
/// that *exit with an error* (a child that dies from the driver's own
/// SIGKILL is the experiment working as intended, not an error).
pub fn run_kill_campaign(
    exe: &Path,
    cfg: &KillCampaignConfig,
) -> Result<KillCampaignReport, PError> {
    let (lo, hi) = cfg.value_range;
    assert!(lo <= hi, "empty value range");
    format_image(cfg)?;
    let mut cx = Cx::new(
        cfg.seed ^ 0x6B69_6C6C,
        Policy {
            max_crashes: cfg.max_kills,
            crash_window: cfg.kill_delay,
            crash_prob: 1.0,
            recovery_crash_prob: RECOVERY_KILL_PROB,
            recovery_fuse: RECOVERY_KILL_DELAY,
        },
    );
    let (pmem, kind) = open_image(&cfg.image)?;
    let mut machine = Processes {
        exe,
        image: &cfg.image,
        pmem,
        deadline: Cell::new(None),
        recovery_attempts: Cell::new(0),
    };
    match kind {
        Kind::Cas => cycle::cycle(&mut machine, &mut CasWorkload, &mut cx).map(drop),
        Kind::Queue => cycle::cycle(&mut machine, &mut QueueWorkload, &mut cx).map(drop),
    }?;
    Ok(KillCampaignReport {
        // The last round only found the image quiescent.
        rounds: cx.tally.rounds - 1,
        kills: cx.tally.crashes,
        recovery_kills: cx.tally.recovery_crashes,
        recovery_attempts: machine.recovery_attempts.get(),
        outcome: collect_report(&cfg.image)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_image(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pstack-kill-{tag}-{}.img", std::process::id()));
        p
    }

    #[test]
    fn format_then_attach_round_trips_root_record() {
        let image = tmp_image("root");
        let cfg = KillCampaignConfig::new(&image, 10, 3);
        format_image(&cfg).unwrap();
        let (pmem, kind) = open_image(&image).unwrap();
        assert!(matches!(kind, Kind::Cas), "default workload is CAS");
        let (registry, att) = CasWorkload.attach(&pmem).unwrap();
        assert_eq!(att.cas.processes(), 4);
        assert_eq!(att.table.len(), 10);
        assert_eq!(attach(&pmem, kind).unwrap().1.len(), 10);
        assert!(registry.contains(pstack_recoverable::CAS_TASK_FUNC_ID));
        let _ = std::fs::remove_file(&image);
    }

    #[test]
    fn attach_rejects_unformatted_image() {
        let image = tmp_image("bad");
        std::fs::write(&image, vec![0u8; 4096]).unwrap();
        assert!(matches!(open_image(&image), Err(PError::CorruptStack(_))));
        let _ = std::fs::remove_file(&image);
    }

    #[test]
    fn child_run_completes_everything_without_kills() {
        // In-process use of the child bodies: a single "worker process"
        // run with no kill must finish all descriptors, after which
        // another run reports AllDone and collect_report verifies.
        let image = tmp_image("norm");
        let cfg = KillCampaignConfig::new(&image, 12, 5);
        format_image(&cfg).unwrap();
        match child_run(&image).unwrap() {
            ChildOutcome::Ran { completed } => assert_eq!(completed, 12),
            ChildOutcome::AllDone => panic!("first run must execute tasks"),
        }
        assert_eq!(child_run(&image).unwrap(), ChildOutcome::AllDone);
        let outcome = collect_report(&image).unwrap();
        assert_eq!(outcome.ops(), 12);
        assert!(outcome.is_consistent(), "{outcome:?}");
        let _ = std::fs::remove_file(&image);
    }

    #[test]
    fn child_recover_is_idempotent_on_clean_image() {
        let image = tmp_image("rec");
        let cfg = KillCampaignConfig::new(&image, 4, 9);
        format_image(&cfg).unwrap();
        assert_eq!(child_recover(&image).unwrap(), 0);
        assert_eq!(child_recover(&image).unwrap(), 0);
        let _ = std::fs::remove_file(&image);
    }

    #[test]
    fn collect_report_rejects_incomplete_campaign() {
        let image = tmp_image("inc");
        let cfg = KillCampaignConfig::new(&image, 4, 11);
        format_image(&cfg).unwrap();
        assert!(matches!(collect_report(&image), Err(PError::Task(_))));
        let _ = std::fs::remove_file(&image);
    }

    #[test]
    fn config_builders_apply() {
        let cfg = KillCampaignConfig::new("/tmp/x", 5, 1)
            .narrow()
            .variant(CasVariant::NoMatrix)
            .kill_delay_ms(1, 2)
            .max_kills(9);
        assert_eq!(cfg.value_range, (-10, 10));
        assert_eq!(cfg.workload, KillWorkload::Cas(CasVariant::NoMatrix));
        assert_eq!(cfg.kill_delay, (1, 2));
        assert_eq!(cfg.max_kills, 9);
        let cfg = KillCampaignConfig::new("/tmp/x", 5, 1).queue(QueueVariant::Nsrl);
        assert_eq!(cfg.workload, KillWorkload::Queue(QueueVariant::Nsrl));
        assert_eq!(cfg.value_range, (-100, 100));
    }

    #[test]
    fn queue_image_round_trips_and_runs_in_process() {
        let image = tmp_image("queue");
        let cfg = KillCampaignConfig::new(&image, 14, 8).queue(QueueVariant::Nsrl);
        format_image(&cfg).unwrap();
        let (pmem, kind) = open_image(&image).unwrap();
        assert!(matches!(kind, Kind::Queue));
        assert_eq!(attach(&pmem, kind).unwrap().1.len(), 14);
        drop(pmem);
        match child_run(&image).unwrap() {
            ChildOutcome::Ran { completed } => assert_eq!(completed, 14),
            ChildOutcome::AllDone => panic!("first run must execute tasks"),
        }
        let outcome = collect_report(&image).unwrap();
        assert!(matches!(outcome, KillOutcome::Queue { .. }));
        assert!(outcome.is_consistent(), "{outcome:?}");
        let _ = std::fs::remove_file(&image);
    }
}
