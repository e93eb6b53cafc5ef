//! §5.2's crash cycle, written once.
//!
//! The paper's experiment is one loop: enqueue what is pending in random
//! order (steps 3 and 7), run it (4), fail at a random moment (5),
//! restart in recovery mode — which may fail again — until one pass
//! completes (6), and repeat until nothing is pending (8). [`cycle`] is
//! that loop. What it runs is split along the line the paper draws:
//!
//! * a [`Harness`] is **what is under test**: it re-attaches its objects
//!   to a boot's stripe and hands back the registry, produces a round's
//!   work (or reports quiescence), runs it, and says what one recovery
//!   pass is;
//! * a [`Machine`] is **how the system runs and dies**: where kills go,
//!   how a crash takes the whole system down and is attributed, and how
//!   the regions come back. Every machine is a control region beside a
//!   stripe, its tasks running on persistent stacks. One lives here —
//!   [`Striped`], this process under seeded fail-points; the other, OS
//!   processes SIGKILLed over image files, is the `kill-harness`
//!   feature's.
//!
//! Kill placement is a [`Policy`] of the row's values; the budget rule
//! is one: `max_crashes` bounds the kills of normal-mode rounds, and
//! recovery passes are killed while the campaign's total stays under
//! twice that.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pstack_core::{
    CrashRegion, CrashSite, FunctionRegistry, PError, RecoveryMode, RuntimeConfig, StackKind,
    StripedRuntime, Task,
};
use pstack_kv::ShardedKvStore;
use pstack_nvram::{FailPlan, PMem, PMemStripe, POffset, PsanViolation, StatsSnapshot};
use pstack_telemetry::{TelemetrySummary, TraceSession};

/// What every campaign counts, whatever it tests and however it dies.
/// The report dereferences to it, so `report.crashes`,
/// `report.crash_sites`, … read the same for every row.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Normal-mode rounds: every boot that looked for pending work,
    /// the last of which found none (≥ 1).
    pub rounds: usize,
    /// Crashes during normal-mode rounds.
    pub crashes: usize,
    /// Crashes inside recovery passes — §5.2's repeated failures.
    pub recovery_crashes: usize,
    /// Frames completed by recovery passes run in this process.
    pub recovered_frames: usize,
    /// Attribution of each crash, in reboot order: the region that
    /// tripped first and its frozen persistence-event counter (none
    /// under kill(1)).
    pub crash_sites: Vec<CrashSite>,
    /// Wall-clock duration of each crash→recovery cycle, from the
    /// reboot to the recovery pass that completed. A kill *inside*
    /// recovery extends the cycle it interrupted.
    pub recovery_durations: Vec<Duration>,
    /// NVRAM statistics of the stripe summed over every boot (a control
    /// region's stack traffic is not counted).
    pub stats: StatsSnapshot,
    /// Persist-order sanitizer findings across every region and boot.
    pub psan_violations: Vec<PsanViolation>,
    /// Flight-recorder summary of the whole campaign.
    pub telemetry: TelemetrySummary,
}

impl Tally {
    /// Crash/recover cycles survived: kills in normal rounds plus kills
    /// inside recovery.
    #[must_use]
    pub fn total_crashes(&self) -> usize {
        self.crashes + self.recovery_crashes
    }

    /// Crashes attributed to `region`.
    #[must_use]
    pub fn kills_in(&self, region: CrashRegion) -> usize {
        let sites = self.crash_sites.iter();
        sites.filter(|site| site.region == region).count()
    }
}

/// Everything a seed determines. Wall-clock fields (`recovery_durations`,
/// `telemetry`) are left out, so two runs of one seed compare equal.
impl PartialEq for Tally {
    fn eq(&self, other: &Self) -> bool {
        let counts = |t: &Tally| (t.rounds, t.crashes, t.recovery_crashes, t.recovered_frames);
        counts(self) == counts(other)
            && self.crash_sites == other.crash_sites
            && self.stats == other.stats
            && self.psan_violations == other.psan_violations
    }
}

/// Kill placement: the row's values.
#[derive(Debug, Clone)]
pub(crate) struct Policy {
    /// Kills of normal-mode rounds stop after this many.
    pub max_crashes: usize,
    /// Kill countdown of a normal-mode round, in persistence events.
    pub crash_window: (u64, u64),
    /// Probability a given stripe region is armed in a given round.
    pub crash_prob: f64,
    /// Probability a recovery pass gets a kill; zero draws nothing.
    pub recovery_crash_prob: f64,
    /// Countdown of a recovery kill — short enough to land inside the
    /// pass, which is a property of what the workload replays.
    pub recovery_fuse: (u64, u64),
}

impl Policy {
    pub(crate) fn window(&self, rng: &mut SmallRng) -> u64 {
        rng.random_range(self.crash_window.0..=self.crash_window.1)
    }

    pub(crate) fn recovery_kill(&self, rng: &mut SmallRng) -> bool {
        self.recovery_crash_prob > 0.0 && rng.random_bool(self.recovery_crash_prob)
    }

    pub(crate) fn fuse(&self, rng: &mut SmallRng) -> u64 {
        rng.random_range(self.recovery_fuse.0..=self.recovery_fuse.1)
    }
}

/// One campaign's seeded state: the master RNG (workload generation,
/// enqueue order and kill placement all draw from it, in that order),
/// the running tally and the kill policy.
pub(crate) struct Cx {
    pub rng: SmallRng,
    pub tally: Tally,
    pub policy: Policy,
}

impl Cx {
    pub(crate) fn new(seed: u64, policy: Policy) -> Self {
        Cx {
            rng: SmallRng::seed_from_u64(seed),
            tally: Tally::default(),
            policy,
        }
    }

    /// `true` while normal-mode rounds may still be killed.
    pub(crate) fn run_kills_left(&self) -> bool {
        self.tally.crashes < self.policy.max_crashes
    }
}

/// How the system runs and dies.
pub(crate) trait Machine {
    /// One boot's runtime over the harness's registry (`()` where the
    /// stacks run in another process).
    type Runtime;

    /// The data regions the harness's objects live in.
    fn stripe(&self) -> &PMemStripe;

    fn open(&self, registry: &FunctionRegistry) -> Result<Self::Runtime, PError>;

    /// Step 5: places the kills of a normal-mode round.
    fn arm_run(&self, rng: &mut SmallRng, policy: &Policy);

    /// Places (or not) a kill inside a recovery pass.
    fn arm_recovery(&self, rng: &mut SmallRng, policy: &Policy);

    /// A round or pass ended on its own: removes whatever kill did not
    /// fire.
    fn disarm(&mut self) -> Result<(), PError>;

    /// Step 6's boot: attributes the crash, folds the dead boot's
    /// counters into the tally, takes down whatever the crash left
    /// standing (§2.2 knows no partial failure) and reopens every
    /// region. `registry` rebuilds the harness's registry over the
    /// reopened stripe.
    fn reopen(
        &mut self,
        rt: &Self::Runtime,
        registry: &mut dyn FnMut(&PMemStripe) -> Result<FunctionRegistry, PError>,
        tally: &mut Tally,
    ) -> Result<(), PError>;

    /// Folds the final boot's counters and the sanitizer's findings
    /// (they ride the regions across every reopen) into the tally.
    fn sweep(&self, tally: &mut Tally);

    /// Step 4. `true` if the run was cut short by a crash.
    fn run_tasks(&self, rt: &Self::Runtime, tasks: Vec<Task>) -> Result<bool, PError>;

    /// One parallel recovery pass over every worker stack, after a scan
    /// of the evidence in each of `store`'s shards; the frames it
    /// completed.
    fn replay(&self, rt: &Self::Runtime, store: Option<&ShardedKvStore>) -> Result<usize, PError>;
}

/// What is under test.
pub(crate) trait Harness<M: Machine> {
    /// The harness's handles on one boot's stripe.
    type Attached;
    /// What one round has to do: tasks to enqueue, or `()` where the
    /// drive finds its own work.
    type Work;

    /// Re-attaches to a boot's stripe and hands back the registry.
    fn attach(&mut self, stripe: &PMemStripe)
        -> Result<(FunctionRegistry, Self::Attached), PError>;

    /// Steps 3 and 7: what is still pending, in the order it will be
    /// enqueued; `None` once the image is quiescent.
    fn enqueue(&mut self, att: &Self::Attached, cx: &mut Cx) -> Result<Option<Self::Work>, PError>;

    /// Step 4: runs (or serves) one boot. `true`, or a crash error, if
    /// a power failure ended it.
    fn run(
        &mut self,
        boot: (&M, &M::Runtime, &Self::Attached),
        work: Self::Work,
    ) -> Result<bool, PError>;

    /// One recovery pass; the frames it completed.
    fn recover(&mut self, boot: (&M, &M::Runtime, &Self::Attached)) -> Result<usize, PError>;
}

/// Records a whole campaign — format, cycle and verification — with the
/// flight recorder, and attaches the summary.
pub(crate) fn traced<R: std::ops::DerefMut<Target = Tally>>(
    campaign: impl FnOnce() -> Result<R, PError>,
) -> Result<R, PError> {
    let session = TraceSession::start();
    let mut report = campaign()?;
    report.telemetry = session.finish().summary();
    Ok(report)
}

/// Steps 3–8 of §5.2 over a formatted system. Returns the quiescent
/// boot's handles for step 9; `cx.tally` holds the counts.
pub(crate) fn cycle<M: Machine, H: Harness<M>>(
    m: &mut M,
    h: &mut H,
    cx: &mut Cx,
) -> Result<H::Attached, PError> {
    let boot = |m: &M, h: &mut H| -> Result<(M::Runtime, H::Attached), PError> {
        let (registry, att) = h.attach(m.stripe())?;
        Ok((m.open(&registry)?, att))
    };
    loop {
        cx.tally.rounds += 1;
        let (rt, att) = boot(m, h)?;
        // A crash error counts like a crashed run: a kill can surface
        // outside the runtime (an admission persist, a maintenance
        // window) and is a power failure all the same.
        let crashed = match round(m, h, cx, &rt, &att) {
            Ok(None) => {
                m.sweep(&mut cx.tally);
                return Ok(att);
            }
            Ok(Some(crashed)) => crashed,
            Err(e) if e.is_crash() => true,
            Err(e) => return Err(e),
        };
        if !crashed {
            m.disarm()?;
            continue;
        }
        cx.tally.crashes += 1;
        let started = Instant::now();
        let registry = |h: &mut H, stripe: &PMemStripe| h.attach(stripe).map(|(r, _)| r);
        m.reopen(&rt, &mut |stripe| registry(h, stripe), &mut cx.tally)?;

        // Step 6: recovery, possibly killed mid-pass; reopen and retry
        // until one pass completes (a frame popped by a completed
        // recover dual never replays).
        loop {
            let (rt, att) = boot(m, h)?;
            if cx.tally.total_crashes() < cx.policy.max_crashes * 2 {
                m.arm_recovery(&mut cx.rng, &cx.policy);
            }
            match h.recover((m, &rt, &att)) {
                Ok(frames) => {
                    m.disarm()?;
                    cx.tally.recovered_frames += frames;
                    cx.tally.recovery_durations.push(started.elapsed());
                    break;
                }
                Err(e) if e.is_crash() => {
                    cx.tally.recovery_crashes += 1;
                    m.reopen(&rt, &mut |stripe| registry(h, stripe), &mut cx.tally)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// One normal-mode round: enqueue, arm, run. `None` when quiescent.
fn round<M: Machine, H: Harness<M>>(
    m: &M,
    h: &mut H,
    cx: &mut Cx,
    rt: &M::Runtime,
    att: &H::Attached,
) -> Result<Option<bool>, PError> {
    let Some(work) = h.enqueue(att, cx)? else {
        return Ok(None);
    };
    if cx.run_kills_left() {
        m.arm_run(&mut cx.rng, &cx.policy);
    }
    h.run((m, rt, att), work).map(Some)
}

/// Where a root record starts: in the runtime's user scratch of a
/// control region, or ahead of the object heap of a stripe region.
pub(crate) const ROOT_OFF: u64 = 64;

/// Persists a root record of 64-bit words at `off`.
pub(crate) fn write_root(pmem: &PMem, off: u64, words: &[u64]) -> Result<(), PError> {
    for (i, &word) in words.iter().enumerate() {
        pmem.write_u64(POffset::new(off + 8 * i as u64), word)?;
    }
    pmem.flush(POffset::new(off), words.len() * 8)?;
    Ok(())
}

/// Reads word `i` of the root record at `off`.
pub(crate) fn read_root(pmem: &PMem, off: u64, i: u64) -> Result<u64, PError> {
    Ok(pmem.read_u64(POffset::new(off + 8 * i))?)
}

/// Persistent-stack capacity of every campaign worker.
const STACK_CAPACITY: u64 = 8 * 1024;

/// Control-region length (superblock, per-worker stacks, heap).
pub(crate) const CONTROL_REGION_LEN: usize = 1 << 20;

/// A control region carrying the runtime plus a stripe of data regions,
/// run by a [`StripedRuntime`] under seeded fail-points: a crash in any
/// region trips all of them, and restart is `reopen_all` + stack-driven
/// recovery.
pub(crate) struct Striped {
    pub control: PMem,
    pub stripe: PMemStripe,
}

impl Striped {
    /// Formats the runtime layout — `workers` stacks of `stack_kind` — in
    /// `control`, beside an already formatted `stripe`.
    pub(crate) fn format(
        control: PMem,
        stripe: PMemStripe,
        workers: usize,
        stack_kind: StackKind,
    ) -> Result<Self, PError> {
        StripedRuntime::format(
            control.clone(),
            stripe.clone(),
            RuntimeConfig::new(workers)
                .stack_kind(stack_kind)
                .stack_capacity(STACK_CAPACITY),
            &FunctionRegistry::new(),
        )?;
        Ok(Striped { control, stripe })
    }
}

impl Machine for Striped {
    type Runtime = StripedRuntime;

    fn stripe(&self) -> &PMemStripe {
        &self.stripe
    }

    fn open(&self, registry: &FunctionRegistry) -> Result<StripedRuntime, PError> {
        StripedRuntime::open(self.control.clone(), self.stripe.clone(), registry)
    }

    /// Each stripe region with probability `crash_prob`, countdowns from
    /// the crash window — shorter than a batch window's event footprint,
    /// so kills land inside windows — and now and then the control
    /// region, so the persistent stack's own discipline gets hit too.
    fn arm_run(&self, rng: &mut SmallRng, policy: &Policy) {
        for region in self.stripe.regions() {
            if rng.random_bool(policy.crash_prob) {
                region.arm_failpoint(FailPlan::after_events(policy.window(rng)));
            }
        }
        if rng.random_bool(policy.crash_prob / 2.0) {
            self.control
                .arm_failpoint(FailPlan::after_events(policy.window(rng)));
        }
    }

    /// A random stripe region or the control region.
    fn arm_recovery(&self, rng: &mut SmallRng, policy: &Policy) {
        if policy.recovery_kill(rng) {
            let target = rng.random_range(0..=self.stripe.len() as u64) as usize;
            let plan = FailPlan::after_events(policy.fuse(rng));
            if target == self.stripe.len() {
                self.control.arm_failpoint(plan);
            } else {
                self.stripe.region(target).arm_failpoint(plan);
            }
        }
    }

    fn disarm(&mut self) -> Result<(), PError> {
        self.stripe.disarm_all();
        self.control.disarm_failpoint();
        Ok(())
    }

    fn reopen(
        &mut self,
        rt: &StripedRuntime,
        registry: &mut dyn FnMut(&PMemStripe) -> Result<FunctionRegistry, PError>,
        tally: &mut Tally,
    ) -> Result<(), PError> {
        // The runtime attributes what it tripped itself; a crash that
        // surfaced outside `run_tasks` has taken nothing else down yet, so
        // the region that fell first can still be told from the rest.
        let shard_site = || {
            let (shard, events) = self.stripe.crash_site()?;
            Some(CrashSite {
                region: CrashRegion::Shard(shard),
                events,
            })
        };
        tally
            .crash_sites
            .extend(rt.last_crash_site().or_else(shard_site));
        tally.stats = tally.stats + self.stripe.aggregate_stats();
        if !rt.all_crashed() {
            rt.crash_all(0, 0.0);
        }
        // The multi-region boot path: the registry is rebuilt over the
        // fresh handles (the old one holds dead pre-crash clones).
        let next = rt.reopen_all_with(|_, stripe| registry(stripe))?;
        self.control = next.control().clone();
        self.stripe = next.stripe().clone();
        Ok(())
    }

    fn sweep(&self, tally: &mut Tally) {
        tally.stats = tally.stats + self.stripe.aggregate_stats();
        tally.psan_violations = self.stripe.psan_violations();
        tally.psan_violations.extend(self.control.psan_violations());
    }

    fn run_tasks(&self, rt: &StripedRuntime, tasks: Vec<Task>) -> Result<bool, PError> {
        Ok(rt.run_tasks(tasks).crashed)
    }

    /// Per-shard evidence fan-out first (each shard's published chains —
    /// the witness the recover duals' tag scans run against), then frame
    /// replay.
    fn replay(&self, rt: &StripedRuntime, store: Option<&ShardedKvStore>) -> Result<usize, PError> {
        let scan = |shard: usize| store.map_or(Ok(()), |s| s.shard(shard).snapshot().map(|_| ()));
        let report = rt.recover_with(RecoveryMode::Parallel, |shard, _| scan(shard))?;
        Ok(report.total_frames())
    }
}
