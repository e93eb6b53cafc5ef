//! §5.2's crash cycle, written once.
//!
//! The paper's experiment is one loop: enqueue what is pending in random
//! order (steps 3 and 7), run it (4), fail at a random moment (5),
//! restart in recovery mode — which may fail again — until one pass
//! completes (6), and repeat until nothing is pending (8). [`cycle`] is
//! that loop. What it runs is split along the line the paper draws:
//!
//! * a [`Workload`] is **what is under test**: it re-attaches its objects
//!   to a boot's regions and hands back the registry, produces a round's
//!   work (or reports quiescence), runs it, and says what one recovery
//!   pass is;
//! * a [`Machine`] is **how the system runs and dies**: where fail-points
//!   go, how a crash takes the whole system down and is attributed, and
//!   how the regions come back. Two live here — [`Single`] (one region
//!   and a `Runtime`) and [`Striped`] (control region, stripe and a
//!   `StripedRuntime`); the third, OS processes over a file image, is the
//!   `kill-harness` feature's. Every machine runs its tasks on persistent
//!   stacks.
//!
//! Kill placement is a [`Policy`] of values each harness passes; the
//! budget rule is one: `max_crashes` bounds the kills of normal-mode
//! rounds, and recovery passes are killed while the campaign's total
//! stays under twice that.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pstack_core::{
    CrashRegion, CrashSite, FunctionRegistry, PError, RecoveryMode, Runtime, RuntimeConfig,
    StackKind, StripedRuntime, Task,
};
use pstack_kv::ShardedKvStore;
use pstack_nvram::{
    FailPlan, PMem, PMemBuilder, PMemStripe, POffset, PsanViolation, StatsSnapshot,
};
use pstack_telemetry::{TelemetrySummary, TraceSession};

/// What every campaign counts, whatever it tests and however it dies.
/// Each `*CampaignReport` carries one and dereferences to it, so
/// `report.crashes`, `report.crash_sites`, … read the same in every
/// harness.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Normal-mode rounds: every boot that looked for pending work,
    /// the last of which found none (≥ 1).
    pub rounds: usize,
    /// Crashes during normal-mode rounds.
    pub crashes: usize,
    /// Crashes inside recovery passes — §5.2's repeated failures.
    pub recovery_crashes: usize,
    /// Frames completed by recovery passes.
    pub recovered_frames: usize,
    /// Attribution of each crash, in reboot order: the region that
    /// tripped first and its frozen persistence-event counter.
    pub crash_sites: Vec<CrashSite>,
    /// Wall-clock duration of each crash→recovery cycle, from the
    /// reboot to the recovery pass that completed. A kill *inside*
    /// recovery extends the cycle it interrupted.
    pub recovery_durations: Vec<Duration>,
    /// NVRAM statistics summed over every boot (the data regions; a
    /// control region's stack traffic is not counted).
    pub stats: StatsSnapshot,
    /// Persist-order sanitizer findings across every region and boot
    /// (empty when PSan is off).
    pub psan_violations: Vec<PsanViolation>,
    /// Flight-recorder summary of the whole campaign; `None` when
    /// recording was off.
    pub telemetry: Option<TelemetrySummary>,
}

impl Tally {
    /// Crash/recover cycles survived: kills in normal rounds plus kills
    /// inside recovery.
    #[must_use]
    pub fn total_crashes(&self) -> usize {
        self.crashes + self.recovery_crashes
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

/// Kill placement: the values a harness passes.
#[derive(Debug, Clone)]
pub(crate) struct Policy {
    /// Kills of normal-mode rounds stop after this many.
    pub max_crashes: usize,
    /// Fail-point countdown of a normal-mode round, drawn per armed
    /// region.
    pub crash_window: (u64, u64),
    /// Probability a given stripe region is armed in a given round
    /// (a single region always is).
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
    /// What a workload's objects live in (`PMem` or `PMemStripe`).
    type Regions;
    /// One boot's runtime over the workload's registry (`()` where the
    /// stacks run in another process).
    type Runtime;

    fn regions(&self) -> &Self::Regions;

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
    /// region. `registry` rebuilds the workload's registry over the
    /// reopened regions, for machines whose reopen path wants one.
    fn reopen(
        &mut self,
        rt: &Self::Runtime,
        registry: &mut dyn FnMut(&Self::Regions) -> Result<FunctionRegistry, PError>,
        tally: &mut Tally,
    ) -> Result<(), PError>;

    /// Folds the final boot's counters and the sanitizer's findings
    /// (they ride the regions across every reopen) into the tally.
    fn sweep(&self, tally: &mut Tally);
}

/// A machine whose boots run tasks on persistent stacks — what a static
/// workload needs, in this process or another.
pub(crate) trait Stacked: Machine {
    /// Step 4. `true` if the run was cut short by a crash.
    fn run_tasks(&self, rt: &Self::Runtime, tasks: Vec<Task>) -> Result<bool, PError>;

    /// One parallel recovery pass over every worker stack, after a scan
    /// of the evidence in each of `store`'s shards where the machine has
    /// a stripe; the frames it completed.
    fn replay(&self, rt: &Self::Runtime, store: Option<&ShardedKvStore>) -> Result<usize, PError>;
}

/// What is under test.
pub(crate) trait Workload<M: Machine> {
    /// The workload's handles on one boot's regions.
    type Attached;
    /// What one round has to do: tasks to enqueue, or `()` where the
    /// drive finds its own work.
    type Work;

    /// Re-attaches to a boot's regions and hands back the registry.
    fn attach(
        &mut self,
        regions: &M::Regions,
    ) -> Result<(FunctionRegistry, Self::Attached), PError>;

    /// Steps 3 and 7: what is still pending, in the order it will be
    /// enqueued; `None` once the image is quiescent.
    fn enqueue(&mut self, att: &Self::Attached, cx: &mut Cx) -> Result<Option<Self::Work>, PError>;

    /// Step 4: runs (or serves) one boot. `true`, or a crash error, if
    /// a power failure ended it.
    fn run(
        &mut self,
        boot: (&M, &M::Runtime, &Self::Attached),
        work: Self::Work,
        cx: &Cx,
    ) -> Result<bool, PError>;

    /// One recovery pass; the frames it completed.
    fn recover(&mut self, boot: (&M, &M::Runtime, &Self::Attached)) -> Result<usize, PError>;
}

/// A static workload: descriptors formatted up front, the pending ones
/// being each round's tasks. Runs on any [`Stacked`] machine over
/// regions `R`.
pub(crate) trait StaticWorkload<R> {
    /// The object and its descriptor table on one boot's regions.
    type Attached;

    fn attach(&mut self, regions: &R) -> Result<(FunctionRegistry, Self::Attached), PError>;

    /// One task per descriptor (or window of descriptors) still pending.
    fn pending(&mut self, att: &Self::Attached) -> Result<Vec<Task>, PError>;
}

impl<M: Stacked, W: StaticWorkload<M::Regions>> Workload<M> for W {
    type Attached = W::Attached;
    type Work = Vec<Task>;

    fn attach(&mut self, regions: &M::Regions) -> Result<(FunctionRegistry, W::Attached), PError> {
        StaticWorkload::attach(self, regions)
    }

    fn enqueue(&mut self, att: &W::Attached, cx: &mut Cx) -> Result<Option<Vec<Task>>, PError> {
        let mut tasks = self.pending(att)?;
        tasks.shuffle(&mut cx.rng);
        Ok((!tasks.is_empty()).then_some(tasks))
    }

    fn run(
        &mut self,
        (m, rt, _): (&M, &M::Runtime, &W::Attached),
        tasks: Vec<Task>,
        _: &Cx,
    ) -> Result<bool, PError> {
        m.run_tasks(rt, tasks)
    }

    fn recover(&mut self, (m, rt, _): (&M, &M::Runtime, &W::Attached)) -> Result<usize, PError> {
        m.replay(rt, None)
    }
}

/// Records a whole campaign — format, cycle and verification — with the
/// flight recorder when `telemetry` is on, and attaches the summary.
pub(crate) fn traced<R: std::ops::DerefMut<Target = Tally>>(
    telemetry: bool,
    campaign: impl FnOnce() -> Result<R, PError>,
) -> Result<R, PError> {
    let session = telemetry.then(TraceSession::start);
    let mut report = campaign()?;
    report.telemetry = session.map(|s| s.finish().summary());
    Ok(report)
}

/// Steps 3–8 of §5.2 over a formatted system. Returns the quiescent
/// boot's handles for step 9; `cx.tally` holds the counts.
pub(crate) fn cycle<M: Machine, W: Workload<M>>(
    m: &mut M,
    w: &mut W,
    cx: &mut Cx,
) -> Result<W::Attached, PError> {
    let boot = |m: &M, w: &mut W| -> Result<(M::Runtime, W::Attached), PError> {
        let (registry, att) = w.attach(m.regions())?;
        Ok((m.open(&registry)?, att))
    };
    loop {
        cx.tally.rounds += 1;
        let (rt, att) = boot(m, w)?;
        // A crash error counts like a crashed run: a kill can surface
        // outside the runtime (an admission persist, a maintenance
        // window) and is a power failure all the same.
        let crashed = match round(m, w, cx, &rt, &att) {
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
        let registry = |w: &mut W, regions: &M::Regions| w.attach(regions).map(|(r, _)| r);
        m.reopen(&rt, &mut |regions| registry(w, regions), &mut cx.tally)?;

        // Step 6: recovery, possibly killed mid-pass; reopen and retry
        // until one pass completes (a frame popped by a completed
        // recover dual never replays).
        loop {
            let (rt, att) = boot(m, w)?;
            if cx.tally.total_crashes() < cx.policy.max_crashes * 2 {
                m.arm_recovery(&mut cx.rng, &cx.policy);
            }
            match w.recover((m, &rt, &att)) {
                Ok(frames) => {
                    m.disarm()?;
                    cx.tally.recovered_frames += frames;
                    cx.tally.recovery_durations.push(started.elapsed());
                    break;
                }
                Err(e) if e.is_crash() => {
                    cx.tally.recovery_crashes += 1;
                    m.reopen(&rt, &mut |regions| registry(w, regions), &mut cx.tally)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// One normal-mode round: enqueue, arm, run. `None` when quiescent.
fn round<M: Machine, W: Workload<M>>(
    m: &M,
    w: &mut W,
    cx: &mut Cx,
    rt: &M::Runtime,
    att: &W::Attached,
) -> Result<Option<bool>, PError> {
    let Some(work) = w.enqueue(att, cx)? else {
        return Ok(None);
    };
    if cx.run_kills_left() {
        m.arm_run(&mut cx.rng, &cx.policy);
    }
    w.run((m, rt, att), work, cx).map(Some)
}

/// Where the runtime keeps user data: a workload's root record (the
/// bases of its object and table) starts here.
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

/// Length of a [`Single`] machine's region.
const SINGLE_REGION_LEN: usize = 1 << 21;

/// One region holding the runtime and the object under test, built
/// from the caller's builder (PSan, a persist delay): a fired
/// fail-point is the whole system's death.
pub(crate) struct Single {
    pub pmem: PMem,
}

impl Single {
    /// The standard-mode boot: a fresh region (on `file`, replacing any
    /// earlier image, when given) with the runtime layout formatted.
    /// The returned runtime lends its heap to the workload's format.
    pub(crate) fn format(
        builder: PMemBuilder,
        access_jitter: Option<(f64, u64)>,
        file: Option<&Path>,
        workers: usize,
        stack_kind: StackKind,
    ) -> Result<(Single, Runtime), PError> {
        let mut builder = builder.len(SINGLE_REGION_LEN);
        if let Some((prob, pause_events)) = access_jitter {
            builder = builder.access_jitter(prob, pause_events);
        }
        let pmem = match file {
            None => builder.build_in_memory(),
            Some(path) => {
                let _ = std::fs::remove_file(path);
                builder.build_file(path)?
            }
        };
        let rt = Runtime::format(
            pmem.clone(),
            RuntimeConfig::new(workers)
                .stack_kind(stack_kind)
                .stack_capacity(STACK_CAPACITY),
            &FunctionRegistry::new(),
        )?;
        Ok((Single { pmem }, rt))
    }
}

impl Machine for Single {
    type Regions = PMem;
    type Runtime = Runtime;

    fn regions(&self) -> &PMem {
        &self.pmem
    }

    fn open(&self, registry: &FunctionRegistry) -> Result<Runtime, PError> {
        Runtime::open(self.pmem.clone(), registry)
    }

    fn arm_run(&self, rng: &mut SmallRng, policy: &Policy) {
        self.pmem
            .arm_failpoint(FailPlan::after_events(policy.window(rng)));
    }

    fn arm_recovery(&self, rng: &mut SmallRng, policy: &Policy) {
        if policy.recovery_kill(rng) {
            self.pmem
                .arm_failpoint(FailPlan::after_events(policy.fuse(rng)));
        }
    }

    fn disarm(&mut self) -> Result<(), PError> {
        self.pmem.disarm_failpoint();
        Ok(())
    }

    fn reopen(
        &mut self,
        _: &Runtime,
        _: &mut dyn FnMut(&PMem) -> Result<FunctionRegistry, PError>,
        tally: &mut Tally,
    ) -> Result<(), PError> {
        tally.crash_sites.push(CrashSite {
            region: CrashRegion::Runtime,
            events: self.pmem.events(),
        });
        tally.stats = tally.stats + self.pmem.stats().snapshot();
        let _phase = pstack_telemetry::phase("recovery.reopen");
        self.pmem = self.pmem.reopen()?;
        Ok(())
    }

    fn sweep(&self, tally: &mut Tally) {
        tally.stats = tally.stats + self.pmem.stats().snapshot();
        tally.psan_violations = self.pmem.psan_violations();
    }
}

impl Stacked for Single {
    fn run_tasks(&self, rt: &Runtime, tasks: Vec<Task>) -> Result<bool, PError> {
        Ok(rt.run_tasks(tasks).crashed)
    }

    fn replay(&self, rt: &Runtime, _: Option<&ShardedKvStore>) -> Result<usize, PError> {
        Ok(rt.recover(RecoveryMode::Parallel)?.total_frames())
    }
}

/// Control-region length of a [`Striped`] machine (superblock,
/// per-worker stacks, heap).
const CONTROL_REGION_LEN: usize = 1 << 20;

/// A control region carrying the runtime plus a stripe of data regions,
/// run by a [`StripedRuntime`]: a crash in any region trips all of
/// them, and restart is `reopen_all` + stack-driven recovery.
pub(crate) struct Striped {
    control: PMem,
    stripe: PMemStripe,
}

impl Striped {
    /// Formats the runtime layout — `workers` stacks of `stack_kind` — in
    /// a fresh control region beside an already formatted `stripe`.
    pub(crate) fn format(
        stripe: PMemStripe,
        workers: usize,
        stack_kind: StackKind,
        psan: bool,
    ) -> Result<Self, PError> {
        let control = PMemBuilder::new()
            .len(CONTROL_REGION_LEN)
            .psan(psan)
            .build_in_memory();
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
    type Regions = PMemStripe;
    type Runtime = StripedRuntime;

    fn regions(&self) -> &PMemStripe {
        &self.stripe
    }

    fn open(&self, registry: &FunctionRegistry) -> Result<StripedRuntime, PError> {
        StripedRuntime::open(self.control.clone(), self.stripe.clone(), registry)
    }

    /// Each shard region with probability `crash_prob`, countdowns from
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

    /// A random shard region or the control region.
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
        // the shard that fell first can still be told from the rest.
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
}

impl Stacked for Striped {
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

/// Every `*CampaignReport` reads as its [`Tally`]: `report.crashes`,
/// `report.crash_sites`, `report.total_crashes()`, ….
macro_rules! report_derefs_to_tally {
    ($report:ty) => {
        impl std::ops::Deref for $report {
            type Target = $crate::cycle::Tally;

            fn deref(&self) -> &Self::Target {
                &self.tally
            }
        }

        impl std::ops::DerefMut for $report {
            fn deref_mut(&mut self) -> &mut Self::Target {
                &mut self.tally
            }
        }
    };
}
pub(crate) use report_derefs_to_tally;
