//! Multi-region runtime: the whole-system crash model of §2.2 spanning
//! a control region *and* a stripe of data regions.
//!
//! A sharded workload puts its data plane on a [`PMemStripe`] — one
//! independent region per shard, so shard critical sections never
//! serialize — while the runtime's own state (superblock, per-worker
//! persistent stacks, heap, answer evidence) lives in a dedicated
//! control region. The paper's crash model is *system-wide*: a power
//! failure does not pick a region. [`StripedRuntime`] enforces exactly
//! that:
//!
//! * a crash observed in **any** region (a shard's fail-point firing
//!   mid-batch, or the control region dying under a stack push) trips
//!   the whole system — every other region is crashed on the spot, so
//!   every worker unwinds at its next NVRAM access no matter which
//!   shard it was touching;
//! * the [`RunReport`] attributes the failure to the region that
//!   tripped it ([`CrashSite`]: region index plus that region's frozen
//!   persistence-event counter), so campaign logs can name the kill;
//! * [`StripedRuntime::crash_all`] / [`StripedRuntime::reopen_all`]
//!   are the boot path: inject a system failure, then reopen every
//!   region together as the recovery boot would;
//! * [`StripedRuntime::recover_with`] fans out a per-shard prelude
//!   (e.g. an evidence scan over the shard's own log) — in parallel,
//!   shard 0's on the calling thread and one spawned thread per other
//!   shard, mirroring §4.3's parallel stack recovery — before
//!   replaying the interrupted frames. A crash during either
//!   phase trips the remaining regions and leaves a state from which
//!   the next `reopen_all` + `recover` continues idempotently.

use pstack_nvram::{op_label, PMem, PMemStripe};

use crate::registry::FunctionRegistry;
use crate::runtime::exec::{CrashRegion, CrashSite, RunReport};
use crate::runtime::queue::Task;
use crate::runtime::recovery::{RecoveryMode, RecoveryReport};
use crate::runtime::{Runtime, RuntimeConfig};
use crate::PError;

/// Salt mixed into the control region's survivor seed so control and
/// shard 0 never share a survival pattern.
const CONTROL_SEED_SALT: u64 = 0xC0_17_20_11_D0_0D_F1_1E;

/// A [`Runtime`] whose workers additionally operate on a stripe of
/// data regions, under whole-system crash semantics: a crash in any
/// region takes every region down, and recovery spans them all.
///
/// Cheap to clone; clones share the underlying regions.
///
/// # Example
///
/// ```
/// use pstack_core::{FunctionRegistry, RuntimeConfig, StripedRuntime, Task};
/// use pstack_nvram::PMemBuilder;
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// // Function 1 persists its argument into shard `args[8]`'s region.
/// let stripe = PMemBuilder::new().len(4096).build_striped(2);
/// let mut registry = FunctionRegistry::new();
/// {
///     let stripe = stripe.clone();
///     let body = move |_ctx: &mut pstack_core::PContext<'_>, args: &[u8]| {
///         let val = u64::from_le_bytes(args[..8].try_into().unwrap());
///         stripe.region(args[8] as usize).write_persist(0u64.into(), &val.to_le_bytes())?;
///         Ok(None)
///     };
///     registry.register_pair(1, body.clone(), body)?;
/// }
/// let control = PMemBuilder::new().len(1 << 20).build_in_memory();
/// let rt = StripedRuntime::format(control, stripe.clone(), RuntimeConfig::new(1), &registry)?;
/// let mut args = 7u64.to_le_bytes().to_vec();
/// args.push(1); // shard 1
/// let report = rt.run_tasks(vec![Task::new(1, args)]);
/// assert_eq!(report.completed, 1);
/// assert_eq!(stripe.region(1).read_u64(0u64.into())?, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StripedRuntime {
    runtime: Runtime,
    stripe: PMemStripe,
    crash_seed: u64,
    crash_survival: f64,
    /// The site of the last whole-system crash this boot tripped
    /// (shared by clones; reset on `reopen_all`).
    last_site: std::sync::Arc<std::sync::Mutex<Option<CrashSite>>>,
}

impl StripedRuntime {
    /// Bundles an already-built [`Runtime`] (over its control region)
    /// with the data stripe its tasks operate on.
    #[must_use]
    pub fn from_parts(runtime: Runtime, stripe: PMemStripe) -> Self {
        // Name the control region in PSan reports and telemetry traces;
        // shard regions were already labeled by `build_striped`.
        runtime.pmem().set_label("control");
        StripedRuntime {
            runtime,
            stripe,
            crash_seed: 0,
            crash_survival: 0.0,
            last_site: std::sync::Arc::new(std::sync::Mutex::new(None)),
        }
    }

    /// Formats a fresh system: the control region gets the runtime
    /// layout (superblock, stacks, heap); the stripe is taken as-is
    /// (data-plane formatting is the application's business).
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::format`].
    pub fn format(
        control: PMem,
        stripe: PMemStripe,
        cfg: RuntimeConfig,
        registry: &FunctionRegistry,
    ) -> Result<Self, PError> {
        Ok(Self::from_parts(
            Runtime::format(control, cfg, registry)?,
            stripe,
        ))
    }

    /// Opens a previously formatted system (the recovery-mode boot).
    /// Run [`StripedRuntime::recover`] before submitting new tasks.
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::open`].
    pub fn open(
        control: PMem,
        stripe: PMemStripe,
        registry: &FunctionRegistry,
    ) -> Result<Self, PError> {
        Ok(Self::from_parts(Runtime::open(control, registry)?, stripe))
    }

    /// Sets the survivor seed used when this runtime propagates a
    /// whole-system crash (each region's dirty lines survive under
    /// `seed ^ region`, deterministically).
    #[must_use]
    pub fn crash_seed(mut self, seed: u64) -> Self {
        self.crash_seed = seed;
        self
    }

    /// Sets the per-line survival probability for propagated crashes
    /// (default `0.0`: every unflushed line is lost — the harshest,
    /// fully deterministic survivors model).
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    #[must_use]
    pub fn crash_survival(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.crash_survival = prob;
        self
    }

    /// The single-region runtime over the control region.
    #[must_use]
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The data stripe.
    #[must_use]
    pub fn stripe(&self) -> &PMemStripe {
        &self.stripe
    }

    /// The control region (superblock, stacks, heap).
    #[must_use]
    pub fn control(&self) -> &PMem {
        self.runtime.pmem()
    }

    /// Attributes an observed crash to the region it originated in:
    /// the lowest-indexed crashed shard region, else the control
    /// region. Meaningful before the failure has been propagated
    /// stripe-wide (afterwards every region is crashed).
    fn locate_crash(&self) -> CrashSite {
        match self.stripe.crash_site() {
            Some((shard, events)) => CrashSite {
                region: CrashRegion::Shard(shard),
                events,
            },
            None => CrashSite {
                region: CrashRegion::Runtime,
                events: self.control().events(),
            },
        }
    }

    /// Records where the crash originated, then takes the whole system
    /// down: §2.2 knows no partial failures, so the first observer of
    /// any region's death kills the rest before unwinding.
    fn trip_system_crash(&self) -> CrashSite {
        let site = self.locate_crash();
        // Recorded before the propagation below, so the attribution
        // event anchors the crash burst in the telemetry timeline.
        pstack_telemetry::crash_site(
            match site.region {
                CrashRegion::Shard(shard) => shard as u64,
                CrashRegion::Runtime => pstack_telemetry::CONTROL_REGION,
            },
            site.events,
        );
        *self.last_site.lock().expect("site lock never poisoned") = Some(site);
        self.control()
            .crash_now(self.crash_seed ^ CONTROL_SEED_SALT, self.crash_survival);
        self.stripe.crash_all(self.crash_seed, self.crash_survival);
        site
    }

    /// The attribution of the last whole-system crash this boot
    /// tripped — also available through [`RunReport::crash_site`] for
    /// crashes during a run, but this accessor covers crashes tripped
    /// during [`StripedRuntime::recover_with`] too. `None` until a
    /// crash is tripped; reset by the reopen boot path.
    #[must_use]
    pub fn last_crash_site(&self) -> Option<CrashSite> {
        *self.last_site.lock().expect("site lock never poisoned")
    }

    /// `true` once every region (control and stripe) has crashed — the
    /// precondition of [`StripedRuntime::reopen_all`].
    #[must_use]
    pub fn all_crashed(&self) -> bool {
        self.control().is_crashed() && self.stripe.all_crashed()
    }

    /// Injects a whole-system failure: every not-yet-crashed region
    /// dies, dirty lines surviving per-region-deterministically under
    /// `seed` with probability `survival_prob`.
    pub fn crash_all(&self, seed: u64, survival_prob: f64) {
        self.control()
            .crash_now(seed ^ CONTROL_SEED_SALT, survival_prob);
        self.stripe.crash_all(seed, survival_prob);
    }

    /// Reopens every region of the crashed system and re-attaches the
    /// runtime — the recovery boot (§4.3 steps 1–2 across all
    /// regions). Follow with [`StripedRuntime::recover`].
    ///
    /// Only for registries that do **not** capture region handles; a
    /// registry whose functions hold `PMem`/stripe clones must be
    /// rebuilt over the reopened regions via
    /// [`StripedRuntime::reopen_all_with`], or its recover duals would
    /// still address the dead pre-crash handles.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if any region has not crashed, or a
    /// propagated open failure.
    pub fn reopen_all(&self, registry: &FunctionRegistry) -> Result<Self, PError> {
        self.reopen_all_with(|_, _| Ok(registry.clone()))
    }

    /// Like [`StripedRuntime::reopen_all`], but the function registry
    /// is rebuilt *over the reopened regions*: `make_registry` receives
    /// the fresh control region and stripe, so task functions can
    /// re-attach their stores/tables to live handles — the recovery
    /// boot of any application whose functions capture region handles.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if any region has not crashed, an
    /// error from `make_registry`, or a propagated open failure.
    pub fn reopen_all_with<F>(&self, make_registry: F) -> Result<Self, PError>
    where
        F: FnOnce(&PMem, &PMemStripe) -> Result<FunctionRegistry, PError>,
    {
        if !self.all_crashed() {
            return Err(PError::InvalidConfig(
                "reopen_all requires a whole-system crash; some region is still live".into(),
            ));
        }
        let _phase = pstack_telemetry::phase("recovery.reopen");
        let control = self.control().reopen()?;
        let stripe = self.stripe.reopen_all()?;
        let registry = make_registry(&control, &stripe)?;
        Ok(StripedRuntime {
            runtime: Runtime::open(control, &registry)?,
            stripe,
            crash_seed: self.crash_seed,
            crash_survival: self.crash_survival,
            last_site: std::sync::Arc::new(std::sync::Mutex::new(None)),
        })
    }

    /// Runs `tasks` on the configured workers (one per task at most,
    /// worker 0 the calling thread, as [`Runtime::run_tasks`] does; a
    /// one-task run starts no thread) under whole-system crash
    /// semantics: the first worker to observe a crash in *any* region
    /// attributes it ([`RunReport::crash_site`]) and crashes every
    /// other region, so all workers unwind at their next NVRAM access
    /// regardless of which shard they were touching. After a crashed
    /// run, [`StripedRuntime::reopen_all`] + [`StripedRuntime::recover`]
    /// is the restart path.
    pub fn run_tasks(&self, tasks: impl IntoIterator<Item = Task>) -> RunReport {
        self.runtime.run_sited(tasks, &|| self.trip_system_crash())
    }

    /// Recovers the whole system: replays every interrupted frame on
    /// every worker stack (with no per-shard prelude). Equivalent to
    /// `recover_with(mode, |_, _| Ok(()))`.
    ///
    /// # Errors
    ///
    /// Same as [`StripedRuntime::recover_with`].
    pub fn recover(&self, mode: RecoveryMode) -> Result<RecoveryReport, PError> {
        self.recover_with(mode, |_, _| Ok(()))
    }

    /// Recovers the whole system in two phases:
    ///
    /// 1. **per-shard fan-out** — `prelude(shard, region)` runs for
    ///    every stripe region (in parallel under
    ///    [`RecoveryMode::Parallel`], shard 0's on the calling thread
    ///    and one spawned thread per other shard, mirroring §4.3's
    ///    parallel stack recovery). Applications hook their
    ///    per-shard evidence scans here;
    /// 2. **frame replay** — [`Runtime::recover`] walks every worker
    ///    stack top-to-bottom invoking recover duals.
    ///
    /// A crash during either phase trips the remaining regions (so the
    /// system is uniformly down) and propagates; recovery after
    /// `reopen_all` continues from the un-recovered suffix — frames
    /// popped by a completed recover dual are never replayed, the
    /// paper's idempotence argument, now spanning regions.
    ///
    /// # Errors
    ///
    /// The first error any phase hit: a propagated crash, an
    /// unregistered function id, or an application error from a
    /// prelude or recover dual.
    pub fn recover_with<F>(&self, mode: RecoveryMode, prelude: F) -> Result<RecoveryReport, PError>
    where
        F: Fn(usize, &PMem) -> Result<(), PError> + Sync,
    {
        let result = {
            let _phase = pstack_telemetry::phase("recovery.evidence-scan");
            self.shard_prelude_pass(mode, &prelude)
        }
        .and_then(|()| self.runtime.recover(mode));
        if let Err(e) = &result {
            if e.is_crash() {
                self.trip_system_crash();
            }
        }
        result
    }

    fn shard_prelude_pass<F>(&self, mode: RecoveryMode, prelude: &F) -> Result<(), PError>
    where
        F: Fn(usize, &PMem) -> Result<(), PError> + Sync,
    {
        let regions = self.stripe.regions();
        let one = |shard: usize| {
            let _label = op_label("runtime.recover");
            prelude(shard, &regions[shard])
        };
        match mode {
            RecoveryMode::Serial => (0..regions.len()).try_for_each(one),
            RecoveryMode::Parallel => self
                .runtime
                .fan_out(regions.len(), "pstack-prelude", one)
                .into_iter()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invoke::PContext;
    use pstack_nvram::{FailPlan, PMemBuilder, POffset};

    /// Function 1: persist `args[8..16]` at offset `args[16..24]` of
    /// shard `args[0..8]`'s region; the body doubles as the (idempotent)
    /// recover dual.
    fn stripe_registry(stripe: &PMemStripe) -> FunctionRegistry {
        let mut reg = FunctionRegistry::new();
        let stripe = stripe.clone();
        let body = move |_c: &mut PContext<'_>, args: &[u8]| {
            let shard = u64::from_le_bytes(args[..8].try_into().unwrap()) as usize;
            let val = u64::from_le_bytes(args[8..16].try_into().unwrap());
            let off = POffset::new(u64::from_le_bytes(args[16..24].try_into().unwrap()));
            let region = stripe.region(shard);
            region.write_u64(off, val)?;
            region.flush(off, 8)?;
            Ok(None)
        };
        reg.register_pair(1, body.clone(), body).unwrap();
        reg
    }

    fn task(shard: u64, val: u64, off: u64) -> Task {
        let mut args = shard.to_le_bytes().to_vec();
        args.extend_from_slice(&val.to_le_bytes());
        args.extend_from_slice(&off.to_le_bytes());
        Task::new(1, args)
    }

    fn fixture(shards: usize, workers: usize) -> (StripedRuntime, PMemStripe, FunctionRegistry) {
        let stripe = PMemBuilder::new().len(1 << 16).build_striped(shards);
        let control = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = stripe_registry(&stripe);
        let rt = StripedRuntime::format(control, stripe.clone(), RuntimeConfig::new(workers), &reg)
            .unwrap();
        (rt, stripe, reg)
    }

    #[test]
    fn tasks_reach_their_shard_regions() {
        let (rt, stripe, _) = fixture(3, 2);
        let tasks: Vec<Task> = (0..12u64)
            .map(|i| task(i % 3, i + 100, 64 + i * 8))
            .collect();
        let report = rt.run_tasks(tasks);
        assert_eq!(report.completed, 12);
        assert!(!report.crashed);
        assert_eq!(report.crash_site, None);
        for i in 0..12u64 {
            assert_eq!(
                stripe
                    .region((i % 3) as usize)
                    .read_u64(POffset::new(64 + i * 8))
                    .unwrap(),
                i + 100
            );
        }
    }

    #[test]
    fn shard_crash_trips_the_whole_system_and_is_attributed() {
        let (rt, stripe, _) = fixture(2, 2);
        // Only shard 1's region is armed; its fail-point firing must
        // still take down shard 0 and the control region.
        stripe.region(1).arm_failpoint(FailPlan::after_events(5));
        let tasks: Vec<Task> = (0..64u64).map(|i| task(i % 2, i, 64 + i * 8)).collect();
        let report = rt.run_tasks(tasks);
        assert!(report.crashed);
        assert!(rt.all_crashed(), "crash must propagate to every region");
        let site = report.crash_site.expect("crash must carry a site");
        assert_eq!(site.region, CrashRegion::Shard(1));
        // The event counter froze when the armed fail-point fired.
        assert_eq!(site.events, stripe.region(1).events());
        assert!(site.events > 0);
    }

    #[test]
    fn control_crash_is_attributed_to_the_runtime_region() {
        let (rt, _stripe, _) = fixture(2, 1);
        rt.control().arm_failpoint(FailPlan::after_events(3));
        let report = rt.run_tasks((0..8u64).map(|i| task(i % 2, i, 64)));
        assert!(report.crashed);
        assert!(rt.all_crashed());
        let site = report.crash_site.expect("crash must carry a site");
        assert_eq!(site.region, CrashRegion::Runtime);
        assert_eq!(site.events, rt.control().events());
    }

    #[test]
    fn a_psan_violation_names_the_region_that_raised_it() {
        let psan = PMemBuilder::new().psan(true);
        let stripe = psan.clone().len(1 << 16).build_striped(1);
        let control = psan.len(1 << 20).build_in_memory();
        let reg = stripe_registry(&stripe);
        let rt =
            StripedRuntime::format(control, stripe.clone(), RuntimeConfig::new(1), &reg).unwrap();
        // A store checked as a commit point while still dirty: one
        // unordered-commit violation in each region.
        for (region, label) in [(rt.control(), "control"), (stripe.region(0), "shard-0")] {
            let off = POffset::new(region.len() as u64 - 64);
            region.write_u64(off, 7).unwrap();
            region.psan_check_durable(off, 8);
            let raised = region.psan_violations();
            assert_eq!(raised.len(), 1, "{raised:?}");
            assert_eq!(raised[0].region, label);
        }
    }

    #[test]
    fn reopen_all_then_recover_completes_interrupted_tasks() {
        let (rt, stripe, _reg) = fixture(2, 2);
        stripe.region(0).arm_failpoint(FailPlan::after_events(4));
        let tasks: Vec<Task> = (0..32u64).map(|i| task(i % 2, 7, 64 + i * 8)).collect();
        let report = rt.run_tasks(tasks);
        assert!(report.crashed);

        // The registry captured pre-crash stripe handles, so the boot
        // path rebuilds it over the reopened regions.
        let rt2 = rt
            .reopen_all_with(|_, stripe| Ok(stripe_registry(stripe)))
            .unwrap();
        let rec = rt2.recover(RecoveryMode::Parallel).unwrap();
        // At most one in-flight frame per worker.
        assert!(rec.total_frames() <= 2);
        // Idempotent second pass.
        assert_eq!(rt2.recover(RecoveryMode::Serial).unwrap().total_frames(), 0);
    }

    #[test]
    fn reopen_all_rejects_partially_live_systems() {
        let (rt, stripe, reg) = fixture(2, 1);
        stripe.region(0).crash_now(0, 0.0);
        assert!(matches!(rt.reopen_all(&reg), Err(PError::InvalidConfig(_))));
        // Finishing the system failure makes the boot path work.
        rt.crash_all(9, 0.0);
        assert!(rt.all_crashed());
        let rt2 = rt.reopen_all(&reg).unwrap();
        assert!(!rt2.all_crashed());
        assert_eq!(rt2.runtime().workers(), 1);
    }

    #[test]
    fn recover_with_fans_preludes_over_all_shards() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (rt, _stripe, reg) = fixture(3, 1);
        rt.crash_all(1, 1.0);
        let rt2 = rt.reopen_all(&reg).unwrap();
        for mode in [RecoveryMode::Parallel, RecoveryMode::Serial] {
            let seen = AtomicUsize::new(0);
            rt2.recover_with(mode, |shard, region| {
                assert!(shard < 3);
                assert!(!region.is_crashed());
                seen.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .unwrap();
            assert_eq!(seen.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn parallel_recover_with_runs_shard_0s_prelude_on_the_calling_thread() {
        let (rt, _stripe, reg) = fixture(3, 1);
        rt.crash_all(1, 1.0);
        let rt2 = rt.reopen_all(&reg).unwrap();
        let seen = std::sync::Mutex::new(Vec::new());
        rt2.recover_with(RecoveryMode::Parallel, |shard, _| {
            let me = std::thread::current().id();
            seen.lock().unwrap().push((shard, me));
            Ok(())
        })
        .unwrap();
        let caller = std::thread::current().id();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(shard, _)| shard);
        let on_caller: Vec<bool> = seen.iter().map(|&(_, t)| t == caller).collect();
        assert_eq!(on_caller, [true, false, false], "{seen:?}");
    }

    #[test]
    fn crash_during_recovery_trips_remaining_regions() {
        let (rt, stripe, _reg) = fixture(2, 1);
        // Leave an interrupted frame behind: the kill lands on shard
        // 0's flush, between the task's write and its persist.
        stripe.region(0).arm_failpoint(FailPlan::after_events(1));
        let report = rt.run_tasks(vec![task(0, 5, 64), task(1, 6, 64)]);
        assert!(report.crashed);
        let reboot = |rt: &StripedRuntime| {
            rt.reopen_all_with(|_, stripe| Ok(stripe_registry(stripe)))
                .unwrap()
        };
        let rt2 = reboot(&rt);
        // The recovery prelude dies in shard 1; the whole system must
        // be down afterwards so reopen_all works again.
        let err = rt2
            .recover_with(RecoveryMode::Serial, |shard, region| {
                if shard == 1 {
                    region.crash_now(3, 0.0);
                    region.read_u64(POffset::new(0))?;
                }
                Ok(())
            })
            .unwrap_err();
        assert!(err.is_crash());
        assert!(rt2.all_crashed());
        let rt3 = reboot(&rt2);
        rt3.recover(RecoveryMode::Parallel).unwrap();
        assert_eq!(rt3.recover(RecoveryMode::Serial).unwrap().total_frames(), 0);
    }

    #[test]
    fn clone_shares_regions_and_configuration() {
        let (rt, _stripe, _) = fixture(2, 1);
        let rt = rt.crash_seed(7).crash_survival(0.0);
        let clone = rt.clone();
        clone.crash_all(7, 0.0);
        assert!(rt.all_crashed(), "clones share the underlying regions");
    }
}
