//! The §5.2 crash-campaign methodology applied to the **sharded**
//! key-value store: worker threads drive disjoint shard sets over a
//! striped region bundle, group commits batch persists inside each
//! shard, kills land *inside batch windows* (the countdowns are drawn
//! from event windows smaller than a batch's event footprint), a system
//! failure takes every region down together, and recovery runs **in
//! parallel, one scan per shard**. The collected execution is checked
//! by `pstack-verify`'s [`check_kv_sharded`]: per-shard chain
//! witnesses, globally unique operation tags, key-routing validation.
//!
//! The campaign is deterministic per seed even with multiple worker
//! threads: shards are statically assigned to workers (`shard %
//! workers`), every shard's schedule/kill randomness comes from its own
//! seeded RNG, and different shards touch different regions — so no
//! cross-thread interleaving can influence any region's event stream.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pstack_core::{CrashRegion, FunctionRegistry, PError, Task};
use pstack_kv::{
    shard_of, KvServeFunction, KvTaskOp, KvTaskResult, KvVariant, ShardWindow, ShardedKvStore,
};
use pstack_nvram::{PMemBuilder, PMemStripe};
use pstack_verify::{check_kv_sharded_gen, KvOp, KvShardedHistory, KvVerdict};

use crate::cycle::{self, Cx, Policy, Shards, StaticWorkload, Striped, Tally, Workload};
use crate::kv_campaign::ShardLogUsage;

/// NVRAM region length *per shard*.
const REGION_LEN: usize = 1 << 19;
/// Inclusive range put/cas values are drawn from.
const VALUE_RANGE: (i64, i64) = (-100, 100);

/// Configuration of one sharded KV crash campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedKvCampaignConfig {
    /// Number of KV operations across all shards.
    pub n_ops: usize,
    /// Number of shards (independent regions).
    pub shards: usize,
    /// Worker threads; shard `s` is owned by worker `s % workers`, so
    /// shard schedules are worker-private and deterministic.
    pub workers: usize,
    /// Keys are drawn from `0..key_space`.
    pub key_space: u64,
    /// Probability weights of (put, get, delete) — the remainder are
    /// cas operations.
    pub op_mix: (f64, f64, f64),
    /// Master seed; campaigns are deterministic given the seed.
    pub seed: u64,
    /// Correct NSRL recovery or the no-scan bug.
    pub variant: KvVariant,
    /// Mutations are group-committed in windows of up to this many
    /// (0 is read as 1).
    pub group_commit: usize,
    /// Crashes stop after this many, so the campaign terminates.
    pub max_crashes: usize,
    /// Per-shard fail-point countdown drawn uniformly from this event
    /// window. Keep it smaller than a batch's event footprint and
    /// kills land inside batch windows.
    pub crash_window: (u64, u64),
    /// Probability that a given shard region gets a fail-point armed
    /// in a given round (while the crash budget lasts).
    pub crash_prob: f64,
    /// Per-shard version-log capacity override; `None` provisions
    /// automatically from the workload.
    pub log_cap_per_shard: Option<u64>,
    /// `true`: drive the descriptors through
    /// [`StripedRuntime::run_tasks`] — every put/get/batch executes as
    /// a persistent-stack task, a crash in any region trips the whole
    /// system, and restart goes through stack-driven recovery
    /// (`reopen_all` + frame replay with per-shard evidence-scan
    /// preludes). `false`: PR 3's direct worker-thread drive, no
    /// persistent stack in the loop.
    pub runtime_driven: bool,
    /// Probability of arming a kill *inside* each recovery pass
    /// (runtime-driven mode only — the direct drive has no pass to kill;
    /// bounded by twice the crash budget).
    pub recovery_crash_prob: f64,
    /// Shadow every region (shards and, in the runtime-driven mode,
    /// the control region) with the persist-order sanitizer and
    /// collect its findings in the report. Defaults to the `psan`
    /// crate feature.
    pub psan: bool,
}

impl ShardedKvCampaignConfig {
    /// Defaults: 4 shards × 4 workers over buffered regions with
    /// group commits of 8, 16 hot keys, a 50/25/10/15
    /// put/get/delete/cas mix, and kill countdowns short enough to
    /// land inside batch windows.
    #[must_use]
    pub fn new(n_ops: usize, seed: u64) -> Self {
        ShardedKvCampaignConfig {
            n_ops,
            shards: 4,
            workers: 4,
            key_space: 16,
            op_mix: (0.5, 0.25, 0.1),
            seed,
            variant: KvVariant::Nsrl,
            group_commit: 8,
            max_crashes: 8,
            crash_window: (8, 80),
            crash_prob: 0.6,
            log_cap_per_shard: None,
            runtime_driven: false,
            recovery_crash_prob: 0.35,
            psan: cfg!(feature = "psan"),
        }
    }

    /// Selects the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Selects the drive mode: `true` routes all traffic through
    /// [`StripedRuntime::run_tasks`] (the persistent stack in the loop).
    #[must_use]
    pub fn runtime_driven(mut self, runtime_driven: bool) -> Self {
        self.runtime_driven = runtime_driven;
        self
    }

    /// Selects the recovery variant.
    #[must_use]
    pub fn variant(mut self, variant: KvVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the group-commit window size.
    #[must_use]
    pub fn group_commit(mut self, batch: usize) -> Self {
        self.group_commit = batch;
        self
    }
}

/// Outcome of a sharded KV campaign.
#[derive(Debug, Clone)]
pub struct ShardedKvCampaignReport {
    /// Rounds, crashes (in normal rounds, and — runtime-driven mode —
    /// inside stack-driven recovery passes), recovered frames, crash
    /// attribution, recovery durations, the stripe's NVRAM statistics,
    /// sanitizer findings attributed to their home shard (expected
    /// empty unless the campaign runs a seeded persist-order bug
    /// variant) and the flight-recorder summary.
    pub tally: Tally,
    /// Crashes attributed to a shard region — a fail-point that fired
    /// inside a batch window — rather than to the control region.
    pub shard_kills: usize,
    /// The collected execution: answers plus per-shard chain witness.
    pub history: KvShardedHistory,
    /// The sharded linearizability verdict.
    pub verdict: KvVerdict,
    /// Per-shard version-log usage — a single hot shard degenerating
    /// to read-only is visible here even when the aggregate is fine.
    pub log_usage: Vec<ShardLogUsage>,
    /// Mutation descriptors in the workload (put/delete/cas — the
    /// denominator of the persists-per-mutation metric).
    pub mutations: usize,
}
cycle::report_derefs_to_tally!(ShardedKvCampaignReport);

impl ShardedKvCampaignReport {
    /// `true` if the execution passed the sharded KV check.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.verdict.is_linearizable()
    }

    /// See [`ShardLogUsage::all_have_headroom`].
    #[must_use]
    pub fn log_had_headroom(&self) -> bool {
        ShardLogUsage::all_have_headroom(&self.log_usage)
    }

    /// See [`ShardLogUsage::tightest`].
    ///
    /// # Panics
    ///
    /// Panics if the report holds no shards (never produced by
    /// [`run_sharded_kv_campaign`]).
    #[must_use]
    pub fn tightest_shard(&self) -> ShardLogUsage {
        ShardLogUsage::tightest(&self.log_usage)
    }

    /// The shard that triggered — or, run with compaction disabled,
    /// *should* trigger — compaction: the shard whose log headroom
    /// fraction is smallest and below `threshold`. `None` while every
    /// shard keeps at least `threshold` of its log free. This is the
    /// report-side name for the per-shard signal
    /// ([`ShardLogUsage::headroom_fraction`]) the compaction campaign
    /// drives `ShardedKvStore::compact_shard` with.
    #[must_use]
    pub fn compaction_candidate(&self, threshold: f64) -> Option<usize> {
        ShardLogUsage::compaction_candidate(&self.log_usage, threshold)
    }

    /// Persist round-trips per mutation descriptor — the group-commit
    /// headline (compare a `group_commit: k` run against `1`).
    #[must_use]
    pub fn persists_per_mutation(&self) -> f64 {
        if self.mutations == 0 {
            0.0
        } else {
            self.stats.persists as f64 / self.mutations as f64
        }
    }
}

/// The shared workload generator (the compaction campaign reuses it).
pub(crate) fn generate_kv_ops(
    n_ops: usize,
    key_space: u64,
    value_range: (i64, i64),
    op_mix: (f64, f64, f64),
    rng: &mut SmallRng,
) -> Vec<KvTaskOp> {
    let (lo, hi) = value_range;
    let (p_put, p_get, p_del) = op_mix;
    (0..n_ops)
        .map(|_| {
            let key = rng.random_range(0..key_space);
            let roll: f64 = rng.random();
            if roll < p_put {
                KvTaskOp::Put {
                    key,
                    value: rng.random_range(lo..=hi),
                }
            } else if roll < p_put + p_get {
                KvTaskOp::Get { key }
            } else if roll < p_put + p_get + p_del {
                KvTaskOp::Delete { key }
            } else {
                KvTaskOp::Cas {
                    key,
                    expected: rng.random_range(lo..=hi),
                    new: rng.random_range(lo..=hi),
                }
            }
        })
        .collect()
}

/// The reads of a static workload. Reads are never descriptors — the
/// one read path is [`ShardedKvStore::get_durable`] — so a campaign
/// answers its gets itself, between windows, and keeps the answers in
/// its volatile history exactly as the serving campaign keeps its
/// clients' histories. A get that meets a dead region stays on the list
/// and is asked again next boot.
#[derive(Debug, Default)]
pub(crate) struct HarnessGets {
    /// `(tag, key)` of every get still to ask.
    todo: Vec<(u64, u64)>,
    /// The gets answered so far, in the verifier's shape.
    pub(crate) done: Vec<KvOp>,
}

/// The `pid` half of a harness get's tag: no descriptor uses it (a
/// preloaded descriptor's pid is its shard + 1).
const GET_PID: u64 = 0;

impl HarnessGets {
    /// Splits a generated workload into the mutations to preload and
    /// the gets the harness keeps (tagged by workload position).
    pub(crate) fn split(ops: &[KvTaskOp]) -> (Vec<KvTaskOp>, HarnessGets) {
        let mut gets = HarnessGets::default();
        let mut mutations = Vec::with_capacity(ops.len());
        for (i, &op) in ops.iter().enumerate() {
            match op {
                KvTaskOp::Get { key } => gets.todo.push((i as u64 + 1, key)),
                op => mutations.push(op),
            }
        }
        (mutations, gets)
    }

    /// The same gets, one list per home shard (for drives whose shards
    /// are owned by different threads).
    pub(crate) fn per_shard(self, nshards: usize) -> Vec<HarnessGets> {
        let mut out: Vec<HarnessGets> = (0..nshards).map(|_| HarnessGets::default()).collect();
        for (tag, key) in self.todo {
            out[shard_of(key, nshards)].todo.push((tag, key));
        }
        out
    }

    /// Gets still to ask.
    pub(crate) fn outstanding(&self) -> usize {
        self.todo.len()
    }

    /// The reads of a drive whose rounds run to completion: between
    /// rounds, half of what is outstanding — so the gets observe the
    /// store as each crash and recovery left it — and all of it once
    /// no descriptor is pending (`quiescent`).
    ///
    /// # Errors
    ///
    /// As [`HarnessGets::answer`].
    pub(crate) fn answer_between_rounds(
        &mut self,
        store: &ShardedKvStore,
        quiescent: bool,
    ) -> Result<(), PError> {
        let outstanding = self.outstanding();
        let share = if quiescent {
            outstanding
        } else {
            outstanding.div_ceil(2)
        };
        self.answer(store, share)
    }

    /// Asks up to `n` of the outstanding gets.
    ///
    /// # Errors
    ///
    /// The first NVRAM error (a crash leaves that get outstanding).
    pub(crate) fn answer(&mut self, store: &ShardedKvStore, n: usize) -> Result<(), PError> {
        for _ in 0..n.min(self.todo.len()) {
            let &(tag, key) = self.todo.last().expect("bounded by the list");
            let got = KvTaskResult::Got(store.get_durable(key)?);
            self.todo.pop();
            self.done
                .push(KvTaskOp::Get { key }.observed(GET_PID, tag, got));
        }
        Ok(())
    }
}

/// Runs the pending descriptors of one shard for one round (bounded to
/// `limit` descriptors when given — the compaction campaign bounds
/// rounds so headroom checks interleave with traffic). Returns `true`
/// if the shard's region crashed mid-round.
///
/// The pending slots are shuffled and chunked into windows that go
/// through the one executor — a group commit in a normal round, the
/// evidence-scanning recovery dual after any crash — so kills land
/// inside real multi-op batch windows in *both* kinds of round. Before
/// each window the harness asks a proportional share of the shard's
/// gets, so reads observe the store between windows for as long as
/// there are windows.
fn run_shard_round(
    exec: &KvServeFunction,
    shard: usize,
    batch_size: usize,
    recovery: bool,
    rng: &mut SmallRng,
    limit: Option<usize>,
    gets: &mut HarnessGets,
) -> Result<bool, PError> {
    let mut pending = exec.tables()[shard].pending_slots()?;
    pending.shuffle(rng);
    let mut remaining = pending.len();
    pending.truncate(limit.unwrap_or(remaining));
    let mut round = || -> Result<(), PError> {
        for slots in pending.chunks(batch_size.max(1)) {
            let share = (gets.outstanding() * slots.len()).div_ceil(remaining);
            remaining -= slots.len();
            gets.answer(exec.store(), share)?;
            let window = ShardWindow {
                shard: shard as u32,
                recovery,
                slots: slots.to_vec(),
            };
            exec.execute_window(&[window], shard as u32, None)?;
        }
        if remaining == 0 {
            gets.answer(exec.store(), usize::MAX)?; // a shard with reads only
        }
        Ok(())
    };
    match round() {
        Ok(()) => Ok(false),
        Err(e) if e.is_crash() => Ok(true),
        Err(e) => Err(e),
    }
}

/// `true` once every descriptor is answered and every get asked.
pub(crate) fn quiescent(exec: &KvServeFunction, gets: &[HarnessGets]) -> Result<bool, PError> {
    for table in exec.tables() {
        if !table.pending_slots()?.is_empty() {
            return Ok(false);
        }
    }
    Ok(gets.iter().all(|g| g.outstanding() == 0))
}

/// Re-attaches a KV stripe's executor for one boot, beside the
/// registry that names it.
pub(crate) fn attach_stripe(
    stripe: &PMemStripe,
    variant: KvVariant,
) -> Result<(FunctionRegistry, KvServeFunction), PError> {
    let exec = KvServeFunction::open(stripe.regions(), variant)?;
    Ok((exec.registry()?, exec))
}

/// Step 9 of every striped KV harness: the sharded linearizability
/// verdict. Shards compact independently, so each shard's chains are
/// checked against that shard's real active generation.
pub(crate) fn sharded_verdict(
    history: &KvShardedHistory,
    store: &ShardedKvStore,
) -> Result<KvVerdict, PError> {
    let nshards = store.nshards();
    let generations = store.generations()?;
    Ok(check_kv_sharded_gen(
        history,
        |key| shard_of(key, nshards),
        &generations,
    ))
}

/// One round of the direct drive: every shard's round (up to `limit`
/// descriptors of it) runs on the shard's owner among `workers` threads,
/// its schedule seeded by `(seed, round, shard)` only — group commits
/// until the campaign's first crash, the evidence-scanning recovery
/// duals in every round after it.
pub(crate) fn run_shard_rounds(
    exec: &KvServeFunction,
    (seed, batch, workers): (u64, usize, usize),
    limit: Option<usize>,
    gets: &mut [HarnessGets],
    cx: &Cx,
) -> Result<bool, PError> {
    let (round, recovery) = (cx.tally.rounds as u64, cx.tally.crashes > 0);
    Shards::each_shard(workers, gets, |s, gets| {
        let mut rng = SmallRng::seed_from_u64(
            seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (s as u64 + 1).wrapping_mul(0xD134_2543_DE82_EF95),
        );
        run_shard_round(exec, s, batch, recovery, &mut rng, limit, gets)
    })
}

/// The worker-thread drive: every round, each shard's owner drives all
/// of the shard's pending descriptors through the one executor.
struct WorkerDriven<'a> {
    cfg: &'a ShardedKvCampaignConfig,
    batch: usize,
    gets: Vec<HarnessGets>,
}

impl Workload<Shards> for WorkerDriven<'_> {
    type Attached = KvServeFunction;
    type Work = ();

    fn attach(
        &mut self,
        stripe: &PMemStripe,
    ) -> Result<(FunctionRegistry, KvServeFunction), PError> {
        attach_stripe(stripe, self.cfg.variant)
    }

    fn enqueue(&mut self, exec: &KvServeFunction, _: &mut Cx) -> Result<Option<()>, PError> {
        Ok((!quiescent(exec, &self.gets)?).then_some(()))
    }

    fn run(
        &mut self,
        (_, (), exec): (&Shards, &(), &KvServeFunction),
        (): (),
        cx: &Cx,
    ) -> Result<bool, PError> {
        let shape = (self.cfg.seed, self.batch, self.cfg.workers);
        run_shard_rounds(exec, shape, None, &mut self.gets, cx)
    }

    /// No stack, no pass: see [`Shards`].
    fn recover(&mut self, _: (&Shards, &(), &KvServeFunction)) -> Result<usize, PError> {
        Ok(0)
    }
}

/// The runtime-driven drive: every pending batch window becomes a
/// persistent-stack task executed by `StripedRuntime::run_tasks`.
/// Kills land inside batch windows, inside the runtime's own stack
/// discipline (control-region fail-points) *and* inside the
/// stack-driven recovery passes.
struct RuntimeDriven<'a> {
    cfg: &'a ShardedKvCampaignConfig,
    batch: usize,
    gets: HarnessGets,
}

impl StaticWorkload<PMemStripe> for RuntimeDriven<'_> {
    type Attached = KvServeFunction;

    fn attach(
        &mut self,
        stripe: &PMemStripe,
    ) -> Result<(FunctionRegistry, KvServeFunction), PError> {
        attach_stripe(stripe, self.cfg.variant)
    }

    /// The §5.2 re-enqueue step; the harness's reads go between rounds.
    fn pending(&mut self, exec: &KvServeFunction) -> Result<Vec<Task>, PError> {
        let tasks = exec.pending_tasks(self.batch)?;
        self.gets
            .answer_between_rounds(exec.store(), tasks.is_empty())?;
        Ok(tasks)
    }

    fn evidence(exec: &KvServeFunction) -> Option<&ShardedKvStore> {
        Some(exec.store())
    }
}

/// Countdown of a kill inside a stack-driven recovery pass that replays
/// whole group-commit windows.
const WINDOW_REPLAY_FUSE: (u64, u64) = (2, 40);
/// The same where windows hold a descriptor or a few (the single-store
/// campaign's windows of one, the serving campaign's lightly filled
/// ones): a replayed window is then an evidence scan plus one answer
/// persist — a dozen events, not a group commit's forty — and a longer
/// fuse outlives the pass, so the kill never lands.
pub(crate) const ANSWER_REPLAY_FUSE: (u64, u64) = (1, 12);

/// Runs one full sharded KV crash campaign: stripe the store over
/// `shards` regions, drive the descriptors with `workers` threads (one
/// shard never has two drivers), kill shard regions inside their batch
/// windows, take the whole stripe down on every failure, recover all
/// shards in parallel, and finally verify the collected execution with
/// the sharded witness checker. Deterministic per configuration.
///
/// # Errors
///
/// Propagates setup failures; the crash/restart loop itself handles
/// crashes as part of the experiment.
///
/// # Panics
///
/// Panics if a worker thread panics (assertion failures inside the
/// harness).
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_sharded_kv_campaign, ShardedKvCampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_sharded_kv_campaign(&ShardedKvCampaignConfig::new(40, 7))?;
/// assert!(report.is_linearizable());
/// assert_eq!(report.log_usage.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn run_sharded_kv_campaign(
    cfg: &ShardedKvCampaignConfig,
) -> Result<ShardedKvCampaignReport, PError> {
    cycle::traced(cfg!(feature = "telemetry"), || {
        run_sharded_kv_campaign_inner(cfg)
    })
}

fn run_sharded_kv_campaign_inner(
    cfg: &ShardedKvCampaignConfig,
) -> Result<ShardedKvCampaignReport, PError> {
    assert!(cfg.shards > 0, "at least one shard");
    assert!(cfg.workers > 0, "at least one worker");
    assert!(cfg.key_space > 0, "empty key space");

    let mut cx = Cx::new(
        cfg.seed,
        Policy {
            max_crashes: cfg.max_crashes,
            crash_window: cfg.crash_window,
            crash_prob: cfg.crash_prob,
            recovery_crash_prob: if cfg.runtime_driven {
                cfg.recovery_crash_prob
            } else {
                0.0
            },
            recovery_fuse: WINDOW_REPLAY_FUSE,
        },
    );
    let ops = generate_kv_ops(
        cfg.n_ops,
        cfg.key_space,
        VALUE_RANGE,
        cfg.op_mix,
        &mut cx.rng,
    );
    // A static workload is a preloaded request table; its reads stay
    // with the harness.
    let (mutations, gets) = HarnessGets::split(&ops);

    // Provision each shard's log: every descriptor at most one
    // published slot, plus crash orphans (at most one staged batch per
    // cycle survives unpublished — per in-flight worker in the
    // runtime-driven mode, where several workers may run windows of
    // the same shard concurrently), plus retry slack. The runtime mode
    // also spends its crash budget twice (run kills + recovery kills).
    let mut shard_ops = vec![0u64; cfg.shards];
    for op in &ops {
        shard_ops[shard_of(op.key(), cfg.shards)] += 1;
    }
    let max_shard_ops = shard_ops.into_iter().max().unwrap_or(0).max(1);
    let batch = cfg.group_commit.max(1);
    let orphan_sources = if cfg.runtime_driven {
        cfg.workers as u64 * 2
    } else {
        1
    };
    let log_cap = cfg.log_cap_per_shard.unwrap_or(
        max_shard_ops * 2 + (cfg.max_crashes as u64 + 1) * (batch as u64 + 1) * orphan_sources + 64,
    );
    let nbuckets = cfg.key_space.max(4);

    let stripe = PMemBuilder::new()
        .len(REGION_LEN)
        .psan(cfg.psan)
        .build_striped(cfg.shards);
    {
        let store = ShardedKvStore::format(stripe.regions(), nbuckets, log_cap, cfg.variant)?;
        KvServeFunction::preload(store, &mutations)?;
    }

    let (exec, gets) = if cfg.runtime_driven {
        let mut machine = Striped::format(stripe, cfg.workers, cfg.psan)?;
        let mut workload = RuntimeDriven { cfg, batch, gets };
        let exec = cycle::cycle(&mut machine, &mut workload, &mut cx)?;
        (exec, vec![workload.gets])
    } else {
        let gets = gets.per_shard(cfg.shards);
        let mut workload = WorkerDriven { cfg, batch, gets };
        let exec = cycle::cycle(&mut Shards { stripe }, &mut workload, &mut cx)?;
        (exec, workload.gets)
    };

    // Step 9, from the quiescent system: every descriptor answered,
    // every get asked.
    let store = exec.store();
    let mut history = exec.history()?;
    history.ops.extend(gets.into_iter().flat_map(|g| g.done));
    let shard_kills = cx.tally.crash_sites.iter();
    let shard_kills = shard_kills.filter(|site| matches!(site.region, CrashRegion::Shard(_)));
    Ok(ShardedKvCampaignReport {
        shard_kills: shard_kills.count(),
        tally: cx.tally,
        verdict: sharded_verdict(&history, store)?,
        history,
        log_usage: ShardLogUsage::of(store)?,
        mutations: mutations.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_core::{RecoveryMode, RuntimeConfig, StripedRuntime};
    use pstack_nvram::{FailPlan, PMem, StatsSnapshot};
    use pstack_verify::{check_kv_sharded, KvAnswer, KvOpKind, KvWitnessRecord};

    #[test]
    fn sharded_campaign_is_linearizable_and_crashes_in_batch_windows() {
        let report = run_sharded_kv_campaign(&ShardedKvCampaignConfig::new(80, 21)).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert!(report.shard_kills > 0, "fail-points should actually fire");
        assert_eq!(report.history.shards.len(), 4);
        assert!(report.rounds > 1);
        assert!(report.log_had_headroom(), "{}", report.tightest_shard());
        assert!(
            report.log_usage.iter().any(|u| u.reserved > 0),
            "group commits should have completed: {:?}",
            report.log_usage
        );
        assert!(
            report.stats.coalesced_lines > 0,
            "group commits should coalesce persists: {:?}",
            report.stats
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
    }

    #[test]
    fn sharded_campaigns_are_deterministic_per_seed() {
        let cfg = ShardedKvCampaignConfig::new(48, 5);
        let a = run_sharded_kv_campaign(&cfg).unwrap();
        let b = run_sharded_kv_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.shard_kills, b.shard_kills);
    }

    #[test]
    fn group_commit_cuts_persists_per_mutation() {
        // Same workload, no crashes: the batched campaign must spend
        // far fewer persist round-trips per mutation than the per-op
        // buffered one — measured straight from the PMem counters.
        let quiet = |batch| {
            let mut cfg = ShardedKvCampaignConfig::new(200, 3).group_commit(batch);
            cfg.max_crashes = 0;
            cfg.key_space = 64;
            run_sharded_kv_campaign(&cfg).unwrap()
        };
        let batched = quiet(16);
        let per_op = quiet(1);
        assert!(batched.is_linearizable() && per_op.is_linearizable());
        assert_eq!(batched.mutations, per_op.mutations);
        assert!(
            batched.persists_per_mutation() * 2.0 < per_op.persists_per_mutation(),
            "batched {:.2} vs per-op {:.2} persists/mutation",
            batched.persists_per_mutation(),
            per_op.persists_per_mutation(),
        );
    }

    #[test]
    fn single_hot_shard_headroom_is_detected_per_shard() {
        // One key → one hot shard. With a tiny per-shard log the hot
        // shard fills while the others stay empty: the per-shard
        // report must expose it (the old global sum would have hidden
        // it behind three idle shards' headroom).
        let mut cfg = ShardedKvCampaignConfig::new(60, 11);
        cfg.key_space = 1;
        cfg.max_crashes = 0;
        cfg.op_mix = (1.0, 0.0, 0.0); // all puts
        cfg.log_cap_per_shard = Some(8);
        let report = run_sharded_kv_campaign(&cfg).unwrap();
        assert!(
            report.is_linearizable(),
            "capacity-rejected puts are legal answers: {:?}",
            report.verdict
        );
        assert!(!report.log_had_headroom(), "hot shard must be flagged");
        let hot = shard_of(0, 4);
        for usage in &report.log_usage {
            assert_eq!(
                usage.has_headroom(),
                usage.shard != hot,
                "only the hot shard fills: {usage}"
            );
            // The trigger signal: 0.0 for the full shard, a healthy
            // fraction for the idle ones.
            if usage.shard == hot {
                assert_eq!(usage.headroom_fraction(), 0.0, "{usage}");
            } else {
                assert!(usage.headroom_fraction() > 0.5, "{usage}");
            }
        }
        assert_eq!(report.tightest_shard().shard, hot);
        // The report names the shard that should trigger compaction.
        assert_eq!(report.compaction_candidate(0.25), Some(hot));
        assert_eq!(
            report.compaction_candidate(0.0),
            None,
            "threshold 0 never fires"
        );
    }

    #[test]
    fn two_hundred_sharded_crash_recover_cycles_lose_nothing() {
        // The sharded acceptance gate: ≥ 200 crash/recover cycles with
        // kills landing inside group-commit batch windows (including
        // between flight issue and await, while tickets are still
        // queued on the device), every campaign recovering all shards
        // in parallel — keeping exactly the completed-flight prefix —
        // and verifying against the sequential spec: zero lost or torn
        // updates.
        let mut cycles = 0usize;
        let mut campaigns = 0usize;
        let mut stats = StatsSnapshot::default();
        for seed in 0.. {
            let mut cfg = ShardedKvCampaignConfig::new(60, 4000 + seed);
            cfg.max_crashes = 14;
            cfg.crash_prob = 0.8;
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: lost or torn update after {} crashes: {:?}",
                report.total_crashes(),
                report.verdict
            );
            assert!(
                report.log_had_headroom(),
                "seed {seed}: {} filled — cycles stopped exercising recovery",
                report.tightest_shard()
            );
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            cycles += report.total_crashes();
            campaigns += 1;
            stats = stats + report.stats;
            if cycles >= 200 {
                break;
            }
        }
        assert!(
            cycles >= 200,
            "only {cycles} crash/recover cycles across {campaigns} campaigns"
        );
        assert!(stats.async_flushes > 0, "no campaign ever issued a flight");
        assert!(
            stats.flights_cut > 0,
            "no kill ever landed with a flight still queued"
        );
    }

    #[test]
    fn pipelined_campaigns_are_deterministic_per_seed() {
        // The async flush pipeline must not leak scheduling into the
        // campaign's observable history: no device thread exists, so
        // two runs of the same seed retire identical flights and crash
        // at identical event counts.
        let cfg = ShardedKvCampaignConfig::new(48, 5).group_commit(16);
        let a = run_sharded_kv_campaign(&cfg).unwrap();
        let b = run_sharded_kv_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.tally, b.tally);
        assert!(a.stats.async_flushes > 0, "no group commit issued a flight");
    }

    #[test]
    fn psan_flags_the_early_publish_variant_and_names_the_shard() {
        // The seeded persist-order bug as a campaign-level negative
        // control: group commits publish their bucket heads without
        // persisting the staged records first. Without a crash the
        // execution is semantically flawless — the verifier passes —
        // but the sanitizer must flag every buggy publish and attribute
        // it to the home shard and the group-commit op.
        use pstack_nvram::PsanViolationKind;
        let mut cfg = ShardedKvCampaignConfig::new(60, 13).variant(KvVariant::EarlyPublish);
        cfg.max_crashes = 0; // deterministic: violations fire at publish time
        cfg.psan = true;
        let report = run_sharded_kv_campaign(&cfg).unwrap();
        assert!(
            report.is_linearizable(),
            "without crashes the bug is invisible to the verifier: {:?}",
            report.verdict
        );
        let early: Vec<_> = report
            .psan_violations
            .iter()
            .filter(|v| matches!(v.kind, PsanViolationKind::EarlyPublish { .. }))
            .collect();
        assert!(
            !early.is_empty(),
            "the sanitizer must catch what the verifier cannot: {:?}",
            report.psan_violations
        );
        for v in &early {
            assert!(
                v.region.starts_with("shard-"),
                "violation names its home shard: {v:?}"
            );
            assert_eq!(
                v.op_label, "kv.apply_batch",
                "violation names the group-commit op: {v:?}"
            );
        }
    }

    // ---- runtime-driven mode ------------------------------------------

    #[test]
    fn runtime_driven_campaign_puts_the_stack_in_the_loop() {
        let report =
            run_sharded_kv_campaign(&ShardedKvCampaignConfig::new(80, 21).runtime_driven(true))
                .unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert!(report.rounds > 1);
        assert!(report.log_had_headroom(), "{}", report.tightest_shard());
        // The batch windows ran as persistent-stack tasks: group
        // commits completed and interrupted frames were replayed.
        assert!(
            report.log_usage.iter().any(|u| u.reserved > 0),
            "windows should group-commit: {:?}",
            report.log_usage
        );
        assert!(
            report.recovered_frames > 0,
            "stack-driven recovery should replay interrupted frames"
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
        // Every cycle is attributed to the region that tripped it.
        assert!(!report.crash_sites.is_empty());
        assert!(report.crash_sites.len() <= report.total_crashes());
        for site in &report.crash_sites {
            match site.region {
                CrashRegion::Shard(s) => assert!(s < 4, "shard index in range: {site}"),
                CrashRegion::Runtime => {}
            }
            assert!(
                site.events > 0,
                "the op counter freezes at the kill: {site}"
            );
        }
        // Every crash→recovery cycle that completed was timed.
        assert_eq!(report.recovery_durations.len(), report.crashes);
        assert!(report.recovery_durations.iter().all(|d| d.as_nanos() > 0));
        #[cfg(feature = "telemetry")]
        {
            let telemetry = report.telemetry.as_ref().expect("recording was on");
            // The stack-driven recovery path exercises the reopen, the
            // per-shard evidence scan, the frame replay, and the
            // recover duals — the timeline must attribute at least
            // three distinct phases with durations.
            assert!(
                telemetry.distinct_recovery_phases() >= 3,
                "timeline:\n{}",
                telemetry.render()
            );
            assert!(!telemetry.timeline.is_empty());
            assert!(
                telemetry.ops.iter().any(|op| op.count > 0),
                "spans should have latencies: {:?}",
                telemetry.ops
            );
            println!("{}", telemetry.render());
        }
    }

    #[test]
    fn runtime_driven_campaign_is_deterministic_with_one_worker() {
        let mut cfg = ShardedKvCampaignConfig::new(48, 5).runtime_driven(true);
        cfg.workers = 1;
        let a = run_sharded_kv_campaign(&cfg).unwrap();
        let b = run_sharded_kv_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn runtime_driven_two_hundred_crash_recover_cycles_lose_nothing() {
        // The runtime-driven acceptance gate: ≥ 200 crash/recover
        // cycles with every put/get/batch executing as a persistent-
        // stack task, kills landing inside batch windows *and* inside
        // stack-driven recovery, every crash tripping the whole
        // system, and the sharded verifier confirming zero lost or
        // torn updates.
        let mut cycles = 0usize;
        let mut recovery_kills = 0usize;
        let mut batch_window_kills = 0usize;
        let mut frames = 0usize;
        let mut campaigns = 0usize;
        for seed in 0.. {
            let mut cfg = ShardedKvCampaignConfig::new(60, 7000 + seed).runtime_driven(true);
            cfg.max_crashes = 14;
            cfg.crash_prob = 0.8;
            cfg.recovery_crash_prob = 0.5;
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: lost or torn update after {} crashes: {:?}",
                report.total_crashes(),
                report.verdict
            );
            assert!(
                report.log_had_headroom(),
                "seed {seed}: {} filled — cycles stopped exercising recovery",
                report.tightest_shard()
            );
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            cycles += report.total_crashes();
            recovery_kills += report.recovery_crashes;
            batch_window_kills += report.shard_kills;
            frames += report.recovered_frames;
            campaigns += 1;
            if cycles >= 200 {
                break;
            }
        }
        assert!(
            cycles >= 200,
            "only {cycles} crash/recover cycles across {campaigns} campaigns"
        );
        assert!(
            recovery_kills > 0,
            "kills must land inside recovery passes too"
        );
        assert!(
            batch_window_kills > 0,
            "kills must land inside shard batch windows"
        );
        assert!(frames > 0, "recovery must replay interrupted frames");
    }

    #[test]
    fn runtime_driven_noscan_is_caught() {
        // The NoScan bug variant driven through `run_tasks`: recovery
        // duals that skip the per-shard evidence scan re-execute
        // already-published operations, and the campaign's verifier
        // must flag the resulting duplicates. Detection is
        // probabilistic per run, so scan seeds.
        let mut detected = 0;
        let mut runs = 0;
        for seed in 0..24 {
            if detected >= 2 {
                break;
            }
            let mut cfg = ShardedKvCampaignConfig::new(80, seed)
                .variant(KvVariant::NoScan)
                .runtime_driven(true);
            cfg.key_space = 4;
            cfg.max_crashes = 30;
            cfg.crash_prob = 0.9;
            cfg.recovery_crash_prob = 0.6;
            cfg.crash_window = (5, 60);
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_linearizable() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no sharded KV violation detected in {runs} runtime-driven no-scan runs"
        );
    }

    // ---- multi-region crash-point enumeration -------------------------

    /// Formats a deterministic 2-shard runtime-driven system: buffered
    /// stripe, one store + preloaded request table per shard (table
    /// bases in the shard roots), and a 1-worker runtime over a fresh
    /// control region.
    fn build_enum_system(ops: &[KvTaskOp]) -> (PMem, PMemStripe) {
        let stripe = PMemBuilder::new().len(1 << 19).psan(true).build_striped(2);
        let store = ShardedKvStore::format(stripe.regions(), 8, 128, KvVariant::Nsrl).unwrap();
        KvServeFunction::preload(store, ops).unwrap();
        let control = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        StripedRuntime::format(
            control.clone(),
            stripe.clone(),
            RuntimeConfig::new(1).stack_capacity(8 * 1024),
            &stub,
        )
        .unwrap();
        (control, stripe)
    }

    /// Re-attaches executor and runtime to the current boot.
    fn attach_enum_system(
        control: &PMem,
        stripe: &PMemStripe,
    ) -> (KvServeFunction, StripedRuntime) {
        let (registry, exec) = attach_stripe(stripe, KvVariant::Nsrl).unwrap();
        let rt = StripedRuntime::open(control.clone(), stripe.clone(), &registry).unwrap();
        (exec, rt)
    }

    /// Runs the 1-worker system to quiescence with no fail-points
    /// (recovering first, since the caller may hand over a state with
    /// an interrupted frame) and checks the execution: verifier-clean,
    /// every key holding its submitted value.
    fn drain_and_check(control: &PMem, stripe: &PMemStripe, ops: &[KvTaskOp], label: &str) {
        for _ in 0..16 {
            let (exec, rt) = attach_enum_system(control, stripe);
            rt.recover(RecoveryMode::Parallel).unwrap();
            let tasks = exec.pending_tasks(4).unwrap();
            if tasks.is_empty() {
                let history = exec.history().unwrap();
                let verdict = check_kv_sharded(&history, |key| shard_of(key, 2));
                assert!(verdict.is_linearizable(), "{label}: {verdict:?}");
                let contents = exec.store().contents().unwrap();
                for op in ops {
                    if let KvTaskOp::Put { key, value } = op {
                        assert_eq!(contents.get(key), Some(value), "{label}: key {key}");
                    }
                }
                let violations = stripe.psan_violations();
                assert!(violations.is_empty(), "{label}: sanitizer: {violations:?}");
                return;
            }
            let report = rt.run_tasks(tasks);
            assert!(!report.crashed, "{label}: no fail-points are armed");
        }
        panic!("{label}: system failed to drain in 16 rounds");
    }

    #[test]
    fn enumerated_shard_crash_times_recovery_step_boundaries() {
        // The multi-region enumeration: for a 2-shard stripe, crash
        // shard 0's region at *every* event boundary of its batch
        // window, then crash the recovery pass at *every* event
        // boundary of the same region — and from each (crash-moment ×
        // recovery-step) state, recovery must converge with per-bucket
        // all-or-nothing effects and no re-run frames. (Ten puts: a
        // window answers with one persist, not two, so eight would walk
        // fewer boundaries than this sweep used to — 72 crash moments
        // and 1896 recovery steps now, 62 and 1519 before.)
        let ops: Vec<KvTaskOp> = (0..10u64)
            .map(|key| KvTaskOp::Put {
                key,
                value: key as i64 + 10,
            })
            .collect();
        let target = 0usize;

        // Clean run: count the target region's events for the whole
        // drive (one worker, unshuffled tasks — fully deterministic).
        let (control, stripe) = build_enum_system(&ops);
        let e0 = stripe.region(target).events();
        {
            let (exec, rt) = attach_enum_system(&control, &stripe);
            let report = rt.run_tasks(exec.pending_tasks(4).unwrap());
            assert!(!report.crashed);
        }
        let run_events = stripe.region(target).events() - e0;
        assert!(run_events >= 3, "a window must span several events");

        for k in 0..run_events {
            // Phase 1 (attribution): crash shard 0 after k events of
            // the run; the kill must trip the whole system and be
            // blamed on the armed region.
            {
                let (control, stripe) = build_enum_system(&ops);
                let (exec, rt) = attach_enum_system(&control, &stripe);
                stripe
                    .region(target)
                    .arm_failpoint(FailPlan::after_events(k));
                let report = rt.run_tasks(exec.pending_tasks(4).unwrap());
                assert!(report.crashed, "crash at event {k} must fire");
                assert!(rt.all_crashed(), "event {k}: whole system down");
                assert_eq!(
                    report.crash_site.map(|s| s.region),
                    Some(CrashRegion::Shard(target)),
                    "event {k}: kill attributed to the armed shard"
                );
            }

            // Phase 2: enumerate recovery-step boundaries j. Every
            // j below recovery's event footprint crashes the pass; the
            // first j at or past it completes cleanly — an `Ok` means
            // the plan never fired, so the enumeration of this k is
            // done.
            for j in 0.. {
                // Rebuild the identical crash-at-k state from scratch
                // (one worker, unshuffled tasks: fully deterministic).
                let (control, stripe) = build_enum_system(&ops);
                {
                    let (exec, rt) = attach_enum_system(&control, &stripe);
                    stripe
                        .region(target)
                        .arm_failpoint(FailPlan::after_events(k));
                    let report = rt.run_tasks(exec.pending_tasks(4).unwrap());
                    assert!(report.crashed);
                }
                let control = control.reopen().unwrap();
                let stripe = stripe.reopen_all().unwrap();

                // Per-bucket all-or-nothing after the crash: every
                // published record carries an untorn tag and value
                // from the workload.
                let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl).unwrap();
                for chains in store.snapshot_sharded().unwrap() {
                    for rec in chains.iter().flatten() {
                        assert!(rec.key < 10, "crash {k}: phantom key {}", rec.key);
                        assert_eq!(
                            rec.value,
                            rec.key as i64 + 10,
                            "crash {k}: torn record value"
                        );
                    }
                }

                let (_, rt) = attach_enum_system(&control, &stripe);
                stripe
                    .region(target)
                    .arm_failpoint(FailPlan::after_events(j));
                match rt.recover(RecoveryMode::Parallel) {
                    Ok(rep) => {
                        stripe.disarm_all();
                        // No re-run frames: a completed recovery pass
                        // leaves nothing for a second one.
                        assert!(rep.total_frames() <= 1, "one worker, one frame");
                        assert_eq!(
                            rt.recover(RecoveryMode::Serial).unwrap().total_frames(),
                            0,
                            "crash {k}, step {j}: recovered frames must not re-run"
                        );
                        drain_and_check(&control, &stripe, &ops, &format!("crash {k}, step {j}"));
                        break;
                    }
                    Err(e) => {
                        assert!(e.is_crash(), "crash {k}, step {j}: {e}");
                        assert!(rt.all_crashed(), "recovery crash must trip all regions");
                        let control = control.reopen().unwrap();
                        let stripe = stripe.reopen_all().unwrap();
                        drain_and_check(&control, &stripe, &ops, &format!("crash {k}, step {j}"));
                    }
                }
            }
        }
    }

    // ---- negative controls: deliberately broken recovery --------------

    /// Maps a store's chains into the verifier's witness shape.
    fn witness_of(store: &ShardedKvStore) -> Vec<Vec<Vec<KvWitnessRecord>>> {
        store
            .snapshot_sharded()
            .unwrap()
            .into_iter()
            .map(|chains| {
                chains
                    .into_iter()
                    .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn recovery_into_the_wrong_shard_is_flagged_as_misrouted() {
        use pstack_verify::KvViolation;
        // Crash a put mid-flight in its home shard, then "recover" it
        // by skipping the home shard's evidence scan and re-executing
        // in the *other* shard's store — the striping invariant breaks
        // and the sharded verifier must say exactly that.
        let stripe = PMemBuilder::new().len(1 << 18).build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        let key = 0u64;
        let home = kv.shard_of(key);
        let wrong = 1 - home;
        stripe.region(home).arm_failpoint(FailPlan::after_events(1));
        assert!(kv.put(1, 1, key, 42).unwrap_err().is_crash());
        stripe.crash_all(3, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
        // The bug: recovery re-executes in a shard the router never
        // picked, instead of scanning the home shard.
        assert!(kv2.shard(wrong).recover_put(1, 1, key, 42).unwrap());

        let history = KvShardedHistory {
            ops: vec![KvOp {
                pid: 1,
                seq: 1,
                kind: KvOpKind::Put,
                key,
                value: 42,
                expected: 0,
                answer: KvAnswer::Stored(true),
            }],
            shards: witness_of(&kv2),
        };
        let verdict = check_kv_sharded(&history, |k| shard_of(k, 2));
        match verdict.violation() {
            Some(KvViolation::MisroutedKey { shard, home: h, .. }) => {
                assert_eq!(*shard, wrong);
                assert_eq!(*h, home);
            }
            other => panic!("expected MisroutedKey, got {other:?}"),
        }
    }

    #[test]
    fn skipping_the_recovery_scan_entirely_is_flagged_as_lost_update() {
        use pstack_verify::KvViolation;
        // Crash a put before anything publishes, then "recover" by
        // declaring it done without scanning or re-executing — the
        // answer claims success, no record exists anywhere, and the
        // verifier must report the lost update.
        let stripe = PMemBuilder::new().len(1 << 18).build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        let key = 3u64;
        let home = kv.shard_of(key);
        stripe.region(home).arm_failpoint(FailPlan::after_events(0));
        assert!(kv.put(2, 9, key, 77).unwrap_err().is_crash());
        stripe.crash_all(5, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();

        let history = KvShardedHistory {
            ops: vec![KvOp {
                pid: 2,
                seq: 9,
                kind: KvOpKind::Put,
                key,
                value: 77,
                expected: 0,
                answer: KvAnswer::Stored(true), // the skipped-scan lie
            }],
            shards: witness_of(&kv2),
        };
        let verdict = check_kv_sharded(&history, |k| shard_of(k, 2));
        match verdict.violation() {
            Some(KvViolation::LostUpdate { tag }) => assert_eq!(*tag, (2, 9)),
            other => panic!("expected LostUpdate, got {other:?}"),
        }
    }

    #[test]
    fn sharded_noscan_is_caught() {
        // The sharded analogue of the §5.2 matrix-removal experiment:
        // no-scan recovery re-executes operations whose records already
        // published in their home shard; the sharded verifier reports
        // the duplicate tags. Detection is probabilistic per run, so
        // scan seeds.
        let mut detected = 0;
        let mut runs = 0;
        for seed in 0..24 {
            if detected >= 2 {
                break;
            }
            let mut cfg = ShardedKvCampaignConfig::new(80, seed).variant(KvVariant::NoScan);
            cfg.key_space = 4;
            cfg.max_crashes = 30;
            cfg.crash_prob = 0.9;
            cfg.crash_window = (5, 60);
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_linearizable() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no sharded KV violation detected in {runs} no-scan runs"
        );
    }
}
