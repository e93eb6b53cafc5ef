//! The §5.2 crash campaign applied to the recoverable key-value store,
//! under the persistent stack. There is **one** KV campaign; a
//! [`KvCampaignConfig`] is a row of its scenario table, and shard count,
//! workers, stack layout, group-commit width, compaction trigger, log
//! capacity, kill policy and seeded variant are the columns.
//!
//! The workload — random puts, gets, deletes and cases over a few hot
//! keys — is preloaded as one request table per shard
//! ([`KvServeFunction::preload`]). Every round enqueues what is still
//! pending as batch windows ([`KvServeFunction::pending_tasks`]) and runs
//! them as persistent-stack tasks on a `StripedRuntime`: kills land inside
//! group commits, in the control region under the stack's own persists
//! and inside recovery passes, and a crash in any region takes the whole
//! system down. A row that compacts runs each round's
//! [`KvCompactFunction`] tasks ahead of its windows — one per shard whose
//! log headroom fell under the threshold, a kill armed inside the
//! rewrite, at the root swap or at the retirement mark — and recovery
//! replays an interrupted compaction's frame like any other. The harness
//! answers the workload's gets itself, between rounds, with
//! [`ShardedKvStore::get_durable`].
//!
//! Step 9 checks the execution with the generation-aware sharded verifier
//! ([`check_kv_sharded_gen`]): per-shard chains, globally unique tags, key
//! routing, carry-overs across every compaction and no live key dropped.
//! A campaign is deterministic per seed with one worker; more workers run
//! a round's tasks in an order the scheduler picks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use pstack_core::{
    CrashRegion, FunctionRegistry, PContext, PError, RecoverableFunction, RetBytes, StackKind,
    StripedRuntime, Task,
};
use pstack_kv::{
    shard_of, KvCompactFunction, KvServeFunction, KvTaskOp, KvTaskResult, KvVariant,
    ShardedKvStore, KV_COMPACT_FUNC_ID,
};
use pstack_nvram::{FailPlan, PMemBuilder, PMemStripe};
use pstack_verify::{check_kv_sharded_gen, KvOp, KvShardedHistory, KvVerdict};

use crate::cycle::{self, Cx, Machine, Policy, Stacked, Striped, Tally, Workload};

/// NVRAM region length per shard (also bounds how many retired
/// generations a compacting shard's heap can retain).
const REGION_LEN: usize = 1 << 20;
/// Inclusive range put/cas values are drawn from.
const VALUE_RANGE: (i64, i64) = (-100, 100);
/// Records the campaign with the flight recorder when it is compiled in.
const TELEMETRY: bool = cfg!(feature = "telemetry");

/// Countdown of a kill inside a recovery pass whose windows hold a
/// descriptor or a few (windows of one here, the serving campaign's
/// lightly filled ones): a replayed window is then an evidence scan plus
/// one answer persist — a dozen events, not a group commit's forty — and
/// a longer fuse outlives the pass, so the kill never lands.
pub(crate) const ANSWER_REPLAY_FUSE: (u64, u64) = (1, 12);
/// The same where recovery replays whole group-commit windows.
const WINDOW_REPLAY_FUSE: (u64, u64) = (2, 40);
/// The same where a row compacts, so a pass may replay a compaction.
const COMPACTION_RECOVERY_FUSE: (u64, u64) = (0, 20);
/// Countdown of a kill inside a compaction task: 0..=30 sweeps the whole
/// rewrite — the new generation first, then the swap's slot and
/// selector persists, then the retirement mark.
const COMPACTION_WINDOW: (u64, u64) = (0, 30);
/// Descriptors a shard runs per round while a row compacts (rounded up to
/// whole windows): few enough that the headroom check interleaves with
/// traffic and no shard fills its log between two checks.
const OPS_PER_ROUND: usize = 8;

/// One row of the KV scenario table.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCampaignConfig {
    /// Number of KV operations across all shards.
    pub n_ops: usize,
    /// Shards: independent regions, one store and request table each.
    pub shards: usize,
    /// Runtime worker threads.
    pub workers: usize,
    /// Keys are drawn from `0..key_space`; a small space forces
    /// same-key contention (chain conflicts, cas races).
    pub key_space: u64,
    /// Probability weights of (put, get, delete); the rest are cas.
    pub op_mix: (f64, f64, f64),
    /// Master seed.
    pub seed: u64,
    /// Stack layout of the workers.
    pub stack_kind: StackKind,
    /// Correct NSRL recovery or a seeded bug.
    pub variant: KvVariant,
    /// Mutations of a shard group-committed per window (0 is read as 1).
    pub group_commit: usize,
    /// Compact a shard whose log headroom fraction
    /// ([`ShardLogUsage::headroom_fraction`]) falls below this; `0.0`
    /// never compacts.
    pub compact_threshold: f64,
    /// Per-shard version-log capacity; `None` provisions for the
    /// workload and its crash orphans.
    pub log_cap_per_shard: Option<u64>,
    /// Kills of normal-mode rounds stop after this many; recovery passes
    /// are killed while the campaign's total stays under twice that.
    pub max_crashes: usize,
    /// Fail-point countdown of a normal-mode round, drawn per armed
    /// region.
    pub crash_window: (u64, u64),
    /// Probability a given shard region is armed in a given round (the
    /// control region: half of it).
    pub crash_prob: f64,
    /// Probability a recovery pass gets a kill.
    pub recovery_crash_prob: f64,
    /// Probability a compaction task's shard is armed with a countdown
    /// inside the rewrite.
    pub compaction_crash_prob: f64,
    /// Scheduling noise `(probability, pause-events)` on the shard
    /// regions; see [`crate::CampaignConfig::access_jitter`].
    pub access_jitter: Option<(f64, u64)>,
    /// Shadow every region with the persist-order sanitizer and collect
    /// its findings in the report. Defaults to the `psan` crate feature.
    pub psan: bool,
}

impl KvCampaignConfig {
    /// Defaults mirroring the paper's CAS campaign: one shard, 4
    /// workers, windows of one, 16 hot keys, a 50/25/10/15
    /// put/get/delete/cas mix, every round killed while 8 kills last.
    #[must_use]
    pub fn new(n_ops: usize, seed: u64) -> Self {
        KvCampaignConfig {
            n_ops,
            shards: 1,
            workers: 4,
            key_space: 16,
            op_mix: (0.5, 0.25, 0.1),
            seed,
            stack_kind: StackKind::Fixed,
            variant: KvVariant::Nsrl,
            group_commit: 1,
            compact_threshold: 0.0,
            log_cap_per_shard: None,
            max_crashes: 8,
            crash_window: (40, 400),
            crash_prob: 1.0,
            recovery_crash_prob: 0.3,
            compaction_crash_prob: 0.0,
            access_jitter: None,
            psan: cfg!(feature = "psan"),
        }
    }

    /// Selects the recovery variant.
    #[must_use]
    pub fn variant(mut self, variant: KvVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the stack layout.
    #[must_use]
    pub fn stack(mut self, kind: StackKind) -> Self {
        self.stack_kind = kind;
        self
    }

    /// Selects the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Selects the group-commit window size.
    #[must_use]
    pub fn group_commit(mut self, batch: usize) -> Self {
        self.group_commit = batch;
        self
    }

    fn batch(&self) -> usize {
        self.group_commit.max(1)
    }

    /// Countdown of a recovery kill: short enough to land inside what a
    /// pass replays.
    fn recovery_fuse(&self) -> (u64, u64) {
        if self.compact_threshold > 0.0 {
            COMPACTION_RECOVERY_FUSE
        } else if self.batch() > 1 {
            WINDOW_REPLAY_FUSE
        } else {
            ANSWER_REPLAY_FUSE
        }
    }

    /// Each shard's log, unless the row names one: every descriptor at
    /// most one published slot, plus crash orphans — a staged window per
    /// in-flight worker per kill, run kills and recovery kills alike —
    /// plus retry slack.
    fn log_cap(&self, ops: &[KvTaskOp]) -> u64 {
        let mut shard_ops = vec![0u64; self.shards];
        for op in ops {
            shard_ops[shard_of(op.key(), self.shards)] += 1;
        }
        let max_shard_ops = shard_ops.into_iter().max().unwrap_or(0).max(1);
        let orphans =
            (self.max_crashes as u64 + 1) * (self.batch() as u64 + 1) * self.workers as u64 * 2;
        self.log_cap_per_shard
            .unwrap_or(max_shard_ops * 2 + orphans + 64)
    }
}

/// One shard's version-log usage at the end of a campaign. A filled
/// log turns *that shard* read-only — every later mutation routed to
/// it legally answers "no effect", an execution the verifier rightly
/// accepts but one that stops exercising crash recovery. Reporting
/// usage per shard (instead of a global sum) is what lets campaign
/// tests catch a single hot shard degenerating while the others keep
/// plenty of headroom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLogUsage {
    /// The shard index.
    pub shard: usize,
    /// Log slots reserved (published records plus crash orphans).
    pub reserved: u64,
    /// The capacity of the shard's active generation.
    pub capacity: u64,
}

impl ShardLogUsage {
    /// The usage of every shard of `store`'s active generations.
    pub(crate) fn of(store: &ShardedKvStore) -> Result<Vec<ShardLogUsage>, PError> {
        let usage = store
            .log_reserved_per_shard()?
            .into_iter()
            .zip(store.log_capacities()?)
            .enumerate()
            .map(|(shard, (reserved, capacity))| ShardLogUsage {
                shard,
                reserved,
                capacity,
            });
        Ok(usage.collect())
    }

    /// `true` while the shard can still accept mutations.
    #[must_use]
    pub fn has_headroom(&self) -> bool {
        self.reserved < self.capacity
    }

    /// Free log slots as a fraction of capacity, in `[0, 1]` — **the
    /// compaction trigger signal**: `1.0` is a fresh log, `0.0` a full
    /// (read-only) one. [`run_kv_campaign`] compacts a shard when this
    /// falls under the row's `compact_threshold`
    /// (`ShardedKvStore::compact_shard` is the lever, run as a
    /// [`KvCompactFunction`] task). Over-reserved counts (possible only
    /// through corruption) clamp to `0.0` rather than going negative.
    #[must_use]
    pub fn headroom_fraction(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.capacity.saturating_sub(self.reserved) as f64 / self.capacity as f64
    }

    /// `true` if **every** shard in `usage` keeps headroom — the
    /// per-shard check that catches one hot shard turning read-only
    /// even while aggregate usage looks healthy.
    #[must_use]
    pub fn all_have_headroom(usage: &[ShardLogUsage]) -> bool {
        usage.iter().all(ShardLogUsage::has_headroom)
    }

    /// The shard of `usage` that triggered — or should trigger —
    /// compaction: the one with the smallest headroom fraction below
    /// `threshold`. `None` while every shard keeps at least
    /// `threshold` of its log free. The report's
    /// [`KvCampaignReport::compaction_candidate`] delegates here.
    #[must_use]
    pub fn compaction_candidate(usage: &[ShardLogUsage], threshold: f64) -> Option<usize> {
        usage
            .iter()
            .filter(|u| u.headroom_fraction() < threshold)
            .min_by(|a, b| {
                a.headroom_fraction()
                    .partial_cmp(&b.headroom_fraction())
                    .expect("headroom fractions are finite")
            })
            .map(|u| u.shard)
    }

    /// The fullest shard of `usage` (highest reserved/capacity ratio,
    /// compared by cross-multiplication) — what a capacity alert would
    /// page on.
    ///
    /// # Panics
    ///
    /// Panics on an empty list (campaign reports always hold ≥ 1).
    #[must_use]
    pub fn tightest(usage: &[ShardLogUsage]) -> ShardLogUsage {
        let ratio = |x: &ShardLogUsage, other_cap: u64| {
            u128::from(x.reserved) * u128::from(other_cap.max(1))
        };
        *usage
            .iter()
            .max_by(|a, b| ratio(a, b.capacity).cmp(&ratio(b, a.capacity)))
            .expect("at least one shard")
    }
}

impl std::fmt::Display for ShardLogUsage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {}: {}/{}",
            self.shard, self.reserved, self.capacity
        )
    }
}

/// Outcome of a KV campaign.
#[derive(Debug, Clone)]
pub struct KvCampaignReport {
    /// Rounds, crashes (in normal rounds and inside recovery passes),
    /// recovered frames, the region each crash tripped in, recovery
    /// durations, the stripe's NVRAM statistics, sanitizer findings
    /// (expected empty unless the row seeds a persist-order bug) and the
    /// flight-recorder summary.
    pub tally: Tally,
    /// Crashes attributed to a shard region — a fail-point that fired
    /// inside a batch window or a compaction — rather than to the
    /// control region.
    pub shard_kills: usize,
    /// Normal-mode crashes that landed in a round's compaction tasks.
    pub compaction_kills: usize,
    /// Compaction kills the next completed recovery pass settled by
    /// replaying a [`KvCompactFunction`] frame.
    pub compaction_replays: usize,
    /// The collected execution: answers plus each shard's chain witness
    /// across its generations.
    pub history: KvShardedHistory,
    /// The generation-aware sharded linearizability verdict.
    pub verdict: KvVerdict,
    /// Per-shard log usage of the active generations at the end.
    pub log_usage: Vec<ShardLogUsage>,
    /// Per-shard active generation at the end — the compactions each
    /// shard committed.
    pub generations: Vec<u64>,
    /// The per-shard log capacity the store was formatted with.
    pub log_cap: u64,
    /// Mutation descriptors in the workload (put/delete/cas — the
    /// denominator of the persists-per-mutation metric).
    pub mutations: usize,
}
cycle::report_derefs_to_tally!(KvCampaignReport);

impl KvCampaignReport {
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
    /// [`run_kv_campaign`]).
    #[must_use]
    pub fn tightest_shard(&self) -> ShardLogUsage {
        ShardLogUsage::tightest(&self.log_usage)
    }

    /// The shard that triggered — or, with compaction off, *should*
    /// trigger — compaction: see [`ShardLogUsage::compaction_candidate`].
    #[must_use]
    pub fn compaction_candidate(&self, threshold: f64) -> Option<usize> {
        ShardLogUsage::compaction_candidate(&self.log_usage, threshold)
    }

    /// Persist round-trips on the stripe per mutation descriptor — the
    /// group-commit headline (compare a `group_commit: k` row against
    /// `1`).
    #[must_use]
    pub fn persists_per_mutation(&self) -> f64 {
        if self.mutations == 0 {
            0.0
        } else {
            self.stats.persists as f64 / self.mutations as f64
        }
    }

    /// Per shard: real (non-carried) records published across every
    /// generation — the lifetime mutations the shard absorbed.
    #[must_use]
    pub fn published_per_shard(&self) -> Vec<usize> {
        let shards = self.history.shards.iter();
        let published = shards.map(|chains| chains.iter().flatten().filter(|r| !r.compacted));
        published.map(Iterator::count).collect()
    }

    /// `true` if some shard published strictly more lifetime mutations
    /// than its formatted log capacity — compaction outlived the bound
    /// that used to brick the store.
    #[must_use]
    pub fn outlived_original_capacity(&self) -> bool {
        let cap = self.log_cap;
        self.published_per_shard().iter().any(|&p| p as u64 > cap)
    }
}

/// The workload's operations.
fn generate_kv_ops(cfg: &KvCampaignConfig, rng: &mut SmallRng) -> Vec<KvTaskOp> {
    let (lo, hi) = VALUE_RANGE;
    let (p_put, p_get, p_del) = cfg.op_mix;
    (0..cfg.n_ops)
        .map(|_| {
            let key = rng.random_range(0..cfg.key_space);
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

/// The workload's reads. Reads are never descriptors — the one read
/// path is [`ShardedKvStore::get_durable`] — so the campaign answers its
/// gets itself, between rounds, and keeps the answers in its volatile
/// history exactly as the serving campaign keeps its clients' histories.
/// A get that meets a dead region stays on the list and is asked again
/// next boot.
#[derive(Debug, Default)]
struct HarnessGets {
    /// `(tag, key)` of every get still to ask.
    todo: Vec<(u64, u64)>,
    /// The gets answered so far, in the verifier's shape.
    done: Vec<KvOp>,
}

/// The `pid` half of a harness get's tag: no descriptor uses it (a
/// preloaded descriptor's pid is its shard + 1).
const GET_PID: u64 = 0;

impl HarnessGets {
    /// Splits a generated workload into the mutations to preload and
    /// the gets the harness keeps (tagged by workload position).
    fn split(ops: &[KvTaskOp]) -> (Vec<KvTaskOp>, HarnessGets) {
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

    /// Between rounds, half of what is outstanding — so the gets observe
    /// the store as each crash and recovery left it — and all of it once
    /// no descriptor is pending (`quiescent`).
    ///
    /// # Errors
    ///
    /// The first NVRAM error (a crash leaves that get outstanding).
    fn answer_between_rounds(
        &mut self,
        store: &ShardedKvStore,
        quiescent: bool,
    ) -> Result<(), PError> {
        let outstanding = self.todo.len();
        let share = if quiescent {
            outstanding
        } else {
            outstanding.div_ceil(2)
        };
        for _ in 0..share {
            let &(tag, key) = self.todo.last().expect("bounded by the list");
            let got = KvTaskResult::Got(store.get_durable(key)?);
            self.todo.pop();
            self.done
                .push(KvTaskOp::Get { key }.observed(GET_PID, tag, got));
        }
        Ok(())
    }
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

/// [`KvCompactFunction`], counting the frames recovery passes complete.
struct CountedCompaction {
    inner: KvCompactFunction,
    replayed: Arc<AtomicUsize>,
}

impl RecoverableFunction for CountedCompaction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        self.inner.call(ctx, args)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let ret = self.inner.recover(ctx, args)?;
        // A statistic, read once the pass's recovery threads have joined.
        self.replayed.fetch_add(1, Ordering::Relaxed);
        Ok(ret)
    }
}

/// One round's work: the compactions to run first, as `(shard,
/// generation it starts from, countdown of the kill armed inside it)`,
/// then the windows.
struct Round {
    compactions: Vec<(u32, u64, Option<u64>)>,
    windows: Vec<Task>,
}

/// The KV workload: preloaded request tables, the harness's reads, and
/// the compactions a compacting row runs ahead of its windows.
struct KvWorkload<'a> {
    cfg: &'a KvCampaignConfig,
    gets: HarnessGets,
    /// Compaction frames recovery completed, counted by every boot's
    /// registry.
    replayed: Arc<AtomicUsize>,
    compaction_kills: usize,
    compaction_replays: usize,
    /// The last kill landed in compaction tasks, and no recovery pass
    /// has completed since.
    compaction_killed: bool,
}

impl Workload<Striped> for KvWorkload<'_> {
    type Attached = KvServeFunction;
    type Work = Round;

    /// The serving registry, with the compactor beside the executor.
    fn attach(
        &mut self,
        stripe: &PMemStripe,
    ) -> Result<(FunctionRegistry, KvServeFunction), PError> {
        let (mut registry, exec) = attach_stripe(stripe, self.cfg.variant)?;
        let compaction = CountedCompaction {
            inner: KvCompactFunction::new(exec.store().clone()),
            replayed: Arc::clone(&self.replayed),
        };
        registry.register(KV_COMPACT_FUNC_ID, Arc::new(compaction))?;
        Ok((registry, exec))
    }

    /// The §5.2 re-enqueue step: the pending windows in random order —
    /// [`OPS_PER_ROUND`] descriptors a shard in a compacting row —
    /// and ahead of them a compaction of every shard whose headroom fell
    /// under the threshold. The harness's reads go between rounds.
    fn enqueue(&mut self, exec: &KvServeFunction, cx: &mut Cx) -> Result<Option<Round>, PError> {
        let batch = self.cfg.batch();
        let mut windows = exec.pending_tasks(batch)?;
        self.gets
            .answer_between_rounds(exec.store(), windows.is_empty())?;
        if windows.is_empty() {
            return Ok(None);
        }
        windows.shuffle(&mut cx.rng);
        let mut compactions = Vec::new();
        if self.cfg.compact_threshold > 0.0 {
            windows.truncate(OPS_PER_ROUND.div_ceil(batch));
            for usage in ShardLogUsage::of(exec.store())? {
                if usage.headroom_fraction() >= self.cfg.compact_threshold {
                    continue;
                }
                let kill =
                    cx.run_kills_left() && cx.rng.random_bool(self.cfg.compaction_crash_prob);
                let (lo, hi) = COMPACTION_WINDOW;
                let countdown = kill.then(|| cx.rng.random_range(lo..=hi));
                let from_gen = exec.store().shard(usage.shard).generation()?;
                compactions.push((usage.shard as u32, from_gen, countdown));
            }
        }
        Ok(Some(Round {
            compactions,
            windows,
        }))
    }

    /// The compactions first, each compacting shard armed inside its
    /// rewrite (in place of what the round armed there), then the
    /// windows.
    fn run(
        &mut self,
        (m, rt, _): (&Striped, &StripedRuntime, &KvServeFunction),
        round: Round,
        _: &Cx,
    ) -> Result<bool, PError> {
        if !round.compactions.is_empty() {
            let mut tasks = Vec::with_capacity(round.compactions.len());
            for (shard, from_gen, countdown) in round.compactions {
                if let Some(events) = countdown {
                    let region = m.regions().region(shard as usize);
                    region.arm_failpoint(FailPlan::after_events(events));
                }
                let args = KvCompactFunction::args_for(shard, from_gen);
                tasks.push(Task::new(KV_COMPACT_FUNC_ID, args.to_vec()));
            }
            if m.run_tasks(rt, tasks)? {
                self.compaction_kills += 1;
                self.compaction_killed = true;
                return Ok(true);
            }
        }
        m.run_tasks(rt, round.windows)
    }

    /// Per-shard evidence scans, then frame replay — an interrupted
    /// compaction's frame among them.
    fn recover(
        &mut self,
        (m, rt, exec): (&Striped, &StripedRuntime, &KvServeFunction),
    ) -> Result<usize, PError> {
        let replayed = self.replayed.load(Ordering::Relaxed);
        let frames = m.replay(rt, Some(exec.store()))?;
        if std::mem::take(&mut self.compaction_killed)
            && self.replayed.load(Ordering::Relaxed) > replayed
        {
            self.compaction_replays += 1;
        }
        Ok(frames)
    }
}

/// Runs one KV crash campaign: the §5.2 loop over the row's stripe and
/// runtime, then step 9's verdict.
///
/// # Errors
///
/// Propagates setup failures; the crash/restart loop itself handles
/// crashes as part of the experiment.
///
/// # Panics
///
/// Panics on a row with no shard, no worker or an empty key space, and
/// if a runtime worker thread panics.
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_kv_campaign, KvCampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_kv_campaign(&KvCampaignConfig::new(30, 7))?;
/// assert!(report.is_linearizable());
/// let sharded = run_kv_campaign(&KvCampaignConfig::new(40, 7).shards(4).group_commit(8))?;
/// assert_eq!(sharded.log_usage.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn run_kv_campaign(cfg: &KvCampaignConfig) -> Result<KvCampaignReport, PError> {
    assert!(cfg.shards > 0, "at least one shard");
    assert!(cfg.workers > 0, "at least one worker");
    assert!(cfg.key_space > 0, "empty key space");
    cycle::traced(TELEMETRY, || {
        let mut cx = Cx::new(
            cfg.seed,
            Policy {
                max_crashes: cfg.max_crashes,
                crash_window: cfg.crash_window,
                crash_prob: cfg.crash_prob,
                recovery_crash_prob: cfg.recovery_crash_prob,
                recovery_fuse: cfg.recovery_fuse(),
            },
        );
        let ops = generate_kv_ops(cfg, &mut cx.rng);
        let (mutations, gets) = HarnessGets::split(&ops);
        let log_cap = cfg.log_cap(&ops);
        let mut builder = PMemBuilder::new().len(REGION_LEN).psan(cfg.psan);
        if let Some((prob, pause_events)) = cfg.access_jitter {
            builder = builder.access_jitter(prob, pause_events);
        }
        let stripe = builder.build_striped(cfg.shards);
        let nbuckets = cfg.key_space.max(4);
        let store = ShardedKvStore::format(stripe.regions(), nbuckets, log_cap, cfg.variant)?;
        KvServeFunction::preload(store, &mutations)?;
        let mut machine = Striped::format(stripe, cfg.workers, cfg.stack_kind, cfg.psan)?;
        let mut workload = KvWorkload {
            cfg,
            gets,
            replayed: Arc::default(),
            compaction_kills: 0,
            compaction_replays: 0,
            compaction_killed: false,
        };
        let exec = cycle::cycle(&mut machine, &mut workload, &mut cx)?;

        // Step 9, from the quiescent system: every descriptor answered,
        // every get asked.
        let store = exec.store();
        let mut history = exec.history()?;
        history.ops.extend(workload.gets.done);
        let sites = cx.tally.crash_sites.iter();
        let shard_kills = sites.filter(|site| matches!(site.region, CrashRegion::Shard(_)));
        Ok(KvCampaignReport {
            shard_kills: shard_kills.count(),
            compaction_kills: workload.compaction_kills,
            compaction_replays: workload.compaction_replays,
            tally: cx.tally,
            verdict: sharded_verdict(&history, store)?,
            history,
            log_usage: ShardLogUsage::of(store)?,
            generations: store.generations()?,
            log_cap,
            mutations: mutations.len(),
        })
    })
}

#[cfg(test)]
/// The scenario table: the shapes its rows start from, and the two ways
/// a row runs — as a ≥ 200-cycle gate, or as a negative control scanned
/// across seeds until the verifier rejects it. The `kv_campaign`,
/// `sharded_kv_campaign` and `compaction_campaign` test modules hold the
/// rows.
pub(crate) mod table {
    use super::*;

    /// The three stack layouts, which the one-shard rows — the defaults of
    /// [`KvCampaignConfig::new`] — take in turn.
    pub(crate) const STACK_KINDS: [StackKind; 3] =
        [StackKind::Fixed, StackKind::Vec, StackKind::List];

    /// Four shards in group commits of 8, kill countdowns short enough to
    /// land inside batch windows.
    pub(crate) fn sharded(n_ops: usize, seed: u64) -> KvCampaignConfig {
        KvCampaignConfig {
            crash_window: (8, 80),
            crash_prob: 0.6,
            recovery_crash_prob: 0.35,
            ..KvCampaignConfig::new(n_ops, seed).shards(4).group_commit(8)
        }
    }

    /// Two shards whose 32-slot logs the traffic (10 hot keys) overruns
    /// several times, compacted below 35 % headroom by one worker, with
    /// kills inside half of the compactions.
    pub(crate) fn compacting(n_ops: usize, seed: u64) -> KvCampaignConfig {
        KvCampaignConfig {
            workers: 1,
            key_space: 10,
            op_mix: (0.55, 0.2, 0.1),
            compact_threshold: 0.35,
            log_cap_per_shard: Some(32),
            max_crashes: 10,
            crash_window: (4, 60),
            crash_prob: 0.25,
            recovery_crash_prob: 0.4,
            compaction_crash_prob: 0.5,
            ..KvCampaignConfig::new(n_ops, seed).shards(2).group_commit(4)
        }
    }

    /// What a gate's campaigns added up to, per kill class.
    #[derive(Debug, Default)]
    pub(crate) struct Gate {
        pub campaigns: usize,
        pub cycles: usize,
        pub recovery_kills: usize,
        pub shard_kills: usize,
        pub compaction_kills: usize,
        pub compaction_replays: usize,
        pub frames: usize,
        pub outlived: usize,
        pub async_flushes: u64,
        pub flights_cut: u64,
    }

    /// Runs `row(0)`, `row(1)`, … until the campaigns add up to ≥ 200
    /// crash/recover cycles. Every campaign must verify and be PSan-clean,
    /// and one that does not compact must keep log headroom (a filled log
    /// stops exercising recovery).
    pub(crate) fn gate(row: impl Fn(u64) -> KvCampaignConfig) -> Gate {
        let mut g = Gate::default();
        for seed in 0.. {
            let cfg = row(seed);
            let report = run_kv_campaign(&cfg).unwrap();
            let at = format!("seed {}", cfg.seed);
            assert!(
                report.is_linearizable(),
                "{at}: lost or torn update after {} crashes ({} in compactions): {:?}",
                report.total_crashes(),
                report.compaction_kills,
                report.verdict
            );
            assert!(
                report.psan_violations.is_empty(),
                "{at}: sanitizer findings: {:?}",
                report.psan_violations
            );
            assert!(
                cfg.compact_threshold > 0.0 || report.log_had_headroom(),
                "{at}: {} filled — cycles stopped exercising recovery",
                report.tightest_shard()
            );
            g.campaigns += 1;
            g.cycles += report.total_crashes();
            g.recovery_kills += report.recovery_crashes;
            g.shard_kills += report.shard_kills;
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

    /// Runs a negative-control row over seeds 0..24, stopping at the
    /// second campaign the verifier rejects; how many it rejected.
    pub(crate) fn caught(row: impl Fn(u64) -> KvCampaignConfig) -> usize {
        let mut detected = 0;
        for seed in 0..24 {
            if detected >= 2 {
                break;
            }
            if !run_kv_campaign(&row(seed)).unwrap().is_linearizable() {
                detected += 1;
            }
        }
        detected
    }
}

#[cfg(test)]
mod tests {
    use super::table::{caught, gate, STACK_KINDS};
    use super::*;

    #[test]
    fn kv_campaign_is_linearizable_and_crashes() {
        let report = run_kv_campaign(&KvCampaignConfig::new(60, 31)).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert_eq!(report.history.ops.len(), 60);
        assert!(report.rounds > 1);
        assert!(
            report.log_had_headroom(),
            "log filled ({}) — the campaign degenerated to a read-only store",
            report.tightest_shard()
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
    }

    #[test]
    fn kv_campaigns_are_deterministic_per_seed() {
        let cfg = KvCampaignConfig {
            workers: 1,
            ..KvCampaignConfig::new(30, 5)
        };
        let a = run_kv_campaign(&cfg).unwrap();
        let b = run_kv_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn kv_campaign_works_on_all_stack_kinds() {
        for kind in STACK_KINDS {
            let report = run_kv_campaign(&KvCampaignConfig::new(30, 37).stack(kind)).unwrap();
            assert!(
                report.is_linearizable(),
                "stack {kind}: {:?}",
                report.verdict
            );
        }
    }

    #[test]
    fn two_hundred_crash_recover_cycles_lose_nothing() {
        // The acceptance gate of the KV subsystem: ≥ 200 seeded
        // crash/recover cycles across flush boundaries on every stack
        // layout, each campaign reopening, recovering, and verifying
        // against the sequential spec — zero lost or torn updates.
        let g = gate(|seed| KvCampaignConfig {
            max_crashes: 14,
            crash_window: (20, 200),
            recovery_crash_prob: 0.5,
            ..KvCampaignConfig::new(50, 1000 + seed).stack(STACK_KINDS[seed as usize % 3])
        });
        assert!(
            g.recovery_kills > 0,
            "kills must land inside recovery passes too"
        );
        assert!(g.frames > 0, "recovery must replay interrupted frames");
    }

    #[test]
    fn correct_kv_never_flagged_across_seeds() {
        for seed in 300..308 {
            let report = run_kv_campaign(&KvCampaignConfig::new(40, seed)).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: {:?}",
                report.verdict
            );
            assert!(report.log_had_headroom(), "seed {seed}: log filled");
        }
    }

    #[test]
    fn noscan_kv_is_caught_across_seeds() {
        // The KV analogue of §5.2's matrix-removal experiment: no-scan
        // recovery re-executes operations whose effects already
        // published, and the verifier reports the duplicate tags.
        // Detection is probabilistic per run, so scan seeds with a
        // crash-heavy, high-contention configuration.
        let detected = caught(|seed| {
            KvCampaignConfig {
                key_space: 4,
                max_crashes: 40,
                crash_window: (10, 80),
                recovery_crash_prob: 0.5,
                access_jitter: Some((0.15, 40)),
                ..KvCampaignConfig::new(80, seed)
            }
            .variant(KvVariant::NoScan)
        });
        assert!(detected > 0, "no KV violation detected in no-scan runs");
    }
}
