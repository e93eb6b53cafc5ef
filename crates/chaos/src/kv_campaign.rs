//! The KV harness: the §5.2 crash campaign applied to the recoverable
//! key-value store, under the persistent stack. A
//! [`Workload::Kv`](crate::Workload::Kv) row's [`KvWorkload`] columns —
//! shard count, key space, op mix, seeded variant, group-commit width,
//! compaction trigger, log capacity and compaction kills — sit beside
//! the columns every row has.
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
//! rewrite or at the root swap — and recovery
//! replays an interrupted compaction's frame like any other. The harness
//! answers the workload's gets itself, between rounds, with
//! [`ShardedKvStore::get_durable`].
//!
//! Step 9 checks the execution against the store's own witness
//! ([`ShardedKvStore::check`], over `pstack-verify`'s
//! `check_kv_sharded_gen`): per-shard chains, globally unique tags, key
//! routing, carry-overs across every compaction and no live key dropped.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use pstack_core::{
    FunctionRegistry, PContext, PError, RecoverableFunction, RetBytes, StripedRuntime, Task,
};
use pstack_kv::{
    shard_of, KvCompactFunction, KvServeFunction, KvTaskOp, KvTaskResult, KvVariant,
    ShardedKvStore, KV_COMPACT_FUNC_ID,
};
use pstack_nvram::{FailPlan, PMemStripe};
use pstack_verify::KvOp;

use crate::campaign::{CampaignConfig, CampaignReport, Execution};
use crate::cycle::{self, Cx, Harness, Machine, Striped, Tally};

/// NVRAM region length per shard (also bounds how many retired
/// generations a compacting shard's heap can retain).
const REGION_LEN: usize = 1 << 20;
/// Inclusive range put/cas values are drawn from.
const VALUE_RANGE: (i64, i64) = (-100, 100);

/// Countdown of a kill inside a recovery pass whose windows hold a
/// descriptor or a few (windows of one here, the served rows' lightly
/// filled ones): a replayed window is then an evidence scan plus one
/// answer persist — a dozen events, not a group commit's forty — and a
/// longer fuse outlives the pass, so the kill never lands.
pub(crate) const ANSWER_REPLAY_FUSE: (u64, u64) = (1, 12);
/// Countdown of a kill inside a served row's recovery pass. A served
/// window's one level lands whole or not at all under these rows'
/// kills, and its frame with it, so a pass replays completed windows:
/// each re-collects its answers, reading only, and pops its frame — a
/// few events of the control region.
pub(crate) const SERVED_REPLAY_FUSE: (u64, u64) = (1, 3);
/// Countdown of a kill inside a recovery pass of a row whose windows
/// group-commit several mutations (the sharded rows). As on the served
/// rows, a window's frame is durable only with its level, and these
/// rows' kills keep no un-awaited line, so a window a kill cut left no
/// frame: a pass replays completed windows — each re-collects its
/// answers, reading only, and pops its frame — and re-drives little,
/// a few events of the control region and of a shard. A longer fuse
/// outlives the pass and the kill never lands.
const WINDOW_REPLAY_FUSE: (u64, u64) = (0, 2);
/// The same where a row compacts, so a pass may replay a compaction.
const COMPACTION_RECOVERY_FUSE: (u64, u64) = (0, 20);
/// Countdown of a kill inside a compaction task: 0..=30 sweeps the whole
/// rewrite — the new generation first, then the swap's slot and
/// selector persists.
const COMPACTION_WINDOW: (u64, u64) = (0, 30);
/// Descriptors a shard runs per round while a row compacts (rounded up to
/// whole windows): few enough that the headroom check interleaves with
/// traffic and no shard fills its log between two checks.
const OPS_PER_ROUND: usize = 8;

/// The KV columns of a campaign row.
#[derive(Debug, Clone, PartialEq)]
pub struct KvWorkload {
    /// Shards: independent regions, one store and request table each.
    pub shards: usize,
    /// Keys are drawn from `0..key_space`; a small space forces
    /// same-key contention (chain conflicts, cas races).
    pub key_space: u64,
    /// Probability weights of (put, get, delete); the rest are cas.
    pub op_mix: (f64, f64, f64),
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
    /// Probability a compaction task's shard is armed with a countdown
    /// inside the rewrite.
    pub compaction_crash_prob: f64,
}

impl Default for KvWorkload {
    /// One shard, windows of one, 16 hot keys, a 50/25/10/15
    /// put/get/delete/cas mix, no compaction.
    fn default() -> Self {
        KvWorkload {
            shards: 1,
            key_space: 16,
            op_mix: (0.5, 0.25, 0.1),
            variant: KvVariant::Nsrl,
            group_commit: 1,
            compact_threshold: 0.0,
            log_cap_per_shard: None,
            compaction_crash_prob: 0.0,
        }
    }
}

impl KvWorkload {
    fn batch(&self) -> usize {
        self.group_commit.max(1)
    }

    /// Countdown of a recovery kill: short enough to land inside what a
    /// pass replays.
    pub(crate) fn recovery_fuse(&self) -> (u64, u64) {
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
    fn log_cap(&self, cfg: &CampaignConfig, ops: &[KvTaskOp]) -> u64 {
        let mut shard_ops = vec![0u64; self.shards];
        for op in ops {
            shard_ops[shard_of(op.key(), self.shards)] += 1;
        }
        let max_shard_ops = shard_ops.into_iter().max().unwrap_or(0).max(1);
        let orphans =
            (cfg.max_crashes as u64 + 1) * (self.batch() as u64 + 1) * cfg.workers as u64 * 2;
        self.log_cap_per_shard
            .unwrap_or(max_shard_ops * 2 + orphans + 64)
    }

    /// The workload's operations.
    fn generate(&self, n_ops: usize, rng: &mut SmallRng) -> Vec<KvTaskOp> {
        let (lo, hi) = VALUE_RANGE;
        let (p_put, p_get, p_del) = self.op_mix;
        (0..n_ops)
            .map(|_| {
                let key = rng.random_range(0..self.key_space);
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
    /// (read-only) one. A KV row compacts a shard when this falls under
    /// its `compact_threshold` (`ShardedKvStore::compact_shard` is the
    /// lever, run as a [`KvCompactFunction`] task). Over-reserved counts
    /// (possible only through corruption) clamp to `0.0` rather than
    /// going negative.
    #[must_use]
    pub fn headroom_fraction(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.capacity.saturating_sub(self.reserved) as f64 / self.capacity as f64
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

/// What a KV or served row's report adds up to.
impl CampaignReport {
    /// `true` if **every** shard kept headroom — the per-shard check
    /// that catches one hot shard turning read-only even while aggregate
    /// usage looks healthy.
    #[must_use]
    pub fn log_had_headroom(&self) -> bool {
        self.log_usage.iter().all(ShardLogUsage::has_headroom)
    }

    /// The fullest shard (highest reserved/capacity ratio, compared by
    /// cross-multiplication) — what a capacity alert would page on.
    ///
    /// # Panics
    ///
    /// Panics if the report holds no shards (a CAS or queue row).
    #[must_use]
    pub fn tightest_shard(&self) -> ShardLogUsage {
        let ratio = |x: &ShardLogUsage, other_cap: u64| {
            u128::from(x.reserved) * u128::from(other_cap.max(1))
        };
        let usage = self.log_usage.iter();
        *usage
            .max_by(|a, b| ratio(a, b.capacity).cmp(&ratio(b, a.capacity)))
            .expect("at least one shard")
    }

    /// The shard that triggered — or, with compaction off, *should*
    /// trigger — compaction: the one with the smallest headroom fraction
    /// below `threshold`. `None` while every shard keeps at least
    /// `threshold` of its log free.
    #[must_use]
    pub fn compaction_candidate(&self, threshold: f64) -> Option<usize> {
        let fraction = ShardLogUsage::headroom_fraction;
        let usage = self.log_usage.iter();
        let low = usage.filter(|u| fraction(u) < threshold);
        low.min_by(|a, b| fraction(a).total_cmp(&fraction(b)))
            .map(|u| u.shard)
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
        let Execution::Kv { history, .. } = &self.execution else {
            return Vec::new();
        };
        let shards = history.shards.iter();
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

/// The workload's reads. Reads are never descriptors — the one read
/// path is [`ShardedKvStore::get_durable`] — so the harness answers its
/// gets itself, between rounds, and keeps the answers in its volatile
/// history exactly as a served row keeps its clients' histories. A get
/// that meets a dead region stays on the list and is asked again next
/// boot.
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

/// Step 9 of a KV or served row: the sharded linearizability verdict
/// over `ops` against the store's own witness
/// ([`ShardedKvStore::check`]), and the store's shards as the campaign
/// left them.
pub(crate) fn kv_report(
    tally: Tally,
    ops: Vec<KvOp>,
    store: &ShardedKvStore,
) -> Result<CampaignReport, PError> {
    let (history, verdict) = store.check(ops)?;
    Ok(CampaignReport {
        log_usage: ShardLogUsage::of(store)?,
        generations: store.generations()?,
        ..CampaignReport::new(tally, Execution::Kv { history, verdict })
    })
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

/// The KV harness: preloaded request tables, the harness's reads, and
/// the compactions a compacting row runs ahead of its windows.
struct KvHarness<'a> {
    kv: &'a KvWorkload,
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

impl Harness<Striped> for KvHarness<'_> {
    type Attached = KvServeFunction;
    type Work = Round;

    /// The serving registry, with the compactor beside the executor.
    fn attach(
        &mut self,
        stripe: &PMemStripe,
    ) -> Result<(FunctionRegistry, KvServeFunction), PError> {
        let (mut registry, exec) = attach_stripe(stripe, self.kv.variant)?;
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
        let batch = self.kv.batch();
        let mut windows = exec.pending_tasks(batch)?;
        self.gets
            .answer_between_rounds(exec.store(), windows.is_empty())?;
        if windows.is_empty() {
            return Ok(None);
        }
        windows.shuffle(&mut cx.rng);
        let mut compactions = Vec::new();
        if self.kv.compact_threshold > 0.0 {
            windows.truncate(OPS_PER_ROUND.div_ceil(batch));
            for usage in ShardLogUsage::of(exec.store())? {
                if usage.headroom_fraction() >= self.kv.compact_threshold {
                    continue;
                }
                let kill = cx.run_kills_left() && cx.rng.random_bool(self.kv.compaction_crash_prob);
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
    ) -> Result<bool, PError> {
        if !round.compactions.is_empty() {
            let mut tasks = Vec::with_capacity(round.compactions.len());
            for (shard, from_gen, countdown) in round.compactions {
                if let Some(events) = countdown {
                    let region = m.stripe().region(shard as usize);
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

/// A KV row: the §5.2 loop over its stripe and runtime, then step 9.
pub(crate) fn run(
    cfg: &CampaignConfig,
    kv: &KvWorkload,
    mut cx: Cx,
) -> Result<CampaignReport, PError> {
    assert!(kv.shards > 0, "at least one shard");
    assert!(kv.key_space > 0, "empty key space");
    let ops = kv.generate(cfg.n_ops, &mut cx.rng);
    let (mutations, gets) = HarnessGets::split(&ops);
    let log_cap = kv.log_cap(cfg, &ops);
    let (control, stripe) = cfg.regions(kv.shards, REGION_LEN)?;
    let store = ShardedKvStore::format(stripe.regions(), kv.key_space.max(4), log_cap, kv.variant)?;
    KvServeFunction::preload(store, &mutations)?;
    let mut machine = Striped::format(control, stripe, cfg.workers, cfg.stack_kind)?;
    let mut harness = KvHarness {
        kv,
        gets,
        replayed: Arc::default(),
        compaction_kills: 0,
        compaction_replays: 0,
        compaction_killed: false,
    };
    let exec = cycle::cycle(&mut machine, &mut harness, &mut cx)?;

    // Step 9, from the quiescent system: every descriptor answered,
    // every get asked.
    let mut ops = exec.ops()?;
    ops.extend(harness.gets.done);
    Ok(CampaignReport {
        log_cap,
        mutations: mutations.len(),
        compaction_kills: harness.compaction_kills,
        compaction_replays: harness.compaction_replays,
        ..kv_report(cx.tally, ops, exec.store())?
    })
}

#[cfg(test)]
mod tests {
    use crate::campaign::table::{caught, duplicate_application, gate, kv, STACK_KINDS};
    use crate::{run_campaign, CampaignConfig, KvWorkload};

    use super::*;

    /// The one-shard row: [`KvWorkload::default`] on
    /// [`CampaignConfig::new`]'s defaults.
    fn one_shard(n_ops: usize, seed: u64) -> CampaignConfig {
        kv(KvWorkload::default(), n_ops, seed)
    }

    #[test]
    fn kv_campaign_is_linearizable_and_crashes() {
        let report = run_campaign(&one_shard(60, 31)).unwrap();
        assert!(report.is_consistent(), "{:?}", report.execution);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert_eq!(report.execution.ops(), 60);
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
        let cfg = CampaignConfig {
            workers: 1,
            ..one_shard(30, 5)
        };
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.execution, b.execution);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn kv_campaign_works_on_all_stack_kinds() {
        for kind in STACK_KINDS {
            let report = run_campaign(&one_shard(30, 37).stack(kind)).unwrap();
            assert!(
                report.is_consistent(),
                "stack {kind}: {:?}",
                report.execution
            );
        }
    }

    #[test]
    fn two_hundred_crash_recover_cycles_lose_nothing() {
        // The acceptance gate of the KV subsystem: ≥ 200 seeded
        // crash/recover cycles across flush boundaries on every stack
        // layout, each campaign reopening, recovering, and verifying
        // against the sequential spec — zero lost or torn updates.
        let g = gate(|seed| CampaignConfig {
            max_crashes: 14,
            crash_window: (20, 200),
            recovery_crash_prob: 0.5,
            ..one_shard(50, 1000 + seed).stack(STACK_KINDS[seed as usize % 3])
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
            let report = run_campaign(&one_shard(40, seed)).unwrap();
            assert!(
                report.is_consistent(),
                "seed {seed}: {:?}",
                report.execution
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
        // crash-heavy, high-contention row.
        let shape = KvWorkload {
            key_space: 4,
            variant: KvVariant::NoScan,
            ..KvWorkload::default()
        };
        let row = |seed| CampaignConfig {
            max_crashes: 40,
            crash_window: (10, 80),
            recovery_crash_prob: 0.5,
            access_jitter: Some((0.15, 40)),
            ..kv(shape.clone(), 80, seed)
        };
        let detected = caught(row, duplicate_application);
        assert!(detected > 0, "no duplicate application in no-scan runs");
    }
}
