//! The compaction crash campaign: §5.2's kill-and-recover methodology
//! aimed at the **generational log rewrite** instead of the workload.
//!
//! A sharded store is formatted with a deliberately tiny per-shard log,
//! so sustained traffic repeatedly exhausts shards; the driver watches
//! the per-shard headroom signal ([`ShardLogUsage::headroom_fraction`])
//! and compacts a shard ([`ShardedKvStore::compact_shard`]) whenever it
//! falls below the configured threshold. Kills land in three places the
//! generational design must survive:
//!
//! * **inside the rewrite** — fail-point countdowns shorter than the
//!   carry-copy's event footprint, so the crash interrupts the new
//!   generation mid-build (and, at the right countdowns, exactly **at
//!   the root swap** — the countdown sweep crosses the swap's own
//!   persistence events);
//! * **at the retirement mark** — after the swap but before the old
//!   generation is stamped retired;
//! * **during post-swap recovery** — the evidence-scanning
//!   [`ShardedKvStore::recover_compact_shard`] pass is itself killed
//!   and re-run until it converges.
//!
//! The collected execution is checked by the generation-aware
//! [`check_kv_sharded_gen`]: per-shard chains spanning every
//! generation, carry-overs validated against the boundary state, no
//! live key dropped by any swap. The campaign's headline is the
//! acceptance criterion of PR 5: shards accept strictly more lifetime
//! mutations than their formatted `log_cap` — the store no longer
//! bricks at capacity.
//!
//! The driver is single-threaded (compaction requires per-shard
//! quiescence, which one driver provides trivially), so campaigns are
//! deterministic per seed.
//!
//! [`check_kv_sharded_gen`]: pstack_verify::check_kv_sharded_gen

use rand::Rng;

use pstack_core::{FunctionRegistry, PError};
use pstack_kv::{KvServeFunction, KvVariant, ShardedKvStore};
use pstack_nvram::{FailPlan, PMemBuilder, PMemStripe};
use pstack_verify::{KvShardedHistory, KvVerdict};

use crate::cycle::{self, Cx, Policy, Shards, Tally, Workload};
use crate::kv_campaign::ShardLogUsage;
use crate::sharded_kv_campaign::{
    attach_stripe, generate_kv_ops, quiescent, run_shard_rounds, sharded_verdict, HarnessGets,
};

/// Shards (independent regions).
const SHARDS: usize = 2;
/// NVRAM region length *per shard* (also bounds how many retired
/// generations the shard's heap can retain).
const REGION_LEN: usize = 1 << 20;
/// Inclusive range put/cas values are drawn from.
const VALUE_RANGE: (i64, i64) = (-100, 100);
/// Fail-point countdown for workload kills.
const CRASH_WINDOW: (u64, u64) = (4, 60);

/// Configuration of one compaction crash campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionCampaignConfig {
    /// Number of KV operations across all shards.
    pub n_ops: usize,
    /// Keys are drawn from `0..key_space` — keep it small so the live
    /// set stays far below the history and compaction reclaims a lot.
    pub key_space: u64,
    /// Probability weights of (put, get, delete); the rest are cas.
    pub op_mix: (f64, f64, f64),
    /// Master seed; campaigns are deterministic given the seed.
    pub seed: u64,
    /// Correct NSRL recovery or the no-scan bug.
    pub variant: KvVariant,
    /// Mutations are group-committed in windows of up to this many
    /// (0 is read as 1).
    pub group_commit: usize,
    /// The deliberately small per-shard log capacity — the campaign
    /// exists to push every shard past it.
    pub log_cap_per_shard: u64,
    /// Compact a shard when its headroom fraction falls below this
    /// (`0.0` disables compaction — the report then *names* the shard
    /// that should have compacted via
    /// [`ShardedKvCampaignReport::compaction_candidate`]-style logic).
    ///
    /// [`ShardedKvCampaignReport::compaction_candidate`]:
    /// crate::ShardedKvCampaignReport::compaction_candidate
    pub compact_threshold: f64,
    /// Kills of normal rounds (workload and compaction windows together)
    /// stop after this many; compaction-recovery passes are killed while
    /// the campaign's total stays under twice that.
    pub max_crashes: usize,
    /// Probability of arming a kill inside each compaction window.
    pub compaction_crash_prob: f64,
    /// Probability of arming a kill in each shard region per workload
    /// round.
    pub workload_crash_prob: f64,
    /// Probability of arming a kill inside each compaction-recovery
    /// pass.
    pub recovery_crash_prob: f64,
    /// Runs the campaign under the persist-order sanitizer; defaults to
    /// the `psan` crate feature.
    pub psan: bool,
}

impl CompactionCampaignConfig {
    /// Defaults: 2 shards whose 32-slot logs a 300-op workload over 10
    /// hot keys overruns several times, compaction below 35% headroom,
    /// kills inside roughly half of all compaction windows.
    #[must_use]
    pub fn new(n_ops: usize, seed: u64) -> Self {
        CompactionCampaignConfig {
            n_ops,
            key_space: 10,
            op_mix: (0.55, 0.2, 0.1),
            seed,
            variant: KvVariant::Nsrl,
            group_commit: 4,
            log_cap_per_shard: 32,
            compact_threshold: 0.35,
            max_crashes: 10,
            compaction_crash_prob: 0.5,
            workload_crash_prob: 0.25,
            recovery_crash_prob: 0.4,
            psan: cfg!(feature = "psan"),
        }
    }

    /// Selects the recovery variant.
    #[must_use]
    pub fn variant(mut self, variant: KvVariant) -> Self {
        self.variant = variant;
        self
    }
}

/// Outcome of a compaction campaign.
#[derive(Debug, Clone)]
pub struct CompactionCampaignReport {
    /// Driver rounds, kills in normal rounds (`crashes`: workload
    /// windows and compaction windows together), kills inside
    /// compaction-*recovery* passes (`recovery_crashes`), the region
    /// each kill tripped in, sanitizer findings (empty for the correct
    /// variant) and the flight-recorder summary. A recovery duration
    /// times the compaction-recovery dual; after a workload kill the
    /// evidence scans run inside the rounds that follow and are not
    /// timed.
    pub tally: Tally,
    /// Of `crashes`, the kills that landed inside compaction windows —
    /// the rewrite, the root swap, or the retirement mark.
    pub compaction_crashes: usize,
    /// Every committed compaction as `(shard, generation committed)`,
    /// in commit order — the report names the shard that triggered
    /// each one.
    pub compactions: Vec<(usize, u64)>,
    /// The collected execution (answers + per-shard generational chain
    /// witness).
    pub history: KvShardedHistory,
    /// The generation-aware sharded linearizability verdict.
    pub verdict: KvVerdict,
    /// Per-shard active generation numbers at the end.
    pub generations: Vec<u64>,
    /// Per-shard log usage of the **active** generations at the end.
    pub log_usage: Vec<ShardLogUsage>,
    /// The per-shard capacity the store was formatted with.
    pub original_log_cap: u64,
    /// Per shard: real (non-carried) records published across all
    /// generations — lifetime mutations the shard absorbed.
    pub published_per_shard: Vec<usize>,
}
cycle::report_derefs_to_tally!(CompactionCampaignReport);

impl CompactionCampaignReport {
    /// `true` if the execution passed the generation-aware check.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.verdict.is_linearizable()
    }

    /// The acceptance headline: `true` if some shard published strictly
    /// more lifetime mutations than its formatted log capacity — the
    /// store outlived the bound that used to brick it.
    #[must_use]
    pub fn outlived_original_capacity(&self) -> bool {
        self.published_per_shard
            .iter()
            .any(|&p| p as u64 > self.original_log_cap)
    }

    /// The shard with the least headroom below `threshold` — who
    /// triggered (or, with compaction disabled, *should* trigger) the
    /// next compaction.
    #[must_use]
    pub fn compaction_candidate(&self, threshold: f64) -> Option<usize> {
        ShardLogUsage::compaction_candidate(&self.log_usage, threshold)
    }
}

/// Descriptors driven per shard per round — kept small so headroom
/// checks interleave with traffic and shards never silently brick
/// between checks.
const OPS_PER_ROUND: usize = 8;
/// Countdown of a kill inside a compaction window: 0..=30 sweeps the
/// whole window — rewrite events first, then the swap's slot+selector
/// persists, then the retirement mark.
const COMPACTION_WINDOW: (u64, u64) = (0, 30);
/// Countdown of a kill inside a compaction-recovery pass.
const COMPACTION_RECOVERY_FUSE: (u64, u64) = (0, 20);

/// The compaction workload: the sharded KV traffic in bounded rounds,
/// with a maintenance phase ahead of each — the one phase only this
/// harness has, so it (and the kill inside its window) lives here
/// rather than in the engine.
struct Compacting<'a> {
    cfg: &'a CompactionCampaignConfig,
    batch: usize,
    gets: Vec<HarnessGets>,
    compaction_crashes: usize,
    compactions: Vec<(usize, u64)>,
    /// The compaction a kill interrupted, as `(shard, generation it
    /// started from)`: what the next recovery pass has to settle.
    interrupted: Option<(usize, u64)>,
}

impl Compacting<'_> {
    /// Compacts every shard whose headroom signal fired, a kill armed
    /// inside roughly `compaction_crash_prob` of the windows while the
    /// budget lasts.
    fn maintain(
        &mut self,
        stripe: &PMemStripe,
        store: &ShardedKvStore,
        cx: &mut Cx,
    ) -> Result<(), PError> {
        for s in 0..SHARDS {
            let usage = ShardLogUsage {
                shard: s,
                reserved: store.shard(s).log_reserved()?,
                capacity: store.shard(s).log_capacity()?,
            };
            let threshold = self.cfg.compact_threshold;
            if threshold <= 0.0 || usage.headroom_fraction() >= threshold {
                continue;
            }
            let from_gen = store.shard(s).generation()?;
            if cx.run_kills_left() && cx.rng.random_bool(self.cfg.compaction_crash_prob) {
                let (lo, hi) = COMPACTION_WINDOW;
                let countdown = cx.rng.random_range(lo..=hi);
                stripe
                    .region(s)
                    .arm_failpoint(FailPlan::after_events(countdown));
            }
            match store.compact_shard(s) {
                Ok(stats) => {
                    stripe.region(s).disarm_failpoint();
                    self.compactions.push((s, stats.to_gen));
                }
                Err(e) => {
                    if e.is_crash() {
                        self.compaction_crashes += 1;
                        self.interrupted = Some((s, from_gen));
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

impl Workload<Shards> for Compacting<'_> {
    type Attached = (PMemStripe, KvServeFunction);
    type Work = ();

    fn attach(
        &mut self,
        stripe: &PMemStripe,
    ) -> Result<(FunctionRegistry, Self::Attached), PError> {
        let (registry, exec) = attach_stripe(stripe, self.cfg.variant)?;
        Ok((registry, (stripe.clone(), exec)))
    }

    /// Maintenance first, then: is anything left to do?
    fn enqueue(
        &mut self,
        (stripe, exec): &Self::Attached,
        cx: &mut Cx,
    ) -> Result<Option<()>, PError> {
        self.maintain(stripe, exec.store(), cx)?;
        Ok((!quiescent(exec, &self.gets)?).then_some(()))
    }

    /// A bounded slice of every shard's pending descriptors, so the
    /// headroom check interleaves with traffic. One driver thread:
    /// compaction requires per-shard quiescence, which one driver
    /// provides trivially.
    fn run(
        &mut self,
        (_, (), (_, exec)): (&Shards, &(), &Self::Attached),
        (): (),
        cx: &Cx,
    ) -> Result<bool, PError> {
        let shape = (self.cfg.seed, self.batch, 1);
        run_shard_rounds(exec, shape, Some(OPS_PER_ROUND), &mut self.gets, cx)
    }

    /// The recovery dual of an interrupted compaction: evidence (the
    /// root cell) decides whether the swap committed. A workload kill
    /// leaves nothing to settle here — see [`Shards`].
    fn recover(
        &mut self,
        (_, (), (_, exec)): (&Shards, &(), &Self::Attached),
    ) -> Result<usize, PError> {
        if let Some((s, from_gen)) = self.interrupted {
            exec.store().recover_compact_shard(s, from_gen)?;
            self.compactions
                .push((s, exec.store().shard(s).generation()?));
            self.interrupted = None;
        }
        Ok(0)
    }
}

/// Runs one full compaction crash campaign. Deterministic per
/// configuration (single driver thread).
///
/// # Errors
///
/// Propagates setup failures; the kill/restart loop itself handles
/// crashes as part of the experiment.
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_compaction_campaign, CompactionCampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_compaction_campaign(&CompactionCampaignConfig::new(120, 7))?;
/// assert!(report.is_linearizable());
/// assert!(report.outlived_original_capacity());
/// # Ok(())
/// # }
/// ```
pub fn run_compaction_campaign(
    cfg: &CompactionCampaignConfig,
) -> Result<CompactionCampaignReport, PError> {
    cycle::traced(cfg!(feature = "telemetry"), || {
        run_compaction_campaign_inner(cfg)
    })
}

fn run_compaction_campaign_inner(
    cfg: &CompactionCampaignConfig,
) -> Result<CompactionCampaignReport, PError> {
    assert!(cfg.key_space > 0, "empty key space");
    assert!(cfg.log_cap_per_shard > 0, "empty log");

    let mut cx = Cx::new(
        cfg.seed,
        Policy {
            max_crashes: cfg.max_crashes,
            crash_window: CRASH_WINDOW,
            crash_prob: cfg.workload_crash_prob,
            recovery_crash_prob: cfg.recovery_crash_prob,
            recovery_fuse: COMPACTION_RECOVERY_FUSE,
        },
    );
    let ops = generate_kv_ops(
        cfg.n_ops,
        cfg.key_space,
        VALUE_RANGE,
        cfg.op_mix,
        &mut cx.rng,
    );
    let (mutations, gets) = HarnessGets::split(&ops);
    let nbuckets = cfg.key_space.max(4);

    let stripe = PMemBuilder::new()
        .len(REGION_LEN)
        .psan(cfg.psan)
        .build_striped(SHARDS);
    {
        let store = ShardedKvStore::format(
            stripe.regions(),
            nbuckets,
            cfg.log_cap_per_shard,
            cfg.variant,
        )?;
        KvServeFunction::preload(store, &mutations)?;
    }

    let mut workload = Compacting {
        cfg,
        batch: cfg.group_commit.max(1),
        gets: gets.per_shard(SHARDS),
        compaction_crashes: 0,
        compactions: Vec::new(),
        interrupted: None,
    };
    let (_, exec) = cycle::cycle(&mut Shards { stripe }, &mut workload, &mut cx)?;

    let store = exec.store();
    let mut history = exec.history()?;
    history
        .ops
        .extend(workload.gets.into_iter().flat_map(|g| g.done));
    let published_per_shard = history
        .shards
        .iter()
        .map(|chains| chains.iter().flatten().filter(|r| !r.compacted).count())
        .collect();
    Ok(CompactionCampaignReport {
        tally: cx.tally,
        compaction_crashes: workload.compaction_crashes,
        compactions: workload.compactions,
        verdict: sharded_verdict(&history, store)?,
        history,
        generations: store.generations()?,
        log_usage: ShardLogUsage::of(store)?,
        original_log_cap: cfg.log_cap_per_shard,
        published_per_shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_kv::shard_of;

    #[test]
    fn compaction_campaign_outlives_capacity_and_verifies() {
        let report = run_compaction_campaign(&CompactionCampaignConfig::new(300, 21)).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(
            report.outlived_original_capacity(),
            "published {:?} vs capacity {} — the whole point is to cross it",
            report.published_per_shard,
            report.original_log_cap
        );
        assert!(!report.compactions.is_empty(), "compactions must trigger");
        assert!(
            report.generations.iter().any(|&g| g > 0),
            "generations: {:?}",
            report.generations
        );
        assert!(
            report.total_crashes() > 0,
            "the campaign should experience kills"
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
        // Every compaction names its shard, and the committed
        // generations per shard are strictly increasing.
        for s in 0..2 {
            let gens: Vec<u64> = report
                .compactions
                .iter()
                .filter(|&&(shard, _)| shard == s)
                .map(|&(_, g)| g)
                .collect();
            assert!(
                gens.windows(2).all(|w| w[0] < w[1]),
                "shard {s} generations out of order: {gens:?}"
            );
        }
    }

    #[test]
    fn compaction_campaigns_are_deterministic_per_seed() {
        let cfg = CompactionCampaignConfig::new(200, 5);
        let a = run_compaction_campaign(&cfg).unwrap();
        let b = run_compaction_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.compactions, b.compactions);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.compaction_crashes, b.compaction_crashes);
    }

    #[test]
    fn disabled_compaction_names_the_shard_that_should_trigger() {
        // threshold 0 disables the compactor; the hot shard fills and
        // the report names it as the candidate — the "should trigger"
        // half of the satellite.
        let mut cfg = CompactionCampaignConfig::new(80, 11);
        cfg.compact_threshold = 0.0;
        cfg.key_space = 1; // one key → one hot shard
        cfg.op_mix = (1.0, 0.0, 0.0); // all puts
        cfg.max_crashes = 0;
        cfg.log_cap_per_shard = 8;
        let report = run_compaction_campaign(&cfg).unwrap();
        assert!(
            report.is_linearizable(),
            "capacity-rejected puts are legal answers: {:?}",
            report.verdict
        );
        assert!(report.compactions.is_empty(), "compaction was disabled");
        let hot = shard_of(0, 2);
        assert_eq!(report.compaction_candidate(0.5), Some(hot));
        assert_eq!(report.generations, vec![0, 0]);
        assert!(!report.outlived_original_capacity());
    }

    #[test]
    fn psan_flags_the_no_persist_before_swap_variant() {
        use pstack_nvram::PsanViolationKind;
        // The seeded bug skips the generation's persist barrier before
        // the root swap. Recovery still converges (the verifier stays
        // green without crashes), but the sanitizer sees the swap
        // publish over dirty lines — the bug the verifier cannot catch.
        let mut cfg =
            CompactionCampaignConfig::new(300, 21).variant(KvVariant::NoPersistBeforeSwap);
        cfg.max_crashes = 0; // deterministic: violations fire at swap time
        cfg.psan = true;
        let report = run_compaction_campaign(&cfg).unwrap();
        assert!(
            report.is_linearizable(),
            "without crashes the buggy variant still verifies: {:?}",
            report.verdict
        );
        assert!(!report.compactions.is_empty(), "compactions must trigger");
        let unordered: Vec<_> = report
            .psan_violations
            .iter()
            .filter(|v| matches!(v.kind, PsanViolationKind::UnorderedCommit))
            .collect();
        assert!(
            !unordered.is_empty(),
            "the skipped persist barrier must surface as unordered commits: {:?}",
            report.psan_violations
        );
        for v in &unordered {
            assert!(
                v.region.starts_with("shard-"),
                "attribution names the shard region: {v:?}"
            );
            assert_eq!(
                v.op_label, "kv.compact",
                "attribution names the compaction op: {v:?}"
            );
        }
    }

    #[test]
    fn two_hundred_compaction_crash_cycles_lose_nothing() {
        // The PR 5 acceptance gate: ≥ 200 crash/recover cycles across
        // seeds, with kills inside compaction rewrites, at the root
        // swap, and inside post-swap recovery passes — zero violations
        // of the generation-aware check, and capacity crossed anyway.
        let mut cycles = 0usize;
        let mut compaction_kills = 0usize;
        let mut recovery_kills = 0usize;
        let mut outlived = 0usize;
        let mut campaigns = 0usize;
        for seed in 0.. {
            let mut cfg = CompactionCampaignConfig::new(260, 9000 + seed);
            cfg.max_crashes = 18;
            cfg.compaction_crash_prob = 0.7;
            cfg.recovery_crash_prob = 0.5;
            cfg.workload_crash_prob = 0.35;
            let report = run_compaction_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: violation after {} crashes ({} in compaction windows): {:?}",
                report.total_crashes(),
                report.compaction_crashes,
                report.verdict
            );
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            cycles += report.total_crashes();
            compaction_kills += report.compaction_crashes;
            recovery_kills += report.recovery_crashes;
            outlived += usize::from(report.outlived_original_capacity());
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
            compaction_kills > 0,
            "kills must land inside compaction windows"
        );
        assert!(
            recovery_kills > 0,
            "kills must land inside compaction recovery passes"
        );
        assert!(
            outlived * 10 >= campaigns * 9,
            "nearly every campaign should cross its original capacity \
             ({outlived}/{campaigns})"
        );
    }
}
