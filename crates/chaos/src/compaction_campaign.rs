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

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pstack_core::PError;
use pstack_kv::{shard_of, KvServeFunction, KvVariant, ShardedKvStore};
use pstack_nvram::{FailPlan, PMemBuilder, PMemStripe, PsanViolation};
use pstack_verify::{check_kv_sharded_gen, KvShardedHistory, KvVerdict};

use pstack_telemetry::{TelemetrySummary, TraceSession};
use std::time::{Duration, Instant};

use crate::kv_campaign::ShardLogUsage;
use crate::sharded_kv_campaign::{
    all_answered, attach_exec, generate_kv_ops, persist_table_roots, run_shard_round, HarnessGets,
};

/// Configuration of one compaction crash campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionCampaignConfig {
    /// Number of KV operations across all shards.
    pub n_ops: usize,
    /// Number of shards (independent regions).
    pub shards: usize,
    /// Keys are drawn from `0..key_space` — keep it small so the live
    /// set stays far below the history and compaction reclaims a lot.
    pub key_space: u64,
    /// Inclusive range put/cas values are drawn from.
    pub value_range: (i64, i64),
    /// Probability weights of (put, get, delete); the rest are cas.
    pub op_mix: (f64, f64, f64),
    /// Master seed; campaigns are deterministic given the seed.
    pub seed: u64,
    /// Correct NSRL recovery or the no-scan bug.
    pub variant: KvVariant,
    /// `Some(k)`: buffered regions, group commits of up to `k`;
    /// `None`: eager regions.
    pub group_commit: Option<usize>,
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
    /// Total kill budget (workload + compaction + recovery kills).
    pub max_crashes: usize,
    /// Probability of arming a kill inside each compaction window.
    pub compaction_crash_prob: f64,
    /// Probability of arming a kill in each shard region per workload
    /// round.
    pub workload_crash_prob: f64,
    /// Fail-point countdown for workload kills, drawn from this range.
    pub crash_window: (u64, u64),
    /// Probability of arming a kill inside each compaction-recovery
    /// pass.
    pub recovery_crash_prob: f64,
    /// Descriptors driven per shard per round — kept small so headroom
    /// checks interleave with traffic and shards never silently brick
    /// between checks.
    pub ops_per_round: usize,
    /// NVRAM region length *per shard* (also bounds how many retired
    /// generations the shard's heap can retain).
    pub region_len: usize,
    /// Runs the campaign under the persist-order sanitizer; defaults to
    /// the `psan` crate feature.
    pub psan: bool,
    /// Record the campaign with the flight recorder and attach the
    /// collected summary to the report. Defaults to the `telemetry`
    /// crate feature.
    pub telemetry: bool,
}

impl CompactionCampaignConfig {
    /// Defaults: 2 shards whose 32-slot logs a 300-op workload over 10
    /// hot keys overruns several times, compaction below 35% headroom,
    /// kills inside roughly half of all compaction windows.
    #[must_use]
    pub fn new(n_ops: usize, seed: u64) -> Self {
        CompactionCampaignConfig {
            n_ops,
            shards: 2,
            key_space: 10,
            value_range: (-100, 100),
            op_mix: (0.55, 0.2, 0.1),
            seed,
            variant: KvVariant::Nsrl,
            group_commit: Some(4),
            log_cap_per_shard: 32,
            compact_threshold: 0.35,
            max_crashes: 10,
            compaction_crash_prob: 0.5,
            workload_crash_prob: 0.25,
            crash_window: (4, 60),
            recovery_crash_prob: 0.4,
            ops_per_round: 8,
            region_len: 1 << 20,
            psan: cfg!(feature = "psan"),
            telemetry: cfg!(feature = "telemetry"),
        }
    }

    /// Selects the recovery variant.
    #[must_use]
    pub fn variant(mut self, variant: KvVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the commit mode.
    #[must_use]
    pub fn group_commit(mut self, batch: Option<usize>) -> Self {
        self.group_commit = batch;
        self
    }
}

/// Outcome of a compaction campaign.
#[derive(Debug, Clone)]
pub struct CompactionCampaignReport {
    /// Driver rounds executed.
    pub rounds: usize,
    /// Kills that landed in workload (non-compaction) windows.
    pub crashes: usize,
    /// Kills that landed inside compaction windows — the rewrite, the
    /// root swap, or the retirement mark.
    pub compaction_crashes: usize,
    /// Kills that landed inside compaction-*recovery* passes.
    pub recovery_crashes: usize,
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
    /// Persist-order sanitizer findings (empty when PSan is off, and —
    /// for the correct variant — when it is on).
    pub psan_violations: Vec<PsanViolation>,
    /// Attribution of every kill, in reboot order: the region index
    /// that tripped first and its frozen persistence-event counter.
    pub crash_sites: Vec<(usize, u64)>,
    /// Wall-clock duration of each crash→recovery cycle — from the
    /// whole-system reboot to the pass (compaction-recovery dual or
    /// workload recovery round) that completed. Kills *inside*
    /// recovery extend the cycle they interrupted.
    pub recovery_durations: Vec<Duration>,
    /// Flight-recorder summary; `None` when recording was off.
    pub telemetry: Option<TelemetrySummary>,
}

impl CompactionCampaignReport {
    /// `true` if the execution passed the generation-aware check.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.verdict.is_linearizable()
    }

    /// Total crash/recover cycles the campaign survived.
    #[must_use]
    pub fn total_crashes(&self) -> usize {
        self.crashes + self.compaction_crashes + self.recovery_crashes
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
    let session = cfg.telemetry.then(TraceSession::start);
    let mut report = run_compaction_campaign_inner(cfg)?;
    report.telemetry = session.map(|s| s.finish().summary());
    Ok(report)
}

fn run_compaction_campaign_inner(
    cfg: &CompactionCampaignConfig,
) -> Result<CompactionCampaignReport, PError> {
    assert!(cfg.shards > 0, "at least one shard");
    assert!(cfg.key_space > 0, "empty key space");
    assert!(cfg.log_cap_per_shard > 0, "empty log");
    let (lo, hi) = cfg.value_range;
    assert!(lo <= hi, "empty value range");

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ops = generate_kv_ops(
        cfg.n_ops,
        cfg.key_space,
        cfg.value_range,
        cfg.op_mix,
        &mut rng,
    );
    let (mutations, gets) = HarnessGets::split(&ops);
    let mut gets = gets.per_shard(cfg.shards);
    let nbuckets = cfg.key_space.max(4);
    let batch = cfg.group_commit.unwrap_or(1).max(1);

    let mut builder = PMemBuilder::new().len(cfg.region_len).psan(cfg.psan);
    if cfg.group_commit.is_none() {
        builder = builder.eager_flush(true);
    }
    let mut stripe = builder.build_striped(cfg.shards);
    {
        let store = ShardedKvStore::format(
            stripe.regions(),
            nbuckets,
            cfg.log_cap_per_shard,
            cfg.variant,
        )?;
        let exec = KvServeFunction::preload(store, &mutations)?;
        persist_table_roots(&stripe, exec.tables())?;
    }

    let mut rounds = 0usize;
    let mut crashes = 0usize;
    let mut compaction_crashes = 0usize;
    let mut recovery_crashes = 0usize;
    let mut compactions: Vec<(usize, u64)> = Vec::new();
    let mut crash_sites: Vec<(usize, u64)> = Vec::new();
    let mut recovery_durations: Vec<Duration> = Vec::new();
    // Set when a workload kill rebooted the stripe: the next workload
    // round drives the recovery duals, and its crash-free completion
    // closes the cycle.
    let mut recovery_started: Option<Instant> = None;
    let mut had_crash = false;

    // Reboots the whole stripe after a kill (whole-system failure,
    // survival probability 0 for determinism) and returns the site of
    // the kill that forced it — read before the failure propagates
    // stripe-wide, while the lowest crashed index still names the
    // region that tripped first.
    let reboot =
        |stripe: &mut PMemStripe, salt: u64, seed: u64| -> Result<Option<(usize, u64)>, PError> {
            let site = stripe.crash_site();
            stripe.crash_all(seed ^ salt, 0.0);
            let _phase = pstack_telemetry::phase("recovery.reopen");
            *stripe = stripe.reopen_all()?;
            Ok(site)
        };

    'campaign: loop {
        rounds += 1;
        let exec = attach_exec(&stripe, cfg.variant)?;
        let store = exec.store();
        let budget_left =
            |crashes: usize, cc: usize, rc: usize| crashes + cc + rc < cfg.max_crashes;

        // Maintenance first: compact any shard whose headroom signal
        // fired, with kills inside the window and inside recovery.
        for s in 0..cfg.shards {
            let usage = ShardLogUsage {
                shard: s,
                reserved: store.shard(s).log_reserved()?,
                capacity: store.shard(s).log_capacity()?,
            };
            if cfg.compact_threshold <= 0.0 || usage.headroom_fraction() >= cfg.compact_threshold {
                continue;
            }
            let from_gen = store.shard(s).generation()?;
            if budget_left(crashes, compaction_crashes, recovery_crashes)
                && rng.random_bool(cfg.compaction_crash_prob)
            {
                // Countdowns 0..=30 sweep the whole window: rewrite
                // events first, then the swap's slot+selector persists,
                // then the retirement mark.
                let countdown = rng.random_range(0..=30);
                stripe
                    .region(s)
                    .arm_failpoint(FailPlan::after_events(countdown));
            }
            match store.compact_shard(s) {
                Ok(stats) => {
                    stripe.region(s).disarm_failpoint();
                    compactions.push((s, stats.to_gen));
                }
                Err(e) if e.is_crash() => {
                    compaction_crashes += 1;
                    had_crash = true;
                    let recovery_t0 = Instant::now();
                    crash_sites.extend(reboot(
                        &mut stripe,
                        0x5153 ^ compaction_crashes as u64,
                        cfg.seed,
                    )?);
                    // The recovery dual, itself under fire: re-run until
                    // a pass completes. Evidence (the root cell) decides
                    // whether the interrupted swap committed.
                    loop {
                        let store = ShardedKvStore::open(stripe.regions(), cfg.variant)?;
                        if budget_left(crashes, compaction_crashes, recovery_crashes)
                            && rng.random_bool(cfg.recovery_crash_prob)
                        {
                            let countdown = rng.random_range(0..=20);
                            stripe
                                .region(s)
                                .arm_failpoint(FailPlan::after_events(countdown));
                        }
                        match store.recover_compact_shard(s, from_gen) {
                            Ok(_committed_before) => {
                                stripe.region(s).disarm_failpoint();
                                compactions.push((s, store.shard(s).generation()?));
                                recovery_durations.push(recovery_t0.elapsed());
                                break;
                            }
                            Err(e) if e.is_crash() => {
                                recovery_crashes += 1;
                                crash_sites.extend(reboot(
                                    &mut stripe,
                                    0x5245 ^ recovery_crashes as u64,
                                    cfg.seed,
                                )?);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    continue 'campaign; // fresh handles after the reboot
                }
                Err(e) => return Err(e),
            }
        }

        // Quiescent?
        if all_answered(&exec)? && gets.iter().all(|g| g.outstanding() == 0) {
            let generations = store.generations()?;
            let mut history = exec.history()?;
            history.ops.extend(gets.into_iter().flat_map(|g| g.done));
            let nshards = cfg.shards;
            let verdict =
                check_kv_sharded_gen(&history, |key| shard_of(key, nshards), &generations);
            let log_usage = store
                .log_reserved_per_shard()?
                .into_iter()
                .zip(store.log_capacities()?)
                .enumerate()
                .map(|(shard, (reserved, capacity))| ShardLogUsage {
                    shard,
                    reserved,
                    capacity,
                })
                .collect();
            let published_per_shard = history
                .shards
                .iter()
                .map(|chains| chains.iter().flatten().filter(|r| !r.compacted).count())
                .collect();
            if let Some(started) = recovery_started.take() {
                recovery_durations.push(started.elapsed());
            }
            return Ok(CompactionCampaignReport {
                rounds,
                crashes,
                compaction_crashes,
                recovery_crashes,
                compactions,
                history,
                verdict,
                generations,
                log_usage,
                original_log_cap: cfg.log_cap_per_shard,
                published_per_shard,
                psan_violations: stripe.psan_violations(),
                crash_sites,
                recovery_durations,
                telemetry: None,
            });
        }

        // Workload: a bounded slice of every shard's pending
        // descriptors, so the headroom check above interleaves with
        // traffic. Kills land at flush boundaries as usual.
        if budget_left(crashes, compaction_crashes, recovery_crashes) {
            for s in 0..cfg.shards {
                if rng.random_bool(cfg.workload_crash_prob) {
                    let countdown = rng.random_range(cfg.crash_window.0..=cfg.crash_window.1);
                    stripe
                        .region(s)
                        .arm_failpoint(FailPlan::after_events(countdown));
                }
            }
        }
        let mut any_crash = false;
        for (s, shard_gets) in gets.iter_mut().enumerate() {
            let mut shard_rng = SmallRng::seed_from_u64(
                cfg.seed
                    ^ (rounds as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (s as u64 + 1).wrapping_mul(0xD134_2543_DE82_EF95),
            );
            any_crash |= run_shard_round(
                &exec,
                s,
                batch,
                had_crash,
                &mut shard_rng,
                Some(cfg.ops_per_round),
                shard_gets,
            )?;
        }
        if any_crash {
            crashes += 1;
            had_crash = true;
            recovery_started.get_or_insert_with(Instant::now);
            crash_sites.extend(reboot(&mut stripe, 0x574B ^ crashes as u64, cfg.seed)?);
        } else {
            if let Some(started) = recovery_started.take() {
                recovery_durations.push(started.elapsed());
            }
            stripe.disarm_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.compaction_crashes, b.compaction_crashes);
        assert_eq!(a.recovery_crashes, b.recovery_crashes);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn eager_compaction_campaign_passes_too() {
        let cfg = CompactionCampaignConfig::new(250, 9).group_commit(None);
        let report = run_compaction_campaign(&cfg).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.outlived_original_capacity());
        assert!(!report.compactions.is_empty());
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
