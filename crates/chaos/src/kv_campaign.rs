//! The §5.2 crash-campaign methodology applied to the recoverable
//! key-value store — the ROADMAP's "real workload" on the runtime,
//! exercised end to end: random KV workload, seeded crashes at flush
//! boundaries, restart + recovery until completion, then a semantic
//! verdict from the KV verifier.
//!
//! Mirrors [`crate::run_campaign`] with the CAS register replaced by a
//! [`PKvStore`] living in the runtime's own region (riding the one
//! window executor as a one-shard stripe), the descriptor table by a
//! preloaded [`KvRequestTable`], and the §5.1 Eulerian-path check by
//! [`pstack_verify::check_kv`]'s chain-witness linearizability check
//! against the sequential map specification.

use pstack_core::{FunctionRegistry, PError, StackKind, Task};
use pstack_heap::PHeap;
use pstack_kv::{KvRequestTable, KvServeFunction, KvVariant, PKvStore, ShardedKvStore};
use pstack_nvram::{PMem, PMemBuilder, POffset};
use pstack_verify::{check_kv, KvHistory, KvVerdict};

use crate::cycle::{self, Cx, Policy, Single, StaticWorkload, Tally, ROOT_OFF};
use crate::sharded_kv_campaign::{generate_kv_ops, HarnessGets, ANSWER_REPLAY_FUSE};

/// Configuration of one KV crash campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCampaignConfig {
    /// Number of KV operations (descriptors).
    pub n_ops: usize,
    /// Worker threads — 4, like the paper's CAS campaign.
    pub workers: usize,
    /// Keys are drawn from `0..key_space`; a small space forces
    /// same-key contention (chain conflicts, cas races).
    pub key_space: u64,
    /// Inclusive range put/cas values are drawn from.
    pub value_range: (i64, i64),
    /// Probability weights of (put, get, delete) — the remainder are
    /// cas operations.
    pub op_mix: (f64, f64, f64),
    /// Master seed; campaigns are deterministic given the seed (for a
    /// single worker).
    pub seed: u64,
    /// Stack layout for the workers.
    pub stack_kind: StackKind,
    /// Correct NSRL recovery or the no-scan bug.
    pub variant: KvVariant,
    /// Crashes stop after this many, so the campaign terminates.
    pub max_crashes: usize,
    /// Fail-point countdown drawn uniformly from this range.
    pub crash_window: (u64, u64),
    /// Probability of injecting a crash into each recovery pass.
    pub recovery_crash_prob: f64,
    /// Scheduling noise `(probability, pause-events)`; see
    /// [`crate::CampaignConfig::access_jitter`].
    pub access_jitter: Option<(f64, u64)>,
    /// Shadow every NVRAM access with the persist-order sanitizer and
    /// collect its findings in the report. Defaults to the `psan`
    /// crate feature.
    pub psan: bool,
    /// Record the campaign with the flight recorder; defaults to the
    /// `telemetry` crate feature.
    pub telemetry: bool,
}

impl KvCampaignConfig {
    /// Defaults mirroring the paper's CAS campaign: 4 workers, 16 hot
    /// keys, values in `[-100, 100]`, a 50/25/10/15 put/get/delete/cas
    /// mix.
    #[must_use]
    pub fn new(n_ops: usize, seed: u64) -> Self {
        KvCampaignConfig {
            n_ops,
            workers: 4,
            key_space: 16,
            value_range: (-100, 100),
            op_mix: (0.5, 0.25, 0.1),
            seed,
            stack_kind: StackKind::Fixed,
            variant: KvVariant::Nsrl,
            max_crashes: 8,
            crash_window: (40, 400),
            recovery_crash_prob: 0.3,
            access_jitter: None,
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

    /// Selects the stack layout.
    #[must_use]
    pub fn stack(mut self, kind: StackKind) -> Self {
        self.stack_kind = kind;
        self
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
    /// The shard index (always 0 for the unsharded campaign).
    pub shard: usize,
    /// Log slots reserved (published records plus crash orphans).
    pub reserved: u64,
    /// The shard's lifetime version-log capacity.
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
    /// (read-only) one. A driver compacts a shard when this falls
    /// under its threshold (`run_compaction_campaign` uses it that
    /// way; `ShardedKvStore::compact_shard` is the lever it pulls).
    /// Over-reserved counts (possible only through corruption) clamp
    /// to `0.0` rather than going negative.
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
    /// `threshold` of its log free. Both campaign reports delegate
    /// their `compaction_candidate` accessors here.
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
    /// Rounds, crashes, recovered frames, sanitizer findings (expected
    /// empty) and the flight-recorder summary.
    pub tally: Tally,
    /// The collected execution (answers + chain witness).
    pub history: KvHistory,
    /// The KV linearizability verdict.
    pub verdict: KvVerdict,
    /// Per-shard version-log usage at the end of the campaign (one
    /// entry for this single-store campaign; the sharded campaign
    /// reports one per shard).
    pub log_usage: Vec<ShardLogUsage>,
}
cycle::report_derefs_to_tally!(KvCampaignReport);

impl KvCampaignReport {
    /// `true` if the execution passed the KV check.
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
    /// Panics if the report holds no shards (never produced by the
    /// campaign runners).
    #[must_use]
    pub fn tightest_shard(&self) -> ShardLogUsage {
        ShardLogUsage::tightest(&self.log_usage)
    }
}

/// The KV workload on one region: a [`PKvStore`] wrapped as a one-shard
/// stripe beside its preloaded request table, both in a heap of their
/// own. Root record: `[heap base, store base, table base]`.
struct KvWorkload {
    variant: KvVariant,
    /// The workload's reads, answered by the harness between rounds.
    gets: HarnessGets,
}

impl KvWorkload {
    /// Generates the operations and formats store and table inside the
    /// freshly formatted runtime's region.
    fn format(
        cfg: &KvCampaignConfig,
        pmem: &PMem,
        rt_heap: &PHeap,
        cx: &mut Cx,
    ) -> Result<Self, PError> {
        let (lo, hi) = cfg.value_range;
        assert!(lo <= hi, "empty value range");
        assert!(cfg.key_space > 0, "empty key space");
        let ops = generate_kv_ops(
            cfg.n_ops,
            cfg.key_space,
            cfg.value_range,
            cfg.op_mix,
            &mut cx.rng,
        );
        // A static workload is a preloaded request table; its reads stay
        // with the harness.
        let (mutations, gets) = HarnessGets::split(&ops);
        // Each descriptor consumes at most one published slot, every crash
        // can orphan up to one reserved slot per in-flight worker, and
        // precondition-fail retries can orphan one more per execution
        // attempt; provision for all of it so the log never turns the
        // store read-only mid-campaign (the tests assert log_had_headroom).
        let log_cap =
            cfg.n_ops as u64 * 2 + (cfg.max_crashes as u64 * 2 + 1) * (cfg.workers as u64 + 1) + 64;
        let nbuckets = cfg.key_space.max(4);
        // The store and its table get a heap of their own, carved out of
        // the runtime's: the executor re-opens it every boot, and a second
        // handle on the runtime's own heap would keep a second, diverging
        // block map.
        let kv_heap_len = PKvStore::required_len(nbuckets, log_cap)
            + KvRequestTable::required_len(mutations.len().max(1) as u32)
            + 4096;
        let kv_heap_base = rt_heap.alloc_aligned(kv_heap_len, 64)?;
        let kv_heap = PHeap::format(pmem.clone(), kv_heap_base, kv_heap_len as u64)?;
        let store = PKvStore::format(pmem.clone(), &kv_heap, nbuckets, log_cap, cfg.variant)?;
        let store_base = store.base();
        let exec = KvServeFunction::preload(
            ShardedKvStore::from_parts(vec![store], vec![kv_heap])?,
            &mutations,
        )?;
        let root = [kv_heap_base, store_base, exec.tables()[0].base()].map(POffset::get);
        cycle::write_root(pmem, ROOT_OFF, &root)?;
        Ok(KvWorkload {
            variant: cfg.variant,
            gets,
        })
    }
}

impl StaticWorkload<PMem> for KvWorkload {
    type Attached = KvServeFunction;

    fn attach(&mut self, pmem: &PMem) -> Result<(FunctionRegistry, KvServeFunction), PError> {
        let root = |i| Ok::<_, PError>(POffset::new(cycle::read_root(pmem, ROOT_OFF, i)?));
        let heap = PHeap::open(pmem.clone(), root(0)?)?;
        let store = PKvStore::open(pmem.clone(), root(1)?, self.variant)?;
        let table = KvRequestTable::open(pmem.clone(), root(2)?)?;
        let store = ShardedKvStore::from_parts(vec![store], vec![heap])?;
        let exec = KvServeFunction::new(store, vec![table]);
        Ok((exec.registry()?, exec))
    }

    /// Each pending descriptor a window of one; the harness's reads go
    /// between rounds.
    fn pending(&mut self, exec: &KvServeFunction) -> Result<Vec<Task>, PError> {
        let tasks = exec.pending_tasks(1)?;
        self.gets
            .answer_between_rounds(exec.store(), tasks.is_empty())?;
        Ok(tasks)
    }
}

/// Runs one full KV crash campaign (the §5.2 loop with the KV store as
/// the object under test). Deterministic for a given configuration
/// with a single worker.
///
/// # Errors
///
/// Propagates setup failures; the crash/restart loop itself handles
/// crashes as part of the experiment.
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_kv_campaign, KvCampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_kv_campaign(&KvCampaignConfig::new(30, 7))?;
/// assert!(report.is_linearizable());
/// # Ok(())
/// # }
/// ```
pub fn run_kv_campaign(cfg: &KvCampaignConfig) -> Result<KvCampaignReport, PError> {
    cycle::traced(cfg.telemetry, || {
        let mut cx = Cx::new(
            cfg.seed,
            Policy {
                max_crashes: cfg.max_crashes,
                crash_window: cfg.crash_window,
                crash_prob: 1.0,
                recovery_crash_prob: cfg.recovery_crash_prob,
                recovery_fuse: ANSWER_REPLAY_FUSE,
            },
        );
        let (mut machine, rt) = Single::format(
            PMemBuilder::new().psan(cfg.psan),
            cfg.access_jitter,
            None,
            cfg.workers,
            cfg.stack_kind,
        )?;
        let mut workload = KvWorkload::format(cfg, &machine.pmem, rt.heap(), &mut cx)?;
        let exec = cycle::cycle(&mut machine, &mut workload, &mut cx)?;

        // Step 9: answers, chain witness, linearizability.
        let mut history = exec.history()?;
        history.ops.extend(workload.gets.done);
        let history = KvHistory {
            ops: history.ops,
            chains: history.shards.swap_remove(0),
        };
        let verdict = check_kv(&history);
        Ok(KvCampaignReport {
            log_usage: ShardLogUsage::of(exec.store())?,
            tally: cx.tally,
            history,
            verdict,
        })
    })
}

#[cfg(test)]
mod tests {
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
        for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
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
        // crash/recover cycles across flush boundaries, each campaign
        // reopening, recovering, and verifying against the sequential
        // spec — zero lost or torn updates tolerated.
        let mut cycles = 0usize;
        let mut recovery_kills = 0usize;
        let mut campaigns = 0usize;
        for seed in 0.. {
            let cfg = KvCampaignConfig {
                max_crashes: 14,
                crash_window: (20, 200),
                recovery_crash_prob: 0.5,
                ..KvCampaignConfig::new(50, 1000 + seed)
            };
            let report = run_kv_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: lost or torn update after {} crashes: {:?}",
                report.total_crashes(),
                report.verdict
            );
            assert!(
                report.log_had_headroom(),
                "seed {seed}: log filled ({}) — cycles stopped exercising recovery",
                report.tightest_shard()
            );
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            cycles += report.total_crashes();
            recovery_kills += report.recovery_crashes;
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
        let mut detected = 0;
        let mut runs = 0;
        for seed in 0..24 {
            if detected >= 2 {
                break;
            }
            let cfg = KvCampaignConfig {
                key_space: 4,
                max_crashes: 40,
                crash_window: (10, 80),
                recovery_crash_prob: 0.5,
                access_jitter: Some((0.15, 40)),
                ..KvCampaignConfig::new(80, seed)
            }
            .variant(KvVariant::NoScan);
            let report = run_kv_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_linearizable() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no KV violation detected in {runs} no-scan runs"
        );
    }
}
