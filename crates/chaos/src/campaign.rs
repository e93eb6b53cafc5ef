//! The randomized crash campaign of §5.2.

use rand::rngs::SmallRng;
use rand::Rng;

use pstack_core::{FunctionRegistry, PError, StackKind, Task};
use pstack_heap::PHeap;
use pstack_nvram::{PMem, PMemBuilder, POffset};
use pstack_recoverable::{
    CasTaskFunction, CasVariant, RecoverableCas, TaskTable, CAS_TASK_FUNC_ID,
};
use pstack_verify::{check_serializability, replay_witness, CasHistory, CasOp, SerialVerdict};

use crate::cycle::{self, Cx, Policy, Single, StaticWorkload, Tally, ROOT_OFF};

/// Configuration of one §5.2 campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of CAS operations (descriptors).
    pub n_ops: usize,
    /// Worker threads — the paper uses 4.
    pub workers: usize,
    /// Inclusive range operands are drawn from.
    pub value_range: (i64, i64),
    /// Master seed: campaigns are fully deterministic given the seed.
    pub seed: u64,
    /// Stack layout for the workers.
    pub stack_kind: StackKind,
    /// Correct NSRL CAS or the §5.2 buggy no-matrix variant.
    pub cas_variant: CasVariant,
    /// Crashes stop after this many, so the campaign terminates.
    pub max_crashes: usize,
    /// Fail-point countdown is drawn uniformly from this range.
    pub crash_window: (u64, u64),
    /// Probability of also injecting a crash into each recovery pass
    /// (the paper's repeated-failure scenario).
    pub recovery_crash_prob: f64,
    /// Scheduling noise `(probability, pause-events)` applied after
    /// mutating NVRAM accesses: with the given probability the thread
    /// pauses until that many further events happen on other threads —
    /// modelling the OS preemption and slow persists of the paper's HDD
    /// deployment. `None` keeps campaigns deterministic (for a single
    /// worker).
    pub access_jitter: Option<(f64, u64)>,
    /// When set, the NVRAM is emulated on this file — the paper's
    /// actual deployment (HDD-backed `mmap`). The file is created (or
    /// truncated logically by reformatting) at campaign start.
    pub backing_file: Option<std::path::PathBuf>,
    /// Shadow every NVRAM access with the persist-order sanitizer and
    /// collect its findings in the report. Defaults to the `psan`
    /// crate feature (on unless built with `--no-default-features`).
    pub psan: bool,
    /// Record the campaign with the flight recorder and attach a
    /// [`pstack_telemetry::TelemetrySummary`] to the report. Defaults to the `telemetry`
    /// crate feature (on unless built with `--no-default-features`).
    pub telemetry: bool,
}

impl CampaignConfig {
    /// The paper's wide-range setup: operands in `[-10⁵, 10⁵]`,
    /// 4 workers.
    #[must_use]
    pub fn wide(n_ops: usize, seed: u64) -> Self {
        CampaignConfig {
            n_ops,
            workers: 4,
            value_range: (-100_000, 100_000),
            seed,
            stack_kind: StackKind::Fixed,
            cas_variant: CasVariant::Nsrl,
            max_crashes: 8,
            crash_window: (40, 400),
            recovery_crash_prob: 0.3,
            access_jitter: None,
            backing_file: None,
            psan: cfg!(feature = "psan"),
            telemetry: cfg!(feature = "telemetry"),
        }
    }

    /// The paper's narrow-range setup: operands in `[-10, 10]`, which
    /// forces duplicate values (multigraph edges in the verifier).
    #[must_use]
    pub fn narrow(n_ops: usize, seed: u64) -> Self {
        CampaignConfig {
            value_range: (-10, 10),
            ..Self::wide(n_ops, seed)
        }
    }

    /// Selects the CAS variant.
    #[must_use]
    pub fn variant(mut self, variant: CasVariant) -> Self {
        self.cas_variant = variant;
        self
    }

    /// Selects the stack layout.
    #[must_use]
    pub fn stack(mut self, kind: StackKind) -> Self {
        self.stack_kind = kind;
        self
    }
}

/// Outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Rounds, crashes, recovered frames, sanitizer findings (expected
    /// empty: the campaign's persist discipline is supposed to be
    /// violation-free) and the flight-recorder summary.
    pub tally: Tally,
    /// The collected execution.
    pub history: CasHistory,
    /// The §5.1 verdict on the execution.
    pub verdict: SerialVerdict,
}
cycle::report_derefs_to_tally!(CampaignReport);

impl CampaignReport {
    /// `true` if the execution was found serializable.
    #[must_use]
    pub fn is_serializable(&self) -> bool {
        self.verdict.is_serializable()
    }
}

/// Countdown of a kill inside a stack-replay recovery pass of the CAS
/// and queue descriptor tables.
pub(crate) const REPLAY_FUSE: (u64, u64) = (5, 60);

/// The §5.2 workload: a recoverable CAS register and the table of CAS
/// descriptors run against it. Its root record locates both and keeps
/// what a later boot — possibly another process — needs to re-attach:
/// `[cas base, table base, initial value, workers, variant]`.
pub(crate) struct CasWorkload;

/// The register and its table on one boot's region.
pub(crate) struct CasObjects {
    pub cas: RecoverableCas,
    pub table: TaskTable,
    init: i64,
}

impl CasWorkload {
    /// Steps 1–2 and the format: draws the initial value and the
    /// `(old, new)` operands, formats the register and its table.
    pub(crate) fn format(
        pmem: &PMem,
        heap: &PHeap,
        rng: &mut SmallRng,
        n_ops: usize,
        (lo, hi): (i64, i64),
        workers: usize,
        variant: CasVariant,
    ) -> Result<(), PError> {
        assert!(lo <= hi, "empty value range");
        let init: i64 = rng.random_range(lo..=hi);
        let ops: Vec<(i64, i64)> = (0..n_ops)
            .map(|_| (rng.random_range(lo..=hi), rng.random_range(lo..=hi)))
            .collect();
        let cas = RecoverableCas::format(pmem.clone(), heap, workers, init, variant)?;
        let table = TaskTable::format(pmem.clone(), heap, &ops)?;
        let root = [
            cas.base().get(),
            table.base().get(),
            init as u64,
            workers as u64,
            u64::from(variant.as_u8()),
        ];
        cycle::write_root(pmem, ROOT_OFF, &root)
    }

    /// Step 9: answers, final value, serializability.
    ///
    /// # Errors
    ///
    /// [`PError::Task`] if a descriptor is still pending.
    pub(crate) fn verify(att: &CasObjects) -> Result<(CasHistory, SerialVerdict), PError> {
        let mut ops = Vec::with_capacity(att.table.len());
        for (i, result) in att.table.results()?.iter().enumerate() {
            let (old, new) = att.table.op(i)?;
            let success = result.ok_or_else(|| {
                PError::Task(format!("descriptor {i} still pending; campaign incomplete"))
            })?;
            ops.push(CasOp {
                pid: 0,
                old,
                new,
                success,
            });
        }
        let history = CasHistory::new(att.init, att.cas.read()?, ops);
        let verdict = check_serializability(&history);
        if let SerialVerdict::Serializable { order } = &verdict {
            // Positive verdicts are independently replayed; a failure here
            // would be a checker bug, not an execution bug.
            replay_witness(&history, order).expect("serializability witness must replay");
        }
        Ok((history, verdict))
    }
}

/// One task per pending descriptor index of a descriptor table.
pub(crate) fn index_tasks(func_id: u64, pending: Vec<usize>) -> Vec<Task> {
    pending
        .into_iter()
        .map(|i| Task::new(func_id, (i as u64).to_le_bytes().to_vec()))
        .collect()
}

impl StaticWorkload<PMem> for CasWorkload {
    type Attached = CasObjects;

    fn attach(&mut self, pmem: &PMem) -> Result<(FunctionRegistry, CasObjects), PError> {
        let root = |i| cycle::read_root(pmem, ROOT_OFF, i);
        let variant = CasVariant::from_u8(root(4)? as u8)?;
        let cas = RecoverableCas::open(
            pmem.clone(),
            POffset::new(root(0)?),
            root(3)? as usize,
            variant,
        )?;
        let table = TaskTable::open(pmem.clone(), POffset::new(root(1)?))?;
        let mut registry = FunctionRegistry::new();
        registry.register(
            CAS_TASK_FUNC_ID,
            CasTaskFunction::new(cas.clone(), table.clone()).into_arc(),
        )?;
        let init = root(2)? as i64;
        Ok((registry, CasObjects { cas, table, init }))
    }

    fn pending(&mut self, att: &CasObjects) -> Result<Vec<Task>, PError> {
        Ok(index_tasks(CAS_TASK_FUNC_ID, att.table.pending()?))
    }
}

/// Runs one full §5.2 campaign. Deterministic for a given
/// configuration.
///
/// # Errors
///
/// Propagates setup failures (the crash/restart loop itself handles
/// crashes as part of the experiment).
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_campaign, CampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_campaign(&CampaignConfig::wide(40, 7))?;
/// assert!(report.is_serializable());
/// # Ok(())
/// # }
/// ```
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, PError> {
    cycle::traced(cfg.telemetry, || {
        let mut cx = Cx::new(
            cfg.seed,
            Policy {
                max_crashes: cfg.max_crashes,
                crash_window: cfg.crash_window,
                crash_prob: 1.0,
                recovery_crash_prob: cfg.recovery_crash_prob,
                recovery_fuse: REPLAY_FUSE,
            },
        );
        // Standard-mode boot: format the system and the application state.
        let (mut machine, rt) = Single::format(
            PMemBuilder::new().psan(cfg.psan),
            cfg.access_jitter,
            cfg.backing_file.as_deref(),
            cfg.workers,
            cfg.stack_kind,
        )?;
        CasWorkload::format(
            &machine.pmem,
            rt.heap(),
            &mut cx.rng,
            cfg.n_ops,
            cfg.value_range,
            cfg.workers,
            cfg.cas_variant,
        )?;
        let objects = cycle::cycle(&mut machine, &mut CasWorkload, &mut cx)?;
        let (history, verdict) = CasWorkload::verify(&objects)?;
        Ok(CampaignReport {
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
    fn wide_campaign_is_serializable_and_crashes() {
        let report = run_campaign(&CampaignConfig::wide(60, 42)).unwrap();
        assert!(report.is_serializable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert_eq!(report.history.ops.len(), 60);
        assert!(report.rounds > 1);
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
    }

    #[test]
    fn narrow_campaign_is_serializable_with_duplicates() {
        let report = run_campaign(&CampaignConfig::narrow(60, 43)).unwrap();
        assert!(report.is_serializable(), "verdict: {:?}", report.verdict);
        // Narrow range all but guarantees duplicate operand pairs.
        let mut pairs: Vec<(i64, i64)> =
            report.history.ops.iter().map(|o| (o.old, o.new)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert!(pairs.len() < 60, "narrow range should produce duplicates");
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        // Single worker: thread scheduling cannot perturb the history,
        // so two runs with one seed must agree bit for bit.
        let cfg = CampaignConfig {
            workers: 1,
            ..CampaignConfig::wide(30, 7)
        };
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn all_stack_kinds_complete_campaigns() {
        for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
            let report = run_campaign(&CampaignConfig::wide(30, 11).stack(kind)).unwrap();
            assert!(
                report.is_serializable(),
                "stack {kind}: verdict {:?}",
                report.verdict
            );
        }
    }

    #[test]
    fn buggy_cas_is_caught_across_seeds() {
        // §5.2: executions of the no-matrix CAS "were reported to be
        // non-serializable". Detection is per-run probabilistic — the
        // bug needs a crash to land between a CAS taking effect and its
        // answer persisting, with a concurrent overwrite in between —
        // so scan seeds with a high-contention, crash-heavy
        // configuration and require detections.
        // Detection odds per run depend on real-thread scheduling, so
        // a loaded host (the full workspace test run on one core)
        // needs a deeper seed scan than an idle one; the early exit
        // keeps the healthy case fast either way.
        let mut detected = 0;
        let mut runs = 0;
        for seed in 0..64 {
            if detected >= 2 {
                break; // the point is made; keep the test fast
            }
            let cfg = CampaignConfig {
                value_range: (-1, 1),
                max_crashes: 40,
                crash_window: (10, 80),
                recovery_crash_prob: 0.5,
                access_jitter: Some((0.15, 40)),
                ..CampaignConfig::wide(80, seed)
            }
            .variant(CasVariant::NoMatrix);
            let report = run_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_serializable() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no non-serializable execution detected in {runs} buggy runs"
        );
    }

    #[test]
    fn file_backed_campaign_matches_paper_deployment() {
        // §5.2 ran on HDD-backed mmap; the same campaign on the file
        // backend must behave identically (and leave a valid image).
        let mut path = std::env::temp_dir();
        path.push(format!("pstack-campaign-{}.img", std::process::id()));
        let cfg = CampaignConfig {
            backing_file: Some(path.clone()),
            ..CampaignConfig::narrow(30, 21)
        };
        let report = run_campaign(&cfg).unwrap();
        assert!(report.is_serializable(), "{:?}", report.verdict);
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn correct_cas_never_flagged_across_seeds() {
        for seed in 100..110 {
            let report = run_campaign(&CampaignConfig::narrow(40, seed)).unwrap();
            assert!(
                report.is_serializable(),
                "seed {seed}: correct CAS flagged non-serializable: {:?}",
                report.verdict
            );
        }
    }
}
