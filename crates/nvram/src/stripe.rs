//! Multi-region striping: a bundle of independent [`PMem`] regions.
//!
//! A sharded persistent object (one lock + one log + one recovery scan
//! per shard) wants each shard on its own region, so that the internal
//! critical section of one region never serializes accesses to another
//! and a crash/recover cycle can be driven over all of them at once. A
//! system failure takes every region down together — [`crash_all`] and
//! [`reopen_all`] model that, with per-region seeds keeping survivor
//! selection deterministic.
//!
//! [`crash_all`]: PMemStripe::crash_all
//! [`reopen_all`]: PMemStripe::reopen_all

use crate::psan::PsanViolation;
use crate::rootswap::RootCell;
use crate::stats::StatsSnapshot;
use crate::{MemError, PMem, PMemBuilder, POffset};

/// A fixed-size bundle of independent [`PMem`] regions, one per shard.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
///
/// let stripe = PMemBuilder::new().len(4096).build_striped(4);
/// assert_eq!(stripe.len(), 4);
/// stripe.region(0).write_u64(64u64.into(), 7).unwrap();
/// assert_eq!(stripe.aggregate_stats().writes, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PMemStripe {
    regions: Vec<PMem>,
}

impl PMemStripe {
    /// Bundles existing regions into a stripe.
    ///
    /// # Panics
    ///
    /// Panics on an empty region list.
    #[must_use]
    pub fn from_regions(regions: Vec<PMem>) -> Self {
        assert!(!regions.is_empty(), "a stripe needs at least one region");
        PMemStripe { regions }
    }

    /// Number of regions in the stripe.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// `false` always — stripes hold at least one region.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The `i`-th region.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn region(&self, i: usize) -> &PMem {
        &self.regions[i]
    }

    /// All regions, in stripe order.
    #[must_use]
    pub fn regions(&self) -> &[PMem] {
        &self.regions
    }

    /// Sum of every region's statistics counters — the system-wide
    /// persist/coalesce totals a scaling bench reports.
    #[must_use]
    pub fn aggregate_stats(&self) -> StatsSnapshot {
        self.regions
            .iter()
            .map(|r| r.stats().snapshot())
            .fold(StatsSnapshot::default(), |acc, s| acc + s)
    }

    /// `true` if any region has crashed.
    #[must_use]
    pub fn any_crashed(&self) -> bool {
        self.regions.iter().any(PMem::is_crashed)
    }

    /// `true` only when **every** region has crashed — the state a
    /// whole-system failure leaves behind and the precondition of
    /// [`PMemStripe::reopen_all`].
    #[must_use]
    pub fn all_crashed(&self) -> bool {
        self.regions.iter().all(PMem::is_crashed)
    }

    /// Indexes of the regions currently in the crashed state.
    #[must_use]
    pub fn crashed_regions(&self) -> Vec<usize> {
        self.regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_crashed())
            .map(|(i, _)| i)
            .collect()
    }

    /// Attribution of a partial failure: the **first-observed** crashed
    /// region together with its frozen persistence-event counter (the
    /// counter stops advancing at the crash, so it records exactly how
    /// far that region got). `None` while no region has crashed.
    ///
    /// Each region records a monotonic observation stamp at the instant
    /// its crash is first observed ([`PMem::crash_stamp`]); attribution
    /// picks the earliest stamp, so with several near-simultaneous
    /// region deaths the true first faller is named — not merely the
    /// lowest-indexed casualty. Still most meaningful *before* the
    /// failure is propagated stripe-wide: after
    /// [`PMemStripe::crash_all`] every region is crashed, though the
    /// original faller keeps the earliest stamp and stays attributed.
    #[must_use]
    pub fn crash_site(&self) -> Option<(usize, u64)> {
        self.regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_crashed())
            .min_by_key(|(_, r)| r.crash_stamp().unwrap_or(u64::MAX))
            .map(|(i, r)| (i, r.events()))
    }

    /// Per-region persistence-event counters for this boot, in stripe
    /// order — the denominators campaign logs attribute kills against.
    #[must_use]
    pub fn events_per_region(&self) -> Vec<u64> {
        self.regions.iter().map(PMem::events).collect()
    }

    /// Opens shard `i`'s [`RootCell`] at `base` — the per-shard root-swap
    /// support a generational sharded object uses: each shard keeps its
    /// own double-buffered root in its own region, so one shard's
    /// generation swap never touches (or serializes with) another's.
    ///
    /// # Errors
    ///
    /// Propagated from [`RootCell::open`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn root_cell(&self, i: usize, base: POffset) -> Result<RootCell, MemError> {
        RootCell::open(self.regions[i].clone(), base)
    }

    /// All PSan violations recorded by any region, in stripe order —
    /// empty when PSan is disabled (or when every region is clean).
    /// Region labels (`shard-0`, `shard-1`, …) attribute each one.
    #[must_use]
    pub fn psan_violations(&self) -> Vec<PsanViolation> {
        self.regions
            .iter()
            .flat_map(PMem::psan_violations)
            .collect()
    }

    /// Removes any armed crash-injection plan from every region.
    pub fn disarm_all(&self) {
        for region in &self.regions {
            region.disarm_failpoint();
        }
    }

    /// Injects a system failure into every not-yet-crashed region: each
    /// region `i` crashes with survivor seed `seed ^ i`, so the set of
    /// surviving dirty lines is deterministic per `(seed, prob)` across
    /// the whole stripe. Regions that already crashed are left as they
    /// fell.
    pub fn crash_all(&self, seed: u64, survival_prob: f64) {
        for (i, region) in self.regions.iter().enumerate() {
            region.crash_now(seed ^ i as u64, survival_prob);
        }
    }

    /// Reopens every region of a crashed stripe, as the recovery boot
    /// of the sharded system would.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidConfig`] if any region has not crashed, or a
    /// propagated I/O error from a file-backed region.
    pub fn reopen_all(&self) -> Result<PMemStripe, MemError> {
        let regions = self
            .regions
            .iter()
            .map(PMem::reopen)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PMemStripe { regions })
    }
}

impl PMemBuilder {
    /// Builds `n` independent in-memory regions sharing this
    /// configuration, bundled as a [`PMemStripe`] — the substrate of a
    /// sharded store where operations on different shards never
    /// contend on a region lock.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the configuration is invalid.
    #[must_use]
    pub fn build_striped(self, n: usize) -> PMemStripe {
        assert!(n > 0, "a stripe needs at least one region");
        PMemStripe::from_regions(
            (0..n)
                .map(|i| {
                    let region = self.clone().build_in_memory();
                    // Name the region so violation reports and
                    // telemetry events attribute to the right shard.
                    region.set_label(&format!("shard-{i}"));
                    region
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::POffset;

    fn stripe(n: usize) -> PMemStripe {
        PMemBuilder::new().len(1024).line_size(64).build_striped(n)
    }

    #[test]
    fn regions_are_independent() {
        let s = stripe(3);
        for i in 0..3u64 {
            s.region(i as usize)
                .write_u64(POffset::new(0), i + 1)
                .unwrap();
        }
        for i in 0..3u64 {
            assert_eq!(
                s.region(i as usize).read_u64(POffset::new(0)).unwrap(),
                i + 1
            );
        }
    }

    #[test]
    fn aggregate_stats_sum_across_regions() {
        let s = stripe(4);
        for i in 0..4 {
            s.region(i).write_u64(POffset::new(0), 1).unwrap();
            s.region(i).flush(POffset::new(0), 8).unwrap();
        }
        let agg = s.aggregate_stats();
        assert_eq!(agg.writes, 4);
        assert_eq!(agg.flush_calls, 4);
        assert_eq!(agg.lines_persisted, 4);
        assert_eq!(agg.persists, 4);
    }

    #[test]
    fn crash_all_and_reopen_all_round_trip() {
        let s = stripe(2);
        s.region(0).write_u64(POffset::new(0), 7).unwrap();
        s.region(0).flush(POffset::new(0), 8).unwrap();
        s.region(1).write_u64(POffset::new(0), 9).unwrap(); // unflushed
        assert!(!s.any_crashed());
        s.crash_all(0, 0.0);
        assert!(s.any_crashed());
        let s2 = s.reopen_all().unwrap();
        assert!(!s2.any_crashed());
        assert_eq!(s2.region(0).read_u64(POffset::new(0)).unwrap(), 7);
        assert_eq!(s2.region(1).read_u64(POffset::new(0)).unwrap(), 0);
    }

    #[test]
    fn crash_all_skips_already_crashed_regions() {
        let s = stripe(2);
        s.region(0).crash_now(9, 0.0);
        s.crash_all(0, 1.0); // must not panic on the crashed region
        assert!(s.region(1).is_crashed());
        assert!(s.reopen_all().is_ok());
    }

    #[test]
    fn survivor_seeds_differ_per_region() {
        // With prob 0.5 and identical writes, at least one pair of
        // regions should disagree about survival for some seed; the
        // per-region seed xor makes outcomes independent.
        let s = stripe(8);
        for i in 0..8 {
            s.region(i).write_u64(POffset::new(0), 1).unwrap();
        }
        s.crash_all(3, 0.5);
        let s = s.reopen_all().unwrap();
        let survived: Vec<u64> = (0..8)
            .map(|i| s.region(i).read_u64(POffset::new(0)).unwrap())
            .collect();
        assert!(
            survived.contains(&1) && survived.contains(&0),
            "expected a mix of survivors and losses: {survived:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_regions_rejected() {
        let _ = PMemBuilder::new().len(1024).build_striped(0);
    }

    #[test]
    fn crash_site_attributes_the_first_crashed_region() {
        let s = stripe(3);
        assert_eq!(s.crash_site(), None);
        assert!(s.crashed_regions().is_empty());
        // Region 1 performs two events, then dies; the others stay up.
        s.region(1).write_u64(POffset::new(0), 1).unwrap();
        s.region(1).flush(POffset::new(0), 8).unwrap();
        s.region(1).crash_now(0, 1.0);
        assert_eq!(s.crash_site(), Some((1, 2)));
        assert_eq!(s.crashed_regions(), vec![1]);
        assert!(s.any_crashed());
        assert!(!s.all_crashed());
        // Propagating the failure stripe-wide reaches the all-crashed
        // state reopen_all requires.
        s.crash_all(0, 0.0);
        assert!(s.all_crashed());
        assert_eq!(s.crashed_regions(), vec![0, 1, 2]);
    }

    #[test]
    fn crash_site_names_the_first_faller_not_the_lowest_index() {
        // Two regions die in one window: region 2 trips first, region 0
        // follows. Index order would blame region 0; the observation
        // stamps name region 2.
        let s = stripe(3);
        s.region(2).write_u64(POffset::new(0), 1).unwrap();
        s.region(2).crash_now(0, 1.0);
        s.region(0).write_u64(POffset::new(0), 1).unwrap();
        s.region(0).write_u64(POffset::new(8), 2).unwrap();
        s.region(0).crash_now(0, 1.0);
        assert_eq!(s.crashed_regions(), vec![0, 2]);
        assert_eq!(
            s.crash_site(),
            Some((2, 1)),
            "attribution must follow observation order, not index order"
        );
        // Propagating the failure stripe-wide keeps the original
        // faller attributed: later stamps never displace the earliest.
        s.crash_all(0, 0.0);
        assert!(s.all_crashed());
        assert_eq!(s.crash_site().map(|(i, _)| i), Some(2));
    }

    #[test]
    fn events_per_region_track_independent_streams() {
        let s = stripe(2);
        s.region(0).write_u64(POffset::new(0), 1).unwrap();
        s.region(0).write_u64(POffset::new(8), 2).unwrap();
        s.region(1).write_u64(POffset::new(0), 3).unwrap();
        assert_eq!(s.events_per_region(), vec![2, 1]);
    }

    #[test]
    fn disarm_all_clears_every_failpoint() {
        use crate::FailPlan;
        let s = stripe(2);
        s.region(0).arm_failpoint(FailPlan::after_events(5));
        s.region(1).arm_failpoint(FailPlan::after_events(5));
        s.disarm_all();
        assert!(!s.region(0).failpoint_armed());
        assert!(!s.region(1).failpoint_armed());
    }
}
