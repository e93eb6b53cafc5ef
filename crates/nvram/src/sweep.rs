//! Exhaustive crash sweeps: run an operation once on a fresh system to
//! count the persistence events each region sees, then replay it once
//! per *cut* — the power failing after `k` events of one armed region,
//! the other regions crashing with it as [`PMemStripe::crash_all`]
//! does, the dirty lines kept chosen by [`Survivors`] — and hand the
//! reopened system to a check. One cut more falls after the operation
//! returns. Every crash sweep of the workspace runs here, so what a cut
//! is is decided in one place; a sweep of a recovery is a sweep called
//! from a check, over its cut replayed ([`Cut::replay`]).

use std::fmt;

use crate::{FailPlan, PMem, PMemStripe, PsanViolation, PsanViolationKind};

/// Which dirty lines a power failure keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Survivors {
    /// Every dirty line lost.
    None,
    /// Every dirty line kept, as if every flight had completed.
    All,
    /// Each dirty line kept with probability ½, by a lottery seeded
    /// with this number and the cut's event.
    Half(u64),
}

impl Survivors {
    /// The one named set a sweep draws from: every dirty line lost,
    /// every one kept, and four seeded halves.
    pub const EVERY: [Survivors; 6] = [
        Survivors::None,
        Survivors::All,
        Survivors::Half(1),
        Survivors::Half(2),
        Survivors::Half(3),
        Survivors::Half(4),
    ];

    /// The named set with `n` seeded halves instead of four, for a sweep
    /// whose failure needs one line of a flight kept and another lost.
    #[must_use]
    pub fn halves(n: u64) -> Vec<Survivors> {
        let mut set = vec![Survivors::None, Survivors::All];
        set.extend((1..=n).map(Survivors::Half));
        set
    }

    /// The probability that one dirty line survives.
    fn prob(self) -> f64 {
        match self {
            Survivors::None => 0.0,
            Survivors::All => 1.0,
            Survivors::Half(_) => 0.5,
        }
    }

    /// The lottery's seed at a cut after `event` events.
    fn seed(self, event: u64) -> u64 {
        match self {
            Survivors::Half(n) => event << 8 | n,
            Survivors::None | Survivors::All => 0,
        }
    }
}

/// One power failure of a sweep: where it falls and what survives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// The armed region, its index in [`Image::regions`].
    pub region: usize,
    /// Events the armed region sees before the power fails.
    pub event: u64,
    /// Events the uncut operation spends in the armed region: a cut at
    /// `events` falls after the operation returned.
    pub events: u64,
    /// The dirty lines the failure keeps, in every region.
    pub survivors: Survivors,
}

impl Cut {
    /// Whether the operation returned before the power failed.
    #[must_use]
    pub fn returned(&self) -> bool {
        self.event == self.events
    }

    /// Runs this cut on a fresh system: `setup` builds it, `op` runs
    /// under the armed fail-point, every region crashes with the cut's
    /// survivors, and the system comes back reopened.
    ///
    /// # Panics
    ///
    /// If the cut does not land: the operation returns before it, or
    /// fails without the power failing — or, at the cut after the
    /// last event, fails at all.
    pub fn replay<I: Image, T, E: fmt::Debug>(
        &self,
        setup: impl Fn() -> I,
        op: impl Fn(&mut I) -> Result<T, E>,
    ) -> I::Reopened {
        let (seed, prob) = (self.survivors.seed(self.event), self.survivors.prob());
        let mut image = setup();
        let plan = FailPlan::after_events(self.event).with_survivors(seed, prob);
        image.arm(self.region, plan);
        let outcome = op(&mut image);
        let regions = image.regions();
        let crashed = regions[self.region].is_crashed();
        match outcome {
            Ok(_) if self.returned() => {
                assert!(!crashed, "{self}: the operation spent more events")
            }
            Ok(_) => panic!("{self}: the cut did not interrupt the operation"),
            Err(e) if self.returned() => panic!("{self}: the operation failed uncut: {e:?}"),
            Err(e) => assert!(
                crashed,
                "{self}: the operation failed, the power did not: {e:?}"
            ),
        }
        for (i, region) in regions.iter().enumerate() {
            region.crash_now(seed ^ i as u64, prob);
        }
        image.reopen()
    }

    /// Panics unless `violations` — PSan's findings after this cut — are
    /// ghost reads of lines the cut kept without a completed flight (the
    /// emulator's generosity, not an order violation), or nothing.
    pub fn assert_psan_clean(&self, mut violations: Vec<PsanViolation>) {
        let kept = self.survivors != Survivors::None;
        violations.retain(|v| !kept || v.kind != PsanViolationKind::GhostRead);
        assert!(violations.is_empty(), "{self}: PSan: {violations:?}");
    }
}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (region, event, events) = (self.region, self.event, self.events);
        if self.returned() {
            write!(f, "region {region} after its {events} events")?;
        } else {
            write!(f, "region {region} event {event} of {events}")?;
        }
        write!(f, ", survivors {:?}", self.survivors)
    }
}

/// A system a sweep can cut: its regions, and how it comes back.
pub trait Image {
    /// The system after a power failure, reopened.
    type Reopened;

    /// Every region of the system, in a fixed order: a cut arms one of
    /// them and crashes the rest.
    fn regions(&self) -> Vec<PMem>;

    /// Arms `plan` on region `region`. A system that crashes its other
    /// regions itself when one fails overrides this to give them the
    /// plan's survivors.
    fn arm(&mut self, region: usize, plan: FailPlan) {
        self.regions()[region].arm_failpoint(plan);
    }

    /// Brings the system back once every region has crashed. A system
    /// whose reboot the check looks into returns itself, still down.
    fn reopen(self) -> Self::Reopened;
}

/// One region, and the volatile handles a check may still want.
impl<T> Image for (PMem, T) {
    type Reopened = (PMem, T);

    fn regions(&self) -> Vec<PMem> {
        vec![self.0.clone()]
    }

    fn reopen(self) -> (PMem, T) {
        (self.0.reopen().expect("a crashed region reopens"), self.1)
    }
}

impl<T> Image for (PMemStripe, T) {
    type Reopened = (PMemStripe, T);

    fn regions(&self) -> Vec<PMem> {
        self.0.regions().to_vec()
    }

    fn reopen(self) -> (PMemStripe, T) {
        let stripe = self.0.reopen_all().expect("a crashed stripe reopens");
        (stripe, self.1)
    }
}

/// A control region beside a stripe: region 0 is the control region,
/// `1 + i` the stripe's region `i`.
impl<T> Image for (PMem, PMemStripe, T) {
    type Reopened = (PMem, PMemStripe, T);

    fn regions(&self) -> Vec<PMem> {
        let mut regions = vec![self.0.clone()];
        regions.extend_from_slice(self.1.regions());
        regions
    }

    fn reopen(self) -> (PMem, PMemStripe, T) {
        let stripe = self.1.reopen_all().expect("a crashed stripe reopens");
        let control = self.0.reopen().expect("a crashed region reopens");
        (control, stripe, self.2)
    }
}

/// A sweep's choices: the survivor draws of every cut, and the regions
/// it arms.
#[derive(Debug, Clone, Copy)]
pub struct Sweep<'a> {
    survivors: &'a [Survivors],
    regions: Option<&'a [usize]>,
}

impl Default for Sweep<'_> {
    fn default() -> Self {
        Sweep {
            survivors: &Survivors::EVERY,
            regions: None,
        }
    }
}

impl<'a> Sweep<'a> {
    /// Every survivor choice of [`Survivors::EVERY`], in every region.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws each cut's survivors from `set` instead of
    /// [`Survivors::EVERY`].
    #[must_use]
    pub fn survivors(mut self, set: &'a [Survivors]) -> Self {
        self.survivors = set;
        self
    }

    /// Arms only these regions (indices into [`Image::regions`]), each of
    /// which must see events if any region does.
    #[must_use]
    pub fn regions(mut self, armed: &'a [usize]) -> Self {
        self.regions = Some(armed);
        self
    }

    /// Runs `op` uncut on a system `setup` builds, then checks every
    /// cut: each event of each armed region, and once after the
    /// operation returned, under each survivor choice. A failing
    /// check's cut is printed beside its panic. Returns the events the
    /// uncut operation spends in each region.
    ///
    /// # Panics
    ///
    /// If the uncut operation fails, if a region named by
    /// [`Sweep::regions`] sees no events while another does, if a cut
    /// does not land ([`Cut::replay`]), or if `check` panics.
    pub fn run<I: Image, T, E: fmt::Debug>(
        self,
        setup: impl Fn() -> I,
        op: impl Fn(&mut I) -> Result<T, E>,
        mut check: impl FnMut(I::Reopened, &Cut),
    ) -> Vec<u64> {
        let events: Vec<u64> = {
            let mut image = setup();
            let regions = image.regions();
            let before: Vec<u64> = regions.iter().map(PMem::events).collect();
            if let Err(e) = op(&mut image) {
                panic!("the operation failed uncut: {e:?}");
            }
            regions
                .iter()
                .zip(before)
                .map(|(r, e0)| r.events() - e0)
                .collect()
        };
        // A region named to be armed must see events, or its sweep cuts
        // nothing: unless no region sees any (a recovery with nothing to
        // redo), the wrong region was named.
        let eventless = events.iter().all(|&e| e == 0);
        for &r in self.regions.unwrap_or_default() {
            assert!(
                eventless || events[r] > 0,
                "armed region {r} saw no events: {events:?}"
            );
        }
        let every: Vec<usize> = (0..events.len()).collect();
        let requested = self.regions.unwrap_or(&every);
        let armed: Vec<usize> = requested
            .iter()
            .copied()
            .filter(|&r| events[r] > 0)
            .collect();
        // The cut after the operation returned is the same whichever
        // region is armed: it is taken once, with the last. An operation
        // without events (a recovery with nothing to redo) has that cut
        // alone.
        let last = armed.last().or(requested.first()).copied().unwrap_or(0);
        for region in armed.into_iter().filter(|&r| r != last).chain([last]) {
            let through = events[region] - u64::from(region != last);
            for event in 0..=through {
                for &survivors in self.survivors {
                    let cut = Cut {
                        region,
                        event,
                        events: events[region],
                        survivors,
                    };
                    let report = OnPanic(&cut);
                    check(cut.replay(&setup, &op), &cut);
                    drop(report);
                }
            }
        }
        events
    }
}

/// [`Sweep::run`] with every survivor choice in every region.
///
/// # Panics
///
/// As [`Sweep::run`].
pub fn sweep<I: Image, T, E: fmt::Debug>(
    setup: impl Fn() -> I,
    op: impl Fn(&mut I) -> Result<T, E>,
    check: impl FnMut(I::Reopened, &Cut),
) -> Vec<u64> {
    Sweep::new().run(setup, op, check)
}

/// Names the cut a check panicked at.
struct OnPanic<'a>(&'a Cut);

impl Drop for OnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("crash sweep failed at {}", self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemError, PMemBuilder, POffset};

    fn region() -> (PMem, ()) {
        (PMemBuilder::new().len(1024).build_in_memory(), ())
    }

    /// Writes and flushes `value` at 0, then at 512.
    fn two_words(pmem: &PMem, value: u64) -> Result<(), MemError> {
        for off in [0, 512].map(POffset::new) {
            pmem.write_u64(off, value)?;
            pmem.flush(off, 8)?;
        }
        Ok(())
    }

    #[test]
    fn every_event_and_every_survivor_choice_is_cut_once() {
        let mut seen = Vec::new();
        let events = sweep(
            region,
            |(pmem, ())| two_words(pmem, 7),
            |(pmem, ()), cut| {
                let words = [0, 512].map(|off| pmem.read_u64(POffset::new(off)).unwrap());
                // The second word is durable only after the first.
                assert!(words[1] == 0 || words[0] == 7, "{cut}: {words:?}");
                let all = cut.survivors == Survivors::All && cut.event >= 3;
                assert!(!(cut.returned() || all) || words == [7, 7], "{cut}");
                let none = cut.survivors == Survivors::None && cut.event < 2;
                assert!(!none || words == [0, 0], "{cut}");
                seen.push((cut.event, cut.survivors));
            },
        );
        assert_eq!(events, [4]);
        let every: Vec<_> = (0..=4)
            .flat_map(|k| Survivors::EVERY.map(|s| (k, s)))
            .collect();
        assert_eq!(seen, every);
    }

    #[test]
    fn a_stripe_arms_each_region_and_crashes_the_rest() {
        let mut cuts = [0; 2];
        let stripe = || (PMemBuilder::new().len(1024).build_striped(2), ());
        let events = Sweep::new().survivors(&[Survivors::All]).run(
            stripe,
            |(stripe, ())| (stripe.regions().iter()).try_for_each(|r| two_words(r, 9)),
            |(stripe, ()), cut| {
                // A region written after the cut reads nothing.
                for r in &stripe.regions()[cut.region + usize::from(!cut.returned())..] {
                    assert_eq!(r.read_u64(POffset::new(0)).unwrap() == 9, cut.returned());
                }
                cuts[cut.region] += 1;
            },
        );
        assert_eq!(events, [4, 4]);
        assert_eq!(cuts, [4, 5], "the returned cut once, with the last region");
    }

    #[test]
    #[should_panic(expected = "value lost")]
    fn a_check_that_trusts_an_unflushed_write_is_caught() {
        sweep(
            region,
            |(pmem, ())| {
                pmem.write_u64(POffset::new(0), 7)?; // never flushed
                pmem.flush(POffset::new(512), 8)
            },
            |(pmem, ()), _| assert_eq!(pmem.read_u64(POffset::new(0)).unwrap(), 7, "value lost"),
        );
    }

    #[test]
    fn an_operation_without_events_is_cut_only_after_it_returns() {
        let mut seen = Vec::new();
        let events = sweep(region, |_| Ok::<_, MemError>(()), |_, cut| seen.push(*cut));
        assert_eq!((events, seen.len()), (vec![0], 6));
        assert!(seen.iter().all(Cut::returned));
    }

    #[test]
    #[should_panic(expected = "armed region 1 saw no events")]
    fn a_named_region_without_events_is_refused() {
        let stripe = || (PMemBuilder::new().len(1024).build_striped(2), ());
        let op = |(stripe, ()): &mut (PMemStripe, ())| two_words(stripe.region(0), 9);
        Sweep::new().regions(&[1]).run(stripe, op, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "did not interrupt")]
    fn a_cut_that_does_not_land_is_refused() {
        // The operation spends fewer events when run again: a cut past
        // them never fires.
        let runs = std::cell::Cell::new(0);
        sweep(
            region,
            |(pmem, ())| {
                runs.set(runs.get() + 1);
                (0..3 - runs.get().min(2)).try_for_each(|i| pmem.write_u64(POffset::new(8 * i), 1))
            },
            |_, _| {},
        );
    }
}
