//! The ticket an issued flight hands back, and the receipt a completed
//! persist hands back.

use crate::{PMem, POffset};

/// Proof that byte ranges are durable: the receipt a completed
/// [`PMem::flush`] or [`Level::await_all`](crate::Level::await_all)
/// hands back, naming each range it made durable and the region boot
/// that holds it. A publish — a head CAS, a root swap, a stack's flip —
/// takes the receipt of what it makes reachable, so the rule that
/// nothing is reachable before it is durable is one the compiler checks:
/// a receipt comes only from an await that returned `Ok`. A flight cut
/// by a crash fails its await, and gives none.
///
/// A receipt is not `Clone` and has no public constructor besides
/// [`Durable::same_line`], whose argument is the line's atomicity, not
/// an await. Checking one ([`Durable::check`]) is a range-containment
/// `debug_assert`; PSan cross-checks the same ranges at run time.
///
/// Built outside this crate, it does not compile:
///
/// ```compile_fail
/// let receipt = pstack_nvram::Durable::default();
/// ```
///
/// Nor does a copy of one:
///
/// ```compile_fail
/// use pstack_nvram::{PMemBuilder, POffset};
///
/// let pmem = PMemBuilder::new().len(4096).build_in_memory();
/// let receipt = pmem.flush(POffset::new(64), 8).unwrap();
/// let copy = receipt.clone();
/// ```
///
/// A level issued but never awaited is no receipt — the shape of
/// publishing against a flight still on the wire:
///
/// ```compile_fail
/// use pstack_nvram::{Level, PMemBuilder, POffset, RootCell};
///
/// let pmem = PMemBuilder::new().len(4096).build_in_memory();
/// let cell = RootCell::format(pmem.clone(), POffset::new(64), 0, 1024).unwrap();
/// pmem.write(POffset::new(2048), &[1; 64]).unwrap();
/// let mut level = Level::default();
/// level.issue(&pmem, POffset::new(2048), 64).unwrap();
/// cell.swap(1, 2048, 64, &level).unwrap();
/// ```
///
/// A root swap needs the receipt of the block it makes reachable:
///
/// ```compile_fail
/// use pstack_nvram::{PMemBuilder, POffset, RootCell};
///
/// let pmem = PMemBuilder::new().len(4096).build_in_memory();
/// let cell = RootCell::format(pmem.clone(), POffset::new(64), 0, 1024).unwrap();
/// cell.swap(1, 2048).unwrap();
/// ```
///
/// And nothing outside this crate reaches the device behind a region —
/// its cache, flights and image — around the fail-points and PSan:
///
/// ```compile_fail
/// use pstack_nvram::Device;
/// ```
#[derive(Debug)]
pub struct Durable(Receipt);

/// One flight's range, or a level's flights — the level's own `Vec`,
/// so that neither [`PMem::flush`] nor an await allocates for it.
#[derive(Debug)]
enum Receipt {
    Flight(FlushTicket),
    Level(Vec<(PMem, FlushTicket)>),
}

impl Durable {
    pub(crate) fn flight(ticket: FlushTicket) -> Self {
        Durable(Receipt::Flight(ticket))
    }

    pub(crate) fn level(flights: Vec<(PMem, FlushTicket)>) -> Self {
        Durable(Receipt::Level(flights))
    }

    fn tickets(&self) -> impl Iterator<Item = &FlushTicket> {
        let (one, level) = match &self.0 {
            Receipt::Flight(t) => (Some(t), &[][..]),
            Receipt::Level(flights) => (None, flights.as_slice()),
        };
        one.into_iter().chain(level.iter().map(|(_, t)| t))
    }

    /// The receipt for `[off, off + len)` that shares one line of
    /// `pmem` with `[carrier, carrier + carrier_len)`, when they do —
    /// for a store that is never flushed on its own because the store
    /// it must precede lies in the same line. A line persists
    /// atomically and the earlier store is written first, so no state
    /// after a crash holds the carrier's store without it: for that
    /// publish, it is as durable as an awaited flight would make it.
    /// Two publishes rely on it: a stack stage that rides its flip's
    /// line, and a request id that rides its descriptor's line. The
    /// receipt licenses only the carrier's store.
    #[must_use]
    pub fn same_line(
        pmem: &PMem,
        (off, len): (POffset, usize),
        (carrier, carrier_len): (POffset, usize),
    ) -> Option<Durable> {
        let line = pmem.line_size() as u64;
        let line_of = |start: u64, len: usize| {
            let end = start + len.max(1) as u64 - 1;
            (start / line == end / line).then_some(start / line)
        };
        let shared = line_of(off.get(), len)?;
        (line_of(carrier.get(), carrier_len)? == shared)
            .then(|| Durable::flight(pmem.ticket(0, off, len)))
    }

    /// `true` when one range of this receipt holds `[off, off + len)` of
    /// `pmem`'s current boot — never for another region, nor for a
    /// reopened boot of this one.
    #[must_use]
    pub fn covers(&self, pmem: &PMem, off: POffset, len: usize) -> bool {
        let wanted = pmem.ticket(0, off, len);
        self.tickets().any(|t| t.contains(&wanted))
    }

    /// The check a publish makes of its receipt: a `debug_assert` that
    /// it covers `[off, off + len)` of `pmem`.
    #[track_caller]
    pub fn check(&self, pmem: &PMem, off: POffset, len: usize) {
        debug_assert!(
            self.covers(pmem, off, len),
            "publish over [{off}, +{len}) on a receipt that does not cover it: {self:?}"
        );
    }

    /// PSan's cross-check at a commit point: every range of this
    /// receipt on `pmem`'s current boot must hold no dirty line.
    pub fn psan_check(&self, pmem: &PMem) {
        for t in self.tickets().filter(|t| t.region == pmem.boot()) {
            pmem.psan_check_durable(POffset::new(t.start), (t.end - t.start) as usize);
        }
    }
}

/// Claim ticket for an asynchronous flush issued with
/// [`PMem::flush_async`]. The round-trip is in flight on the region's
/// flush queue; [`PMem::await_ticket`] (or a [`PMem::fence`], or any
/// later [`PMem::flush`] on the region — flights complete in issue
/// order) blocks until the staged content is durable. Cheap value
/// type, bound to the issuing region boot — awaiting it against
/// another region or a reopened boot is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushTicket {
    /// Identity of the issuing region boot.
    pub(crate) region: usize,
    /// Flush-queue serial this ticket waits for.
    pub(crate) serial: u64,
    /// The range `[start, end)` it was issued over, which its
    /// [`Durable`] receipt names.
    pub(crate) start: u64,
    pub(crate) end: u64,
}

impl FlushTicket {
    /// `true` when `other`'s range lies inside this one, on one boot.
    pub(crate) fn contains(&self, other: &FlushTicket) -> bool {
        self.region == other.region && self.start <= other.start && other.end <= self.end
    }
}

#[cfg(test)]
mod tests {
    use crate::{Level, MemError, PMemBuilder, POffset};

    fn region() -> crate::PMem {
        PMemBuilder::new().len(4096).line_size(64).build_in_memory()
    }

    #[test]
    fn a_level_receipt_covers_exactly_what_it_issued_on_its_regions() {
        let (a, b) = (region(), region());
        let mut level = Level::default();
        a.write(POffset::new(128), &[1; 100]).unwrap();
        b.write(POffset::new(1024), &[2; 8]).unwrap();
        level.issue(&a, POffset::new(128), 100).unwrap();
        level.issue(&b, POffset::new(1024), 8).unwrap();
        let receipt = level.await_all().unwrap();
        assert!(receipt.covers(&a, POffset::new(128), 100));
        assert!(receipt.covers(&a, POffset::new(200), 28));
        assert!(receipt.covers(&b, POffset::new(1024), 8));
        // Not a byte past an issued range, even in a line it persisted.
        assert!(!receipt.covers(&a, POffset::new(127), 2));
        assert!(!receipt.covers(&a, POffset::new(200), 29));
        assert!(!receipt.covers(&b, POffset::new(1024), 9));
        // Ranges stay on the region that issued them.
        assert!(!receipt.covers(&b, POffset::new(128), 100));
        assert!(!receipt.covers(&a, POffset::new(1024), 8));
        // A flush's receipt is its one range.
        let flushed = a.flush(POffset::new(2048), 16).unwrap();
        assert!(flushed.covers(&a, POffset::new(2048), 16));
        assert!(!flushed.covers(&a, POffset::new(2048), 17));
    }

    #[test]
    fn a_receipt_covers_nothing_on_another_region_or_a_reopened_boot() {
        let (a, b) = (region(), region());
        let receipt = a.flush(POffset::new(64), 8).unwrap();
        let ticket = a.flush_async(POffset::new(64), 8).unwrap();
        assert!(receipt.covers(&a.clone(), POffset::new(64), 8));
        assert!(!receipt.covers(&b, POffset::new(64), 8));
        // Bound to the boot the way a flush ticket is: the reopened
        // region refuses the ticket, and the receipt covers nothing on it.
        a.crash_now(0, 1.0);
        let reopened = a.reopen().unwrap();
        assert!(reopened.await_ticket(&ticket).is_err());
        assert!(!receipt.covers(&reopened, POffset::new(64), 8));
    }

    #[test]
    fn a_flight_cut_by_a_crash_gives_an_error_never_a_receipt() {
        let (a, b) = (region(), region());
        a.write(POffset::new(64), &[1; 8]).unwrap();
        b.write(POffset::new(64), &[2; 8]).unwrap();
        let mut level = Level::default();
        level.issue(&a, POffset::new(64), 8).unwrap();
        level.issue(&b, POffset::new(64), 8).unwrap();
        b.crash_now(0, 0.0);
        assert!(matches!(level.await_all(), Err(MemError::Crashed)));
        a.write(POffset::new(128), &[1; 8]).unwrap();
        a.arm_failpoint(crate::FailPlan::after_events(0));
        assert!(matches!(
            a.flush(POffset::new(128), 8),
            Err(MemError::Crashed)
        ));
    }

    #[test]
    fn same_line_holds_only_inside_one_line() {
        let a = region();
        let (flag, flip) = ((POffset::new(70), 1), (POffset::new(64), 1));
        let receipt = super::Durable::same_line(&a, flag, flip).unwrap();
        assert!(receipt.covers(&a, POffset::new(70), 1));
        assert!(super::Durable::same_line(&a, (POffset::new(60), 8), flip).is_none());
        assert!(super::Durable::same_line(&a, flag, (POffset::new(128), 1)).is_none());
    }
}
