//! One dependence level of a persist schedule.

use crate::{Durable, FlushTicket, MemError, PMem, POffset};

/// The flights of one **dependence level**: persists on any number of
/// regions that nothing orders against each other. The consuming
/// [`Level::await_all`] leaves nothing to issue into, so every flight
/// is issued before the first await, and a level costs about one
/// round-trip however many regions take part.
///
/// # Example
///
/// ```
/// use pstack_nvram::{Level, PMemBuilder, POffset};
///
/// # fn main() -> Result<(), pstack_nvram::MemError> {
/// let region = || PMemBuilder::new().len(4096).build_in_memory();
/// let (a, b, off) = (region(), region(), POffset::new(64));
/// a.write_u64(off, 1)?;
/// b.write_u64(off, 2)?;
/// let mut level = Level::default();
/// level.issue(&a, off, 8)?;
/// level.issue(&b, off, 8)?;
/// let receipt = level.await_all()?;
/// assert!(receipt.covers(&a, off, 8) && receipt.covers(&b, off, 8));
/// a.crash_now(0, 0.0);
/// b.crash_now(0, 0.0);
/// assert_eq!(a.reopen()?.read_u64(off)?, 1);
/// assert_eq!(b.reopen()?.read_u64(off)?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
#[must_use = "a level's flights are durable only once awaited"]
pub struct Level(Vec<(PMem, FlushTicket)>);

impl Level {
    /// Issues `[off, off + len)` of `pmem` as a flight of this level.
    ///
    /// # Errors
    ///
    /// [`PMem::flush_async`]'s.
    pub fn issue(&mut self, pmem: &PMem, off: POffset, len: usize) -> Result<(), MemError> {
        self.0.push((pmem.clone(), pmem.flush_async(off, len)?));
        Ok(())
    }

    /// Awaits every flight, in issue order: when it returns `Ok`, the
    /// whole level is durable, and its receipt names every range it
    /// issued, on its region boot.
    ///
    /// # Errors
    ///
    /// The first [`PMem::await_ticket`] error — a flight cut by a crash
    /// gives an error, never a receipt.
    pub fn await_all(self) -> Result<Durable, MemError> {
        for (pmem, t) in &self.0 {
            pmem.await_ticket(t)?;
        }
        Ok(Durable::level(self.0))
    }

    /// A persist-order seed: puts `[off, off + len)` of `pmem` into the
    /// level's receipt with no flight behind it, so the publish the
    /// receipt licenses goes ahead over bytes that may still be
    /// volatile — PSan's negative controls, compiled only into builds
    /// with `test` or the `fault-seeds` feature.
    #[cfg(any(test, feature = "fault-seeds"))]
    pub fn forge(&mut self, pmem: &PMem, off: POffset, len: usize) {
        self.0.push((pmem.clone(), pmem.ticket(0, off, len)));
    }
}
