//! One dependence level of a persist schedule.

use crate::{FlushTicket, MemError, PMem, POffset};

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
/// level.await_all()?;
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
    /// whole level is durable.
    ///
    /// # Errors
    ///
    /// The first [`PMem::await_ticket`] error.
    pub fn await_all(self) -> Result<(), MemError> {
        self.0.iter().try_for_each(|(pmem, t)| pmem.await_ticket(t))
    }
}
