//! A recoverable one-shot test-and-set — the simplest NSRL primitive,
//! included as the counterpoint to the CAS of §5.
//!
//! The object is a single padded cell holding the winner's process id
//! (initially [`NO_WINNER`]). `test_and_set` CASes the cell from
//! [`NO_WINNER`] to the caller's id; whoever lands the CAS wins, every
//! other caller loses.
//!
//! **Why no matrix?** The CAS register of §5 needs the N×N matrix `R`
//! because a successful CAS's value can be *overwritten* by the next
//! CAS — the evidence disappears from the register, so the overwriter
//! must preserve it. A TAS winner is never overwritten: the win is
//! permanently legible in the cell itself, so recovery is a single
//! read. This is exactly the design note the queue module makes about
//! self-evidencing state (there via never-recycled slots), reduced to
//! its smallest possible example.

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

/// Cell content before any process wins.
pub const NO_WINNER: u64 = u64::MAX;

/// A recoverable one-shot test-and-set object. A winning CAS is
/// flushed at once, and every read of the cell persists it if the
/// winner has not flushed it yet — a loser never answers from a win a
/// crash can take back.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_recoverable::RecoverableTas;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 12).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 12)?;
/// let tas = RecoverableTas::format(pmem, &heap)?;
/// assert!(tas.test_and_set(3)?);
/// assert!(!tas.test_and_set(5)?);
/// assert_eq!(tas.winner()?, Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RecoverableTas {
    pmem: PMem,
    base: POffset,
}

impl RecoverableTas {
    /// Bytes of NVRAM the object needs (one padded cell).
    #[must_use]
    pub fn required_len() -> usize {
        64
    }

    /// Allocates and persists an unclaimed TAS cell.
    ///
    /// # Errors
    ///
    /// Heap/NVRAM errors.
    pub fn format(pmem: PMem, heap: &PHeap) -> Result<Self, PError> {
        let base = heap.alloc_filled(Self::required_len(), 64, |base| {
            pmem.write(base, &NO_WINNER.to_le_bytes())
        })?;
        Ok(RecoverableTas { pmem, base })
    }

    /// Re-attaches to a cell previously created at `base`.
    #[must_use]
    pub fn open(pmem: PMem, base: POffset) -> Self {
        RecoverableTas { pmem, base }
    }

    /// The object's base offset (persist it to find the cell again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// The cell's content, durable.
    fn cell(&self) -> Result<u64, PError> {
        let mut b = [0u8; 8];
        self.pmem.read_persist(self.base, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Attempts to win the TAS as process `pid`. Returns `true` iff
    /// this call (or an earlier call by the same process — the
    /// operation is idempotent per process) claimed the cell.
    ///
    /// # Errors
    ///
    /// A propagated crash (complete with
    /// [`RecoverableTas::recover`] after restart).
    ///
    /// # Panics
    ///
    /// Panics if `pid` equals the [`NO_WINNER`] sentinel.
    pub fn test_and_set(&self, pid: u64) -> Result<bool, PError> {
        assert_ne!(pid, NO_WINNER, "pid collides with the NO_WINNER sentinel");
        if self
            .pmem
            .compare_exchange(self.base, &NO_WINNER.to_le_bytes(), &pid.to_le_bytes())?
        {
            self.pmem.flush(self.base, 8)?;
            return Ok(true);
        }
        // Lost — or already won earlier (idempotence).
        Ok(self.cell()? == pid)
    }

    /// Completes an interrupted `test_and_set(pid)`. A single read
    /// suffices: if the cell holds `pid`, the operation won; if it
    /// holds another id, it lost; if it is unclaimed, it never
    /// linearized and is re-executed.
    ///
    /// # Errors
    ///
    /// A propagated crash; recovery is then re-run after restart.
    pub fn recover(&self, pid: u64) -> Result<bool, PError> {
        match self.cell()? {
            w if w == pid => Ok(true),
            NO_WINNER => self.test_and_set(pid),
            _ => Ok(false),
        }
    }

    /// The winning process id, if the cell has been claimed.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn winner(&self) -> Result<Option<u64>, PError> {
        match self.cell()? {
            NO_WINNER => Ok(None),
            w => Ok(Some(w)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, PMemBuilder};

    fn fixture() -> (PMem, PHeap, RecoverableTas) {
        let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 14).unwrap();
        let tas = RecoverableTas::format(pmem.clone(), &heap).unwrap();
        (pmem, heap, tas)
    }

    #[test]
    fn first_caller_wins_rest_lose() {
        let (_, _, tas) = fixture();
        assert_eq!(tas.winner().unwrap(), None);
        assert!(tas.test_and_set(1).unwrap());
        assert!(!tas.test_and_set(2).unwrap());
        assert!(!tas.test_and_set(3).unwrap());
        assert_eq!(tas.winner().unwrap(), Some(1));
    }

    #[test]
    fn winner_retry_is_idempotent() {
        let (_, _, tas) = fixture();
        assert!(tas.test_and_set(1).unwrap());
        assert!(tas.test_and_set(1).unwrap(), "winner re-running still wins");
    }

    #[test]
    fn recover_reports_win_loss_or_reexecutes() {
        let (_, _, tas) = fixture();
        // Never ran: recovery re-executes and wins.
        assert!(tas.recover(4).unwrap());
        // A loser's recovery reports the loss.
        assert!(!tas.recover(5).unwrap());
        // The winner's recovery keeps reporting the win.
        assert!(tas.recover(4).unwrap());
    }

    #[test]
    fn crash_point_enumeration_recovery_is_exact() {
        let events = sweep(
            || {
                let (pmem, _, tas) = fixture();
                (pmem, tas)
            },
            |(_, tas)| tas.test_and_set(1),
            |(pmem, tas), cut| {
                let tas2 = RecoverableTas::open(pmem, tas.base());
                assert!(tas2.recover(1).unwrap(), "{cut}");
                assert_eq!(tas2.winner().unwrap(), Some(1));
            },
        );
        assert!(events[0] >= 1);
    }

    #[test]
    fn concurrent_racers_produce_exactly_one_winner() {
        let (_, _, tas) = fixture();
        let wins = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for pid in 0..8u64 {
                let tas = tas.clone();
                let wins = &wins;
                s.spawn(move || {
                    if tas.test_and_set(pid).unwrap() {
                        wins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(tas.winner().unwrap().is_some());
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_pid_is_rejected() {
        let (_, _, tas) = fixture();
        let _ = tas.test_and_set(NO_WINNER);
    }
}
