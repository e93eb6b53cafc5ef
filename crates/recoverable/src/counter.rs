//! A recoverable counter with per-process slots.
//!
//! Each process owns a 64-aligned slot holding `(count, last_seq)`;
//! an increment persists both words with one atomic line flush, and
//! every read of a slot persists it if its owner has not flushed it
//! yet. The recover dual re-runs the increment, and the sequence tag
//! makes it idempotent: if the slot already records `seq`, the
//! increment took effect before the crash and is not applied again.
//! The counter value is the sum of all slots, as in classic shared
//! counters.

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

const SLOT_STRIDE: u64 = 64;

/// A crash-recoverable counter for `n` processes.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_recoverable::RecoverableCounter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 14)?;
/// let counter = RecoverableCounter::format(pmem, &heap, 2)?;
/// counter.increment(0, 1)?;
/// counter.increment(1, 2)?;
/// counter.recover_increment(1, 2)?; // already applied: no-op
/// assert_eq!(counter.read()?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RecoverableCounter {
    pmem: PMem,
    base: POffset,
    n: usize,
}

impl RecoverableCounter {
    /// Bytes of NVRAM needed for `n` processes.
    #[must_use]
    pub fn required_len(n: usize) -> usize {
        (n as u64 * SLOT_STRIDE) as usize
    }

    /// Allocates and zeroes the per-process slots.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for zero processes; heap or NVRAM
    /// errors otherwise.
    pub fn format(pmem: PMem, heap: &PHeap, n: usize) -> Result<Self, PError> {
        if n == 0 {
            return Err(PError::InvalidConfig("need at least one process".into()));
        }
        let base = heap.alloc_filled(Self::required_len(n), 64, |_| Ok(()))?;
        Ok(RecoverableCounter { pmem, base, n })
    }

    /// Re-attaches to a counter created at `base` for `n` processes.
    #[must_use]
    pub fn open(pmem: PMem, base: POffset, n: usize) -> Self {
        RecoverableCounter { pmem, base, n }
    }

    /// The counter's base offset.
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    fn slot(&self, pid: usize) -> POffset {
        self.base + pid as u64 * SLOT_STRIDE
    }

    /// Process `pid`'s `(count, last_seq)`, durable.
    fn read_slot(&self, pid: usize) -> Result<(u64, u64), PError> {
        let mut b = [0u8; 16];
        self.pmem.read_persist(self.slot(pid), &mut b)?;
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        Ok((word(0), word(8)))
    }

    /// Increments process `pid`'s slot, tagged with the operation's
    /// unique `seq`. Calling it again with the same `seq` (as the
    /// recover dual does) has no further effect.
    ///
    /// # Errors
    ///
    /// A propagated crash.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= n` or `seq` is zero (zero marks "no operation
    /// yet").
    pub fn increment(&self, pid: usize, seq: u64) -> Result<(), PError> {
        assert!(
            pid < self.n,
            "pid {pid} out of range ({} processes)",
            self.n
        );
        assert_ne!(seq, 0, "sequence tags start at 1");
        let (count, last_seq) = self.read_slot(pid)?;
        if last_seq == seq {
            return Ok(()); // already applied before the crash
        }
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&(count + 1).to_le_bytes());
        buf[8..].copy_from_slice(&seq.to_le_bytes());
        self.pmem.write_persist(self.slot(pid), &buf)?;
        Ok(())
    }

    /// Recover dual of [`RecoverableCounter::increment`].
    ///
    /// # Errors
    ///
    /// A propagated crash.
    pub fn recover_increment(&self, pid: usize, seq: u64) -> Result<(), PError> {
        self.increment(pid, seq)
    }

    /// Sums the per-process slots.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn read(&self) -> Result<u64, PError> {
        let mut total = 0u64;
        for pid in 0..self.n {
            total += self.read_slot(pid)?.0;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, PMemBuilder};

    fn fixture(n: usize) -> (PMem, RecoverableCounter) {
        let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 14).unwrap();
        let c = RecoverableCounter::format(pmem.clone(), &heap, n).unwrap();
        (pmem, c)
    }

    #[test]
    fn increments_sum_across_processes() {
        let (_, c) = fixture(3);
        c.increment(0, 1).unwrap();
        c.increment(1, 1).unwrap();
        c.increment(2, 1).unwrap();
        c.increment(0, 2).unwrap();
        assert_eq!(c.read().unwrap(), 4);
    }

    #[test]
    fn same_seq_is_applied_once() {
        let (_, c) = fixture(1);
        c.increment(0, 7).unwrap();
        c.recover_increment(0, 7).unwrap();
        c.recover_increment(0, 7).unwrap();
        assert_eq!(c.read().unwrap(), 1);
    }

    #[test]
    fn crash_point_enumeration_increment_recovers_exactly_once() {
        let events = sweep(
            || fixture(1),
            |(_, c)| c.increment(0, 1),
            |(pmem, c), cut| {
                let c2 = RecoverableCounter::open(pmem, c.base(), 1);
                c2.recover_increment(0, 1).unwrap();
                assert_eq!(c2.read().unwrap(), 1, "{cut}");
            },
        );
        assert_eq!(events, [2], "an increment's events");
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let (_, c) = fixture(4);
        std::thread::scope(|s| {
            for pid in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for seq in 1..=100u64 {
                        c.increment(pid, seq).unwrap();
                    }
                });
            }
        });
        assert_eq!(c.read().unwrap(), 400);
    }

    #[test]
    #[should_panic(expected = "sequence tags start at 1")]
    fn zero_seq_is_rejected() {
        let (_, c) = fixture(1);
        let _ = c.increment(0, 0);
    }
}
