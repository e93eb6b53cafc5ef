//! A recoverable read/write register.
//!
//! Writes are idempotent, so the recover dual of a write simply
//! re-executes it — the simplest NSRL primitive, included as one of
//! the paper's "other NVRAM algorithms" (future-work direction 1).

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

use crate::cell::TaggedValue;

/// A single-word recoverable register storing a tagged value in its own
/// cache line.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_recoverable::RecoverableRegister;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 14)?;
/// let reg = RecoverableRegister::format(pmem, &heap, 7)?;
/// reg.write(0, 42, 1)?;
/// assert_eq!(reg.read()?, 42);
/// reg.recover_write(0, 42, 1)?; // idempotent
/// assert_eq!(reg.read()?, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RecoverableRegister {
    pmem: PMem,
    base: POffset,
}

impl RecoverableRegister {
    /// Allocates a register from `heap` initialized to `init`.
    ///
    /// # Errors
    ///
    /// Heap or NVRAM errors.
    pub fn format(pmem: PMem, heap: &PHeap, init: i64) -> Result<Self, PError> {
        let initial = TaggedValue::initial(init).encode();
        let base = heap.alloc_filled(64, 64, |base| pmem.write(base, &initial))?;
        Ok(RecoverableRegister { pmem, base })
    }

    /// Re-attaches to a register created at `base`.
    #[must_use]
    pub fn open(pmem: PMem, base: POffset) -> Self {
        RecoverableRegister { pmem, base }
    }

    /// The register's base offset.
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// Reads the logical value.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn read(&self) -> Result<i64, PError> {
        Ok(TaggedValue::read_from(&self.pmem, self.base)?.value)
    }

    /// Writes `value` (tagged with the caller's identity) and flushes.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn write(&self, pid: usize, value: i64, seq: u64) -> Result<(), PError> {
        let v = TaggedValue {
            value,
            pid: pid as u64,
            seq,
        };
        v.write_to(&self.pmem, self.base)?;
        Ok(())
    }

    /// Recover dual of [`RecoverableRegister::write`]: re-executes the
    /// write (idempotent).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn recover_write(&self, pid: usize, value: i64, seq: u64) -> Result<(), PError> {
        self.write(pid, value, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::PMemBuilder;

    fn fixture() -> (PMem, RecoverableRegister) {
        let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 14).unwrap();
        let reg = RecoverableRegister::format(pmem.clone(), &heap, 7).unwrap();
        (pmem, reg)
    }

    #[test]
    fn read_write_round_trip() {
        let (_, reg) = fixture();
        assert_eq!(reg.read().unwrap(), 7);
        reg.write(1, -5, 1).unwrap();
        assert_eq!(reg.read().unwrap(), -5);
    }

    #[test]
    fn writes_survive_crash() {
        let (pmem, reg) = fixture();
        reg.write(0, 123, 1).unwrap();
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let reg2 = RecoverableRegister::open(pmem2, reg.base());
        assert_eq!(reg2.read().unwrap(), 123);
    }

    #[test]
    fn recover_write_is_idempotent() {
        let (_, reg) = fixture();
        reg.write(0, 9, 1).unwrap();
        reg.recover_write(0, 9, 1).unwrap();
        reg.recover_write(0, 9, 1).unwrap();
        assert_eq!(reg.read().unwrap(), 9);
    }
}
