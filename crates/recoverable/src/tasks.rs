//! The persistent operation-descriptor table of §5.2.
//!
//! The experiment loop needs to know, across restarts, which CAS
//! operations already completed and what they answered (step 7:
//! "restart the system in the normal mode, add all remaining
//! descriptors to the queue"; step 9: "get answers of all CAS
//! operations"). Each descriptor records its operands and a
//! status/answer pair that is persisted with a single atomic two-byte
//! flush when the operation completes.

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

const TABLE_MAGIC: u64 = 0x5053_5441_534B_5442; // "PSTASKTB"
const HEADER_LEN: u64 = 16;
const ENTRY_STRIDE: u64 = 32;

const ST_PENDING: u8 = 0;
const ST_DONE: u8 = 1;

/// A persistent table of `CAS(old → new)` operation descriptors.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_recoverable::TaskTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 14)?;
/// let table = TaskTable::format(pmem, &heap, &[(0, 1), (1, 2)])?;
/// assert_eq!(table.pending()?, vec![0, 1]);
/// table.mark_done(0, true)?;
/// assert_eq!(table.pending()?, vec![1]);
/// assert_eq!(table.result(0)?, Some(true));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TaskTable {
    pmem: PMem,
    base: POffset,
    len: usize,
}

impl TaskTable {
    /// Bytes of NVRAM needed for `n` descriptors.
    #[must_use]
    pub fn required_len(n: usize) -> usize {
        (HEADER_LEN + n as u64 * ENTRY_STRIDE) as usize
    }

    /// Allocates and persists a table holding `ops` (pairs of
    /// `(old, new)`), all pending.
    ///
    /// # Errors
    ///
    /// Heap or NVRAM errors, or [`PError::InvalidConfig`] for an empty
    /// op list.
    pub fn format(pmem: PMem, heap: &PHeap, ops: &[(i64, i64)]) -> Result<Self, PError> {
        if ops.is_empty() {
            return Err(PError::InvalidConfig(
                "task table needs at least one op".into(),
            ));
        }
        let len = Self::required_len(ops.len());
        let base = heap.alloc_aligned(len, 64)?;
        pmem.write_u64(base, TABLE_MAGIC)?;
        pmem.write_u64(base + 8u64, ops.len() as u64)?;
        for (i, (old, new)) in ops.iter().enumerate() {
            let e = Self::entry_off(base, i);
            pmem.write_i64(e, *old)?;
            pmem.write_i64(e + 8u64, *new)?;
            pmem.write(e + 16u64, &[ST_PENDING, 0])?;
        }
        pmem.flush(base, len)?;
        Ok(TaskTable {
            pmem,
            base,
            len: ops.len(),
        })
    }

    /// Re-attaches to a table created at `base`.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad magic word.
    pub fn open(pmem: PMem, base: POffset) -> Result<Self, PError> {
        let magic = pmem.read_u64(base)?;
        if magic != TABLE_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad task-table magic {magic:#x} at {base}"
            )));
        }
        let len = pmem.read_u64(base + 8u64)? as usize;
        Ok(TaskTable { pmem, base, len })
    }

    fn entry_off(base: POffset, idx: usize) -> POffset {
        base + (HEADER_LEN + idx as u64 * ENTRY_STRIDE)
    }

    fn entry(&self, idx: usize) -> Result<POffset, PError> {
        if idx >= self.len {
            return Err(PError::InvalidConfig(format!(
                "descriptor index {idx} out of range ({} descriptors)",
                self.len
            )));
        }
        Ok(Self::entry_off(self.base, idx))
    }

    /// The table's base offset (persist it to find the table again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// Number of descriptors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table has no descriptors (never happens
    /// for tables built by [`TaskTable::format`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(old, new)` operands of descriptor `idx`.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn op(&self, idx: usize) -> Result<(i64, i64), PError> {
        let e = self.entry(idx)?;
        Ok((self.pmem.read_i64(e)?, self.pmem.read_i64(e + 8u64)?))
    }

    /// Whether descriptor `idx` has completed.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn is_done(&self, idx: usize) -> Result<bool, PError> {
        let e = self.entry(idx)?;
        Ok(self.pmem.read_u8(e + 16u64)? == ST_DONE)
    }

    /// The answer of descriptor `idx`, if it has completed.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn result(&self, idx: usize) -> Result<Option<bool>, PError> {
        let e = self.entry(idx)?;
        let mut st = [0u8; 2];
        self.pmem.read(e + 16u64, &mut st)?;
        Ok(if st[0] == ST_DONE {
            Some(st[1] != 0)
        } else {
            None
        })
    }

    /// Persists the completion of descriptor `idx` with its answer —
    /// one atomic two-byte flush.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn mark_done(&self, idx: usize, result: bool) -> Result<(), PError> {
        let e = self.entry(idx)?;
        self.pmem
            .write_persist(e + 16u64, &[ST_DONE, u8::from(result)])?;
        Ok(())
    }

    /// Indices of descriptors that have not completed.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn pending(&self) -> Result<Vec<usize>, PError> {
        let mut out = Vec::new();
        for i in 0..self.len {
            if !self.is_done(i)? {
                out.push(i);
            }
        }
        Ok(out)
    }

    /// All answers: `None` for descriptors still pending.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn results(&self) -> Result<Vec<Option<bool>>, PError> {
        (0..self.len).map(|i| self.result(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::PMemBuilder;

    fn fixture(ops: &[(i64, i64)]) -> (PMem, TaskTable) {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let t = TaskTable::format(pmem.clone(), &heap, ops).unwrap();
        (pmem, t)
    }

    #[test]
    fn operands_round_trip() {
        let (_, t) = fixture(&[(1, 2), (-3, 4), (i64::MIN, i64::MAX)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.op(0).unwrap(), (1, 2));
        assert_eq!(t.op(1).unwrap(), (-3, 4));
        assert_eq!(t.op(2).unwrap(), (i64::MIN, i64::MAX));
    }

    #[test]
    fn status_lifecycle() {
        let (_, t) = fixture(&[(0, 1), (1, 2)]);
        assert!(!t.is_done(0).unwrap());
        assert_eq!(t.result(0).unwrap(), None);
        t.mark_done(0, false).unwrap();
        assert_eq!(t.result(0).unwrap(), Some(false));
        t.mark_done(1, true).unwrap();
        assert_eq!(t.results().unwrap(), vec![Some(false), Some(true)]);
        assert!(t.pending().unwrap().is_empty());
    }

    #[test]
    fn statuses_survive_crash_and_reopen() {
        let (pmem, t) = fixture(&[(0, 1), (1, 2), (2, 3)]);
        t.mark_done(1, true).unwrap();
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let t2 = TaskTable::open(pmem2, t.base()).unwrap();
        assert_eq!(t2.pending().unwrap(), vec![0, 2]);
        assert_eq!(t2.result(1).unwrap(), Some(true));
        assert_eq!(t2.op(1).unwrap(), (1, 2));
    }

    #[test]
    fn open_rejects_garbage() {
        let pmem = PMemBuilder::new().len(1024).build_in_memory();
        assert!(TaskTable::open(pmem, POffset::new(0)).is_err());
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let (_, t) = fixture(&[(0, 1)]);
        assert!(t.op(1).is_err());
        assert!(t.mark_done(1, true).is_err());
    }

    #[test]
    fn empty_table_is_rejected() {
        let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 14).unwrap();
        assert!(TaskTable::format(pmem, &heap, &[]).is_err());
    }
}
