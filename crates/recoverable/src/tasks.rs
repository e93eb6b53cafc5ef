//! The persistent operation-descriptor table of §5.2.
//!
//! The experiment loop needs to know, across restarts, which operations
//! already completed and what they answered (step 7: "restart the system
//! in the normal mode, add all remaining descriptors to the queue";
//! step 9: "get answers of all CAS operations"). One table serves every
//! §5 workload: a descriptor is a CAS, an enqueue or a dequeue, and its
//! answer — the worker that executed it and the result — is made
//! durable by one line-atomic persist when the operation completes.

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

const TABLE_MAGIC: u64 = 0x5053_5441_534B_5432; // "PSTASKT2"
/// Keeps every entry 32-byte aligned: with the table 64-byte aligned, no
/// entry crosses a line of 32 bytes or more.
const HEADER_LEN: u64 = 32;
const ENTRY_STRIDE: u64 = 32;

const KIND_CAS: u8 = 0;
const KIND_ENQ: u8 = 1;
const KIND_DEQ: u8 = 2;

const ST_DONE: u8 = 1;

// Entry field offsets (all inside the one 32-byte entry). The answer
// (flag, executor, dequeued value) is one contiguous extent.
const F_KIND: u64 = 0;
const F_DONE: u64 = 1;
/// The CAS swapped, the enqueue was accepted, or the dequeue found a value.
const F_FLAG: u64 = 2;
const F_EXEC: u64 = 4;
/// The dequeued value.
const F_GOT: u64 = 8;
/// CAS `old`, or the enqueued value.
const F_ARG: u64 = 16;
/// CAS `new`.
const F_NEW: u64 = 24;

/// One operation descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOp {
    /// `CAS(old → new)` on the recoverable register.
    Cas {
        /// The value the register must hold.
        old: i64,
        /// The value it is swapped to.
        new: i64,
    },
    /// Enqueue the given value.
    Enqueue(i64),
    /// Dequeue one value.
    Dequeue,
}

/// A completed descriptor's answer, with the worker that executed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAnswer {
    /// Worker (process) id that completed the operation — together with
    /// the descriptor index this is the operation's `(pid, seq)` tag.
    pub executor: u32,
    /// The operation's result.
    pub result: TaskResult,
}

/// The result payload of a completed descriptor; its shape follows the
/// descriptor's [`TaskOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskResult {
    /// CAS answer: whether the register held `old`.
    Swapped(bool),
    /// Enqueue answer: accepted, or rejected because the queue's
    /// lifetime capacity was exhausted.
    Accepted(bool),
    /// Dequeue answer.
    Dequeued(Option<i64>),
}

/// A persistent table of operation descriptors and their answers.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_recoverable::{TaskOp, TaskResult, TaskTable};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 14)?;
/// let ops = [TaskOp::Cas { old: 0, new: 1 }, TaskOp::Dequeue];
/// let table = TaskTable::format(pmem, &heap, &ops)?;
/// assert_eq!(table.pending()?, vec![0, 1]);
/// table.mark_done(0, 3, TaskResult::Swapped(true))?;
/// assert_eq!(table.pending()?, vec![1]);
/// let answer = table.result(0)?.unwrap();
/// assert_eq!((answer.executor, answer.result), (3, TaskResult::Swapped(true)));
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

    /// Allocates and persists a table holding `ops`, all pending.
    ///
    /// # Errors
    ///
    /// Heap or NVRAM errors, or [`PError::InvalidConfig`] for an empty
    /// op list or a line size that would split an entry.
    pub fn format(pmem: PMem, heap: &PHeap, ops: &[TaskOp]) -> Result<Self, PError> {
        check_line_size(&pmem)?;
        if ops.is_empty() {
            return Err(PError::InvalidConfig(
                "task table needs at least one op".into(),
            ));
        }
        let len = Self::required_len(ops.len());
        let base = heap.alloc_aligned(len, 64)?;
        pmem.fill(base, 0, len)?;
        pmem.write_u64(base, TABLE_MAGIC)?;
        pmem.write_u64(base + 8u64, ops.len() as u64)?;
        for (i, op) in ops.iter().enumerate() {
            let (kind, arg, new) = match *op {
                TaskOp::Cas { old, new } => (KIND_CAS, old, new),
                TaskOp::Enqueue(v) => (KIND_ENQ, v, 0),
                TaskOp::Dequeue => (KIND_DEQ, 0, 0),
            };
            let e = Self::entry_off(base, i);
            pmem.write_u8(e + F_KIND, kind)?;
            pmem.write_i64(e + F_ARG, arg)?;
            pmem.write_i64(e + F_NEW, new)?;
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
    /// [`PError::CorruptStack`] on a bad magic word,
    /// [`PError::InvalidConfig`] for a line size that would split an
    /// entry.
    pub fn open(pmem: PMem, base: POffset) -> Result<Self, PError> {
        check_line_size(&pmem)?;
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

    /// Descriptor `idx`'s operation.
    ///
    /// # Errors
    ///
    /// Out-of-range index, an unknown kind byte, or NVRAM errors.
    pub fn op(&self, idx: usize) -> Result<TaskOp, PError> {
        let e = self.entry(idx)?;
        let arg = || self.pmem.read_i64(e + F_ARG);
        Ok(match self.pmem.read_u8(e + F_KIND)? {
            KIND_CAS => TaskOp::Cas {
                old: arg()?,
                new: self.pmem.read_i64(e + F_NEW)?,
            },
            KIND_ENQ => TaskOp::Enqueue(arg()?),
            KIND_DEQ => TaskOp::Dequeue,
            other => {
                return Err(PError::CorruptStack(format!(
                    "descriptor {idx} has unknown kind {other}"
                )))
            }
        })
    }

    /// Whether descriptor `idx` has completed.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn is_done(&self, idx: usize) -> Result<bool, PError> {
        let e = self.entry(idx)?;
        Ok(self.pmem.read_u8(e + F_DONE)? == ST_DONE)
    }

    /// The answer of descriptor `idx`, if it has completed. Nothing but
    /// the done flag is read from a pending entry.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn result(&self, idx: usize) -> Result<Option<TaskAnswer>, PError> {
        if !self.is_done(idx)? {
            return Ok(None);
        }
        let e = self.entry(idx)?;
        let pmem = &self.pmem;
        let flag = pmem.read_u8(e + F_FLAG)? != 0;
        let result = match pmem.read_u8(e + F_KIND)? {
            KIND_CAS => TaskResult::Swapped(flag),
            KIND_ENQ => TaskResult::Accepted(flag),
            _ if flag => TaskResult::Dequeued(Some(pmem.read_i64(e + F_GOT)?)),
            _ => TaskResult::Dequeued(None),
        };
        let executor = pmem.read_u32(e + F_EXEC)?;
        Ok(Some(TaskAnswer { executor, result }))
    }

    /// Persists the completion of descriptor `idx` with its answer, in
    /// one persist: the answer's one store, then the done flag as a
    /// separate, later store, then one flush of the entry. The entry is
    /// one line-atomic extent, so a crash leaves it answered or still
    /// pending — never a done flag over a missing answer — and a flush
    /// of the line by a neighbour's `mark_done` sees the done flag only
    /// after the answer.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn mark_done(&self, idx: usize, executor: u32, result: TaskResult) -> Result<(), PError> {
        let e = self.entry(idx)?;
        let (flag, got) = match result {
            TaskResult::Swapped(ok) | TaskResult::Accepted(ok) => (ok, 0),
            TaskResult::Dequeued(got) => (got.is_some(), got.unwrap_or(0)),
        };
        let at = |field: u64| (field - F_FLAG) as usize;
        let mut answer = [0u8; (F_GOT + 8 - F_FLAG) as usize];
        answer[at(F_FLAG)] = u8::from(flag);
        answer[at(F_EXEC)..at(F_GOT)].copy_from_slice(&executor.to_le_bytes());
        answer[at(F_GOT)..].copy_from_slice(&got.to_le_bytes());
        let pmem = &self.pmem;
        pmem.write(e + F_FLAG, &answer)?;
        pmem.write_u8(e + F_DONE, ST_DONE)?;
        pmem.flush(e, ENTRY_STRIDE as usize)?;
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
    pub fn results(&self) -> Result<Vec<Option<TaskAnswer>>, PError> {
        (0..self.len).map(|i| self.result(i)).collect()
    }
}

/// An entry is one line-atomic persist only on lines of at least
/// [`ENTRY_STRIDE`] bytes (line sizes are powers of two, so such a line
/// holds whole 32-byte-aligned entries).
fn check_line_size(pmem: &PMem) -> Result<(), PError> {
    let line = pmem.line_size();
    if line < ENTRY_STRIDE as usize {
        return Err(PError::InvalidConfig(format!(
            "a {line}-byte line would split a {ENTRY_STRIDE}-byte task-table entry"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::PMemBuilder;

    fn cas(old: i64, new: i64) -> TaskOp {
        TaskOp::Cas { old, new }
    }

    fn fixture(ops: &[TaskOp]) -> (PMem, TaskTable) {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let t = TaskTable::format(pmem.clone(), &heap, ops).unwrap();
        (pmem, t)
    }

    fn result_of(t: &TaskTable, idx: usize) -> Option<TaskResult> {
        t.result(idx).unwrap().map(|a| a.result)
    }

    #[test]
    fn operands_round_trip() {
        let (_, t) = fixture(&[cas(1, 2), cas(-3, 4), cas(i64::MIN, i64::MAX)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.op(0).unwrap(), cas(1, 2));
        assert_eq!(t.op(1).unwrap(), cas(-3, 4));
        assert_eq!(t.op(2).unwrap(), cas(i64::MIN, i64::MAX));
    }

    #[test]
    fn status_lifecycle() {
        let (_, t) = fixture(&[cas(0, 1), cas(1, 2)]);
        assert!(!t.is_done(0).unwrap());
        assert_eq!(t.result(0).unwrap(), None);
        t.mark_done(0, 0, TaskResult::Swapped(false)).unwrap();
        assert_eq!(result_of(&t, 0), Some(TaskResult::Swapped(false)));
        t.mark_done(1, 0, TaskResult::Swapped(true)).unwrap();
        assert_eq!(result_of(&t, 1), Some(TaskResult::Swapped(true)));
        assert_eq!(t.results().unwrap().len(), 2);
        assert!(t.pending().unwrap().is_empty());
    }

    #[test]
    fn statuses_survive_crash_and_reopen() {
        let (pmem, t) = fixture(&[cas(0, 1), cas(1, 2), cas(2, 3)]);
        t.mark_done(1, 2, TaskResult::Swapped(true)).unwrap();
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let t2 = TaskTable::open(pmem2, t.base()).unwrap();
        assert_eq!(t2.pending().unwrap(), vec![0, 2]);
        let answer = TaskAnswer {
            executor: 2,
            result: TaskResult::Swapped(true),
        };
        assert_eq!(t2.result(1).unwrap(), Some(answer));
        assert_eq!(t2.op(1).unwrap(), cas(1, 2));
    }

    #[test]
    fn open_rejects_garbage() {
        let pmem = PMemBuilder::new().len(1024).build_in_memory();
        assert!(TaskTable::open(pmem, POffset::new(0)).is_err());
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let (_, t) = fixture(&[cas(0, 1)]);
        assert!(t.op(1).is_err());
        assert!(t.mark_done(1, 0, TaskResult::Swapped(true)).is_err());
    }

    #[test]
    fn empty_table_is_rejected() {
        let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 14).unwrap();
        assert!(TaskTable::format(pmem, &heap, &[]).is_err());
    }

    #[test]
    fn a_line_that_would_split_an_entry_is_rejected() {
        let pmem = PMemBuilder::new()
            .len(1 << 16)
            .line_size(16)
            .build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let invalid = |r: Result<TaskTable, PError>| matches!(r, Err(PError::InvalidConfig(_)));
        assert!(invalid(TaskTable::format(
            pmem.clone(),
            &heap,
            &[TaskOp::Dequeue]
        )));
        assert!(invalid(TaskTable::open(pmem, POffset::new(0))));
    }
}
