//! The persistent operation-descriptor table of §5.2.
//!
//! The experiment loop needs to know, across restarts, which operations
//! already completed and what they answered (step 7: "restart the system
//! in the normal mode, add all remaining descriptors to the queue";
//! step 9: "get answers of all CAS operations"). One table serves every
//! §5 workload: a descriptor is a CAS, an enqueue or a dequeue, and its
//! answer — the worker that executed it and the result — is made
//! durable by one line-atomic persist when the operation completes.
//!
//! The table is `pstack-core`'s one descriptor-table format
//! ([`pstack_core::table`]) preloaded with [`TaskOp`]s: this module is
//! only the §5 codec — where a slot keeps its operands and its dequeued
//! value, and what its kind and flag bytes mean.

use pstack_core::table::{Codec, DescriptorTable, F_EXEC, F_FLAG, F_KIND};
use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{Level, PMem, POffset};

const KIND_CAS: u8 = 0;
const KIND_ENQ: u8 = 1;
const KIND_DEQ: u8 = 2;

// The codec's fields, each inside the slot's one line. The answer
// (flag, executor, dequeued value) is one contiguous extent from the
// core's flag byte.
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
pub struct TaskTable(DescriptorTable);

impl TaskTable {
    /// Bytes of NVRAM needed for `n` descriptors.
    #[must_use]
    pub fn required_len(n: usize) -> usize {
        DescriptorTable::required_len(n)
    }

    /// Allocates and persists a table holding `ops`, all pending: one
    /// store a slot, riding the allocation's switch level.
    ///
    /// # Errors
    ///
    /// Heap or NVRAM errors, or [`PError::InvalidConfig`] for an empty
    /// op list, more ops than a table holds, or a line shorter than a
    /// slot.
    pub fn format(pmem: PMem, heap: &PHeap, ops: &[TaskOp]) -> Result<Self, PError> {
        let n = u32::try_from(ops.len())
            .map_err(|_| PError::InvalidConfig("too many ops for one task table".into()))?;
        let table = DescriptorTable::format(pmem.clone(), heap, Codec::Task, n, |e, slot| {
            let (kind, arg, new) = match ops[slot as usize] {
                TaskOp::Cas { old, new } => (KIND_CAS, old, new),
                TaskOp::Enqueue(v) => (KIND_ENQ, v, 0),
                TaskOp::Dequeue => (KIND_DEQ, 0, 0),
            };
            let mut descriptor = [0u8; F_NEW as usize + 8];
            descriptor[F_KIND as usize] = kind;
            descriptor[F_ARG as usize..F_NEW as usize].copy_from_slice(&arg.to_le_bytes());
            descriptor[F_NEW as usize..].copy_from_slice(&new.to_le_bytes());
            pmem.write(e, &descriptor)
        })?;
        Ok(TaskTable(table))
    }

    /// Re-attaches to a table created at `base`.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad magic word or a count that
    /// overruns the region (nothing is scanned then),
    /// [`PError::InvalidConfig`] for a line shorter than a slot.
    pub fn open(pmem: PMem, base: POffset) -> Result<Self, PError> {
        DescriptorTable::open(pmem, base, Codec::Task).map(TaskTable)
    }

    /// The table's base offset (persist it to find the table again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.0.base()
    }

    /// Number of descriptors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.slots() as usize
    }

    /// Returns `true` if the table has no descriptors (never happens
    /// for tables built by [`TaskTable::format`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Descriptor `idx`'s operation.
    ///
    /// # Errors
    ///
    /// Out-of-range index, an unknown kind byte, or NVRAM errors.
    pub fn op(&self, idx: usize) -> Result<TaskOp, PError> {
        let e = self.0.slot(slot(idx))?;
        let pmem = self.0.pmem();
        let arg = || pmem.read_i64(e + F_ARG);
        Ok(match pmem.read_u8(e + F_KIND)? {
            KIND_CAS => TaskOp::Cas {
                old: arg()?,
                new: pmem.read_i64(e + F_NEW)?,
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
        self.0.is_done(slot(idx))
    }

    /// The answer of descriptor `idx`, if it has completed. Nothing but
    /// the done flag is read from a pending entry.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn result(&self, idx: usize) -> Result<Option<TaskAnswer>, PError> {
        let Some(a) = self.0.answered(slot(idx))? else {
            return Ok(None);
        };
        let result = match a.kind {
            KIND_CAS => TaskResult::Swapped(a.flag),
            KIND_ENQ => TaskResult::Accepted(a.flag),
            _ if a.flag => TaskResult::Dequeued(Some(self.0.pmem().read_i64(a.at + F_GOT)?)),
            _ => TaskResult::Dequeued(None),
        };
        Ok(Some(TaskAnswer {
            executor: a.executor,
            result,
        }))
    }

    /// Persists the completion of descriptor `idx` with its answer, in
    /// one persist: the core's answer rule over one slot — the answer's
    /// one store, then the done flag, then one flush of the slot's line,
    /// awaited here. A crash leaves the slot answered or still pending,
    /// never a done flag over a missing answer.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn mark_done(&self, idx: usize, executor: u32, result: TaskResult) -> Result<(), PError> {
        let (flag, got) = match result {
            TaskResult::Swapped(ok) | TaskResult::Accepted(ok) => (ok, 0),
            TaskResult::Dequeued(got) => (got.is_some(), got.unwrap_or(0)),
        };
        let at = |field: u64| (field - F_FLAG) as usize;
        let mut answer = [0u8; (F_GOT + 8 - F_FLAG) as usize];
        answer[at(F_FLAG)] = u8::from(flag);
        answer[at(F_EXEC)..at(F_GOT)].copy_from_slice(&executor.to_le_bytes());
        answer[at(F_GOT)..].copy_from_slice(&got.to_le_bytes());
        let mut level = Level::default();
        let pmem = self.0.pmem();
        self.0
            .answer([(slot(idx), answer)], &mut level, |e, answer| {
                pmem.write(e + F_FLAG, &answer)
            })?;
        level.await_all()?;
        Ok(())
    }

    /// Indices of descriptors that have not completed.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn pending(&self) -> Result<Vec<usize>, PError> {
        let pending = self.0.pending(|_| Ok(true))?;
        Ok(pending.into_iter().map(|slot| slot as usize).collect())
    }

    /// All answers: `None` for descriptors still pending.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn results(&self) -> Result<Vec<Option<TaskAnswer>>, PError> {
        (0..self.len()).map(|i| self.result(i)).collect()
    }
}

/// Descriptor `idx`'s slot; an index past `u32` is out of every
/// table's range.
fn slot(idx: usize) -> u32 {
    u32::try_from(idx).unwrap_or(u32::MAX)
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
    fn open_rejects_a_count_that_overruns_the_region() {
        // A kill(1) child's image is hostile input: a count word past
        // the region is refused before any slot is read.
        let (pmem, t) = fixture(&[cas(0, 1), cas(1, 2)]);
        for count in [1 << 10, u64::from(u32::MAX) + 1, u64::MAX] {
            pmem.write_u64(t.base() + 8u64, count).unwrap();
            let before = pmem.stats().snapshot();
            let r = TaskTable::open(pmem.clone(), t.base());
            assert!(
                matches!(r, Err(PError::CorruptStack(_))),
                "count {count}: {r:?}"
            );
            assert_eq!(
                (pmem.stats().snapshot() - before).reads,
                2,
                "the header alone"
            );
        }
        pmem.write_u64(t.base() + 8u64, 2).unwrap();
        assert_eq!(TaskTable::open(pmem, t.base()).unwrap().len(), 2);
    }

    #[test]
    fn a_line_that_would_split_an_entry_is_rejected() {
        // An entry is a 64-byte line: 16- and 32-byte lines split it.
        for line in [16, 32] {
            let pmem = PMemBuilder::new()
                .len(1 << 16)
                .line_size(line)
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
}
