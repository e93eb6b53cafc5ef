//! Queue workload descriptors and the recoverable function gluing the
//! [`RecoverableQueue`] to the persistent-stack runtime — the queue
//! analogue of the §5.2 CAS machinery ([`crate::TaskTable`] +
//! [`crate::CasTaskFunction`]).

use std::sync::Arc;

use pstack_core::{PContext, PError, RecoverableFunction, RetBytes};
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

use crate::queue::RecoverableQueue;

/// Function id under which [`QueueTaskFunction`] is registered.
pub const QUEUE_TASK_FUNC_ID: u64 = 0x0FFE;

const TABLE_MAGIC: u64 = 0x5053_5155_5441_4231; // "PSQUTAB1"
const HEADER_LEN: u64 = 16;
const ENTRY_STRIDE: u64 = 32;

const KIND_ENQ: u8 = 0;
const KIND_DEQ: u8 = 1;

const ST_DONE: u8 = 1;

/// One queue operation descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueTaskOp {
    /// Enqueue the given value.
    Enqueue(i64),
    /// Dequeue one value.
    Dequeue,
}

/// A completed descriptor's answer, with the worker that executed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueTaskAnswer {
    /// Worker (process) id that completed the operation — together with
    /// the descriptor index this is the operation's `(pid, seq)` tag.
    pub executor: u32,
    /// The operation's result.
    pub result: QueueTaskResult,
}

/// The result payload of a completed queue descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueTaskResult {
    /// Enqueue answer: accepted, or rejected because the queue's
    /// lifetime capacity was exhausted.
    Accepted(bool),
    /// Dequeue answer.
    Dequeued(Option<i64>),
}

/// A persistent table of queue operation descriptors and answers,
/// driving re-enqueue after restarts exactly like the §5.2 CAS table.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_recoverable::{QueueOpTable, QueueTaskOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 14)?;
/// let ops = [QueueTaskOp::Enqueue(5), QueueTaskOp::Dequeue];
/// let table = QueueOpTable::format(pmem, &heap, &ops)?;
/// assert_eq!(table.pending()?, vec![0, 1]);
/// assert_eq!(table.op(1)?, QueueTaskOp::Dequeue);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QueueOpTable {
    pmem: PMem,
    base: POffset,
    len: usize,
}

impl QueueOpTable {
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
    /// op list.
    pub fn format(pmem: PMem, heap: &PHeap, ops: &[QueueTaskOp]) -> Result<Self, PError> {
        if ops.is_empty() {
            return Err(PError::InvalidConfig(
                "queue op table needs at least one descriptor".into(),
            ));
        }
        let len = Self::required_len(ops.len());
        let base = heap.alloc_aligned(len, 64)?;
        pmem.fill(base, 0, len)?;
        pmem.write_u64(base, TABLE_MAGIC)?;
        pmem.write_u64(base + 8u64, ops.len() as u64)?;
        for (i, op) in ops.iter().enumerate() {
            let e = Self::entry_off(base, i);
            match op {
                QueueTaskOp::Enqueue(v) => {
                    pmem.write_u8(e, KIND_ENQ)?;
                    pmem.write_i64(e + 8u64, *v)?;
                }
                QueueTaskOp::Dequeue => {
                    pmem.write_u8(e, KIND_DEQ)?;
                }
            }
        }
        pmem.flush(base, len)?;
        Ok(QueueOpTable {
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
                "bad queue-op-table magic {magic:#x} at {base}"
            )));
        }
        let len = pmem.read_u64(base + 8u64)? as usize;
        Ok(QueueOpTable { pmem, base, len })
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

    /// `true` if the table holds no descriptors (never happens for
    /// tables built through [`QueueOpTable::format`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads descriptor `idx`'s operation.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn op(&self, idx: usize) -> Result<QueueTaskOp, PError> {
        let e = self.entry(idx)?;
        match self.pmem.read_u8(e)? {
            KIND_ENQ => Ok(QueueTaskOp::Enqueue(self.pmem.read_i64(e + 8u64)?)),
            KIND_DEQ => Ok(QueueTaskOp::Dequeue),
            other => Err(PError::CorruptStack(format!(
                "descriptor {idx} has unknown kind {other}"
            ))),
        }
    }

    /// Reads descriptor `idx`'s answer, if it completed.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn result(&self, idx: usize) -> Result<Option<QueueTaskAnswer>, PError> {
        let e = self.entry(idx)?;
        if self.pmem.read_u8(e + 1u64)? != ST_DONE {
            return Ok(None);
        }
        let executor = self.pmem.read_u32(e + 4u64)?;
        let result = match self.pmem.read_u8(e)? {
            KIND_ENQ => QueueTaskResult::Accepted(self.pmem.read_u8(e + 3u64)? != 0),
            _ => {
                if self.pmem.read_u8(e + 2u64)? != 0 {
                    QueueTaskResult::Dequeued(Some(self.pmem.read_i64(e + 16u64)?))
                } else {
                    QueueTaskResult::Dequeued(None)
                }
            }
        };
        Ok(Some(QueueTaskAnswer { executor, result }))
    }

    /// Persists descriptor `idx`'s answer, field by field, each a
    /// persist-store. The answer payload is persisted before the
    /// one-byte done flag, so a crash in between leaves the descriptor
    /// pending and recovery recomputes the answer — the same discipline
    /// as the stack's marker flips.
    ///
    /// # Errors
    ///
    /// Out-of-range index or NVRAM errors.
    pub fn mark_done(
        &self,
        idx: usize,
        executor: u32,
        result: QueueTaskResult,
    ) -> Result<(), PError> {
        let e = self.entry(idx)?;
        let pmem = &self.pmem;
        pmem.write_persist(e + 4u64, &executor.to_le_bytes())?;
        match result {
            QueueTaskResult::Accepted(ok) => pmem.write_persist(e + 3u64, &[u8::from(ok)])?,
            QueueTaskResult::Dequeued(None) => pmem.write_persist(e + 2u64, &[0])?,
            QueueTaskResult::Dequeued(Some(v)) => {
                pmem.write_persist(e + 16u64, &v.to_le_bytes())?;
                pmem.write_persist(e + 2u64, &[1])?;
            }
        }
        pmem.write_persist(e + 1u64, &[ST_DONE])?;
        Ok(())
    }

    /// Indexes of descriptors that have not completed, in table order.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn pending(&self) -> Result<Vec<usize>, PError> {
        let mut out = Vec::new();
        for i in 0..self.len {
            if self.pmem.read_u8(self.entry(i)? + 1u64)? != ST_DONE {
                out.push(i);
            }
        }
        Ok(out)
    }

    /// All answers, `None` for still-pending descriptors.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn results(&self) -> Result<Vec<Option<QueueTaskAnswer>>, PError> {
        (0..self.len).map(|i| self.result(i)).collect()
    }
}

/// Executes descriptor `idx` of a [`QueueOpTable`] against a
/// [`RecoverableQueue`].
///
/// * `call` runs the enqueue/dequeue tagged `(worker pid, idx + 1)` and
///   persists the answer in the table;
/// * `recover` first checks the table (the answer may already be
///   durable), then runs the queue's *recovery* procedure — which scans
///   the slot evidence before re-executing — and persists its verdict.
#[derive(Clone)]
pub struct QueueTaskFunction {
    queue: RecoverableQueue,
    table: QueueOpTable,
}

impl QueueTaskFunction {
    /// Bundles a queue and its descriptor table.
    #[must_use]
    pub fn new(queue: RecoverableQueue, table: QueueOpTable) -> Self {
        QueueTaskFunction { queue, table }
    }

    /// Convenience: wraps into the `Arc<dyn RecoverableFunction>` shape
    /// the registry wants.
    #[must_use]
    pub fn into_arc(self) -> Arc<dyn RecoverableFunction> {
        Arc::new(self)
    }

    fn seq_of(idx: usize) -> u64 {
        idx as u64 + 1
    }

    fn parse_index(args: &[u8]) -> Result<usize, PError> {
        let bytes: [u8; 8] = args
            .get(..8)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| PError::Task("queue task arguments must hold an 8-byte index".into()))?;
        Ok(u64::from_le_bytes(bytes) as usize)
    }

    fn encode_answer(result: QueueTaskResult) -> Option<RetBytes> {
        let mut b = [0u8; 8];
        match result {
            QueueTaskResult::Accepted(ok) => {
                b[0] = 1;
                b[1] = u8::from(ok);
            }
            QueueTaskResult::Dequeued(None) => b[0] = 2,
            QueueTaskResult::Dequeued(Some(v)) => {
                b[0] = 3;
                // Squeeze the low 7 bytes through the small-return slot;
                // the authoritative full answer lives in the table.
                b[1..8].copy_from_slice(&v.to_le_bytes()[..7]);
            }
        }
        Some(b)
    }

    fn run(
        &self,
        ctx: &mut PContext<'_>,
        idx: usize,
        recovery: bool,
    ) -> Result<Option<RetBytes>, PError> {
        if let Some(answer) = self.table.result(idx)? {
            return Ok(Self::encode_answer(answer.result));
        }
        let pid = ctx.pid as u64;
        let seq = Self::seq_of(idx);
        let result = match self.table.op(idx)? {
            QueueTaskOp::Enqueue(v) => {
                let ok = if recovery {
                    self.queue.recover_enqueue(pid, seq, v)?
                } else {
                    self.queue.enqueue(pid, seq, v)?
                };
                QueueTaskResult::Accepted(ok)
            }
            QueueTaskOp::Dequeue => {
                let v = if recovery {
                    self.queue.recover_dequeue(pid, seq)?
                } else {
                    self.queue.dequeue(pid, seq)?
                };
                QueueTaskResult::Dequeued(v)
            }
        };
        self.table.mark_done(idx, ctx.pid as u32, result)?;
        Ok(Self::encode_answer(result))
    }
}

impl RecoverableFunction for QueueTaskFunction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let idx = Self::parse_index(args)?;
        self.run(ctx, idx, false)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let idx = Self::parse_index(args)?;
        self.run(ctx, idx, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueVariant;
    use pstack_core::{FixedStack, FunctionRegistry};
    use pstack_nvram::PMemBuilder;

    fn fixture(
        capacity: u64,
        ops: &[QueueTaskOp],
    ) -> (PMem, PHeap, RecoverableQueue, QueueOpTable) {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(8192), (1 << 18) - 8192).unwrap();
        let q =
            RecoverableQueue::format(pmem.clone(), &heap, capacity, QueueVariant::Nsrl).unwrap();
        let table = QueueOpTable::format(pmem.clone(), &heap, ops).unwrap();
        (pmem, heap, q, table)
    }

    #[test]
    fn table_round_trips_ops_and_answers() {
        let ops = [
            QueueTaskOp::Enqueue(-5),
            QueueTaskOp::Dequeue,
            QueueTaskOp::Enqueue(7),
        ];
        let (pmem, _, _, table) = fixture(4, &ops);
        assert_eq!(table.len(), 3);
        assert_eq!(table.op(0).unwrap(), QueueTaskOp::Enqueue(-5));
        assert_eq!(table.op(1).unwrap(), QueueTaskOp::Dequeue);
        assert_eq!(table.pending().unwrap(), vec![0, 1, 2]);

        table
            .mark_done(0, 2, QueueTaskResult::Accepted(true))
            .unwrap();
        table
            .mark_done(1, 3, QueueTaskResult::Dequeued(Some(-5)))
            .unwrap();
        assert_eq!(table.pending().unwrap(), vec![2]);
        assert_eq!(
            table.result(0).unwrap(),
            Some(QueueTaskAnswer {
                executor: 2,
                result: QueueTaskResult::Accepted(true)
            })
        );
        assert_eq!(
            table.result(1).unwrap(),
            Some(QueueTaskAnswer {
                executor: 3,
                result: QueueTaskResult::Dequeued(Some(-5))
            })
        );
        // Reopen sees the same state.
        let t2 = QueueOpTable::open(pmem, table.base()).unwrap();
        assert_eq!(t2.pending().unwrap(), vec![2]);
    }

    #[test]
    fn table_rejects_bad_magic_and_empty_ops() {
        let (pmem, heap, _, _) = fixture(2, &[QueueTaskOp::Dequeue]);
        let junk = heap.alloc_zeroed(64).unwrap();
        assert!(matches!(
            QueueOpTable::open(pmem.clone(), junk),
            Err(PError::CorruptStack(_))
        ));
        assert!(matches!(
            QueueOpTable::format(pmem, &heap, &[]),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn dequeued_none_round_trips() {
        let (_, _, _, table) = fixture(2, &[QueueTaskOp::Dequeue]);
        table
            .mark_done(0, 1, QueueTaskResult::Dequeued(None))
            .unwrap();
        assert_eq!(
            table.result(0).unwrap().unwrap().result,
            QueueTaskResult::Dequeued(None)
        );
    }

    #[test]
    fn task_function_runs_and_replays_answers() {
        let ops = [
            QueueTaskOp::Enqueue(10),
            QueueTaskOp::Enqueue(20),
            QueueTaskOp::Dequeue,
        ];
        let (pmem, heap, q, table) = fixture(4, &ops);
        let f = QueueTaskFunction::new(q.clone(), table.clone());
        let mut registry = FunctionRegistry::new();
        registry.register(QUEUE_TASK_FUNC_ID, f.into_arc()).unwrap();
        let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 4096).unwrap();
        let mut ctx = PContext::new(
            pmem.clone(),
            heap.clone(),
            &registry,
            &mut stack,
            0,
            POffset::new(64),
        );
        for i in 0..3u64 {
            ctx.call(QUEUE_TASK_FUNC_ID, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(
            table.result(2).unwrap().unwrap().result,
            QueueTaskResult::Dequeued(Some(10)),
            "FIFO: first enqueued value dequeued"
        );
        // Re-running a completed descriptor replays the answer without
        // touching the queue.
        let before = q.snapshot().unwrap();
        ctx.call(QUEUE_TASK_FUNC_ID, &0u64.to_le_bytes()).unwrap();
        assert_eq!(q.snapshot().unwrap(), before);
    }

    #[test]
    fn crash_between_queue_op_and_mark_done_recovers_exactly_once() {
        // The critical §5.2-style window: the queue CAS landed but the
        // answer never persisted. Recovery must find the evidence and
        // not double-apply.
        use pstack_nvram::FailPlan;
        let ops = [QueueTaskOp::Enqueue(42)];
        let (pmem, heap, q, table) = fixture(4, &ops);
        let f = QueueTaskFunction::new(q.clone(), table.clone());
        let mut registry = FunctionRegistry::new();
        registry
            .register(QUEUE_TASK_FUNC_ID, f.clone().into_arc())
            .unwrap();

        // Count events for a full run to know the crash range (the
        // stack format happens before the countdown starts, exactly as
        // in the per-crash-point runs below).
        let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 4096).unwrap();
        let e0 = pmem.events();
        {
            let mut ctx = PContext::new(
                pmem.clone(),
                heap.clone(),
                &registry,
                &mut stack,
                0,
                POffset::new(64),
            );
            ctx.call(QUEUE_TASK_FUNC_ID, &0u64.to_le_bytes()).unwrap();
        }
        let total = pmem.events() - e0;

        for k in 0..total {
            let ops = [QueueTaskOp::Enqueue(42)];
            let (pmem, heap, q, table) = fixture(4, &ops);
            let f = QueueTaskFunction::new(q.clone(), table.clone());
            let mut registry = FunctionRegistry::new();
            registry.register(QUEUE_TASK_FUNC_ID, f.into_arc()).unwrap();
            let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 4096).unwrap();
            pmem.arm_failpoint(FailPlan::after_events(k));
            {
                let mut ctx = PContext::new(
                    pmem.clone(),
                    heap.clone(),
                    &registry,
                    &mut stack,
                    0,
                    POffset::new(64),
                );
                let err = ctx
                    .call(QUEUE_TASK_FUNC_ID, &0u64.to_le_bytes())
                    .unwrap_err();
                assert!(err.is_crash(), "crash at event {k}");
            }
            let pmem2 = pmem.reopen().unwrap();
            let heap2 = PHeap::open(pmem2.clone(), POffset::new(8192)).unwrap();
            let q2 = RecoverableQueue::open(pmem2.clone(), q.base(), QueueVariant::Nsrl).unwrap();
            let t2 = QueueOpTable::open(pmem2.clone(), table.base()).unwrap();
            let mut registry2 = FunctionRegistry::new();
            registry2
                .register(
                    QUEUE_TASK_FUNC_ID,
                    QueueTaskFunction::new(q2.clone(), t2.clone()).into_arc(),
                )
                .unwrap();
            let mut stack2 =
                pstack_core::FixedStack::open(pmem2.clone(), POffset::new(0), 4096).unwrap();
            let mut ctx2 =
                PContext::new(pmem2, heap2, &registry2, &mut stack2, 0, POffset::new(64));
            pstack_core::recover_stack(&mut ctx2).unwrap();
            // Whether or not the frame linearized before the crash, the
            // final state must hold the value at most once; if the
            // descriptor is marked done, it must be exactly once.
            let snap = q2.snapshot().unwrap();
            assert!(snap.len() <= 1, "crash at event {k}: duplicate slot");
            if let Some(ans) = t2.result(0).unwrap() {
                assert_eq!(ans.result, QueueTaskResult::Accepted(true));
                assert_eq!(snap.len(), 1, "crash at event {k}: answer without slot");
            }
        }
    }
}
