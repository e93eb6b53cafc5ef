//! The recoverable function gluing the [`RecoverableQueue`] to the
//! persistent-stack runtime — the queue analogue of the §5.2
//! [`crate::CasTaskFunction`], on the same [`TaskTable`].

use std::sync::Arc;

use pstack_core::{PContext, PError, RecoverableFunction, RetBytes};

use crate::funcs::{foreign_op, run_task};
use crate::queue::RecoverableQueue;
use crate::tasks::{TaskOp, TaskResult, TaskTable};

/// Function id under which [`QueueTaskFunction`] is registered.
pub const QUEUE_TASK_FUNC_ID: u64 = 0x0FFE;

/// Executes descriptor `idx` of a [`TaskTable`] against a
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
    table: TaskTable,
}

impl QueueTaskFunction {
    /// Bundles a queue and its descriptor table.
    #[must_use]
    pub fn new(queue: RecoverableQueue, table: TaskTable) -> Self {
        QueueTaskFunction { queue, table }
    }

    /// Convenience: wraps into the `Arc<dyn RecoverableFunction>` shape
    /// the registry wants.
    #[must_use]
    pub fn into_arc(self) -> Arc<dyn RecoverableFunction> {
        Arc::new(self)
    }

    fn run(
        &self,
        ctx: &PContext<'_>,
        args: &[u8],
        recovery: bool,
    ) -> Result<Option<RetBytes>, PError> {
        run_task(&self.table, ctx, args, |op, pid, seq| {
            let (q, pid) = (&self.queue, pid as u64);
            Ok(match (op, recovery) {
                (TaskOp::Enqueue(v), false) => TaskResult::Accepted(q.enqueue(pid, seq, v)?),
                (TaskOp::Enqueue(v), true) => TaskResult::Accepted(q.recover_enqueue(pid, seq, v)?),
                (TaskOp::Dequeue, false) => TaskResult::Dequeued(q.dequeue(pid, seq)?),
                (TaskOp::Dequeue, true) => TaskResult::Dequeued(q.recover_dequeue(pid, seq)?),
                (TaskOp::Cas { .. }, _) => return Err(foreign_op("queue", op)),
            })
        })
    }
}

impl RecoverableFunction for QueueTaskFunction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        self.run(ctx, args, false)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        self.run(ctx, args, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueVariant;
    use crate::tasks::TaskAnswer;
    use pstack_core::{recover_stack, FixedStack, FunctionRegistry};
    use pstack_heap::PHeap;
    use pstack_nvram::{sweep, PMem, PMemBuilder, POffset};

    fn fixture(capacity: u64, ops: &[TaskOp]) -> (PMem, PHeap, RecoverableQueue, TaskTable) {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(8192), (1 << 18) - 8192).unwrap();
        let q =
            RecoverableQueue::format(pmem.clone(), &heap, capacity, QueueVariant::Nsrl).unwrap();
        let table = TaskTable::format(pmem.clone(), &heap, ops).unwrap();
        (pmem, heap, q, table)
    }

    /// Runs `body` on worker 0's context over `stack`, with `f` the one
    /// registered function.
    fn with_ctx<T>(
        (pmem, heap): (&PMem, &PHeap),
        f: QueueTaskFunction,
        stack: &mut FixedStack,
        body: impl FnOnce(&mut PContext<'_>) -> T,
    ) -> T {
        let mut registry = FunctionRegistry::new();
        registry.register(QUEUE_TASK_FUNC_ID, f.into_arc()).unwrap();
        let (pmem, heap) = (pmem.clone(), heap.clone());
        body(&mut PContext::new(
            pmem,
            heap,
            &registry,
            stack,
            0,
            POffset::new(64),
        ))
    }

    #[test]
    fn table_round_trips_ops_and_answers() {
        let ops = [TaskOp::Enqueue(-5), TaskOp::Dequeue, TaskOp::Enqueue(7)];
        let (pmem, _, _, table) = fixture(4, &ops);
        let read: Vec<_> = (0..table.len()).map(|i| table.op(i).unwrap()).collect();
        assert_eq!(read, ops);
        assert_eq!(table.pending().unwrap(), vec![0, 1, 2]);
        let answers = [
            (2, TaskResult::Accepted(true)),
            (3, TaskResult::Dequeued(Some(-5))),
        ]
        .map(|(executor, result)| TaskAnswer { executor, result });
        for (idx, a) in answers.iter().enumerate() {
            table.mark_done(idx, a.executor, a.result).unwrap();
        }
        // Reopen sees the same state.
        let t2 = TaskTable::open(pmem, table.base()).unwrap();
        assert_eq!(t2.pending().unwrap(), vec![2]);
        assert_eq!(t2.results().unwrap()[..2], answers.map(Some));
    }

    #[test]
    fn table_rejects_bad_magic_and_empty_ops() {
        let (pmem, heap, _, _) = fixture(2, &[TaskOp::Dequeue]);
        let junk = heap.alloc_zeroed(64).unwrap();
        assert!(matches!(
            TaskTable::open(pmem.clone(), junk),
            Err(PError::CorruptStack(_))
        ));
        assert!(matches!(
            TaskTable::format(pmem, &heap, &[]),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn dequeued_none_round_trips() {
        let (_, _, _, table) = fixture(2, &[TaskOp::Dequeue]);
        table.mark_done(0, 1, TaskResult::Dequeued(None)).unwrap();
        let answer = table.result(0).unwrap().unwrap();
        assert_eq!(answer.result, TaskResult::Dequeued(None));
    }

    #[test]
    fn task_function_runs_and_replays_answers() {
        let ops = [TaskOp::Enqueue(10), TaskOp::Enqueue(20), TaskOp::Dequeue];
        let (pmem, heap, q, table) = fixture(4, &ops);
        let f = QueueTaskFunction::new(q.clone(), table.clone());
        let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 4096).unwrap();
        with_ctx((&pmem, &heap), f, &mut stack, |ctx| {
            for i in 0..3u64 {
                ctx.call(QUEUE_TASK_FUNC_ID, &i.to_le_bytes()).unwrap();
            }
            assert_eq!(
                table.result(2).unwrap().unwrap().result,
                TaskResult::Dequeued(Some(10)),
                "FIFO: first enqueued value dequeued"
            );
            // Re-running a completed descriptor replays the answer
            // without touching the queue.
            let before = q.snapshot().unwrap();
            ctx.call(QUEUE_TASK_FUNC_ID, &0u64.to_le_bytes()).unwrap();
            assert_eq!(q.snapshot().unwrap(), before);
        });
    }

    #[test]
    fn crash_between_queue_op_and_mark_done_recovers_exactly_once() {
        // The critical §5.2-style window: the queue CAS landed but the
        // answer never persisted. Recovery must find the evidence and
        // not double-apply.
        // One enqueue task; the stack format happens before the sweep
        // counts.
        let setup = || {
            let (pmem, heap, q, table) = fixture(4, &[TaskOp::Enqueue(42)]);
            let stack = FixedStack::format(pmem.clone(), POffset::new(0), 4096).unwrap();
            (pmem, (heap, q, table, stack))
        };
        sweep(
            setup,
            |(pmem, (heap, q, table, stack))| {
                let f = QueueTaskFunction::new(q.clone(), table.clone());
                with_ctx((pmem, heap), f, stack, |ctx| {
                    ctx.call(QUEUE_TASK_FUNC_ID, &0u64.to_le_bytes())
                })
            },
            |(pmem2, (_, q, table, _)), cut| {
                let heap2 = PHeap::open(pmem2.clone(), POffset::new(8192)).unwrap();
                let q2 =
                    RecoverableQueue::open(pmem2.clone(), q.base(), QueueVariant::Nsrl).unwrap();
                let t2 = TaskTable::open(pmem2.clone(), table.base()).unwrap();
                let f = QueueTaskFunction::new(q2.clone(), t2.clone());
                let mut stack2 = FixedStack::open(pmem2.clone(), POffset::new(0), 4096).unwrap();
                with_ctx((&pmem2, &heap2), f, &mut stack2, recover_stack).unwrap();
                // Whether or not the frame linearized before the crash,
                // the final state must hold the value at most once; if the
                // descriptor is marked done, it must be exactly once.
                let snap = q2.snapshot().unwrap();
                assert!(snap.len() <= 1, "{cut}: duplicate slot");
                if let Some(ans) = t2.result(0).unwrap() {
                    assert_eq!(ans.result, TaskResult::Accepted(true));
                    assert_eq!(snap.len(), 1, "{cut}: answer without slot");
                }
            },
        );
    }
}
