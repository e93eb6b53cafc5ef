//! Recoverable functions gluing the NSRL primitives to the persistent
//! stack: the §5.2 CAS task, the queue task's shared skeleton, and a
//! counter task.
//!
//! Each worker executes descriptors by index: the function id plus the
//! 8-byte index form the persistent frame, so after a crash the
//! recovery thread knows exactly which descriptor was in flight and
//! calls the object's *recovery* procedure for it.

use std::sync::Arc;

use pstack_core::{PContext, PError, RecoverableFunction, RetBytes};

use crate::cas::RecoverableCas;
use crate::counter::RecoverableCounter;
use crate::tasks::{TaskOp, TaskResult, TaskTable};

/// Function id under which [`CasTaskFunction`] is registered.
pub const CAS_TASK_FUNC_ID: u64 = 0x0CA5;

/// Function id under which [`CounterTaskFunction`] is registered.
pub const COUNTER_TASK_FUNC_ID: u64 = 0xC0C0;

fn parse_index(args: &[u8]) -> Result<usize, PError> {
    let bytes: [u8; 8] = args
        .get(..8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| PError::Task("task arguments must hold an 8-byte index".into()))?;
    Ok(u64::from_le_bytes(bytes) as usize)
}

/// One 8-byte return: byte 0 is the answer's flag (swapped, accepted, or
/// a value dequeued), bytes 1..8 the low 7 bytes of a dequeued value.
/// The authoritative answer is the table's.
fn encode_answer(result: TaskResult) -> Option<RetBytes> {
    let mut b = [0u8; 8];
    match result {
        TaskResult::Swapped(ok) | TaskResult::Accepted(ok) => b[0] = u8::from(ok),
        TaskResult::Dequeued(got) => {
            b[0] = u8::from(got.is_some());
            b[1..].copy_from_slice(&got.unwrap_or(0).to_le_bytes()[..7]);
        }
    }
    Some(b)
}

/// The §5.2 task every descriptor function runs, as `call` and as
/// `recover`: parse the descriptor index; replay its answer if one is
/// durable (a completion that raced a crash with the queue refill gets
/// its descriptor re-enqueued); else run `op` — the function's own
/// object call, handed the descriptor and its `(worker pid, index + 1)`
/// tag — persist the answer with [`TaskTable::mark_done`] and return it.
pub(crate) fn run_task(
    table: &TaskTable,
    ctx: &PContext<'_>,
    args: &[u8],
    op: impl FnOnce(TaskOp, usize, u64) -> Result<TaskResult, PError>,
) -> Result<Option<RetBytes>, PError> {
    let idx = parse_index(args)?;
    let result = match table.result(idx)? {
        Some(answer) => answer.result,
        None => {
            let result = op(table.op(idx)?, ctx.pid, idx as u64 + 1)?;
            table.mark_done(idx, ctx.pid as u32, result)?;
            result
        }
    };
    Ok(encode_answer(result))
}

/// The error for a descriptor whose operation is not the function's.
pub(crate) fn foreign_op(func: &str, op: TaskOp) -> PError {
    PError::Task(format!("{func} task given a {op:?} descriptor"))
}

/// Executes descriptor `idx` of a [`TaskTable`] against a
/// [`RecoverableCas`]: the §5.2 workload item.
///
/// * `call` runs `CAS(old → new)` tagged with the descriptor index and
///   persists the answer in the table;
/// * `recover` first checks the table (the answer may already be
///   durable), then runs the CAS *recovery* procedure and persists its
///   verdict.
#[derive(Clone)]
pub struct CasTaskFunction {
    cas: RecoverableCas,
    table: TaskTable,
}

impl CasTaskFunction {
    /// Bundles a CAS object and its descriptor table.
    #[must_use]
    pub fn new(cas: RecoverableCas, table: TaskTable) -> Self {
        CasTaskFunction { cas, table }
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
            let TaskOp::Cas { old, new } = op else {
                return Err(foreign_op("CAS", op));
            };
            let ok = if recovery {
                self.cas.recover(pid, old, new, seq)?
            } else {
                self.cas.cas(pid, old, new, seq)?
            };
            Ok(TaskResult::Swapped(ok))
        })
    }
}

impl RecoverableFunction for CasTaskFunction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        self.run(ctx, args, false)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        self.run(ctx, args, true)
    }
}

/// Executes increment `idx` against a [`RecoverableCounter`]; the
/// sequence tag makes call and recover share one idempotent body.
#[derive(Clone)]
pub struct CounterTaskFunction {
    counter: RecoverableCounter,
}

impl CounterTaskFunction {
    /// Wraps a counter.
    #[must_use]
    pub fn new(counter: RecoverableCounter) -> Self {
        CounterTaskFunction { counter }
    }

    /// Convenience: wraps into the `Arc<dyn RecoverableFunction>` shape
    /// the registry wants.
    #[must_use]
    pub fn into_arc(self) -> Arc<dyn RecoverableFunction> {
        Arc::new(self)
    }
}

impl RecoverableFunction for CounterTaskFunction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let idx = parse_index(args)?;
        self.counter.increment(ctx.pid, idx as u64 + 1)?;
        Ok(None)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let idx = parse_index(args)?;
        self.counter.recover_increment(ctx.pid, idx as u64 + 1)?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas::CasVariant;
    use pstack_core::{FunctionRegistry, Runtime, RuntimeConfig, Task};
    use pstack_heap::PHeap;
    use pstack_nvram::{PMemBuilder, POffset};

    fn encode_idx(i: usize) -> Vec<u8> {
        (i as u64).to_le_bytes().to_vec()
    }

    #[test]
    fn cas_tasks_run_on_the_runtime() {
        let chain = [(0, 1), (1, 2), (2, 3)].map(|(old, new)| TaskOp::Cas { old, new });
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let mut registry = FunctionRegistry::new();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(2), &registry).unwrap();
        let cas = RecoverableCas::format(pmem.clone(), rt.heap(), 2, 0, CasVariant::Nsrl).unwrap();
        // A chain 0→1→2→3: all succeed when executed in order by one
        // worker each... but workers race, so use a single worker for
        // determinism here.
        let table = TaskTable::format(pmem.clone(), rt.heap(), &chain).unwrap();
        registry
            .register(
                CAS_TASK_FUNC_ID,
                CasTaskFunction::new(cas.clone(), table.clone()).into_arc(),
            )
            .unwrap();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &registry).unwrap();
        // Reformatting wiped the heap; recreate objects on the fresh heap.
        let cas = RecoverableCas::format(pmem.clone(), rt.heap(), 1, 0, CasVariant::Nsrl).unwrap();
        let table = TaskTable::format(pmem.clone(), rt.heap(), &chain).unwrap();
        let mut registry = FunctionRegistry::new();
        registry
            .register(
                CAS_TASK_FUNC_ID,
                CasTaskFunction::new(cas.clone(), table.clone()).into_arc(),
            )
            .unwrap();
        let rt = Runtime::open(pmem, &registry).unwrap();
        let report = rt.run_tasks((0..3).map(|i| Task::new(CAS_TASK_FUNC_ID, encode_idx(i))));
        assert_eq!(report.completed, 3);
        assert_eq!(cas.read().unwrap(), 3);
        let mut results = table.results().unwrap().into_iter();
        assert!(results.all(|a| a.unwrap().result == TaskResult::Swapped(true)));
    }

    #[test]
    fn completed_descriptor_is_not_reexecuted() {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(4096), (1 << 18) - 4096).unwrap();
        let cas = RecoverableCas::format(pmem.clone(), &heap, 1, 0, CasVariant::Nsrl).unwrap();
        let table =
            TaskTable::format(pmem.clone(), &heap, &[TaskOp::Cas { old: 0, new: 1 }]).unwrap();
        let f = CasTaskFunction::new(cas.clone(), table.clone());

        // Run once through the runtime-free path: fabricate a context.
        let mut registry = FunctionRegistry::new();
        registry
            .register(CAS_TASK_FUNC_ID, f.clone().into_arc())
            .unwrap();
        let mut stack =
            pstack_core::FixedStack::format(pmem.clone(), POffset::new(0), 2048).unwrap();
        let mut ctx = PContext::new(
            pmem.clone(),
            heap.clone(),
            &registry,
            &mut stack,
            0,
            POffset::new(64),
        );
        let r1 = ctx.call(CAS_TASK_FUNC_ID, &encode_idx(0)).unwrap();
        assert_eq!(r1.unwrap()[0], 1);
        assert_eq!(cas.read().unwrap(), 1);
        // Second run of the same descriptor: answer replayed, CAS not
        // re-applied (value unchanged).
        let r2 = ctx.call(CAS_TASK_FUNC_ID, &encode_idx(0)).unwrap();
        assert_eq!(r2.unwrap()[0], 1);
        assert_eq!(cas.read().unwrap(), 1);
    }

    #[test]
    fn counter_tasks_survive_crash_recover_loop() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let registry_for = |counter: &RecoverableCounter| {
            let mut r = FunctionRegistry::new();
            r.register(
                COUNTER_TASK_FUNC_ID,
                CounterTaskFunction::new(counter.clone()).into_arc(),
            )
            .unwrap();
            r
        };
        let stub = FunctionRegistry::new();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(2), &stub).unwrap();
        let counter = RecoverableCounter::format(pmem.clone(), rt.heap(), 2).unwrap();
        rt.set_user_root(counter.base()).unwrap();
        let registry = registry_for(&counter);
        let rt = Runtime::open(pmem.clone(), &registry).unwrap();

        pmem.arm_failpoint(pstack_nvram::FailPlan::after_events(60));
        let report = rt.run_tasks((0..40).map(|i| Task::new(COUNTER_TASK_FUNC_ID, encode_idx(i))));
        assert!(report.crashed);

        let pmem2 = pmem.reopen().unwrap();
        let rt2 = Runtime::open(
            pmem2.clone(),
            &registry_for(&RecoverableCounter::open(pmem2.clone(), counter.base(), 2)),
        )
        .unwrap();
        rt2.recover(pstack_core::RecoveryMode::Parallel).unwrap();
        // Counter value equals completed + recovered increments; all
        // per-worker stacks balanced.
        for pid in 0..2 {
            assert_eq!(rt2.open_stack(pid).unwrap().depth(), 0);
        }
        let c2 = RecoverableCounter::open(pmem2, counter.base(), 2);
        let v = c2.read().unwrap();
        assert!(v >= report.completed as u64, "no completed increment lost");
        assert!(v <= 40, "no increment duplicated");
    }
}
