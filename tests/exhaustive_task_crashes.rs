//! The strongest end-to-end guarantee in the suite: enumerate EVERY
//! crash point across a complete runtime task — queue pop, return-slot
//! clear, frame push, the object's operation, answer persist, return-slot
//! write, frame pop — and prove that recovery always converges to the
//! correct final state with exactly-once semantics. The task is a CAS,
//! an enqueue, a dequeue that returns a value or a dequeue of an empty
//! queue, each on every stack layout, all on the one descriptor table.

use pstack::core::{
    FunctionRegistry, PError, RecoveryMode, Runtime, RuntimeConfig, StackKind, Task,
};
use pstack::nvram::{sweep, PMem, PMemBuilder, POffset};
use pstack::recoverable::{
    CasTaskFunction, CasVariant, QueueSlot, QueueTaskFunction, QueueVariant, RecoverableCas,
    RecoverableQueue, TaskOp, TaskResult, TaskTable, CAS_TASK_FUNC_ID, QUEUE_TASK_FUNC_ID,
};

const INIT: i64 = 100;
const NEW: i64 = 200;
const VALUE: i64 = 7;

/// A table's descriptors: all but the last complete before the crash
/// points start, and the last is the task they cut, with the answer it
/// must give.
struct Case {
    ops: &'static [TaskOp],
    answer: TaskResult,
}

const CASES: [Case; 4] = [
    Case {
        ops: &[TaskOp::Cas {
            old: INIT,
            new: NEW,
        }],
        answer: TaskResult::Swapped(true),
    },
    Case {
        ops: &[TaskOp::Enqueue(VALUE)],
        answer: TaskResult::Accepted(true),
    },
    Case {
        ops: &[TaskOp::Enqueue(VALUE), TaskOp::Dequeue],
        answer: TaskResult::Dequeued(Some(VALUE)),
    },
    Case {
        ops: &[TaskOp::Dequeue],
        answer: TaskResult::Dequeued(None),
    },
];

/// The register's value and the queue's slots.
type State = (i64, Vec<QueueSlot>);

struct Objects {
    cas: RecoverableCas,
    queue: RecoverableQueue,
    table: TaskTable,
}

impl Objects {
    fn state(&self) -> Result<State, PError> {
        Ok((self.cas.read()?, self.queue.snapshot()?))
    }

    /// The task running descriptor `idx`.
    fn task(&self, idx: usize) -> Result<Task, PError> {
        let func = match self.table.op(idx)? {
            TaskOp::Cas { .. } => CAS_TASK_FUNC_ID,
            TaskOp::Enqueue(_) | TaskOp::Dequeue => QUEUE_TASK_FUNC_ID,
        };
        Ok(Task::new(func, (idx as u64).to_le_bytes().to_vec()))
    }

    fn last(&self) -> usize {
        self.table.len() - 1
    }
}

struct System {
    runtime: Runtime,
    objects: Objects,
}

/// Both task functions on the one table, over the objects whose bases
/// the region's user scratch records.
fn attach(pmem: &PMem) -> Result<(FunctionRegistry, Objects), PError> {
    let base = |off| pmem.read_u64(POffset::new(off)).map(POffset::new);
    let cas = RecoverableCas::open(pmem.clone(), base(64)?, 1, CasVariant::Nsrl);
    let queue = RecoverableQueue::open(pmem.clone(), base(72)?, QueueVariant::Nsrl)?;
    let table = TaskTable::open(pmem.clone(), base(80)?)?;
    let mut registry = FunctionRegistry::new();
    let cas_func = CasTaskFunction::new(cas.clone(), table.clone());
    registry.register(CAS_TASK_FUNC_ID, cas_func.into_arc())?;
    let queue_func = QueueTaskFunction::new(queue.clone(), table.clone());
    registry.register(QUEUE_TASK_FUNC_ID, queue_func.into_arc())?;
    Ok((registry, Objects { cas, queue, table }))
}

/// Formats the region, the objects and their table, and runs every
/// descriptor but the last.
fn setup(kind: StackKind, case: &Case) -> Result<(PMem, System), PError> {
    let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
    let stub = FunctionRegistry::new();
    let rt = Runtime::format(
        pmem.clone(),
        RuntimeConfig::new(1).stack_kind(kind).stack_capacity(4096),
        &stub,
    )?;
    let cas = RecoverableCas::format(pmem.clone(), rt.heap(), 1, INIT, CasVariant::Nsrl)?;
    let queue = RecoverableQueue::format(pmem.clone(), rt.heap(), 2, QueueVariant::Nsrl)?;
    let table = TaskTable::format(pmem.clone(), rt.heap(), case.ops)?;
    let bases = [cas.base(), queue.base(), table.base()];
    for (i, base) in bases.into_iter().enumerate() {
        pmem.write_u64(POffset::new(64 + 8 * i as u64), base.get())?;
    }
    pmem.flush(POffset::new(64), 24)?;
    let (registry, objects) = attach(&pmem)?;
    let runtime = Runtime::open(pmem.clone(), &registry)?;
    let earlier = (0..objects.last()).map(|i| objects.task(i));
    let report = runtime.run_tasks(earlier.collect::<Result<Vec<_>, _>>()?);
    assert_eq!(report.completed, objects.last(), "setup's descriptors");
    Ok((pmem, System { runtime, objects }))
}

/// Runs the last descriptor's task.
fn run((pmem, sys): &mut (PMem, System)) -> Result<(), PError> {
    let task = sys.objects.task(sys.objects.last())?;
    let report = sys.runtime.run_tasks(vec![task]);
    if report.crashed || pmem.is_crashed() {
        Err(PError::Mem(pstack::nvram::MemError::Crashed))
    } else {
        Ok(())
    }
}

/// Recovers the reopened region and checks that the last descriptor
/// never started or completed exactly once, resubmitting it if pending.
fn verify(pmem: &PMem, case: &Case, (before, after): (&State, &State), at: &str) {
    let (registry, objects) = attach(pmem).unwrap();
    let rt = Runtime::open(pmem.clone(), &registry).unwrap();
    rt.recover(RecoveryMode::Parallel).unwrap();

    // The stack is balanced after recovery.
    let stack = rt.open_stack(0).unwrap();
    assert_eq!(stack.depth(), 0, "{at}: stack depth after recovery");
    stack.check_consistency().unwrap();

    // The descriptor either never started (crash before the frame
    // linearized) or completed exactly once with the right answer —
    // and the objects agree with the recorded answer.
    let last = objects.last();
    let answered = || objects.table.result(last).unwrap().map(|a| a.result);
    let state = objects.state().unwrap();
    if let Some(answer) = answered() {
        assert_eq!(answer, case.answer, "{at}: answer");
        assert_eq!(state, *after, "{at}: answered, but state");
        return;
    }
    assert_eq!(state, *before, "{at}: pending, but state");
    // Resubmitting the task must complete it.
    let report = rt.run_tasks(vec![objects.task(last).unwrap()]);
    assert_eq!(report.completed, 1, "{at}: resubmission did not complete");
    assert_eq!(answered(), Some(case.answer), "{at}: resubmitted answer");
    assert_eq!(objects.state().unwrap(), *after, "{at}: resubmitted state");
}

#[test]
fn every_crash_point_of_a_full_task_recovers_exactly_once() {
    for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
        for case in &CASES {
            // The state before and after the last task, from a clean run.
            let mut clean = setup(kind, case).unwrap();
            let objects = &clean.1.objects;
            let before = objects.state().unwrap();
            run(&mut clean).unwrap();
            let objects = &clean.1.objects;
            let after = objects.state().unwrap();
            let answer = objects.table.result(objects.last()).unwrap();
            assert_eq!(answer.map(|a| a.result), Some(case.answer), "clean run");

            let events = sweep(
                || setup(kind, case).unwrap(),
                run,
                |(pmem, _), cut| {
                    let at = format!("{kind} {:?} {cut}", case.ops);
                    verify(&pmem, case, (&before, &after), &at);
                },
            );
            let at = format!("{kind} {:?}", case.ops);
            assert!(
                events[0] >= 8,
                "{at}: a full task persists through many events"
            );
        }
    }
}
