//! The strongest end-to-end guarantee in the suite: enumerate EVERY
//! crash point across a complete runtime task — queue pop, return-slot
//! clear, frame push, the object's operation, answer persist, return-slot
//! write, frame pop — and prove that recovery always converges to the
//! correct final state with exactly-once semantics. The task is a CAS,
//! an enqueue, a dequeue that returns a value or a dequeue of an empty
//! queue, each on every stack layout, all on the one descriptor table.

use pstack::chaos::{enumerate_crash_points, CrashScenario};
use pstack::core::{
    FunctionRegistry, PError, RecoveryMode, Runtime, RuntimeConfig, StackKind, Task,
};
use pstack::nvram::{PMem, PMemBuilder, POffset};
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

struct FullTaskScenario {
    kind: StackKind,
    case: &'static Case,
    /// The state before and after the last task, from a clean run.
    before: State,
    after: State,
}

struct System {
    pmem: PMem,
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

impl FullTaskScenario {
    fn new(kind: StackKind, case: &'static Case) -> Self {
        let mut scenario = FullTaskScenario {
            kind,
            case,
            before: (0, Vec::new()),
            after: (0, Vec::new()),
        };
        let (_, mut sys) = scenario.setup().unwrap();
        scenario.before = sys.objects.state().unwrap();
        scenario.run(&mut sys).unwrap();
        scenario.after = sys.objects.state().unwrap();
        let last = sys.objects.last();
        let answer = sys.objects.table.result(last).unwrap();
        assert_eq!(answer.map(|a| a.result), Some(case.answer), "clean run");
        scenario
    }
}

impl CrashScenario for FullTaskScenario {
    type System = System;

    fn setup(&self) -> Result<(PMem, System), PError> {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        let rt = Runtime::format(
            pmem.clone(),
            RuntimeConfig::new(1)
                .stack_kind(self.kind)
                .stack_capacity(4096),
            &stub,
        )?;
        let cas = RecoverableCas::format(pmem.clone(), rt.heap(), 1, INIT, CasVariant::Nsrl)?;
        let queue = RecoverableQueue::format(pmem.clone(), rt.heap(), 2, QueueVariant::Nsrl)?;
        let table = TaskTable::format(pmem.clone(), rt.heap(), self.case.ops)?;
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
        Ok((
            pmem.clone(),
            System {
                pmem,
                runtime,
                objects,
            },
        ))
    }

    fn run(&self, sys: &mut System) -> Result<(), PError> {
        let task = sys.objects.task(sys.objects.last())?;
        let report = sys.runtime.run_tasks(vec![task]);
        if report.crashed || sys.pmem.is_crashed() {
            Err(PError::Mem(pstack::nvram::MemError::Crashed))
        } else {
            Ok(())
        }
    }

    fn verify(&self, pmem: PMem, crash_event: u64) -> Result<(), PError> {
        let fail = |msg: String| -> Result<(), PError> {
            Err(PError::CorruptStack(format!("event {crash_event}: {msg}")))
        };
        let (registry, objects) = attach(&pmem)?;
        let rt = Runtime::open(pmem.clone(), &registry)?;
        rt.recover(RecoveryMode::Parallel)?;

        // The stack is balanced after recovery.
        let stack = rt.open_stack(0)?;
        if stack.depth() != 0 {
            return fail(format!("stack depth {} after recovery", stack.depth()));
        }
        stack.check_consistency()?;

        // The descriptor either never started (crash before the frame
        // linearized) or completed exactly once with the right answer —
        // and the objects agree with the recorded answer.
        let last = objects.last();
        let answered = |objects: &Objects| -> Result<Option<TaskResult>, PError> {
            Ok(objects.table.result(last)?.map(|a| a.result))
        };
        match answered(&objects)? {
            Some(answer) if answer != self.case.answer => fail(format!("answer {answer:?}")),
            Some(_) if objects.state()? != self.after => {
                fail(format!("answered, but state {:?}", objects.state()?))
            }
            Some(_) => Ok(()),
            None if objects.state()? != self.before => {
                fail(format!("pending, but state {:?}", objects.state()?))
            }
            None => {
                // Resubmitting the task must complete it.
                let report = rt.run_tasks(vec![objects.task(last)?]);
                if report.completed != 1 {
                    return fail("resubmission did not complete".into());
                }
                if answered(&objects)? != Some(self.case.answer) || objects.state()? != self.after {
                    return fail("resubmitted task has wrong outcome".into());
                }
                Ok(())
            }
        }
    }
}

#[test]
fn every_crash_point_of_a_full_task_recovers_exactly_once() {
    for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
        for case in &CASES {
            let scenario = FullTaskScenario::new(kind, case);
            let report = enumerate_crash_points(&scenario, &[0.0])
                .unwrap_or_else(|e| panic!("{kind} {:?}: {e}", case.ops));
            assert!(
                report.total_events >= 8,
                "{kind} {:?}: a full task should persist through many events, saw {}",
                case.ops,
                report.total_events
            );
        }
    }
}
