//! The strongest end-to-end guarantee in the suite: enumerate EVERY
//! crash point across a complete runtime task — queue pop, return-slot
//! clear, frame push, recoverable CAS, answer persist, return-slot
//! write, frame pop — and prove that recovery always converges to the
//! correct final state with exactly-once semantics.

use pstack::chaos::{enumerate_crash_points, CrashScenario};
use pstack::core::{
    FunctionRegistry, PError, RecoveryMode, Runtime, RuntimeConfig, StackKind, Task,
};
use pstack::nvram::{PMem, PMemBuilder, POffset};
use pstack::recoverable::{
    CasTaskFunction, CasVariant, RecoverableCas, TaskTable, CAS_TASK_FUNC_ID,
};

const INIT: i64 = 100;
const NEW: i64 = 200;

struct FullTaskScenario {
    kind: StackKind,
}

struct System {
    pmem: PMem,
    runtime: Runtime,
}

fn build_registry(pmem: &PMem) -> Result<(FunctionRegistry, RecoverableCas, TaskTable), PError> {
    let cas_base = POffset::new(pmem.read_u64(POffset::new(64))?);
    let table_base = POffset::new(pmem.read_u64(POffset::new(72))?);
    let cas = RecoverableCas::open(pmem.clone(), cas_base, 1, CasVariant::Nsrl);
    let table = TaskTable::open(pmem.clone(), table_base)?;
    let mut registry = FunctionRegistry::new();
    registry.register(
        CAS_TASK_FUNC_ID,
        CasTaskFunction::new(cas.clone(), table.clone()).into_arc(),
    )?;
    Ok((registry, cas, table))
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
        let table = TaskTable::format(pmem.clone(), rt.heap(), &[(INIT, NEW)])?;
        pmem.write_u64(POffset::new(64), cas.base().get())?;
        pmem.write_u64(POffset::new(72), table.base().get())?;
        pmem.flush(POffset::new(64), 16)?;
        let (registry, _, _) = build_registry(&pmem)?;
        let runtime = Runtime::open(pmem.clone(), &registry)?;
        Ok((pmem.clone(), System { pmem, runtime }))
    }

    fn run(&self, sys: &mut System) -> Result<(), PError> {
        let report = sys.runtime.run_tasks(vec![Task::new(
            CAS_TASK_FUNC_ID,
            0u64.to_le_bytes().to_vec(),
        )]);
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
        let (registry, cas, table) = build_registry(&pmem)?;
        let rt = Runtime::open(pmem.clone(), &registry)?;
        rt.recover(RecoveryMode::Parallel)?;

        // The stack is balanced after recovery.
        let stack = rt.open_stack(0)?;
        if stack.depth() != 0 {
            return fail(format!("stack depth {} after recovery", stack.depth()));
        }
        stack.check_consistency()?;

        // The single descriptor either never started (crash before the
        // frame linearized) or completed exactly once with the right
        // answer — and the register agrees with the recorded answer.
        let register = cas.read()?;
        match table.result(0)? {
            Some(true) => {
                if register != NEW {
                    return fail(format!("answer true but register {register}"));
                }
            }
            Some(false) => {
                // With one process the CAS(INIT→NEW) cannot legitimately
                // fail: nothing else writes the register.
                return fail("answer false for an uncontended CAS".into());
            }
            None => {
                if register != INIT {
                    return fail(format!(
                        "descriptor pending but register moved to {register}"
                    ));
                }
                // Resubmitting the task must complete it.
                let report = rt.run_tasks(vec![Task::new(
                    CAS_TASK_FUNC_ID,
                    0u64.to_le_bytes().to_vec(),
                )]);
                if report.completed != 1 {
                    return fail("resubmission did not complete".into());
                }
                if cas.read()? != NEW || table.result(0)? != Some(true) {
                    return fail("resubmitted task has wrong outcome".into());
                }
            }
        }
        Ok(())
    }
}

#[test]
fn every_crash_point_of_a_full_task_recovers_exactly_once() {
    for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
        let report = enumerate_crash_points(&FullTaskScenario { kind }, &[0.0])
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(
            report.total_events >= 8,
            "{kind}: a full task should persist through many events, saw {}",
            report.total_events
        );
    }
}
