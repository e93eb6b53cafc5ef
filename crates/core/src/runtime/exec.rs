//! Standard-mode execution: workers taking a run's tasks in order (§4.3,
//! steps 3–4), worker 0 on the calling thread.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::invoke::PContext;
use crate::runtime::queue::{Task, TaskList};
use crate::runtime::Runtime;

/// Which NVRAM region of a (possibly multi-region) runtime a crash was
/// first observed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashRegion {
    /// The runtime's own region (superblock, worker stacks, heap).
    Runtime,
    /// Data region `i` of the stripe a
    /// [`StripedRuntime`](crate::runtime::StripedRuntime) spans.
    Shard(usize),
}

impl std::fmt::Display for CrashRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashRegion::Runtime => write!(f, "runtime region"),
            CrashRegion::Shard(i) => write!(f, "shard region {i}"),
        }
    }
}

/// Attribution of a whole-system crash: the region whose failure
/// tripped it, plus that region's persistence-event counter at the
/// moment it died (the counter freezes at the crash, so it records
/// exactly how far the region got — the "op counter" campaign logs
/// attribute kills by).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSite {
    /// The region the crash originated in.
    pub region: CrashRegion,
    /// The region's persistence-event count at the crash.
    pub events: u64,
}

impl std::fmt::Display for CrashSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} after {} events", self.region, self.events)
    }
}

/// Outcome of one standard-mode run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Tasks that completed: their invocation frame was pushed and the
    /// function returned — what it promised is durable. The frame's
    /// pop may still be pending: a root `RET` is retired into the
    /// worker's next `CALL` ([`PersistentStack::retire`]), so a crash
    /// before that push replays the completed task's recover dual.
    ///
    /// [`PersistentStack::retire`]: crate::stack::PersistentStack::retire
    pub completed: usize,
    /// Tasks aborted by application errors (frame unwound, effects not
    /// rolled back).
    pub task_errors: usize,
    /// `true` if a crash interrupted the run: the region is now in the
    /// crashed state and must be reopened and recovered.
    pub crashed: bool,
    /// Where the crash originated, when one interrupted the run. For a
    /// single-region [`Runtime`] this is always the runtime's own
    /// region; a [`StripedRuntime`](crate::runtime::StripedRuntime)
    /// attributes the crash to whichever data region tripped it.
    pub crash_site: Option<CrashSite>,
}

impl Runtime {
    /// Runs `tasks` to completion (or until a crash) on up to the
    /// configured number of workers — one per task at most: every task
    /// is on the list before the first worker starts, so a worker beyond
    /// the task count would only take its stack to find nothing to do.
    /// Worker 0 is the calling thread and the others are spawned, so a
    /// one-task run starts no thread (unless [`Runtime::host_stack_size`]
    /// is set, which spawns every worker). Each worker takes its own
    /// persistent stack (the handle the runtime keeps across runs), then
    /// repeatedly takes the next task from the run's list and executes
    /// it as a root persistent call, whose `RET` the worker's next `CALL`
    /// makes durable ([`RunReport::completed`]).
    ///
    /// On a crash every worker unwinds at its next NVRAM access — the
    /// whole-system crash model of §2.2 — leaving all in-flight frames
    /// on the per-worker stacks for [`Runtime::recover`].
    pub fn run_tasks(&self, tasks: impl IntoIterator<Item = Task>) -> RunReport {
        self.run_sited(tasks, &|| self.runtime_site())
    }

    fn runtime_site(&self) -> CrashSite {
        CrashSite {
            region: CrashRegion::Runtime,
            events: self.pmem().events(),
        }
    }

    /// The engine behind [`Runtime::run_tasks`] and
    /// [`StripedRuntime::run_tasks`](crate::runtime::StripedRuntime::run_tasks),
    /// on one worker per task up to [`Runtime::workers`] (worker 0 the
    /// calling thread), with a pluggable crash locator. The first worker
    /// to observe a crash invokes `locate` exactly once — a striped
    /// runtime uses the hook
    /// to attribute the crash to the region that tripped it *and* to
    /// propagate the failure to every other region, so all workers
    /// unwind at their next NVRAM access (the whole-system crash model
    /// of §2.2).
    pub(crate) fn run_sited(
        &self,
        tasks: impl IntoIterator<Item = Task>,
        locate: &(dyn Fn() -> CrashSite + Sync),
    ) -> RunReport {
        let tasks = TaskList::new(tasks);
        let width = tasks.len().min(self.workers());
        let completed = AtomicUsize::new(0);
        let task_errors = AtomicUsize::new(0);
        let crashed = AtomicBool::new(false);
        let crash_site: Mutex<Option<CrashSite>> = Mutex::new(None);
        let note_crash = |crashed: &AtomicBool| {
            if !crashed.swap(true, Ordering::SeqCst) {
                *crash_site.lock() = Some(locate());
            }
        };
        let user_root = match self.user_root() {
            Ok(r) => r,
            Err(e) => {
                if e.is_crash() {
                    note_crash(&crashed);
                }
                return RunReport {
                    completed: 0,
                    task_errors: 0,
                    crashed: true,
                    crash_site: crash_site.into_inner(),
                };
            }
        };

        self.fan_out(width, "pstack-worker", |pid| {
            let run = self.with_worker_stack(pid, |stack| {
                while let Some(task) = tasks.next() {
                    let mut ctx = PContext::new(
                        self.pmem().clone(),
                        self.heap().clone(),
                        self.registry(),
                        stack,
                        pid,
                        user_root,
                    );
                    match ctx.call_task(task.func_id, &task.args) {
                        Ok(_) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        // The worker dies here, like a killed
                        // process: frames stay for recovery.
                        Err(e) if e.is_crash() => return Err(e),
                        Err(_) => {
                            task_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(())
            });
            if run.is_err_and(|e| e.is_crash()) {
                note_crash(&crashed);
            }
        });

        RunReport {
            completed: completed.load(Ordering::Relaxed),
            task_errors: task_errors.load(Ordering::Relaxed),
            crashed: crashed.load(Ordering::SeqCst),
            crash_site: crash_site.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FunctionRegistry;
    use crate::runtime::RuntimeConfig;
    use crate::PError;
    use pstack_nvram::{FailPlan, PMemBuilder};
    use std::panic::AssertUnwindSafe;
    use std::sync::{Arc, Condvar};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Function 1: atomically (write+flush) adds its argument into the
    /// u64 accumulator cell at `user_root + 8 * pid_slot`, guarded by a
    /// per-task done-flag so recovery is idempotent. For these tests we
    /// keep it simpler: each task writes to its own slot.
    fn slot_registry() -> FunctionRegistry {
        let mut reg = FunctionRegistry::new();
        let body = |c: &mut PContext<'_>, args: &[u8]| {
            let slot = u64::from_le_bytes(args[..8].try_into().unwrap());
            let val = u64::from_le_bytes(args[8..16].try_into().unwrap());
            let off = c.user_root() + slot * 8;
            c.pmem.write_u64(off, val)?;
            c.pmem.flush(off, 8)?;
            Ok(None)
        };
        reg.register_pair(1, body, body).unwrap();
        reg
    }

    #[test]
    fn tasks_run_to_completion_across_workers() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = slot_registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(4), &reg).unwrap();
        let tasks: Vec<Task> = (0..64u64)
            .map(|i| {
                let mut args = i.to_le_bytes().to_vec();
                args.extend_from_slice(&(i + 1000).to_le_bytes());
                Task::new(1, args)
            })
            .collect();
        let report = rt.run_tasks(tasks);
        assert_eq!(report.completed, 64);
        assert_eq!(report.task_errors, 0);
        assert!(!report.crashed);
        assert_eq!(report.crash_site, None);
        let root = rt.user_root().unwrap();
        for i in 0..64u64 {
            assert_eq!(pmem.read_u64(root + i * 8).unwrap(), i + 1000);
        }
        // All stacks are balanced afterwards.
        for pid in 0..4 {
            assert_eq!(rt.open_stack(pid).unwrap().depth(), 0);
        }
    }

    #[test]
    fn a_one_task_run_is_executed_by_pid_0_every_time() {
        // Every task is on the list at the start, so a second worker
        // could only open its stack and find nothing: none is started, and the one task
        // never races to another worker.
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let mut reg = FunctionRegistry::new();
        let note_pid = |c: &mut PContext<'_>, _: &[u8]| {
            let off = c.user_root();
            c.pmem.write_u64(off, c.pid as u64 + 1)?;
            c.pmem.flush(off, 8)?;
            Ok(None)
        };
        reg.register_pair(1, note_pid, note_pid).unwrap();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(4), &reg).unwrap();
        let cell = rt.heap().alloc_zeroed(64).unwrap();
        rt.set_user_root(cell).unwrap();
        for run in 0..64 {
            pmem.write_u64(cell, 0).unwrap();
            let report = rt.run_tasks(vec![Task::new(1, vec![])]);
            assert_eq!((report.completed, report.task_errors), (1, 0));
            assert_eq!(pmem.read_u64(cell).unwrap(), 1, "run {run}: not pid 0");
        }
    }

    /// Where two tasks meet: both must arrive within ten seconds of the
    /// meeting's setup, or each fails the test rather than hang it.
    struct Meet {
        arrived: std::sync::Mutex<usize>,
        both: Condvar,
        deadline: Instant,
    }

    impl Meet {
        fn new() -> Option<Arc<Meet>> {
            Some(Arc::new(Meet {
                arrived: std::sync::Mutex::new(0),
                both: Condvar::new(),
                deadline: Instant::now() + Duration::from_secs(10),
            }))
        }

        fn wait(&self) {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.both.notify_all();
            let left = self.deadline.saturating_duration_since(Instant::now());
            let (arrived, wait) = self
                .both
                .wait_timeout_while(arrived, left, |n| *n < 2)
                .unwrap();
            drop(arrived);
            let met = !left.is_zero() && !wait.timed_out();
            assert!(met, "the other worker never took its task");
        }
    }

    /// Function 1 waits at `meet` (when given), then records the thread
    /// it ran on; a task run on `panic_on`'s thread panics instead.
    fn thread_registry(
        seen: &Arc<Mutex<Vec<ThreadId>>>,
        meet: Option<Arc<Meet>>,
        panic_on: Option<ThreadId>,
    ) -> FunctionRegistry {
        let seen = Arc::clone(seen);
        let body = move |_c: &mut PContext<'_>, _: &[u8]| {
            if let Some(meet) = &meet {
                meet.wait();
            }
            let me = std::thread::current().id();
            assert_ne!(Some(me), panic_on, "a task panics on the caller");
            seen.lock().push(me);
            Ok(None)
        };
        let mut reg = FunctionRegistry::new();
        reg.register_pair(1, body.clone(), body).unwrap();
        reg
    }

    fn runtime(workers: usize, reg: &FunctionRegistry) -> Runtime {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        Runtime::format(pmem, RuntimeConfig::new(workers), reg).unwrap()
    }

    #[test]
    fn a_one_task_run_runs_on_the_calling_thread() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let rt = runtime(4, &thread_registry(&seen, None, None));
        for _ in 0..8 {
            assert_eq!(rt.run_tasks(vec![Task::new(1, vec![])]).completed, 1);
        }
        let caller = std::thread::current().id();
        assert_eq!(*seen.lock(), [caller; 8]);
    }

    #[test]
    fn a_two_task_run_on_two_workers_runs_exactly_one_task_on_the_caller() {
        // Both tasks meet, so each worker holds one.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let meet = Meet::new();
        let rt = runtime(2, &thread_registry(&seen, meet, None));
        let report = rt.run_tasks(vec![Task::new(1, vec![]), Task::new(1, vec![])]);
        assert_eq!(report.completed, 2);
        let caller = std::thread::current().id();
        let seen = seen.lock();
        assert_eq!(seen.iter().filter(|&&t| t == caller).count(), 1, "{seen:?}");
    }

    #[test]
    fn a_sized_host_stack_spawns_worker_0_too() {
        let names = Arc::new(Mutex::new(Vec::new()));
        let mut reg = FunctionRegistry::new();
        let noted = Arc::clone(&names);
        let note_name = move |_c: &mut PContext<'_>, _: &[u8]| {
            let name = std::thread::current().name().map(str::to_owned);
            noted.lock().push(name);
            Ok(None)
        };
        reg.register_pair(1, note_name.clone(), note_name).unwrap();
        let rt = runtime(4, &reg).host_stack_size(4 << 20);
        assert_eq!(rt.run_tasks(vec![Task::new(1, vec![])]).completed, 1);
        assert_eq!(*names.lock(), [Some("pstack-worker-0".to_owned())]);
    }

    #[test]
    fn a_task_panicking_on_the_caller_propagates_after_the_other_worker_finishes() {
        // The caller's task panics once both tasks have met; the other
        // worker's task is recorded only after that, and still is.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let meet = Meet::new();
        let caller = std::thread::current().id();
        let rt = runtime(2, &thread_registry(&seen, meet, Some(caller)));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.run_tasks(vec![Task::new(1, vec![]), Task::new(1, vec![])])
        }));
        assert!(run.is_err(), "the caller's panic propagates");
        let seen = seen.lock();
        assert_eq!(seen.len(), 1, "the other worker finished its task");
        assert_ne!(seen[0], caller);
    }

    #[test]
    fn application_errors_are_counted_not_fatal() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            1,
            |_c, args| {
                if args[0] == 1 {
                    Err(PError::Task("odd one out".into()))
                } else {
                    Ok(None)
                }
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        let rt = Runtime::format(pmem, RuntimeConfig::new(2), &reg).unwrap();
        let tasks = vec![
            Task::new(1, vec![0]),
            Task::new(1, vec![1]),
            Task::new(1, vec![0]),
            Task::new(1, vec![1]),
        ];
        let report = rt.run_tasks(tasks);
        assert_eq!(report.completed, 2);
        assert_eq!(report.task_errors, 2);
        assert!(!report.crashed);
    }

    #[test]
    fn crash_stops_all_workers_and_is_reported() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = slot_registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(4), &reg).unwrap();
        // Enough persistence events to get through part of the work.
        pmem.arm_failpoint(FailPlan::after_events(40));
        let tasks: Vec<Task> = (0..200u64)
            .map(|i| {
                let mut args = i.to_le_bytes().to_vec();
                args.extend_from_slice(&7u64.to_le_bytes());
                Task::new(1, args)
            })
            .collect();
        let report = rt.run_tasks(tasks);
        assert!(report.crashed);
        assert!(report.completed < 200);
        assert!(pmem.is_crashed());
        // The crash is attributed to the runtime's own region, at the
        // exact (frozen) event counter the fail-point fired on.
        let site = report.crash_site.expect("crash must carry a site");
        assert_eq!(site.region, CrashRegion::Runtime);
        assert_eq!(site.events, pmem.events());
        assert!(site.events > 0);
    }

    #[test]
    fn unknown_function_counts_as_task_error() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = slot_registry();
        let rt = Runtime::format(pmem, RuntimeConfig::new(1), &reg).unwrap();
        let report = rt.run_tasks(vec![Task::new(999, vec![])]);
        assert_eq!(report.task_errors, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn user_root_is_wired_into_contexts() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = slot_registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &reg).unwrap();
        let cell = rt.heap().alloc_zeroed(64).unwrap();
        rt.set_user_root(cell).unwrap();
        let mut args = 0u64.to_le_bytes().to_vec();
        args.extend_from_slice(&4242u64.to_le_bytes());
        let report = rt.run_tasks(vec![Task::new(1, args)]);
        assert_eq!(report.completed, 1);
        assert_eq!(pmem.read_u64(cell).unwrap(), 4242);
    }
}
