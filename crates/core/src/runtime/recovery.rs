//! Recovery mode (§4.3): one recovery thread per worker stack — the
//! calling thread takes pid 0's — each walking its stack top-to-bottom
//! invoking recover duals.

use std::time::{Duration, Instant};

use crate::invoke::{recover_stack, PContext};
use crate::runtime::Runtime;
use crate::PError;

/// How recovery threads are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// One thread per worker stack, all at once, pid 0's the calling
    /// thread — the paper's design:
    /// "system recovery happens in parallel, which allows for a faster
    /// recovery than an ordinary single-threaded recovery."
    #[default]
    Parallel,
    /// One stack after another on the calling thread; the baseline the
    /// paper compares against (experiment E5).
    Serial,
}

/// Outcome of a recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames recovered per worker stack.
    pub frames_recovered: Vec<usize>,
    /// Wall-clock time of the whole pass.
    pub elapsed: Duration,
    /// Wall-clock time each worker's recovery took (its thread's view).
    pub per_worker: Vec<Duration>,
    /// Scheduling mode used.
    pub mode: RecoveryMode,
}

impl RecoveryReport {
    /// Total frames recovered across all stacks.
    #[must_use]
    pub fn total_frames(&self) -> usize {
        self.frames_recovered.iter().sum()
    }

    /// The critical path of an ideally parallel recovery: the longest
    /// single worker's recovery. On a machine with at least as many
    /// cores as workers, parallel recovery approaches this; on fewer
    /// cores it degrades toward the sum. Simulators report this figure
    /// because wall-clock parallel speedup is a property of the host,
    /// not of the algorithm.
    #[must_use]
    pub fn critical_path(&self) -> Duration {
        self.per_worker.iter().copied().max().unwrap_or_default()
    }

    /// Sum of all workers' recovery times — what a single-threaded
    /// recovery pays.
    #[must_use]
    pub fn total_work(&self) -> Duration {
        self.per_worker.iter().sum()
    }

    /// Modelled speedup of parallel over serial recovery:
    /// `total_work / critical_path`. Equals the worker count when the
    /// per-stack work is balanced (§4.3's motivation for parallel
    /// recovery).
    #[must_use]
    pub fn modeled_speedup(&self) -> f64 {
        let cp = self.critical_path().as_secs_f64();
        if cp == 0.0 {
            1.0
        } else {
            self.total_work().as_secs_f64() / cp
        }
    }
}

impl Runtime {
    /// Runs recovery over every worker stack (steps 2–3 of the §4.3
    /// recovery path). Idempotent: recovering an already-clean system
    /// recovers zero frames. Tolerates repeated failures — a crash
    /// mid-recovery leaves the un-recovered suffix of each stack in
    /// place, and the next recovery pass continues from there.
    ///
    /// # Errors
    ///
    /// The first error any recovery thread hit: a propagated crash, an
    /// unregistered function id, or an application error from a recover
    /// dual.
    pub fn recover(&self, mode: RecoveryMode) -> Result<RecoveryReport, PError> {
        let _phase = pstack_telemetry::phase("recovery.frame-replay");
        let start = Instant::now();
        let one = |pid| self.recover_worker(pid);
        let timed: Vec<(usize, Duration)> = match mode {
            RecoveryMode::Serial => (0..self.workers()).map(one).collect::<Result<_, _>>()?,
            RecoveryMode::Parallel => self
                .fan_out(self.workers(), "pstack-recovery", one)
                .into_iter()
                .collect::<Result<_, _>>()?,
        };
        Ok(RecoveryReport {
            frames_recovered: timed.iter().map(|(n, _)| *n).collect(),
            elapsed: start.elapsed(),
            per_worker: timed.into_iter().map(|(_, d)| d).collect(),
            mode,
        })
    }

    /// Recovers worker `pid`'s stack: the frames it completed, and how
    /// long that took.
    fn recover_worker(&self, pid: usize) -> Result<(usize, Duration), PError> {
        let start = Instant::now();
        let user_root = self.user_root()?;
        let frames = self.with_worker_stack(pid, |stack| {
            let mut ctx = PContext::new(
                self.pmem().clone(),
                self.heap().clone(),
                self.registry(),
                stack,
                pid,
                user_root,
            );
            Ok(recover_stack(&mut ctx)?.frames_recovered)
        })?;
        Ok((frames, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FunctionRegistry;
    use crate::runtime::{RuntimeConfig, Task};
    use pstack_nvram::{FailPlan, PMemBuilder};

    /// Function 1 writes `args[8..16]` into slot `args[0..8]` of the
    /// user area, with the write idempotent so call and recover share
    /// the body.
    fn registry() -> FunctionRegistry {
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

    fn task(slot: u64, val: u64) -> Task {
        let mut args = slot.to_le_bytes().to_vec();
        args.extend_from_slice(&val.to_le_bytes());
        Task::new(1, args)
    }

    #[test]
    fn recovery_of_clean_system_is_noop() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry();
        let rt = Runtime::format(pmem, RuntimeConfig::new(3), &reg).unwrap();
        for mode in [RecoveryMode::Parallel, RecoveryMode::Serial] {
            let report = rt.recover(mode).unwrap();
            assert_eq!(report.total_frames(), 0);
            assert_eq!(report.frames_recovered.len(), 3);
            assert_eq!(report.mode, mode);
        }
    }

    #[test]
    fn parallel_recovery_replays_pid_0s_stack_on_the_calling_thread() {
        // Function 2's recover dual records which pid it replayed and
        // on which thread.
        let seen = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let noted = std::sync::Arc::clone(&seen);
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            2,
            |_c, _| Ok(None),
            move |c, _| {
                noted.lock().push((c.pid, std::thread::current().id()));
                Ok(None)
            },
        )
        .unwrap();
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(3), &reg).unwrap();
        for pid in 0..3 {
            rt.open_stack(pid).unwrap().push(2, &[]).unwrap();
        }
        pmem.crash_now(0, 1.0);
        let rt = Runtime::open(pmem.reopen().unwrap(), &reg).unwrap();
        assert_eq!(
            rt.recover(RecoveryMode::Parallel).unwrap().total_frames(),
            3
        );
        let caller = std::thread::current().id();
        let mut seen = seen.lock().clone();
        seen.sort_by_key(|&(pid, _)| pid);
        let on_caller: Vec<bool> = seen.iter().map(|&(_, t)| t == caller).collect();
        assert_eq!(on_caller, [true, false, false], "{seen:?}");
    }

    #[test]
    fn crash_then_recover_completes_interrupted_tasks() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(4), &reg).unwrap();
        pmem.arm_failpoint(FailPlan::after_events(50));
        let report = rt.run_tasks((0..100).map(|i| task(i, i + 1)));
        assert!(report.crashed);

        let pmem2 = pmem.reopen().unwrap();
        let rt2 = Runtime::open(pmem2.clone(), &reg).unwrap();
        let rec = rt2.recover(RecoveryMode::Parallel).unwrap();
        // In-flight frames (at most one per worker) were recovered.
        assert!(rec.total_frames() <= 4);
        // Every stack is balanced again.
        for pid in 0..4 {
            assert_eq!(rt2.open_stack(pid).unwrap().depth(), 0);
        }
        // Recovery is idempotent.
        assert_eq!(rt2.recover(RecoveryMode::Serial).unwrap().total_frames(), 0);
    }

    #[test]
    fn repeated_failures_make_progress() {
        // E6: crash during recovery, recover again, never re-run a
        // popped frame, and eventually finish.
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(2), &reg).unwrap();
        pmem.arm_failpoint(FailPlan::after_events(30));
        let report = rt.run_tasks((0..50).map(|i| task(i, 1)));
        assert!(report.crashed);

        let mut pmem = pmem.reopen().unwrap();
        let mut total_recovered = 0usize;
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts < 100, "recovery must terminate");
            let rt = Runtime::open(pmem.clone(), &reg).unwrap();
            // Inject a crash into every other recovery attempt.
            if attempts % 2 == 1 {
                pmem.arm_failpoint(FailPlan::after_events(1));
            }
            match rt.recover(RecoveryMode::Parallel) {
                Ok(rep) => {
                    total_recovered += rep.total_frames();
                    break;
                }
                Err(e) => {
                    assert!(e.is_crash(), "only crashes expected, got {e}");
                    pmem = pmem.reopen().unwrap();
                }
            }
        }
        // At most one in-flight frame per worker existed; repeated
        // failures must not recover more than that in total.
        assert!(total_recovered <= 2, "recovered {total_recovered}");
        let rt = Runtime::open(pmem, &reg).unwrap();
        assert_eq!(rt.recover(RecoveryMode::Serial).unwrap().total_frames(), 0);
    }

    #[test]
    fn recovery_preserves_task_effects() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &reg).unwrap();
        // Run a single task and crash partway through it.
        pmem.arm_failpoint(FailPlan::after_events(6));
        let _ = rt.run_tasks(vec![task(3, 33)]);
        if !pmem.is_crashed() {
            pmem.crash_now(0, 0.0);
        }
        let pmem2 = pmem.reopen().unwrap();
        let rt2 = Runtime::open(pmem2.clone(), &reg).unwrap();
        rt2.recover(RecoveryMode::Parallel).unwrap();
        let root = rt2.user_root().unwrap();
        // Whether the crash hit before or after the write, recovery
        // re-ran the idempotent body, so the slot now holds 33 — unless
        // the task never started (frame never linearized), in which
        // case the slot is 0 and no frame was recovered. Both are
        // legal; what is illegal is a torn in-between.
        let v = pmem2.read_u64(root + 24u64).unwrap();
        assert!(v == 33 || v == 0, "torn value {v}");
    }

    #[test]
    fn a_completed_task_is_replayed_after_a_crash_before_the_next_push_and_never_after_it() {
        // Function 2 does nothing; its recover dual counts its runs in
        // slot `args[0]` of the user area.
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            2,
            |_c, _| Ok(None),
            |c, args| {
                let off = c.user_root() + u64::from(args[0]) * 8;
                let runs = c.pmem.read_u64(off)?;
                c.pmem.write_u64(off, runs + 1)?;
                c.pmem.flush(off, 8)?;
                Ok(None)
            },
        )
        .unwrap();
        let replays = |rt: &Runtime| -> Vec<u64> {
            let root = rt.user_root().unwrap();
            (0..3u64)
                .map(|t| rt.pmem().read_u64(root + t * 8).unwrap())
                .collect()
        };
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &reg).unwrap();

        // Task 0 completes; its pop is retired, and the power fails
        // before the worker pushes again: the frame is replayed, once.
        assert_eq!(rt.run_tasks(vec![Task::new(2, vec![0])]).completed, 1);
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let rt = Runtime::open(pmem.clone(), &reg).unwrap();
        assert_eq!(
            rt.recover(RecoveryMode::Parallel).unwrap().total_frames(),
            1
        );
        assert_eq!(rt.recover(RecoveryMode::Serial).unwrap().total_frames(), 0);
        assert_eq!(replays(&rt), [1, 0, 0]);

        // Task 2's push makes task 1's pop durable: the next power
        // failure replays task 2 alone.
        assert_eq!(rt.run_tasks(vec![Task::new(2, vec![1])]).completed, 1);
        assert_eq!(rt.run_tasks(vec![Task::new(2, vec![2])]).completed, 1);
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let rt = Runtime::open(pmem, &reg).unwrap();
        assert_eq!(
            rt.recover(RecoveryMode::Parallel).unwrap().total_frames(),
            1
        );
        assert_eq!(replays(&rt), [1, 0, 1]);
    }

    #[test]
    fn unknown_function_in_frame_fails_recovery() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &reg).unwrap();
        // Push a frame for an id that the (next boot's) registry lacks.
        let mut stack = rt.open_stack(0).unwrap();
        stack.push(777, &[]).unwrap();
        drop(stack);
        pmem.crash_now(0, 1.0);
        let pmem2 = pmem.reopen().unwrap();
        let rt2 = Runtime::open(pmem2, &reg).unwrap();
        assert!(matches!(
            rt2.recover(RecoveryMode::Parallel),
            Err(PError::UnknownFunction(777))
        ));
    }
}
