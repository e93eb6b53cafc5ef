//! The system architecture of §4.3: one main thread (standard mode or
//! recovery mode), N worker threads with per-thread persistent stacks,
//! the task queue — the list of tasks a run hands its workers, taken in
//! order under one lock — and parallel recovery.
//!
//! # Persistent layout
//!
//! ```text
//! offset 0      superblock (64 bytes): magic, version, workers,
//!               stack kind/capacity, stacks base, heap base/len,
//!               user root
//! offset 64     user scratch area (1 KiB) — default user root
//! offset 1088   per-worker stack areas (fixed regions, or 64-byte
//!               headers for the unbounded variants)
//! then          the persistent heap, to the end of the region
//! ```
//!
//! `Runtime::format` is the standard-mode boot of a fresh system;
//! `Runtime::open` is the boot after a crash, and `Runtime::recover`
//! is the recovery pass that must complete before tasks run again.

mod exec;
mod queue;
mod recovery;
mod striped;

pub use exec::{CrashRegion, CrashSite, RunReport};
pub use queue::Task;
pub use recovery::{RecoveryMode, RecoveryReport};
pub use striped::StripedRuntime;

use std::sync::Arc;

use parking_lot::Mutex;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

use crate::registry::FunctionRegistry;
use crate::stack::{PersistentStack, StackKind};
use crate::PError;

const SB_MAGIC: u64 = 0x5053_5441_434B_5254; // "PSTACKRT"
const SB_VERSION: u32 = 1;

const OFF_MAGIC: u64 = 0;
const OFF_VERSION: u64 = 8;
const OFF_WORKERS: u64 = 12;
const OFF_KIND: u64 = 16;
const OFF_STACK_CAP: u64 = 24;
const OFF_STACKS_BASE: u64 = 32;
const OFF_HEAP_BASE: u64 = 40;
const OFF_HEAP_LEN: u64 = 48;
const OFF_USER_ROOT: u64 = 56;

const SUPERBLOCK_LEN: u64 = 64;
const USER_SCRATCH_LEN: u64 = 1024;

/// Default per-worker stack capacity (fixed variant) or initial/default
/// block size (unbounded variants).
pub const DEFAULT_STACK_CAPACITY: u64 = 16 * 1024;

/// Configuration for [`Runtime::format`].
///
/// # Example
///
/// ```
/// use pstack_core::{RuntimeConfig, StackKind};
///
/// let cfg = RuntimeConfig::new(4)
///     .stack_kind(StackKind::List)
///     .stack_capacity(4096);
/// assert_eq!(cfg.workers, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads (and persistent stacks).
    pub workers: usize,
    /// Stack layout for every worker.
    pub kind: StackKind,
    /// Capacity of each fixed stack, or initial capacity / default
    /// block size for the unbounded variants.
    pub capacity: u64,
}

impl RuntimeConfig {
    /// Starts a configuration with `workers` workers, fixed stacks of
    /// [`DEFAULT_STACK_CAPACITY`] and the rest of the region as heap.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        RuntimeConfig {
            workers,
            kind: StackKind::Fixed,
            capacity: DEFAULT_STACK_CAPACITY,
        }
    }

    /// Selects the stack layout.
    #[must_use]
    pub fn stack_kind(mut self, kind: StackKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the per-worker stack capacity (see [`RuntimeConfig::capacity`]).
    #[must_use]
    pub fn stack_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }
}

/// The persistent-stack runtime: formats or opens the NVRAM layout and
/// runs tasks (standard mode) or recovery (recovery mode).
///
/// See the `pstack` facade crate documentation for a full example.
#[derive(Debug, Clone)]
pub struct Runtime {
    pmem: PMem,
    heap: PHeap,
    registry: FunctionRegistry,
    workers: usize,
    kind: StackKind,
    capacity: u64,
    stacks_base: u64,
    stack_area: u64,
    host_stack: Option<usize>,
    stacks: Arc<WorkerStacks>,
}

/// Each worker's stack handle, opened on first use and kept across
/// runs and recovery passes until a crash drops it: the handle that
/// retired a root pop ([`PersistentStack::retire`]) is the one whose
/// next push makes it durable, and a kept handle skips re-walking the
/// frames on every run. Shared by a runtime's clones.
struct WorkerStacks(Vec<Mutex<Option<Box<dyn PersistentStack>>>>);

impl WorkerStacks {
    fn new(workers: usize) -> Arc<Self> {
        Arc::new(WorkerStacks(
            (0..workers).map(|_| Mutex::new(None)).collect(),
        ))
    }
}

impl std::fmt::Debug for WorkerStacks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerStacks")
            .field("workers", &self.0.len())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Formats a fresh system over `pmem`: writes the superblock,
    /// formats the heap and every worker stack. This is the standard-
    /// mode initialization of §4.3 (steps 1–2).
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if the region is too small for the
    /// requested configuration, or propagated NVRAM/heap errors.
    pub fn format(
        pmem: PMem,
        cfg: RuntimeConfig,
        registry: &FunctionRegistry,
    ) -> Result<Self, PError> {
        if cfg.workers == 0 {
            return Err(PError::InvalidConfig(
                "at least one worker is required".into(),
            ));
        }
        if cfg.capacity == 0 {
            return Err(PError::InvalidConfig(
                "stack capacity must be positive".into(),
            ));
        }
        // Line-aligned: 17 lines, then whole-line stack areas.
        let stacks_base = SUPERBLOCK_LEN + USER_SCRATCH_LEN;
        let stack_area = cfg.kind.area(cfg.capacity).ok_or_else(|| {
            PError::InvalidConfig(format!("stack capacity {} overflows", cfg.capacity))
        })?;
        let heap_base = stacks_base + cfg.workers as u64 * stack_area;
        let heap_len = (pmem.len() as u64).saturating_sub(heap_base);
        if heap_len < 256 {
            return Err(PError::InvalidConfig(format!(
                "region leaves a heap of {heap_len} bytes after layout"
            )));
        }

        pmem.write_u64(POffset::new(OFF_MAGIC), SB_MAGIC)?;
        pmem.write_u32(POffset::new(OFF_VERSION), SB_VERSION)?;
        pmem.write_u32(POffset::new(OFF_WORKERS), cfg.workers as u32)?;
        pmem.write_u8(POffset::new(OFF_KIND), cfg.kind.as_u8())?;
        pmem.write_u64(POffset::new(OFF_STACK_CAP), cfg.capacity)?;
        pmem.write_u64(POffset::new(OFF_STACKS_BASE), stacks_base)?;
        pmem.write_u64(POffset::new(OFF_HEAP_BASE), heap_base)?;
        pmem.write_u64(POffset::new(OFF_HEAP_LEN), heap_len)?;
        pmem.write_u64(POffset::new(OFF_USER_ROOT), SUPERBLOCK_LEN)?;
        pmem.flush(POffset::new(0), SUPERBLOCK_LEN as usize)?;

        let heap = PHeap::format(pmem.clone(), POffset::new(heap_base), heap_len)?;
        let rt = Runtime {
            pmem,
            heap,
            registry: registry.clone(),
            workers: cfg.workers,
            kind: cfg.kind,
            capacity: cfg.capacity,
            stacks_base,
            stack_area,
            host_stack: None,
            stacks: WorkerStacks::new(cfg.workers),
        };
        for pid in 0..rt.workers {
            rt.kind
                .format(&rt.pmem, &rt.heap, rt.stack_base(pid), rt.capacity)?;
        }
        Ok(rt)
    }

    /// Opens a previously formatted system (recovery-mode boot,
    /// steps 1–2 of §4.3's crash path). Run [`Runtime::recover`] before
    /// submitting new tasks.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] for a bad superblock — one whose stacks
    /// and heap do not lie in order inside the region among them — or
    /// propagated heap/NVRAM errors.
    pub fn open(pmem: PMem, registry: &FunctionRegistry) -> Result<Self, PError> {
        let magic = pmem.read_u64(POffset::new(OFF_MAGIC))?;
        if magic != SB_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad superblock magic {magic:#x}; was the region formatted?"
            )));
        }
        let version = pmem.read_u32(POffset::new(OFF_VERSION))?;
        if version != SB_VERSION {
            return Err(PError::CorruptStack(format!(
                "superblock version {version} is not supported (expected {SB_VERSION})"
            )));
        }
        let workers = pmem.read_u32(POffset::new(OFF_WORKERS))? as usize;
        let kind = StackKind::from_u8(pmem.read_u8(POffset::new(OFF_KIND))?)?;
        let capacity = pmem.read_u64(POffset::new(OFF_STACK_CAP))?;
        let stacks_base = pmem.read_u64(POffset::new(OFF_STACKS_BASE))?;
        let heap_base = pmem.read_u64(POffset::new(OFF_HEAP_BASE))?;
        let stack_area = kind.area(capacity).unwrap_or(u64::MAX);
        let stacks_end = stack_area
            .checked_mul(workers as u64)
            .and_then(|len| len.checked_add(stacks_base));
        if workers == 0
            || !stacks_end.is_some_and(|end| end <= heap_base)
            || heap_base > pmem.len() as u64
        {
            return Err(PError::CorruptStack(format!(
                "superblock lays {workers} {kind} stacks of {capacity} bytes from {stacks_base} \
                 below a heap at {heap_base}, in a region of {} bytes",
                pmem.len()
            )));
        }
        let heap = PHeap::open(pmem.clone(), POffset::new(heap_base))?;
        Ok(Runtime {
            pmem,
            heap,
            registry: registry.clone(),
            workers,
            kind,
            capacity,
            stacks_base,
            stack_area,
            host_stack: None,
            stacks: WorkerStacks::new(workers),
        })
    }

    fn stack_base(&self, pid: usize) -> POffset {
        POffset::new(self.stacks_base + pid as u64 * self.stack_area)
    }

    fn check_pid(&self, pid: usize) -> Result<(), PError> {
        if pid >= self.workers {
            return Err(PError::InvalidConfig(format!(
                "worker {pid} out of range ({} workers)",
                self.workers
            )));
        }
        Ok(())
    }

    /// Opens worker `pid`'s persistent stack, rebuilding its volatile
    /// index from NVRAM — a handle of the caller's own, for inspection
    /// or for a stack no task runs on: between runs, the worker's kept
    /// handle may have a retired root pop pending, which only it makes
    /// durable before it pushes.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for an out-of-range `pid`, or
    /// corruption/NVRAM errors.
    pub fn open_stack(&self, pid: usize) -> Result<Box<dyn PersistentStack>, PError> {
        self.check_pid(pid)?;
        self.kind
            .open(&self.pmem, &self.heap, self.stack_base(pid), self.capacity)
    }

    /// Runs `body` on worker `pid`'s kept stack handle, opening it on
    /// first use. A crash drops the handle — the region is dead, and
    /// the next boot opens the stack afresh; the handle's lock is held
    /// throughout, so one stack never has two live handles in a runtime.
    pub(crate) fn with_worker_stack<R>(
        &self,
        pid: usize,
        body: impl FnOnce(&mut dyn PersistentStack) -> Result<R, PError>,
    ) -> Result<R, PError> {
        self.check_pid(pid)?;
        let mut kept = self.stacks.0[pid].lock();
        let mut stack = match kept.take() {
            Some(stack) => stack,
            None => self.open_stack(pid)?,
        };
        let out = body(stack.as_mut());
        if !out.as_ref().is_err_and(PError::is_crash) {
            *kept = Some(stack);
        }
        out
    }

    /// The NVRAM region this runtime lives in.
    #[must_use]
    pub fn pmem(&self) -> &PMem {
        &self.pmem
    }

    /// The persistent heap.
    #[must_use]
    pub fn heap(&self) -> &PHeap {
        &self.heap
    }

    /// The function registry this runtime resolves frames against.
    #[must_use]
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Number of workers (and stacks).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The stack layout in use.
    #[must_use]
    pub fn stack_kind(&self) -> StackKind {
        self.kind
    }

    /// Sets the *host* (volatile) stack size of every thread that runs
    /// a share of a fan-out: the workers of a run, the recovery
    /// threads and the shard preludes of
    /// [`StripedRuntime::recover_with`]. Persistent recursion is
    /// mirrored by host recursion — one Rust frame per persistent
    /// frame — so deep transactional loops (Appendix A) need more than
    /// the platform's default thread stack even though the
    /// *persistent* stack is unbounded. The caller's own stack size is
    /// unknown, so with this set share 0 is spawned too and a one-task
    /// run starts one thread. Volatile configuration: set it again
    /// after every open.
    #[must_use]
    pub fn host_stack_size(mut self, bytes: usize) -> Self {
        self.host_stack = Some(bytes);
        self
    }

    /// Runs `share(i)` for every `i` in `0..shares` and returns the
    /// results in share order: shares `1..` on scoped threads named
    /// `{name}-{i}`, share 0 on the calling thread — or every share
    /// spawned, with the host stack size, when one is set. A panicking
    /// share propagates once every other share has finished.
    fn fan_out<T: Send>(
        &self,
        shares: usize,
        name: &str,
        share: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let share = &share;
        let on_caller = usize::from(self.host_stack.is_none() && shares > 0);
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (on_caller..shares)
                .map(|i| {
                    let thread = std::thread::Builder::new().name(format!("{name}-{i}"));
                    match self.host_stack {
                        Some(bytes) => thread.stack_size(bytes),
                        None => thread,
                    }
                    .spawn_scoped(scope, move || share(i))
                    .expect("runtime thread spawns")
                })
                .collect();
            let mut out: Vec<T> = (0..on_caller).map(share).collect();
            out.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
            );
            out
        })
    }

    /// Reads the persistent application root offset.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn user_root(&self) -> Result<POffset, PError> {
        Ok(POffset::new(
            self.pmem.read_u64(POffset::new(OFF_USER_ROOT))?,
        ))
    }

    /// Persists a new application root offset. Applications point this
    /// at the heap cell anchoring their persistent data (offsets, not
    /// pointers — §4.1).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn set_user_root(&self, root: POffset) -> Result<(), PError> {
        self.pmem
            .write_u64(POffset::new(OFF_USER_ROOT), root.get())?;
        self.pmem.flush(POffset::new(OFF_USER_ROOT), 8)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::PMemBuilder;

    fn registry() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        r.register_pair(1, |_c, _| Ok(None), |_c, _| Ok(None))
            .unwrap();
        r
    }

    #[test]
    fn format_then_open_round_trips_configuration() {
        for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
            let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
            let reg = registry();
            let cfg = RuntimeConfig::new(3).stack_kind(kind).stack_capacity(2048);
            let rt = Runtime::format(pmem.clone(), cfg, &reg).unwrap();
            assert_eq!(rt.workers(), 3);
            assert_eq!(rt.stack_kind(), kind);
            // Reopen as a recovery boot would.
            pmem.crash_now(0, 1.0);
            let pmem2 = pmem.reopen().unwrap();
            let rt2 = Runtime::open(pmem2, &reg).unwrap();
            assert_eq!(rt2.workers(), 3);
            assert_eq!(rt2.stack_kind(), kind);
            for pid in 0..3 {
                let s = rt2.open_stack(pid).unwrap();
                assert_eq!(s.depth(), 0);
                s.check_consistency().unwrap();
            }
        }
    }

    #[test]
    fn open_rejects_unformatted_region() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        assert!(matches!(
            Runtime::open(pmem, &registry()),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn open_refuses_a_superblock_that_overruns_the_region() {
        let pmem = PMemBuilder::new().len(64 * 1024).build_in_memory();
        let cfg = RuntimeConfig::new(1).stack_capacity(1024);
        Runtime::format(pmem.clone(), cfg, &registry()).unwrap();
        for workers in [0, 1000] {
            pmem.write_u32(POffset::new(OFF_WORKERS), workers).unwrap();
            assert!(matches!(
                Runtime::open(pmem.clone(), &registry()),
                Err(PError::CorruptStack(_))
            ));
        }
    }

    #[test]
    fn format_rejects_zero_workers() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        assert!(matches!(
            Runtime::format(pmem, RuntimeConfig::new(0), &registry()),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn format_rejects_oversized_layout() {
        let pmem = PMemBuilder::new().len(8 * 1024).build_in_memory();
        let cfg = RuntimeConfig::new(4).stack_capacity(64 * 1024);
        assert!(matches!(
            Runtime::format(pmem, cfg, &registry()),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn user_root_defaults_to_scratch_and_is_settable() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &reg).unwrap();
        assert_eq!(rt.user_root().unwrap(), POffset::new(SUPERBLOCK_LEN));
        let cell = rt.heap().alloc(64).unwrap();
        rt.set_user_root(cell).unwrap();
        assert_eq!(rt.user_root().unwrap(), cell);
        // Survives a crash: it was flushed.
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let rt2 = Runtime::open(pmem2, &reg).unwrap();
        assert_eq!(rt2.user_root().unwrap(), cell);
    }

    #[test]
    fn out_of_range_worker_is_rejected() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let rt = Runtime::format(pmem, RuntimeConfig::new(2), &registry()).unwrap();
        assert!(rt.open_stack(2).is_err());
    }

    #[test]
    fn worker_stacks_are_disjoint() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let reg = registry();
        let rt = Runtime::format(pmem, RuntimeConfig::new(2), &reg).unwrap();
        let mut s0 = rt.open_stack(0).unwrap();
        let s1 = rt.open_stack(1).unwrap();
        s0.push(1, b"only-on-zero").unwrap();
        assert_eq!(s0.depth(), 1);
        assert_eq!(s1.depth(), 0);
    }
}
