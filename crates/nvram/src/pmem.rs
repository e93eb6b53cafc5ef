//! The emulated NVRAM region.
//!
//! [`PMem`] models a byte-addressable persistent region fronted by a
//! volatile cache of fixed-size lines (§1–§3 of the paper):
//!
//! * [`PMem::write`] stores into volatile dirty lines only;
//! * [`PMem::flush`] makes the covering lines durable, **one line at a
//!   time** — each line persists atomically, but a crash can land
//!   between the lines of a multi-line flush;
//! * a crash ([`PMem::crash_now`] or an armed [`FailPlan`]) persists an
//!   arbitrary seeded subset of dirty lines (modelling evictions that
//!   happened to occur before the failure) and discards the rest, after
//!   which **every** access fails with [`MemError::Crashed`];
//! * [`PMem::reopen`] produces a fresh handle onto the surviving
//!   persistent image, as the recovery boot of the system would.
//!
//! Accesses are serialized internally with critical sections of a single
//! read/write/flush, so concurrent threads interleave at persistence-event
//! granularity — exactly the granularity at which a `kill` can cut a real
//! execution between flushes.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use parking_lot::FairMutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backend::{Backend, BackendKind, FileBackend, MemBackend};
use crate::failpoint::{FailPlan, FailState};
use crate::psan::{PsanCell, PsanViolation};
use crate::stats::MemStats;
use crate::{MemError, POffset};

/// Default cache-line size in bytes, matching x86.
pub const DEFAULT_CACHE_LINE: usize = 64;

/// Default region length: 1 MiB.
pub const DEFAULT_REGION_LEN: usize = 1 << 20;

/// Configures and creates [`PMem`] regions.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
///
/// let pmem = PMemBuilder::new()
///     .len(64 * 1024)
///     .line_size(64)
///     .eager_flush(false)
///     .build_in_memory();
/// assert_eq!(pmem.len(), 64 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct PMemBuilder {
    len: usize,
    line_size: usize,
    eager_flush: bool,
    jitter: Option<Jitter>,
    persist_delay: Option<std::time::Duration>,
    flush_latency: Option<std::time::Duration>,
    psan: bool,
}

/// Scheduling-noise configuration: after a mutating access, the calling
/// thread occasionally pauses until other threads have made progress,
/// modelling OS preemption and slow persistence hardware. See
/// [`PMemBuilder::access_jitter`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Jitter {
    prob: f64,
    pause_events: u64,
}

impl Default for PMemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PMemBuilder {
    /// Starts a builder with default length, 64-byte lines and buffered
    /// (non-eager) flushing.
    #[must_use]
    pub fn new() -> Self {
        PMemBuilder {
            len: DEFAULT_REGION_LEN,
            line_size: DEFAULT_CACHE_LINE,
            eager_flush: false,
            jitter: None,
            persist_delay: None,
            flush_latency: None,
            psan: false,
        }
    }

    /// Enables PSan, the persist-order sanitizer, on the region: every
    /// line gets a shadow state machine (`Clean → Dirty → Flushed →
    /// Durable`) and publish/commit/ghost-read ordering checks record
    /// attributable violations (see the [`psan`](crate::psan) module).
    /// The shadow survives crash/reopen cycles. Off by default; when
    /// off, every hook is a single pointer-is-null check.
    #[must_use]
    pub fn psan(mut self, enabled: bool) -> Self {
        self.psan = enabled;
        self
    }

    /// Adds a fixed latency to every persist **round-trip** (a flush
    /// or eager write that makes at least one line durable), paid once
    /// per round-trip inside the region's critical section — the
    /// command/fence cost of a real device, as opposed to
    /// [`PMemBuilder::persist_delay`]'s per-line bandwidth cost.
    ///
    /// This is the knob that makes the two scaling levers measurable
    /// in wall-clock even on a single core: striping a store over `N`
    /// regions lets `N` round-trips overlap (each region is its own
    /// device), and group commit divides the number of round-trips
    /// outright.
    #[must_use]
    pub fn flush_latency(mut self, latency: std::time::Duration) -> Self {
        self.flush_latency = if latency.is_zero() {
            None
        } else {
            Some(latency)
        };
        self
    }

    /// Adds a fixed latency to every line persist, emulating the slow
    /// persistence of the paper's HDD-backed deployment (or an SSD /
    /// pessimistic NVRAM write). The delay is paid inside the device's
    /// critical section, serializing persists exactly as a single
    /// mechanical device would.
    ///
    /// Real kills land *mid-operation* because persists are slow; with
    /// the default zero-latency emulation a whole workload can finish
    /// before any wall-clock kill fires. The real-`kill` harness uses
    /// this knob to restore the paper's timing regime.
    #[must_use]
    pub fn persist_delay(mut self, delay: std::time::Duration) -> Self {
        self.persist_delay = if delay.is_zero() { None } else { Some(delay) };
        self
    }

    /// Enables scheduling noise: after each mutating access, with
    /// probability `prob`, the calling thread pauses until `pause_events`
    /// further persistence events have happened (necessarily performed
    /// by *other* threads), bounded by a 5 ms deadline so a system
    /// where everyone pauses cannot deadlock.
    ///
    /// Real deployments (the paper emulates NVRAM with HDD-backed
    /// `mmap`) have slow persists and OS preemption, so a thread can sit
    /// arbitrarily long between two of its own accesses while others
    /// proceed — exactly the windows crash campaigns must exercise. In
    /// the simulator, threads otherwise interleave in near-lockstep and
    /// those windows stay unrealistically narrow. Pausing on *event*
    /// progress rather than wall-clock time keeps the interleaving
    /// pressure independent of machine load. Jittered regions are
    /// **not** deterministic; leave this off (the default) for
    /// reproducible tests.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    #[must_use]
    pub fn access_jitter(mut self, prob: f64, pause_events: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.jitter = if prob > 0.0 && pause_events > 0 {
            Some(Jitter { prob, pause_events })
        } else {
            None
        };
        self
    }

    /// Sets the region length in bytes.
    #[must_use]
    pub fn len(mut self, len: usize) -> Self {
        self.len = len;
        self
    }

    /// Sets the cache-line size in bytes (must be a power of two).
    ///
    /// Small lines (e.g. 8 bytes) are useful in tests: they make "frame
    /// does not fit in one line" scenarios (§3.4, *Flushing long frames*)
    /// easy to trigger.
    #[must_use]
    pub fn line_size(mut self, line_size: usize) -> Self {
        self.line_size = line_size;
        self
    }

    /// When `true`, every write is immediately made durable, emulating
    /// hardware *without* a volatile NVRAM cache. §5 of the paper uses
    /// this mode to run the recoverable-CAS algorithm, which was designed
    /// for cache-less NVRAM.
    #[must_use]
    pub fn eager_flush(mut self, eager: bool) -> Self {
        self.eager_flush = eager;
        self
    }

    /// Builds a region whose durable image lives only in process memory.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero length, or a line
    /// size that is zero or not a power of two).
    #[must_use]
    pub fn build_in_memory(self) -> PMem {
        self.validate().expect("invalid PMem configuration");
        let image = vec![0u8; self.len];
        self.assemble(image, Box::new(MemBackend))
    }

    /// Builds a region backed by a write-through file, creating and
    /// zero-extending the file if necessary. Reopening the same path
    /// later (even from another process) sees all persisted data.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] for invalid parameters and
    /// [`MemError::Io`] if the file cannot be opened or read.
    pub fn build_file(self, path: impl AsRef<Path>) -> Result<PMem, MemError> {
        self.validate()?;
        let mut backend = FileBackend::open(path.as_ref(), self.len)?;
        let mut image = vec![0u8; self.len];
        backend.load(&mut image)?;
        Ok(self.assemble(image, Box::new(backend)))
    }

    fn validate(&self) -> Result<(), MemError> {
        if self.len == 0 {
            return Err(MemError::InvalidConfig(
                "region length must be positive".into(),
            ));
        }
        if self.line_size == 0 || !self.line_size.is_power_of_two() {
            return Err(MemError::InvalidConfig(
                "line size must be a positive power of two".into(),
            ));
        }
        Ok(())
    }

    fn assemble(self, image: Vec<u8>, backend: Box<dyn Backend>) -> PMem {
        PMem {
            inner: Arc::new(Inner {
                len: self.len,
                line_size: self.line_size,
                eager_flush: self.eager_flush,
                jitter: self.jitter,
                persist_delay: self.persist_delay,
                flush_latency: self.flush_latency,
                psan: self.psan.then(|| Arc::new(PsanCell::new(self.line_size))),
                tlabel: AtomicU32::new(pstack_telemetry::intern("region")),
                crashed: AtomicBool::new(false),
                crash_stamp: AtomicU64::new(0),
                stats: MemStats::default(),
                state: FairMutex::new(State {
                    image,
                    dirty: HashMap::new(),
                    backend,
                    fail: FailState::default(),
                    flights: FlightState::default(),
                }),
                gate: MutatorGate::new(),
            }),
        }
    }
}

struct State {
    image: Vec<u8>,
    /// Volatile cache: line index → full line content.
    dirty: HashMap<usize, Vec<u8>>,
    backend: Box<dyn Backend>,
    fail: FailState,
    flights: FlightState,
}

/// One asynchronous flush command in flight: the line snapshots it
/// promised to make durable and the wall-clock deadline at which the
/// emulated device completes it (`None` with no configured
/// [`PMemBuilder::flush_latency`] — completes on the next touch).
struct Flight {
    serial: u64,
    deadline: Option<std::time::Instant>,
    /// Line index of each snapshot, in issue order; `None` once a
    /// fresher synchronous persist of the line superseded it.
    lines: Vec<Option<usize>>,
    /// The snapshots, one line each, back to back in `lines` order. One
    /// buffer per flight, not one per line: a completed flight then
    /// returns one block to the allocator instead of a run of
    /// line-sized chunks (ROADMAP, "`peak_rss_mb` and `calloc`").
    bytes: Vec<u8>,
}

/// The region's asynchronous flush queue (see [`PMem::flush_async`]).
/// There is no device thread: completions are applied lazily by the
/// application threads that await, fence or synchronously flush, once
/// a flight's deadline has passed — which keeps seeded campaign
/// executions deterministic.
#[derive(Default)]
struct FlightState {
    /// Serial of the most recently issued flight.
    issued: u64,
    /// Serial of the most recently applied (completed) flight.
    completed: u64,
    queue: VecDeque<Flight>,
    /// Line index → serial of the in-flight flight holding its current
    /// snapshot. Cleared when the line is re-dirtied (the snapshot is
    /// stale) or persisted synchronously (the fresher persist subsumes
    /// the promise).
    staged: HashMap<usize, u64>,
}

/// Claim ticket for an asynchronous flush issued with
/// [`PMem::flush_async`]. The round-trip is in flight on the region's
/// flush queue; [`PMem::await_ticket`] (or a [`PMem::fence`], or a
/// synchronous flush covering the same lines) blocks until the staged
/// content is durable. Cheap value type, bound to the issuing region
/// boot — awaiting it against another region or a reopened boot is an
/// error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushTicket {
    /// Identity of the issuing region boot.
    region: usize,
    /// Flush-queue serial this ticket waits for.
    serial: u64,
}

struct Inner {
    len: usize,
    line_size: usize,
    eager_flush: bool,
    jitter: Option<Jitter>,
    persist_delay: Option<std::time::Duration>,
    flush_latency: Option<std::time::Duration>,
    /// PSan shadow memory; shared (`Arc`) across reopen boots so ghosts
    /// and violations outlive crashes. `None` unless enabled.
    psan: Option<Arc<PsanCell>>,
    /// Interned telemetry label naming this region in recorded persist
    /// and crash events (0 = the generic "region" label).
    tlabel: AtomicU32,
    crashed: AtomicBool,
    /// Position of this region's death on the process-wide crash clock
    /// (0 = never crashed this boot). See [`PMem::crash_stamp`].
    crash_stamp: AtomicU64,
    stats: MemStats,
    state: FairMutex<State>,
    /// Region-scoped mutator/quiesce gate (see [`PMem::mutator_enter`]
    /// and [`PMem::quiesce`]); never taken by `PMem` itself.
    gate: MutatorGate,
}

/// Process-wide monotonic clock of crash observations: every region
/// death draws the next tick, so near-simultaneous multi-region
/// failures stay totally ordered by who observed its crash first.
static CRASH_CLOCK: AtomicU64 = AtomicU64::new(0);

/// The region's volatile mutator/quiesce gate: lock-free mutators
/// register while they run the reserve → persist → publish hot path;
/// exclusive sections (group commits, compaction) close the gate and
/// wait the registered epoch out. Shared by every handle on the region
/// (clones and independent opens); purely volatile, reset on reopen.
struct MutatorGate {
    state: StdMutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Lock-free mutators currently inside the hot path.
    active: u64,
    /// `true` while an exclusive section holds the gate closed.
    exclusive: bool,
    /// Bumped on every mutator registration — the per-region epoch
    /// counter exclusive sections wait out.
    epoch: u64,
}

impl MutatorGate {
    fn new() -> Self {
        MutatorGate {
            state: StdMutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().expect("mutator gate poisoned")
    }
}

/// RAII registration of one lock-free mutator (see
/// [`PMem::mutator_enter`]). Dropping it deregisters the mutator and
/// wakes any exclusive section waiting for the region to quiesce.
pub struct MutatorGuard<'a> {
    gate: &'a MutatorGate,
}

impl Drop for MutatorGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        st.active -= 1;
        if st.active == 0 {
            self.gate.cv.notify_all();
        }
    }
}

/// RAII exclusive section (see [`PMem::quiesce`]): while it lives, no
/// lock-free mutator is registered on the region and none can enter.
/// Dropping it reopens the gate.
pub struct QuiesceGuard<'a> {
    gate: &'a MutatorGate,
}

impl Drop for QuiesceGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        st.exclusive = false;
        drop(st);
        self.gate.cv.notify_all();
    }
}

/// Handle to an emulated NVRAM region. Cheap to clone; all clones refer
/// to the same region.
///
/// See the [crate-level documentation](crate) for the memory model and a
/// usage example.
#[derive(Clone)]
pub struct PMem {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for PMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PMem")
            .field("len", &self.inner.len)
            .field("line_size", &self.inner.line_size)
            .field("eager_flush", &self.inner.eager_flush)
            .field("crashed", &self.inner.crashed.load(Ordering::Relaxed))
            .finish()
    }
}

impl PMem {
    /// Region length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Returns `true` if the region has zero length (never happens for
    /// regions built through [`PMemBuilder`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Cache-line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> usize {
        self.inner.line_size
    }

    /// `true` if every write is immediately made durable (§5 mode).
    #[must_use]
    pub fn is_eager_flush(&self) -> bool {
        self.inner.eager_flush
    }

    /// Live statistics counters for this boot of the region.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.inner.stats
    }

    /// Registers the calling thread as a **lock-free mutator** on this
    /// region for the lifetime of the returned guard. `PMem` never
    /// registers itself; the gate exists so cooperating writers running
    /// a multi-access lock-free protocol (e.g. the KV store's
    /// reserve → persist → publish hot path) can be *machine-checked*
    /// against exclusive sections: while any mutator is registered,
    /// [`PMem::quiesce`] blocks, and while an exclusive section holds
    /// the gate, this call blocks. Any number of handles opened from
    /// the same region share the gate — clones and independent opens.
    /// Purely volatile: not part of the persistent image, reset on
    /// reopen. Re-registering from the same thread while it already
    /// holds a guard is fine; holding a guard across a call to
    /// [`PMem::quiesce`] on the same thread deadlocks.
    pub fn mutator_enter(&self) -> MutatorGuard<'_> {
        let gate = &self.inner.gate;
        let mut st = gate.lock();
        while st.exclusive {
            st = gate.cv.wait(st).expect("mutator gate poisoned");
        }
        st.active += 1;
        st.epoch += 1;
        MutatorGuard { gate }
    }

    /// Closes the region's mutator gate and waits the current epoch
    /// out: when this returns, **no** lock-free mutator is registered
    /// and none can register until the guard drops. Exclusive sections
    /// (group commits, compaction) serialize with each other through
    /// the same gate. This is the machine-checked replacement for the
    /// old caller-promised advisory-lock quiescence discipline.
    pub fn quiesce(&self) -> QuiesceGuard<'_> {
        let gate = &self.inner.gate;
        let mut st = gate.lock();
        while st.exclusive {
            st = gate.cv.wait(st).expect("mutator gate poisoned");
        }
        st.exclusive = true;
        while st.active > 0 {
            st = gate.cv.wait(st).expect("mutator gate poisoned");
        }
        QuiesceGuard { gate }
    }

    /// Number of lock-free mutators currently registered on the region.
    #[must_use]
    pub fn active_mutators(&self) -> u64 {
        self.inner.gate.lock().active
    }

    /// The region's mutator epoch: bumped on every
    /// [`PMem::mutator_enter`]. An unchanged epoch across an interval
    /// proves no mutator entered in between.
    #[must_use]
    pub fn mutator_epoch(&self) -> u64 {
        self.inner.gate.lock().epoch
    }

    /// `true` once a crash has been injected and until [`PMem::reopen`].
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// This region's position on the process-wide crash clock: every
    /// region death draws the next monotonic tick, so when several
    /// regions die in one window the *first observer* carries the
    /// smallest stamp. `None` until the region crashes; reset by
    /// [`PMem::reopen`].
    #[must_use]
    pub fn crash_stamp(&self) -> Option<u64> {
        match self.inner.crash_stamp.load(Ordering::SeqCst) {
            0 => None,
            stamp => Some(stamp),
        }
    }

    /// Which durable backend the region uses.
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        self.inner.state.lock().backend.kind()
    }

    /// Total persistence events (writes, per-line persists, CAS) since
    /// this handle's boot. Used by crash-point enumeration.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.inner.state.lock().fail.events
    }

    /// Arms a crash-injection plan. The crash fires during the operation
    /// that performs the `countdown + 1`-th next persistence event.
    pub fn arm_failpoint(&self, plan: FailPlan) {
        self.inner.state.lock().fail.arm(plan);
    }

    /// Removes any armed crash-injection plan.
    pub fn disarm_failpoint(&self) {
        self.inner.state.lock().fail.disarm();
    }

    /// Returns `true` if a crash-injection plan is armed.
    #[must_use]
    pub fn failpoint_armed(&self) -> bool {
        self.inner.state.lock().fail.armed()
    }

    fn check_alive(&self) -> Result<(), MemError> {
        if self.is_crashed() {
            Err(MemError::Crashed)
        } else {
            Ok(())
        }
    }

    fn check_bounds(&self, off: POffset, len: usize) -> Result<(), MemError> {
        if off.is_null() {
            return Err(MemError::OutOfBounds {
                offset: u64::MAX,
                len,
                region_len: self.inner.len,
            });
        }
        let end = off.get().checked_add(len as u64);
        match end {
            Some(end) if end <= self.inner.len as u64 => Ok(()),
            _ => Err(MemError::OutOfBounds {
                offset: off.get(),
                len,
                region_len: self.inner.len,
            }),
        }
    }

    /// Registers a persistence event; crashes in place when a plan fires.
    ///
    /// Callers check [`PMem::check_alive`] before they take the region
    /// lock, so one can arrive here after another thread's event fired
    /// the fail-point. The crash flag is only ever set under this lock:
    /// re-checked here, the event counter freezes with it and the late
    /// operation leaves the crashed region untouched.
    fn on_event(&self, st: &mut State) -> Result<(), MemError> {
        self.check_alive()?;
        if let Some(plan) = st.fail.on_event() {
            self.crash_locked(st, plan.survivor_seed, plan.survival_prob);
            return Err(MemError::Crashed);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `off`, seeing the volatile cache over
    /// the persistent image (a running program always sees its own
    /// writes, flushed or not).
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] after a crash; [`MemError::OutOfBounds`]
    /// for accesses past the region end.
    pub fn read(&self, off: POffset, buf: &mut [u8]) -> Result<(), MemError> {
        self.check_alive()?;
        self.check_bounds(off, buf.len())?;
        let st = self.inner.state.lock();
        self.compose_read(&st, off.as_usize(), buf);
        MemStats::bump(&self.inner.stats.reads);
        if let Some(psan) = &self.inner.psan {
            psan.note_read(off.get(), buf.len(), st.fail.events);
        }
        Ok(())
    }

    fn compose_read(&self, st: &State, start: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&st.image[start..start + buf.len()]);
        if st.dirty.is_empty() {
            return;
        }
        let line = self.inner.line_size;
        let first_line = start / line;
        let last_line = (start + buf.len().max(1) - 1) / line;
        for li in first_line..=last_line {
            if let Some(content) = st.dirty.get(&li) {
                let line_start = li * line;
                let copy_from = start.max(line_start);
                let copy_to = (start + buf.len()).min(line_start + line);
                if copy_from < copy_to {
                    buf[copy_from - start..copy_to - start]
                        .copy_from_slice(&content[copy_from - line_start..copy_to - line_start]);
                }
            }
        }
    }

    /// Writes `data` at `off` into the volatile cache. The data is *not*
    /// durable until the covering lines are flushed (unless the region
    /// was built with [`PMemBuilder::eager_flush`]).
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] after a crash (including one injected by an
    /// armed fail-point during this very call, in which case the write
    /// does **not** take effect); [`MemError::OutOfBounds`] past the end.
    pub fn write(&self, off: POffset, data: &[u8]) -> Result<(), MemError> {
        self.check_alive()?;
        self.check_bounds(off, data.len())?;
        let mut round_trip = None;
        {
            let mut st = self.inner.state.lock();
            self.on_event(&mut st)?;
            self.write_locked(&mut st, off.as_usize(), data);
            MemStats::bump(&self.inner.stats.writes);
            MemStats::add(&self.inner.stats.bytes_written, data.len() as u64);
            if let Some(psan) = &self.inner.psan {
                psan.note_write(off.get(), data.len(), st.fail.events);
            }
            if self.inner.eager_flush {
                let probe = pstack_telemetry::persist_probe();
                // Eager regions never hold staged flights (nothing stays
                // dirty), so the covering serial is always `None`.
                let (persisted, _) =
                    self.persist_range_locked(&mut st, off.as_usize(), data.len())?;
                round_trip = Some((probe, persisted));
            }
        }
        if let Some((probe, persisted)) = round_trip {
            self.settle_round_trip(probe, persisted);
        }
        self.maybe_jitter();
        Ok(())
    }

    /// With jitter configured, occasionally parks the calling thread
    /// until other threads have advanced the global event counter — the
    /// moral equivalent of the OS descheduling it right after a
    /// persistence operation. Never called with the region lock held.
    fn maybe_jitter(&self) {
        if let Some(j) = self.inner.jitter {
            let mut rng = rand::rng();
            if !rng.random_bool(j.prob) {
                return;
            }
            let target = self.events() + j.pause_events;
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(5);
            while self.events() < target
                && !self.is_crashed()
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
        }
    }

    fn write_locked(&self, st: &mut State, start: usize, data: &[u8]) {
        let line = self.inner.line_size;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = start + pos;
            let li = abs / line;
            let line_start = li * line;
            let within = abs - line_start;
            let n = (line - within).min(data.len() - pos);
            if !st.flights.staged.is_empty() {
                // Re-dirtying a line staged in an in-flight async flush:
                // the flight's snapshot is stale, so later flushes of
                // this line must persist anew instead of riding it.
                st.flights.staged.remove(&li);
            }
            let image = &st.image;
            let content = st
                .dirty
                .entry(li)
                .or_insert_with(|| image[line_start..line_start + line].to_vec());
            content[within..within + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    /// Flushes the cache lines covering `[off, off + len)` to durable
    /// storage, one line at a time. Each line persists atomically; a
    /// crash injected mid-call persists a prefix of the lines only —
    /// this is the partial-flush hazard of Fig. 5 in the paper.
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`], [`MemError::OutOfBounds`], or an I/O error
    /// from the write-through backend.
    pub fn flush(&self, off: POffset, len: usize) -> Result<(), MemError> {
        self.check_alive()?;
        self.check_bounds(off, len)?;
        // Telemetry round-trip timer: a no-op unless recording (and
        // compiled away entirely without the `telemetry` feature).
        let probe = pstack_telemetry::persist_probe();
        let (persisted, covering) = {
            let mut st = self.inner.state.lock();
            MemStats::bump(&self.inner.stats.flush_calls);
            self.persist_range_locked(&mut st, off.as_usize(), len)?
        };
        self.finish_flush(probe, persisted, covering)
    }

    /// The **durable-read** primitive (FliT's rule: a reader persists
    /// a line only if a writer has left it un-persisted). Decided under
    /// the region lock: if no line covering `[off, off + len)` is dirty
    /// — none written since its last persist, none staged in an
    /// un-awaited [`PMem::flush_async`] flight — this returns
    /// `Ok(false)` having done **nothing**: no persistence event, no
    /// round-trip, no counter (not even `redundant_persists`).
    /// Otherwise it is exactly [`PMem::flush`] and returns `Ok(true)`.
    ///
    /// A reader that returns a value read from these lines calls this
    /// first, so the value it hands out survives a crash; on a
    /// quiescent region that costs nothing.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::flush`].
    pub fn persist_if_dirty(&self, off: POffset, len: usize) -> Result<bool, MemError> {
        self.check_alive()?;
        self.check_bounds(off, len)?;
        if len == 0 {
            return Ok(false);
        }
        let probe = pstack_telemetry::persist_probe();
        let (persisted, covering) = {
            let mut st = self.inner.state.lock();
            let line = self.inner.line_size;
            let first = off.as_usize() / line;
            let last = (off.as_usize() + len - 1) / line;
            // Staged lines stay in `dirty` until their flight is
            // applied, so one lookup covers both cases.
            if !(first..=last).any(|li| st.dirty.contains_key(&li)) {
                return Ok(false);
            }
            MemStats::bump(&self.inner.stats.flush_calls);
            self.persist_range_locked(&mut st, off.as_usize(), len)?
        };
        self.finish_flush(probe, persisted, covering)?;
        Ok(true)
    }

    /// The unlocked tail of a synchronous flush: pays the round-trip
    /// and awaits the flight covering any elided line.
    fn finish_flush(
        &self,
        probe: pstack_telemetry::PersistProbe,
        persisted: u64,
        covering: Option<u64>,
    ) -> Result<(), MemError> {
        self.settle_round_trip(probe, persisted);
        if let Some(serial) = covering {
            // Lines elided because an in-flight async flush already
            // carries their snapshot: synchronous semantics ("durable
            // on return") still hold — by awaiting that flight.
            self.await_serial(serial)?;
        }
        self.maybe_jitter();
        Ok(())
    }

    /// The locked half of a persist round-trip: drains the dirty lines
    /// covering the range into the backend and returns how many lines
    /// persisted, plus the youngest in-flight async flush whose staged
    /// snapshot made a covered line elidable (the caller must await it
    /// to keep synchronous durability semantics). The per-round-trip
    /// device latency is paid by [`PMem::settle_round_trip`] **after**
    /// the region lock is released, so concurrent mutators' round-trips
    /// on one region overlap (a queued-command device: the data is
    /// durable when the command is accepted here; the latency is the
    /// completion wait).
    fn persist_range_locked(
        &self,
        st: &mut State,
        start: usize,
        len: usize,
    ) -> Result<(u64, Option<u64>), MemError> {
        if len == 0 {
            return Ok((0, None));
        }
        let line = self.inner.line_size;
        let first = start / line;
        let last = (start + len - 1) / line;
        let mut persisted = 0u64;
        let mut covering: Option<u64> = None;
        for li in first..=last {
            // In eager mode the write that queued this line already
            // counted as the persistence event; per-line events would
            // make "between write and its own flush" crash points
            // expressible, which cache-less hardware precludes.
            if !self.inner.eager_flush {
                self.on_event(st).inspect_err(|_| {
                    Self::note_persist(&self.inner.stats, persisted);
                })?;
            }
            if let Some(&serial) = st.flights.staged.get(&li) {
                // The line is staged in an in-flight async flush and has
                // not been re-dirtied since: the flight's snapshot is
                // current, so this persist is elided (FliT-style
                // per-line durable tracking) and the caller awaits the
                // flight instead.
                MemStats::bump(&self.inner.stats.elided_lines);
                covering = Some(covering.map_or(serial, |c: u64| c.max(serial)));
                continue;
            }
            if let Some(content) = st.dirty.remove(&li) {
                let line_start = li * line;
                st.image[line_start..line_start + line].copy_from_slice(&content);
                // A backend failure still ends the round-trip: account
                // the lines persisted so far, like the crash path above.
                st.backend
                    .persist_line(line_start, &content)
                    .inspect_err(|_| {
                        Self::note_persist(&self.inner.stats, persisted);
                    })?;
                MemStats::bump(&self.inner.stats.lines_persisted);
                if let Some(psan) = &self.inner.psan {
                    psan.note_persist_line(li, st.fail.events);
                }
                // This fresher persist subsumes any queued snapshot of
                // the line: tombstone it so a completing flight can
                // never roll the backend back.
                for f in &mut st.flights.queue {
                    for l in &mut f.lines {
                        if *l == Some(li) {
                            *l = None;
                        }
                    }
                }
                persisted += 1;
                if let Some(delay) = self.inner.persist_delay {
                    // Slow device: the delay is paid with the region
                    // locked, serializing persists like one spindle.
                    std::thread::sleep(delay);
                }
            }
        }
        Self::note_persist(&self.inner.stats, persisted);
        if persisted == 0 && covering.is_none() {
            // A non-empty flush that persisted nothing: every covered
            // line was already durable. Diagnostic, not a violation.
            MemStats::bump(&self.inner.stats.redundant_persists);
        }
        if let Some(psan) = &self.inner.psan {
            // The round-trip completed: everything it copied out is
            // now ordered, i.e. durable.
            psan.note_flush_complete(st.fail.events);
        }
        Ok((persisted, covering))
    }

    /// The unlocked half of a persist round-trip: pays the emulated
    /// per-round-trip device latency and records the telemetry probe.
    /// Called with the region lock released — round-trips issued by
    /// concurrent threads on the same region wait out their latency in
    /// parallel, which is what lets a single hot shard scale with
    /// mutator threads.
    fn settle_round_trip(&self, probe: pstack_telemetry::PersistProbe, persisted: u64) {
        if persisted > 0 {
            if let Some(latency) = self.inner.flush_latency {
                std::thread::sleep(latency);
            }
        }
        // Recorded after the emulated device latency so span/persist
        // durations reflect the cost the caller actually paid.
        probe.record(
            self.inner.tlabel.load(Ordering::Relaxed),
            persisted as usize,
        );
    }

    /// Issues an **asynchronous flush** of the lines covering
    /// `[off, off + len)`: the round-trip is queued on the region's
    /// flush queue with its device latency charged off-thread, and the
    /// returned [`FlushTicket`] is awaited — with [`PMem::await_ticket`],
    /// a [`PMem::fence`], or any synchronous flush over the same lines —
    /// at the point that needs durability, typically right before a
    /// commit-point CAS or root swap. Work done between issue and await
    /// overlaps the round-trip; that overlap is the pipeline win.
    ///
    /// Dirty lines are snapshotted at issue time: once awaited, the
    /// ticket guarantees the content *as of this call* is durable, even
    /// if the lines are re-dirtied in between. A covered line already
    /// staged by an earlier un-completed ticket (and not re-dirtied
    /// since) is elided — the returned ticket rides the earlier flight.
    /// A call whose every covered line is clean or already staged
    /// elides the whole round-trip (counted in `redundant_persists`).
    /// Covered lines consume persistence events exactly like a
    /// synchronous flush, so crash-point enumeration sees the same
    /// event stream; a crash with the flight still queued keeps only
    /// completed flights durable (staged lines take the survivor
    /// lottery like any other dirty line).
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] (including a fail-point firing on a
    /// covered line's event) or [`MemError::OutOfBounds`].
    pub fn flush_async(&self, off: POffset, len: usize) -> Result<FlushTicket, MemError> {
        self.check_alive()?;
        self.check_bounds(off, len)?;
        let _issue = pstack_telemetry::span("flush.issue");
        let region = Arc::as_ptr(&self.inner) as usize;
        let mut st = self.inner.state.lock();
        MemStats::bump(&self.inner.stats.flush_calls);
        if len == 0 {
            let serial = st.flights.completed;
            return Ok(FlushTicket { region, serial });
        }
        let line = self.inner.line_size;
        let first = off.as_usize() / line;
        let last = (off.as_usize() + len - 1) / line;
        let serial = st.flights.issued + 1;
        // Sized for the whole range up front: grown by doubling, each
        // flight would also free a run of small outgrown buffers.
        let mut lines = Vec::with_capacity(last - first + 1);
        let mut bytes = Vec::with_capacity((last - first + 1) * line);
        let mut covering: Option<u64> = None;
        for li in first..=last {
            if !self.inner.eager_flush {
                self.on_event(&mut st)?;
            }
            if let Some(&s) = st.flights.staged.get(&li) {
                MemStats::bump(&self.inner.stats.elided_lines);
                covering = Some(covering.map_or(s, |c: u64| c.max(s)));
                continue;
            }
            if let Some(content) = st.dirty.get(&li) {
                lines.push(Some(li));
                bytes.extend_from_slice(content);
                st.flights.staged.insert(li, serial);
                if let Some(psan) = &self.inner.psan {
                    psan.note_persist_line_ticket(li, serial, st.fail.events);
                }
            }
        }
        if lines.is_empty() {
            // Nothing newly staged: the round-trip is elided outright.
            // The ticket resolves to the youngest flight still carrying
            // a covered line, or to "already complete".
            MemStats::bump(&self.inner.stats.redundant_persists);
            let serial = covering.unwrap_or(st.flights.completed);
            return Ok(FlushTicket { region, serial });
        }
        st.flights.issued = serial;
        let deadline = match self.inner.flush_latency {
            Some(latency) => {
                MemStats::add(
                    &self.inner.stats.async_latency_charged_ns,
                    latency.as_nanos() as u64,
                );
                Some(std::time::Instant::now() + latency)
            }
            None => None,
        };
        st.flights.queue.push_back(Flight {
            serial,
            deadline,
            lines,
            bytes,
        });
        MemStats::bump(&self.inner.stats.async_flushes);
        Ok(FlushTicket { region, serial })
    }

    /// Blocks until the flush issued as `ticket` completed, applying
    /// its staged snapshots (and those of every older flight) to
    /// durable storage. Returns immediately for tickets already
    /// completed or fully elided at issue.
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] if the region crashed with the flight
    /// still queued — its staged lines kept only their crash-lottery
    /// outcome, so recovery sees exactly the completed-ticket prefix —
    /// and [`MemError::InvalidConfig`] for a ticket from a different
    /// region or an earlier boot.
    pub fn await_ticket(&self, ticket: &FlushTicket) -> Result<(), MemError> {
        if ticket.region != Arc::as_ptr(&self.inner) as usize {
            return Err(MemError::InvalidConfig(
                "flush ticket belongs to a different region or boot".into(),
            ));
        }
        self.await_serial(ticket.serial)
    }

    /// Completes every queued flight up to `serial`: sleeps out the
    /// youngest covered deadline with the region lock released (so
    /// concurrent awaits — and round-trips on other regions — overlap),
    /// then applies the snapshots under the lock.
    fn await_serial(&self, serial: u64) -> Result<(), MemError> {
        let deadline = {
            let st = self.inner.state.lock();
            if st.flights.completed >= serial {
                return Ok(());
            }
            if self.is_crashed() {
                return Err(MemError::Crashed);
            }
            st.flights
                .queue
                .iter()
                .take_while(|f| f.serial <= serial)
                .filter_map(|f| f.deadline)
                .last()
        };
        let _await = pstack_telemetry::span("flush.await");
        let probe = pstack_telemetry::persist_probe();
        if let Some(d) = deadline {
            let now = std::time::Instant::now();
            if d > now {
                let wait = d - now;
                std::thread::sleep(wait);
                MemStats::add(
                    &self.inner.stats.async_latency_waited_ns,
                    wait.as_nanos() as u64,
                );
            }
        }
        let persisted = {
            let mut st = self.inner.state.lock();
            if self.is_crashed() {
                return Err(MemError::Crashed);
            }
            let mut persisted = 0u64;
            while st.flights.queue.front().is_some_and(|f| f.serial <= serial) {
                let flight = st.flights.queue.pop_front().expect("checked front");
                persisted += self.apply_flight(&mut st, flight)?;
            }
            persisted
        };
        probe.record(
            self.inner.tlabel.load(Ordering::Relaxed),
            persisted as usize,
        );
        Ok(())
    }

    /// Applies one completed flight: copies its snapshots into the
    /// image and the backend, retires their staged markers, and
    /// promotes the ticket's shadow lines. Consumes no persistence
    /// events — those were charged at issue.
    fn apply_flight(&self, st: &mut State, flight: Flight) -> Result<u64, MemError> {
        let line = self.inner.line_size;
        let batch: Vec<(usize, &[u8])> = flight
            .lines
            .iter()
            .zip(flight.bytes.chunks_exact(line))
            .filter_map(|(li, content)| li.map(|li| (li * line, content)))
            .collect();
        st.backend.persist_lines(&batch)?;
        let persisted = batch.len() as u64;
        for &(line_start, content) in &batch {
            let li = line_start / line;
            st.image[line_start..line_start + line].copy_from_slice(content);
            MemStats::bump(&self.inner.stats.lines_persisted);
            if st.flights.staged.get(&li) == Some(&flight.serial) {
                // Not re-dirtied since issue: the snapshot is the live
                // content, so the cache entry retires with the marker.
                st.flights.staged.remove(&li);
                st.dirty.remove(&li);
            }
        }
        Self::note_persist(&self.inner.stats, persisted);
        st.flights.completed = flight.serial;
        if let Some(psan) = &self.inner.psan {
            psan.note_ticket_complete(flight.serial, st.fail.events);
        }
        Ok(persisted)
    }

    /// Number of asynchronous flushes issued but not yet completed
    /// (flights still on the queue). Crash campaigns use this to prove
    /// kills land while flushes are in flight.
    #[must_use]
    pub fn inflight_tickets(&self) -> u64 {
        self.inner.state.lock().flights.queue.len() as u64
    }

    /// Accounts one persist round-trip that made `lines` lines durable:
    /// `persists` counts the round-trip, `coalesced_lines` the lines
    /// amortized beyond the first.
    fn note_persist(stats: &MemStats, lines: u64) {
        if lines > 0 {
            MemStats::bump(&stats.persists);
            MemStats::add(&stats.coalesced_lines, lines - 1);
        }
    }

    /// Writes and immediately flushes — the common "persist this value
    /// now" idiom of the paper's protocols.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::write`] and [`PMem::flush`].
    pub fn write_persist(&self, off: POffset, data: &[u8]) -> Result<(), MemError> {
        self.write(off, data)?;
        self.flush(off, data.len())
    }

    /// Persistence fence: completes every in-flight asynchronous flush
    /// (the strongest await), then records the `sfence`-style marker
    /// (under PSan it additionally orders any lines still in the
    /// `Flushed` shadow state). Errors from draining — a crashed
    /// region — are swallowed to keep the infallible signature; the
    /// crash surfaces on the next access.
    pub fn fence(&self) {
        let target = self.inner.state.lock().flights.issued;
        let _ = self.await_serial(target);
        MemStats::bump(&self.inner.stats.fences);
        pstack_telemetry::fence_event(self.inner.tlabel.load(Ordering::Relaxed));
        if let Some(psan) = &self.inner.psan {
            psan.note_fence(self.events());
        }
    }

    /// Atomic compare-exchange on `expected.len()` bytes at `off`,
    /// modelling a hardware CAS: it acts on the *cached* value and its
    /// result still needs a flush to become durable.
    ///
    /// Returns `true` (and installs `new`) if the current content equals
    /// `expected`.
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] or [`MemError::OutOfBounds`].
    ///
    /// # Panics
    ///
    /// Panics if `expected` and `new` have different lengths.
    pub fn compare_exchange(
        &self,
        off: POffset,
        expected: &[u8],
        new: &[u8],
    ) -> Result<bool, MemError> {
        assert_eq!(
            expected.len(),
            new.len(),
            "compare_exchange operands must have equal lengths"
        );
        self.check_alive()?;
        self.check_bounds(off, expected.len())?;
        let mut st = self.inner.state.lock();
        self.on_event(&mut st)?;
        MemStats::bump(&self.inner.stats.cas_ops);
        let mut current = vec![0u8; expected.len()];
        self.compose_read(&st, off.as_usize(), &mut current);
        if current != expected {
            return Ok(false);
        }
        self.write_locked(&mut st, off.as_usize(), new);
        MemStats::bump(&self.inner.stats.writes);
        MemStats::add(&self.inner.stats.bytes_written, new.len() as u64);
        if let Some(psan) = &self.inner.psan {
            psan.note_write(off.get(), new.len(), st.fail.events);
            // A successful CAS in a registered publish range makes its
            // new value reachable: early-publish check on the target.
            psan.note_cas_publish(off.get(), new, st.fail.events);
        }
        if self.inner.eager_flush {
            let probe = pstack_telemetry::persist_probe();
            let (persisted, _) = self.persist_range_locked(&mut st, off.as_usize(), new.len())?;
            drop(st);
            self.settle_round_trip(probe, persisted);
        } else {
            drop(st);
        }
        self.maybe_jitter();
        Ok(true)
    }

    /// Atomic read-modify-write of the `u64` at `off` via a CAS-retry
    /// loop — the fetch-add-style primitive lock-free reservation
    /// protocols build on. `f` maps the current value to the desired
    /// new one; returning `None` aborts. Returns `Ok(previous)` when an
    /// update was installed and `Err(current)` when `f` declined.
    ///
    /// The update is volatile like any CAS: its durability still takes
    /// a flush of the covering line.
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] or [`MemError::OutOfBounds`].
    #[allow(clippy::missing_panics_doc)] // read_u64's slice conversion cannot fail
    pub fn fetch_update<F>(&self, off: POffset, mut f: F) -> Result<Result<u64, u64>, MemError>
    where
        F: FnMut(u64) -> Option<u64>,
    {
        loop {
            let current = self.read_u64(off)?;
            let Some(new) = f(current) else {
                return Ok(Err(current));
            };
            if self.compare_exchange(off, &current.to_le_bytes(), &new.to_le_bytes())? {
                return Ok(Ok(current));
            }
        }
    }

    /// Injects a crash: each dirty line independently survives (is
    /// persisted) with probability `survival_prob`, decided
    /// deterministically from `seed`; all other dirty lines are lost.
    /// Afterwards every access fails until [`PMem::reopen`].
    ///
    /// Calling this on an already-crashed region is a no-op.
    pub fn crash_now(&self, seed: u64, survival_prob: f64) {
        if self.is_crashed() {
            return;
        }
        let mut st = self.inner.state.lock();
        self.crash_locked(&mut st, seed, survival_prob);
    }

    fn crash_locked(&self, st: &mut State, seed: u64, survival_prob: f64) {
        self.inner.crashed.store(true, Ordering::SeqCst);
        // First observation wins the stamp: a region that somehow dies
        // twice in one boot keeps its original position on the clock.
        let _ = self.inner.crash_stamp.compare_exchange(
            0,
            CRASH_CLOCK.fetch_add(1, Ordering::SeqCst) + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        st.fail.disarm();
        MemStats::bump(&self.inner.stats.crashes);
        let line = self.inner.line_size;
        let mut lines: Vec<usize> = st.dirty.keys().copied().collect();
        lines.sort_unstable();
        let mut outcomes = Vec::with_capacity(lines.len());
        for li in lines {
            let survives = if survival_prob <= 0.0 {
                false
            } else if survival_prob >= 1.0 {
                true
            } else {
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ (li as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                rng.random_bool(survival_prob)
            };
            let content = st.dirty.remove(&li).expect("line listed as dirty");
            if survives {
                let line_start = li * line;
                st.image[line_start..line_start + line].copy_from_slice(&content);
                // Write-through failures during a crash are ignored: the
                // crash wins, and the image stays authoritative for the
                // in-process reopen path.
                let _ = st.backend.persist_line(line_start, &content);
                MemStats::bump(&self.inner.stats.lines_persisted);
            }
            outcomes.push((li, survives));
        }
        st.dirty.clear();
        // Un-completed flights die with the cache: their staged lines
        // just took the lottery above (so recovery sees exactly the
        // completed-ticket prefix, plus any lucky survivors), and
        // pending tickets fail their await with `Crashed`.
        MemStats::add(&self.inner.stats.flights_cut, st.flights.queue.len() as u64);
        st.flights.queue.clear();
        st.flights.staged.clear();
        pstack_telemetry::crash(self.inner.tlabel.load(Ordering::Relaxed), st.fail.events);
        if let Some(psan) = &self.inner.psan {
            // Dropped lines revert to their durable content (shadow
            // forgets them); lucky survivors' bytes become ghosts.
            psan.note_crash(&outcomes, st.fail.events);
        }
    }

    /// Reopens a crashed region, as the recovery boot of the system
    /// would: the persistent image survives, the volatile cache is
    /// empty, statistics start from zero, and no fail plan is armed.
    ///
    /// For file-backed regions the image is re-read from the file, so
    /// the returned handle sees exactly what a new process would see.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] if the region has not
    /// crashed, or an I/O error when re-reading a file backend.
    pub fn reopen(&self) -> Result<PMem, MemError> {
        if !self.is_crashed() {
            return Err(MemError::InvalidConfig(
                "reopen requires a crashed region; call crash_now first".into(),
            ));
        }
        let mut st = self.inner.state.lock();
        let mut backend = std::mem::replace(&mut st.backend, Box::new(MemBackend));
        let mut image = std::mem::take(&mut st.image);
        if let BackendKind::File(_) = backend.kind() {
            image = vec![0u8; self.inner.len];
            backend.load(&mut image)?;
        }
        Ok(PMem {
            inner: Arc::new(Inner {
                len: self.inner.len,
                line_size: self.inner.line_size,
                eager_flush: self.inner.eager_flush,
                jitter: self.inner.jitter,
                persist_delay: self.inner.persist_delay,
                flush_latency: self.inner.flush_latency,
                psan: self.inner.psan.clone(),
                tlabel: AtomicU32::new(self.inner.tlabel.load(Ordering::Relaxed)),
                gate: MutatorGate::new(),
                crashed: AtomicBool::new(false),
                crash_stamp: AtomicU64::new(0),
                stats: MemStats::default(),
                state: FairMutex::new(State {
                    image,
                    dirty: HashMap::new(),
                    backend,
                    fail: FailState::default(),
                    flights: FlightState::default(),
                }),
            }),
        })
    }

    // ---- typed helpers ------------------------------------------------

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::read`].
    pub fn read_u8(&self, off: POffset) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        self.read(off, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte (volatile until flushed).
    ///
    /// # Errors
    ///
    /// Same as [`PMem::write`].
    pub fn write_u8(&self, off: POffset, v: u8) -> Result<(), MemError> {
        self.write(off, &[v])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::read`].
    pub fn read_u32(&self, off: POffset) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(off, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32` (volatile until flushed).
    ///
    /// # Errors
    ///
    /// Same as [`PMem::write`].
    pub fn write_u32(&self, off: POffset, v: u32) -> Result<(), MemError> {
        self.write(off, &v.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::read`].
    pub fn read_u64(&self, off: POffset) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` (volatile until flushed).
    ///
    /// # Errors
    ///
    /// Same as [`PMem::write`].
    pub fn write_u64(&self, off: POffset, v: u64) -> Result<(), MemError> {
        self.write(off, &v.to_le_bytes())
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::read`].
    pub fn read_i64(&self, off: POffset) -> Result<i64, MemError> {
        let mut b = [0u8; 8];
        self.read(off, &mut b)?;
        Ok(i64::from_le_bytes(b))
    }

    /// Writes a little-endian `i64` (volatile until flushed).
    ///
    /// # Errors
    ///
    /// Same as [`PMem::write`].
    pub fn write_i64(&self, off: POffset, v: i64) -> Result<(), MemError> {
        self.write(off, &v.to_le_bytes())
    }

    /// Reads `len` bytes into a freshly allocated vector.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::read`].
    pub fn read_vec(&self, off: POffset, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len];
        self.read(off, &mut v)?;
        Ok(v)
    }

    /// Writes `len` copies of `byte` (volatile until flushed).
    ///
    /// # Errors
    ///
    /// Same as [`PMem::write`].
    pub fn fill(&self, off: POffset, byte: u8, len: usize) -> Result<(), MemError> {
        self.write(off, &vec![byte; len])
    }

    // ---- PSan (persist-order sanitizer) -------------------------------
    //
    // All of these are no-ops unless the region was built with
    // [`PMemBuilder::psan`]; application layers call them
    // unconditionally.

    /// `true` if PSan shadows this region.
    #[must_use]
    pub fn psan_enabled(&self) -> bool {
        self.inner.psan.is_some()
    }

    /// Names the region in PSan violation reports (e.g. `"shard-3"`).
    pub fn psan_set_label(&self, label: &str) {
        if let Some(psan) = &self.inner.psan {
            psan.set_label(label);
        }
    }

    /// Names the region in telemetry traces (persist round-trips,
    /// crash events). Survives [`PMem::reopen`] like the PSan label;
    /// a no-op when the flight recorder is compiled out.
    pub fn telemetry_set_label(&self, label: &str) {
        self.inner
            .tlabel
            .store(pstack_telemetry::intern(label), Ordering::Relaxed);
    }

    /// The interned telemetry label id for this region (for layers
    /// that record region-scoped events themselves, e.g. flush-epoch
    /// bumps).
    #[must_use]
    pub fn telemetry_label_id(&self) -> u32 {
        self.inner.tlabel.load(Ordering::Relaxed)
    }

    /// The region's PSan report label, if PSan is enabled.
    #[must_use]
    pub fn psan_label(&self) -> Option<String> {
        self.inner.psan.as_ref().map(|p| p.label())
    }

    /// Registers `[start, start+len)` as a **publish range**: any
    /// successful 8-byte CAS inside it is treated as publishing a
    /// pointer into this region, and the `extent` bytes at the pointer
    /// must already be durable (else an *early-publish* violation).
    /// Typical use: a store registers its bucket-head array so head
    /// CASes are checked against the records they link in.
    pub fn psan_register_publish_range(&self, start: POffset, len: usize, extent: usize) {
        if let Some(psan) = &self.inner.psan {
            psan.register_publish_range(start.get(), len as u64, extent as u64);
        }
    }

    /// Declares that `[start, start+len)` must be durable by the next
    /// root swap on this region ([`RootCell::swap`](crate::RootCell)
    /// consumes the declaration and checks it at its commit point).
    pub fn psan_declare_commit(&self, start: POffset, len: usize) {
        if let Some(psan) = &self.inner.psan {
            psan.declare_commit(start.get(), len as u64);
        }
    }

    /// Immediate commit-ordering check: records an *unordered-commit*
    /// violation for every still-dirty line in `[start, start+len)`.
    /// Used at commit points that are not root swaps (e.g. a
    /// flush-epoch bump after a group commit).
    pub fn psan_check_durable(&self, start: POffset, len: usize) {
        if let Some(psan) = &self.inner.psan {
            psan.check_durable(start.get(), len as u64, self.events());
        }
    }

    /// Internal hook for [`RootCell::swap`](crate::RootCell): the
    /// commit point publishing `ptr`. Checks (and consumes) declared
    /// commit extents — or, with none declared, the line holding `ptr`.
    #[doc(hidden)]
    pub fn psan_note_root_swap(&self, ptr: u64) {
        if let Some(psan) = &self.inner.psan {
            psan.note_root_swap(ptr, self.inner.len as u64, self.events());
        }
    }

    /// Waives ghost-read reports for `[start, start+len)` — for fields
    /// recovery deliberately reads optimistically.
    pub fn psan_waive(&self, start: POffset, len: usize, _reason: &str) {
        if let Some(psan) = &self.inner.psan {
            psan.waive(start.get(), len as u64);
        }
    }

    /// All violations recorded so far (across reopen boots).
    #[must_use]
    pub fn psan_violations(&self) -> Vec<PsanViolation> {
        self.inner
            .psan
            .as_ref()
            .map(|p| p.violations())
            .unwrap_or_default()
    }

    /// Drains recorded violations (and resets per-line deduplication).
    #[must_use]
    pub fn psan_take_violations(&self) -> Vec<PsanViolation> {
        self.inner
            .psan
            .as_ref()
            .map(|p| p.take_violations())
            .unwrap_or_default()
    }

    /// Number of violations recorded so far.
    #[must_use]
    pub fn psan_violation_count(&self) -> usize {
        self.inner.psan.as_ref().map_or(0, |p| p.violation_count())
    }

    /// Shadow state of the line containing `addr` (`None` when PSan is
    /// off). Test/debug accessor.
    #[doc(hidden)]
    #[must_use]
    pub fn psan_line_state(&self, addr: POffset) -> Option<crate::psan::ShadowState> {
        self.inner.psan.as_ref().map(|p| p.state_of(addr.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PMem {
        PMemBuilder::new().len(1024).line_size(64).build_in_memory()
    }

    #[test]
    fn read_sees_unflushed_writes() {
        let p = small();
        p.write_u64(POffset::new(8), 77).unwrap();
        assert_eq!(p.read_u64(POffset::new(8)).unwrap(), 77);
    }

    #[test]
    fn unflushed_data_lost_on_crash() {
        let p = small();
        p.write_u64(POffset::new(8), 77).unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(8)).unwrap(), 0);
    }

    #[test]
    fn flushed_data_survives_crash() {
        let p = small();
        p.write_u64(POffset::new(8), 77).unwrap();
        p.flush(POffset::new(8), 8).unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(8)).unwrap(), 77);
    }

    #[test]
    fn survivors_with_probability_one_keep_everything() {
        let p = small();
        p.write_u64(POffset::new(8), 77).unwrap();
        p.write_u64(POffset::new(512), 88).unwrap();
        p.crash_now(1, 1.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(8)).unwrap(), 77);
        assert_eq!(p.read_u64(POffset::new(512)).unwrap(), 88);
    }

    #[test]
    fn survivors_are_deterministic_per_seed() {
        let outcome = |seed: u64| {
            let p = small();
            for i in 0..16 {
                p.write_u64(POffset::new(i * 64), i + 1).unwrap();
            }
            p.crash_now(seed, 0.5);
            let p = p.reopen().unwrap();
            (0..16)
                .map(|i| p.read_u64(POffset::new(i * 64)).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(outcome(7), outcome(7));
        // With 16 independent 50% draws, two different seeds virtually
        // never agree on all lines *and* differ from all-lost; accept
        // equality only if both kept everything or nothing, which the
        // probability argument makes absurd for these seeds.
        assert_ne!(outcome(7), outcome(8));
    }

    #[test]
    fn the_event_counter_freezes_with_the_crash_flag() {
        // Every persistence operation checks `check_alive` *before* it
        // takes the region lock, so a worker can pass the check, lose
        // the lock to the thread whose event fires the fail-point, and
        // arrive at a crashed region. This is that arrival — the locked
        // half of write, CAS, flush and flush_async alike starts at
        // `on_event` — on an eager region, where a late write would
        // reach the image.
        let p = PMemBuilder::new()
            .len(4096)
            .eager_flush(true)
            .build_in_memory();
        p.write_u64(POffset::new(64), 7).unwrap();
        p.arm_failpoint(FailPlan::after_events(0));
        assert!(matches!(
            p.write_u64(POffset::new(64), 8),
            Err(MemError::Crashed)
        ));
        let events = p.events();
        {
            let mut st = p.inner.state.lock();
            assert!(matches!(p.on_event(&mut st), Err(MemError::Crashed)));
            assert_eq!(st.fail.events, events, "a dead region counts nothing");
        }
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(64)).unwrap(), 7);
    }

    #[test]
    fn whole_line_persists_or_not_atomically() {
        // Two values inside one 64-byte line, only the line flushed once:
        // after a survivor-less crash both are gone; after a full-survivor
        // crash both are present. Never one without the other.
        for (prob, expect) in [(0.0, 0u64), (1.0, 5u64)] {
            let p = small();
            p.write_u64(POffset::new(0), 5).unwrap();
            p.write_u64(POffset::new(8), 5).unwrap();
            p.crash_now(3, prob);
            let p = p.reopen().unwrap();
            assert_eq!(p.read_u64(POffset::new(0)).unwrap(), expect);
            assert_eq!(p.read_u64(POffset::new(8)).unwrap(), expect);
        }
    }

    #[test]
    fn multi_line_flush_can_be_cut_in_the_middle() {
        // Write 3 lines, arm a crash after the 4th event
        // (3 writes + first persisted line), so exactly one line persists.
        let p = small();
        p.write(POffset::new(0), &[1u8; 64]).unwrap();
        p.write(POffset::new(64), &[2u8; 64]).unwrap();
        p.write(POffset::new(128), &[3u8; 64]).unwrap();
        p.arm_failpoint(FailPlan::after_events(1));
        let err = p.flush(POffset::new(0), 192).unwrap_err();
        assert!(matches!(err, MemError::Crashed));
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u8(POffset::new(0)).unwrap(), 1);
        assert_eq!(p.read_u8(POffset::new(64)).unwrap(), 0);
        assert_eq!(p.read_u8(POffset::new(128)).unwrap(), 0);
    }

    #[test]
    fn failpoint_crashes_before_the_write_applies() {
        let p = small();
        p.write_u8(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 1).unwrap();
        p.arm_failpoint(FailPlan::after_events(0));
        let err = p.write_u8(POffset::new(0), 2).unwrap_err();
        assert!(matches!(err, MemError::Crashed));
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u8(POffset::new(0)).unwrap(), 1);
    }

    #[test]
    fn crashed_region_rejects_everything() {
        let p = small();
        p.crash_now(0, 0.0);
        assert!(matches!(p.read_u8(POffset::new(0)), Err(MemError::Crashed)));
        assert!(matches!(
            p.write_u8(POffset::new(0), 1),
            Err(MemError::Crashed)
        ));
        assert!(matches!(
            p.flush(POffset::new(0), 1),
            Err(MemError::Crashed)
        ));
        assert!(matches!(
            p.compare_exchange(POffset::new(0), &[0], &[1]),
            Err(MemError::Crashed)
        ));
    }

    #[test]
    fn reopen_requires_crash() {
        let p = small();
        assert!(matches!(p.reopen(), Err(MemError::InvalidConfig(_))));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let p = small();
        assert!(matches!(
            p.read_u64(POffset::new(1020)),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            p.write(POffset::new(1024), &[1]),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            p.read(POffset::NULL, &mut [0u8; 1]),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn compare_exchange_success_and_failure() {
        let p = small();
        p.write_u64(POffset::new(0), 10).unwrap();
        let ok = p
            .compare_exchange(POffset::new(0), &10u64.to_le_bytes(), &20u64.to_le_bytes())
            .unwrap();
        assert!(ok);
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 20);
        let ok = p
            .compare_exchange(POffset::new(0), &10u64.to_le_bytes(), &30u64.to_le_bytes())
            .unwrap();
        assert!(!ok);
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 20);
    }

    #[test]
    fn cas_result_is_volatile_until_flushed() {
        let p = small();
        p.write_u64(POffset::new(0), 10).unwrap();
        p.flush(POffset::new(0), 8).unwrap();
        p.compare_exchange(POffset::new(0), &10u64.to_le_bytes(), &20u64.to_le_bytes())
            .unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 10);
    }

    #[test]
    fn eager_flush_makes_writes_durable_immediately() {
        let p = PMemBuilder::new()
            .len(1024)
            .eager_flush(true)
            .build_in_memory();
        p.write_u64(POffset::new(8), 99).unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(8)).unwrap(), 99);
    }

    #[test]
    fn eager_flush_cas_is_durable() {
        let p = PMemBuilder::new()
            .len(1024)
            .eager_flush(true)
            .build_in_memory();
        p.write_u64(POffset::new(0), 1).unwrap();
        p.compare_exchange(POffset::new(0), &1u64.to_le_bytes(), &2u64.to_le_bytes())
            .unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 2);
    }

    #[test]
    fn stats_count_operations() {
        let p = small();
        let before = p.stats().snapshot();
        p.write(POffset::new(0), &[0u8; 16]).unwrap();
        p.flush(POffset::new(0), 16).unwrap();
        p.read_u8(POffset::new(0)).unwrap();
        p.fence();
        let d = p.stats().snapshot() - before;
        assert_eq!(d.writes, 1);
        assert_eq!(d.bytes_written, 16);
        assert_eq!(d.flush_calls, 1);
        assert_eq!(d.lines_persisted, 1);
        assert_eq!(d.reads, 1);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn flush_of_clean_lines_persists_nothing() {
        let p = small();
        p.write_u8(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 1).unwrap();
        let before = p.stats().snapshot();
        p.flush(POffset::new(0), 1).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(d.lines_persisted, 0);
        assert_eq!(d.flush_calls, 1);
    }

    #[test]
    fn single_byte_flush_touches_one_line() {
        let p = small();
        p.write_u8(POffset::new(100), 1).unwrap();
        let before = p.stats().snapshot();
        p.flush(POffset::new(100), 1).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(d.lines_persisted, 1);
    }

    #[test]
    fn write_spanning_lines_is_reassembled_on_read() {
        let p = small();
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        p.write(POffset::new(30), &data).unwrap();
        assert_eq!(p.read_vec(POffset::new(30), 200).unwrap(), data);
    }

    #[test]
    fn fill_and_read_vec() {
        let p = small();
        p.fill(POffset::new(10), 0xAB, 50).unwrap();
        assert_eq!(p.read_vec(POffset::new(10), 50).unwrap(), vec![0xAB; 50]);
    }

    #[test]
    fn file_backend_survives_real_reopen_from_path() {
        let mut path = std::env::temp_dir();
        path.push(format!("pstack-pmem-file-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let p = PMemBuilder::new().len(4096).build_file(&path).unwrap();
            p.write_u64(POffset::new(128), 4242).unwrap();
            p.flush(POffset::new(128), 8).unwrap();
            p.write_u64(POffset::new(256), 1111).unwrap(); // never flushed
        }
        // A brand new handle (as a restarted process would create) sees
        // only the flushed data.
        let p = PMemBuilder::new().len(4096).build_file(&path).unwrap();
        assert_eq!(p.read_u64(POffset::new(128)).unwrap(), 4242);
        assert_eq!(p.read_u64(POffset::new(256)).unwrap(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_reopen_after_crash_reloads_from_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("pstack-pmem-crash-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let p = PMemBuilder::new().len(4096).build_file(&path).unwrap();
        p.write_u64(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 8).unwrap();
        p.write_u64(POffset::new(64), 2).unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 1);
        assert_eq!(p.read_u64(POffset::new(64)).unwrap(), 0);
        assert!(matches!(p.backend_kind(), BackendKind::File(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn events_counter_advances() {
        let p = small();
        let e0 = p.events();
        p.write_u8(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 1).unwrap();
        assert_eq!(p.events(), e0 + 2);
    }

    #[test]
    fn builder_validates() {
        assert!(PMemBuilder::new().len(0).build_file("/tmp/x").is_err());
        assert!(PMemBuilder::new()
            .line_size(3)
            .build_file("/tmp/x")
            .is_err());
    }

    #[test]
    fn persist_delay_slows_line_persists() {
        let fast = small();
        let slow = PMemBuilder::new()
            .len(1024)
            .line_size(64)
            .persist_delay(std::time::Duration::from_millis(4))
            .build_in_memory();
        for p in [&fast, &slow] {
            p.write(POffset::new(0), &[1u8; 256]).unwrap();
        }
        let t = std::time::Instant::now();
        fast.flush(POffset::new(0), 256).unwrap();
        let fast_elapsed = t.elapsed();
        let t = std::time::Instant::now();
        slow.flush(POffset::new(0), 256).unwrap();
        let slow_elapsed = t.elapsed();
        // 4 lines × 4 ms ≥ 16 ms; the fast path is microseconds.
        assert!(slow_elapsed >= std::time::Duration::from_millis(16));
        assert!(slow_elapsed > fast_elapsed);
        // The delay survives a reopen.
        slow.crash_now(0, 0.0);
        let slow = slow.reopen().unwrap();
        slow.write_u8(POffset::new(0), 1).unwrap();
        let t = std::time::Instant::now();
        slow.flush(POffset::new(0), 1).unwrap();
        assert!(t.elapsed() >= std::time::Duration::from_millis(4));
    }

    #[test]
    fn flush_latency_charges_per_round_trip() {
        let latent = PMemBuilder::new()
            .len(1024)
            .line_size(64)
            .flush_latency(std::time::Duration::from_millis(4))
            .build_in_memory();
        // One multi-line flush = one round-trip = one latency charge.
        // The best of three attempts filters scheduler noise out of
        // the upper-bound check (4 per-line charges would be ≥ 16 ms
        // of pure sleep, unreachable by a single 4 ms one).
        let one_round_trip = (0..3)
            .map(|_| {
                latent.write(POffset::new(0), &[1u8; 256]).unwrap();
                let t = std::time::Instant::now();
                latent.flush(POffset::new(0), 256).unwrap();
                t.elapsed()
            })
            .min()
            .expect("three attempts");
        assert!(one_round_trip >= std::time::Duration::from_millis(4));
        assert!(
            one_round_trip < std::time::Duration::from_millis(16),
            "latency is per round-trip, not per line: {one_round_trip:?}"
        );
        // A clean flush persists nothing and pays nothing.
        let t = std::time::Instant::now();
        latent.flush(POffset::new(0), 256).unwrap();
        assert!(t.elapsed() < std::time::Duration::from_millis(4));
        // The knob survives a reopen; zero disables it.
        latent.crash_now(0, 0.0);
        let latent = latent.reopen().unwrap();
        latent.write_u8(POffset::new(0), 1).unwrap();
        let t = std::time::Instant::now();
        latent.flush(POffset::new(0), 1).unwrap();
        assert!(t.elapsed() >= std::time::Duration::from_millis(4));
        let free = PMemBuilder::new()
            .len(1024)
            .flush_latency(std::time::Duration::ZERO)
            .build_in_memory();
        free.write_u8(POffset::new(0), 1).unwrap();
        free.flush(POffset::new(0), 1).unwrap();
    }

    #[test]
    fn zero_persist_delay_is_ignored() {
        let p = PMemBuilder::new()
            .len(1024)
            .persist_delay(std::time::Duration::ZERO)
            .build_in_memory();
        p.write_u8(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 1).unwrap();
        assert_eq!(p.read_u8(POffset::new(0)).unwrap(), 1);
    }

    #[test]
    fn redundant_flushes_are_counted() {
        let p = small();
        p.write_u8(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 1).unwrap();
        let before = p.stats().snapshot();
        p.flush(POffset::new(0), 1).unwrap(); // clean line: redundant
        p.flush(POffset::new(0), 0).unwrap(); // empty range: not counted
        let d = p.stats().snapshot() - before;
        assert_eq!(d.redundant_persists, 1);
        // Eager regions: the write persists itself, explicit flushes
        // on top are pure redundancy.
        let e = PMemBuilder::new()
            .len(1024)
            .eager_flush(true)
            .build_in_memory();
        e.write_u8(POffset::new(0), 1).unwrap();
        e.flush(POffset::new(0), 1).unwrap();
        assert_eq!(e.stats().snapshot().redundant_persists, 1);
    }

    fn psan_region() -> PMem {
        PMemBuilder::new()
            .len(1024)
            .line_size(64)
            .psan(true)
            .build_in_memory()
    }

    #[test]
    fn psan_shadow_tracks_write_flush_fence_at_the_pmem_level() {
        use crate::psan::ShadowState;
        let p = psan_region();
        assert!(p.psan_enabled());
        let off = POffset::new(64);
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Clean));
        p.write_u64(off, 7).unwrap();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Dirty));
        p.flush(off, 8).unwrap();
        // The synchronous flush completes the round-trip in one call:
        // Dirty → Flushed → Durable.
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Durable));
        // Off by default.
        let plain = small();
        assert!(!plain.psan_enabled());
        assert_eq!(plain.psan_line_state(off), None);
        assert_eq!(plain.psan_label(), None);
    }

    #[test]
    fn psan_eager_writes_reach_durable_immediately() {
        use crate::psan::ShadowState;
        let p = PMemBuilder::new()
            .len(1024)
            .eager_flush(true)
            .psan(true)
            .build_in_memory();
        p.write_u64(POffset::new(0), 7).unwrap();
        assert_eq!(
            p.psan_line_state(POffset::new(0)),
            Some(ShadowState::Durable)
        );
        p.compare_exchange(POffset::new(0), &7u64.to_le_bytes(), &8u64.to_le_bytes())
            .unwrap();
        assert_eq!(
            p.psan_line_state(POffset::new(0)),
            Some(ShadowState::Durable)
        );
    }

    #[test]
    fn psan_crash_reverts_non_durable_lines() {
        use crate::psan::ShadowState;
        let p = psan_region();
        p.write_u64(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 8).unwrap();
        p.write_u64(POffset::new(64), 2).unwrap(); // never flushed
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        // The dropped line reverted: recovery reads durable content,
        // no ghosts, no violations.
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 1);
        assert_eq!(p.read_u64(POffset::new(64)).unwrap(), 0);
        assert_eq!(
            p.psan_line_state(POffset::new(64)),
            Some(ShadowState::Clean)
        );
        assert!(p.psan_violations().is_empty());
    }

    #[test]
    fn psan_flags_post_crash_ghost_reads_end_to_end() {
        let p = psan_region();
        p.psan_set_label("ghost-demo");
        p.write_u64(POffset::new(128), 42).unwrap();
        // Survival probability 1.0: the dirty line survives "by luck"
        // without ever having been persisted — a ghost.
        p.crash_now(0, 1.0);
        let p = p.reopen().unwrap();
        // The emulator happily serves the value...
        assert_eq!(p.read_u64(POffset::new(128)).unwrap(), 42);
        // ...and PSan flags the read.
        let v = p.psan_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, crate::psan::PsanViolationKind::GhostRead);
        assert_eq!(v[0].region, "ghost-demo");
        assert_eq!(v[0].offset, 128);
        // A waived range is not flagged again (fresh region).
        let p = psan_region();
        p.write_u64(POffset::new(128), 42).unwrap();
        p.crash_now(0, 1.0);
        let p = p.reopen().unwrap();
        p.psan_waive(POffset::new(128), 8, "test: optimistic field");
        assert_eq!(p.read_u64(POffset::new(128)).unwrap(), 42);
        assert!(p.psan_violations().is_empty());
    }

    #[test]
    fn psan_violations_survive_reopen_and_drain() {
        let p = psan_region();
        p.write_u64(POffset::new(0), 1).unwrap();
        p.psan_check_durable(POffset::new(0), 8);
        assert_eq!(p.psan_violation_count(), 1);
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.psan_violation_count(), 1, "shadow outlives the crash");
        assert_eq!(p.psan_take_violations().len(), 1);
        assert_eq!(p.psan_violation_count(), 0);
    }

    #[test]
    fn psan_early_publish_detected_through_compare_exchange() {
        let p = psan_region();
        p.psan_register_publish_range(POffset::new(0), 64, 64);
        // A record staged at 256, not yet durable; publish its offset
        // into the registered head array via CAS.
        p.write(POffset::new(256), &[9u8; 48]).unwrap();
        let _g = crate::psan::op_label("test.publish");
        assert!(p
            .compare_exchange(POffset::new(8), &0u64.to_le_bytes(), &256u64.to_le_bytes())
            .unwrap());
        let v = p.psan_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0].kind,
            crate::psan::PsanViolationKind::EarlyPublish { published: 256 }
        ));
        assert_eq!(v[0].op_label, "test.publish");
        // Same protocol with the record flushed first: clean.
        let p = psan_region();
        p.psan_register_publish_range(POffset::new(0), 64, 64);
        p.write(POffset::new(256), &[9u8; 48]).unwrap();
        p.flush(POffset::new(256), 48).unwrap();
        assert!(p
            .compare_exchange(POffset::new(8), &0u64.to_le_bytes(), &256u64.to_le_bytes())
            .unwrap());
        assert!(p.psan_violations().is_empty());
    }

    #[test]
    fn flush_async_then_await_is_durable() {
        let p = small();
        p.write_u64(POffset::new(8), 77).unwrap();
        let t = p.flush_async(POffset::new(8), 8).unwrap();
        assert_eq!(p.inflight_tickets(), 1);
        p.await_ticket(&t).unwrap();
        assert_eq!(p.inflight_tickets(), 0);
        // Re-awaiting a completed ticket is a cheap no-op.
        p.await_ticket(&t).unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(8)).unwrap(), 77);
    }

    #[test]
    fn unawaited_ticket_lines_take_the_lottery() {
        let p = small();
        p.write_u64(POffset::new(8), 77).unwrap();
        let t = p.flush_async(POffset::new(8), 8).unwrap();
        p.crash_now(0, 0.0);
        assert!(matches!(p.await_ticket(&t), Err(MemError::Crashed)));
        let p = p.reopen().unwrap();
        // The flight never completed: only the completed-ticket prefix
        // (here: nothing) is durable.
        assert_eq!(p.read_u64(POffset::new(8)).unwrap(), 0);
    }

    #[test]
    fn completed_prefix_survives_with_later_ticket_in_flight() {
        let p = small();
        p.write_u64(POffset::new(0), 1).unwrap();
        let t1 = p.flush_async(POffset::new(0), 8).unwrap();
        p.await_ticket(&t1).unwrap();
        p.write_u64(POffset::new(64), 2).unwrap();
        let _t2 = p.flush_async(POffset::new(64), 8).unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 1);
        assert_eq!(p.read_u64(POffset::new(64)).unwrap(), 0);
    }

    #[test]
    fn async_flush_overlaps_round_trip_with_work() {
        let p = PMemBuilder::new()
            .len(1024)
            .line_size(64)
            .flush_latency(std::time::Duration::from_millis(10))
            .build_in_memory();
        p.write_u64(POffset::new(0), 7).unwrap();
        let issued = std::time::Instant::now();
        let t = p.flush_async(POffset::new(0), 8).unwrap();
        // "Record building" overlapping the round-trip.
        std::thread::sleep(std::time::Duration::from_millis(14));
        let awaiting = std::time::Instant::now();
        p.await_ticket(&t).unwrap();
        assert!(
            awaiting.elapsed() < std::time::Duration::from_millis(8),
            "deadline passed during the overlapped work: {:?}",
            awaiting.elapsed()
        );
        // Without overlapped work the await pays the remaining latency.
        p.write_u64(POffset::new(64), 8).unwrap();
        let t = p.flush_async(POffset::new(64), 8).unwrap();
        p.await_ticket(&t).unwrap();
        assert!(issued.elapsed() >= std::time::Duration::from_millis(24));
        let snap = p.stats().snapshot();
        assert_eq!(snap.async_flushes, 2);
        assert!(snap.async_latency_charged_ns >= 20_000_000);
        assert!(snap.async_latency_waited_ns < snap.async_latency_charged_ns);
    }

    #[test]
    fn sync_flush_elides_staged_lines_and_awaits_their_flight() {
        let p = small();
        p.write_u64(POffset::new(0), 1).unwrap();
        p.write_u64(POffset::new(64), 2).unwrap();
        let _t = p.flush_async(POffset::new(0), 8).unwrap();
        let before = p.stats().snapshot();
        // Sync flush covering the staged line and a fresh one: the
        // staged line is elided, the flight is awaited, and on return
        // everything is durable.
        p.flush(POffset::new(0), 128).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(d.elided_lines, 1);
        assert_eq!(d.lines_persisted, 2, "fresh line + applied flight");
        assert_eq!(p.inflight_tickets(), 0);
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 1);
        assert_eq!(p.read_u64(POffset::new(64)).unwrap(), 2);
    }

    #[test]
    fn redirtied_staged_line_is_not_rolled_back_by_its_flight() {
        let p = small();
        p.write_u64(POffset::new(0), 1).unwrap();
        let t = p.flush_async(POffset::new(0), 8).unwrap();
        // Re-dirty after staging: the marker clears, the sync flush
        // persists the new content and purges the stale snapshot.
        p.write_u64(POffset::new(0), 2).unwrap();
        p.flush(POffset::new(0), 8).unwrap();
        p.await_ticket(&t).unwrap();
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 2);
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 2);
    }

    #[test]
    fn fully_elided_async_flush_is_redundant_and_instant() {
        let p = small();
        p.write_u64(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 8).unwrap();
        let before = p.stats().snapshot();
        let t = p.flush_async(POffset::new(0), 8).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(d.redundant_persists, 1);
        assert_eq!(d.async_flushes, 0);
        p.await_ticket(&t).unwrap();
        // Riding an earlier flight: a second async flush of a staged
        // line elides per-line instead of staging twice.
        p.write_u64(POffset::new(64), 2).unwrap();
        let t1 = p.flush_async(POffset::new(64), 8).unwrap();
        let before = p.stats().snapshot();
        let t2 = p.flush_async(POffset::new(64), 8).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(d.elided_lines, 1);
        assert_eq!(d.redundant_persists, 1);
        assert_eq!(t2, t1, "the elided ticket rides the earlier flight");
        p.await_ticket(&t2).unwrap();
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(64)).unwrap(), 2);
    }

    #[test]
    fn fence_drains_inflight_tickets() {
        let p = small();
        p.write_u64(POffset::new(0), 5).unwrap();
        let _t = p.flush_async(POffset::new(0), 8).unwrap();
        assert_eq!(p.inflight_tickets(), 1);
        p.fence();
        assert_eq!(p.inflight_tickets(), 0);
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 5);
    }

    #[test]
    fn persist_if_dirty_is_free_on_clean_lines_and_a_flush_on_dirty_ones() {
        let p = small();
        p.write_u64(POffset::new(0), 1).unwrap();
        p.flush(POffset::new(0), 8).unwrap();
        // Clean: no event, no counter of any kind.
        let (e0, before) = (p.events(), p.stats().snapshot());
        assert!(!p.persist_if_dirty(POffset::new(0), 8).unwrap());
        assert!(!p.persist_if_dirty(POffset::new(0), 0).unwrap());
        assert_eq!(p.events(), e0);
        assert_eq!(
            p.stats().snapshot() - before,
            crate::StatsSnapshot::default()
        );
        // Dirty: exactly a flush of the covered lines.
        p.write_u64(POffset::new(8), 2).unwrap();
        let (e0, before) = (p.events(), p.stats().snapshot());
        assert!(p.persist_if_dirty(POffset::new(8), 8).unwrap());
        let d = p.stats().snapshot() - before;
        assert_eq!((d.persists, d.lines_persisted, d.flush_calls), (1, 1, 1));
        assert_eq!(p.events(), e0 + 1);
        // Staged in an un-awaited flight: the line is elided and the
        // flight awaited, so the content is durable on return.
        p.write_u64(POffset::new(64), 3).unwrap();
        let _t = p.flush_async(POffset::new(64), 8).unwrap();
        let before = p.stats().snapshot();
        assert!(p.persist_if_dirty(POffset::new(64), 8).unwrap());
        let d = p.stats().snapshot() - before;
        assert_eq!((d.elided_lines, d.redundant_persists), (1, 0));
        assert_eq!(p.inflight_tickets(), 0);
        p.crash_now(0, 0.0);
        assert!(matches!(
            p.persist_if_dirty(POffset::new(0), 8),
            Err(MemError::Crashed)
        ));
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(8)).unwrap(), 2);
        assert_eq!(p.read_u64(POffset::new(64)).unwrap(), 3);
    }

    #[test]
    fn flush_async_consumes_events_like_sync_flush() {
        let p = small();
        let e0 = p.events();
        p.write_u8(POffset::new(0), 1).unwrap();
        let t = p.flush_async(POffset::new(0), 1).unwrap();
        assert_eq!(p.events(), e0 + 2, "write + one covered line");
        p.await_ticket(&t).unwrap();
        assert_eq!(p.events(), e0 + 2, "applying a flight is event-free");
    }

    #[test]
    fn failpoint_fires_during_async_issue() {
        let p = small();
        p.write(POffset::new(0), &[1u8; 64]).unwrap();
        p.write(POffset::new(64), &[2u8; 64]).unwrap();
        p.arm_failpoint(FailPlan::after_events(0));
        let err = p.flush_async(POffset::new(0), 128).unwrap_err();
        assert!(matches!(err, MemError::Crashed));
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u8(POffset::new(0)).unwrap(), 0);
        assert_eq!(p.read_u8(POffset::new(64)).unwrap(), 0);
    }

    #[test]
    fn ticket_from_another_region_is_rejected() {
        let a = small();
        let b = small();
        a.write_u8(POffset::new(0), 1).unwrap();
        let t = a.flush_async(POffset::new(0), 1).unwrap();
        assert!(matches!(
            b.await_ticket(&t),
            Err(MemError::InvalidConfig(_))
        ));
        a.await_ticket(&t).unwrap();
    }

    #[test]
    fn psan_tracks_ticket_lifecycle() {
        use crate::psan::ShadowState;
        let p = psan_region();
        let off = POffset::new(64);
        p.write_u64(off, 7).unwrap();
        let t = p.flush_async(off, 8).unwrap();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Flushed));
        // A sync round-trip elsewhere must NOT promote the staged line.
        p.write_u64(POffset::new(256), 1).unwrap();
        p.flush(POffset::new(256), 8).unwrap();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Flushed));
        p.await_ticket(&t).unwrap();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Durable));
        assert!(p.psan_violations().is_empty());
    }

    #[test]
    fn psan_flags_publish_against_unawaited_ticket() {
        let p = psan_region();
        p.psan_register_publish_range(POffset::new(0), 64, 64);
        p.write(POffset::new(256), &[9u8; 48]).unwrap();
        let t = p.flush_async(POffset::new(256), 48).unwrap();
        // Publishing before awaiting: the record rides an un-completed
        // flight — early publish.
        let _g = crate::psan::op_label("test.early-ticket-publish");
        assert!(p
            .compare_exchange(POffset::new(8), &0u64.to_le_bytes(), &256u64.to_le_bytes())
            .unwrap());
        let v = p.psan_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0].kind,
            crate::psan::PsanViolationKind::EarlyPublish { published: 256 }
        ));
        assert_eq!(v[0].op_label, "test.early-ticket-publish");

        // Awaiting first keeps the same protocol clean.
        let p = psan_region();
        p.psan_register_publish_range(POffset::new(0), 64, 64);
        p.write(POffset::new(256), &[9u8; 48]).unwrap();
        let t2 = p.flush_async(POffset::new(256), 48).unwrap();
        p.await_ticket(&t2).unwrap();
        assert!(p
            .compare_exchange(POffset::new(8), &0u64.to_le_bytes(), &256u64.to_le_bytes())
            .unwrap());
        assert!(p.psan_violations().is_empty());
        let _ = t;
    }

    #[test]
    fn psan_staged_survivor_is_a_ghost() {
        let p = psan_region();
        p.write_u64(POffset::new(128), 42).unwrap();
        let _t = p.flush_async(POffset::new(128), 8).unwrap();
        // The line survives the lottery without its flight completing:
        // the bytes were never durable.
        p.crash_now(0, 1.0);
        let p = p.reopen().unwrap();
        assert_eq!(p.read_u64(POffset::new(128)).unwrap(), 42);
        let v = p.psan_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, crate::psan::PsanViolationKind::GhostRead);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PMem>();
    }

    #[test]
    fn concurrent_writers_do_not_lose_lines() {
        let p = PMemBuilder::new().len(64 * 64).build_in_memory();
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..16usize {
                        let off = POffset::new(((t * 16 + i) * 64) as u64);
                        p.write_u64(off, (t * 16 + i) as u64 + 1).unwrap();
                        p.flush(off, 8).unwrap();
                    }
                });
            }
        });
        p.crash_now(0, 0.0);
        let p = p.reopen().unwrap();
        for i in 0..64usize {
            assert_eq!(
                p.read_u64(POffset::new((i * 64) as u64)).unwrap(),
                i as u64 + 1
            );
        }
    }

    #[test]
    fn fetch_update_installs_and_declines() {
        let p = small();
        p.write_u64(POffset::new(0), 5).unwrap();
        // Install: bump by one, observing the previous value.
        assert_eq!(
            p.fetch_update(POffset::new(0), |v| Some(v + 1)).unwrap(),
            Ok(5)
        );
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 6);
        // Decline: `None` aborts and reports what was seen.
        assert_eq!(
            p.fetch_update(POffset::new(0), |v| if v >= 6 { None } else { Some(v) })
                .unwrap(),
            Err(6)
        );
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 6);
    }

    #[test]
    fn fetch_update_is_atomic_under_contention() {
        let p = small();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let _ = p.fetch_update(POffset::new(0), |v| Some(v + 1)).unwrap();
                    }
                });
            }
        });
        assert_eq!(p.read_u64(POffset::new(0)).unwrap(), 400);
    }

    #[test]
    fn quiesce_waits_out_active_mutators() {
        let p = small();
        let entered = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let release = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let p = p.clone();
                let entered = entered.clone();
                let release = release.clone();
                s.spawn(move || {
                    let _m = p.mutator_enter();
                    entered.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            }
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            assert_eq!(p.active_mutators(), 1);
            // Quiesce must not return while the mutator is inside; let
            // it out from a third thread after a short delay.
            {
                let release = release.clone();
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    release.store(true, Ordering::SeqCst);
                });
            }
            let g = p.quiesce();
            assert_eq!(p.active_mutators(), 0);
            assert!(release.load(Ordering::SeqCst), "quiesce returned early");
            drop(g);
        });
        // Epoch advanced once per mutator entry.
        assert_eq!(p.mutator_epoch(), 1);
    }

    #[test]
    fn mutators_block_while_quiesced() {
        let p = small();
        let g = p.quiesce();
        let progressed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let p = p.clone();
                let progressed = progressed.clone();
                s.spawn(move || {
                    let _m = p.mutator_enter();
                    progressed.store(true, Ordering::SeqCst);
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !progressed.load(Ordering::SeqCst),
                "mutator entered during quiesce"
            );
            drop(g);
        });
        assert!(progressed.load(Ordering::SeqCst));
    }

    #[test]
    fn crash_stamps_order_observations_globally() {
        let a = small();
        let b = small();
        assert_eq!(a.crash_stamp(), None);
        b.crash_now(0, 0.0);
        a.crash_now(0, 0.0);
        let (sa, sb) = (a.crash_stamp().unwrap(), b.crash_stamp().unwrap());
        assert!(sb < sa, "b crashed first, must carry the earlier stamp");
        // Reopen clears the stamp with the crashed flag.
        assert_eq!(a.reopen().unwrap().crash_stamp(), None);
    }
}
