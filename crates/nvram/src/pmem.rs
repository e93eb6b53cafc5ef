//! The program's side of an NVRAM region.
//!
//! [`PMem`] is a byte-addressable persistent region fronted by a
//! volatile cache of fixed-size lines (§1–§3 of the paper), as a
//! program sees it:
//!
//! * [`PMem::write`] stores into volatile dirty lines only;
//! * [`PMem::flush`] makes the covering lines durable by issuing one
//!   flight over them and awaiting it — each line persists atomically,
//!   but a crash before the flight completes leaves its lines to the
//!   survivor lottery, so any subset of a multi-line flush may survive;
//! * a crash ([`PMem::crash_now`] or an armed [`FailPlan`]) persists an
//!   arbitrary seeded subset of dirty lines (modelling evictions that
//!   happened to occur before the failure) and discards the rest, after
//!   which **every** access fails with [`MemError::Crashed`];
//! * [`PMem::reopen`] produces a fresh handle onto the surviving
//!   persistent image, as the recovery boot of the system would.
//!
//! This half checks and counts — liveness, bounds, persistence events,
//! fail-points, stats, PSan and telemetry hooks, jitter, the quiesce
//! gate, tickets and [`Durable`] receipts — over the region's one
//! device (`backend.rs`), which moves from a crashed boot to the next.
//!
//! Accesses are serialized internally with critical sections of a single
//! read/write/flush, so concurrent threads interleave at persistence-event
//! granularity — exactly the granularity at which a `kill` can cut a real
//! execution between flushes.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};

use parking_lot::{FairMutex, MutexGuard};
use rand::Rng;

use crate::backend::Device;
use crate::builder::Jitter;
use crate::failpoint::{FailPlan, FailState};
use crate::psan::PsanCell;
use crate::stats::MemStats;
use crate::{Durable, FlushTicket, MemError, POffset};

struct State {
    /// The region's device; [`PMem::reopen`] moves it to the next boot.
    device: Option<Device>,
    fail: FailState,
    /// Serial of the most recently issued flight.
    issued: u64,
    /// Serial of the most recently completed flight.
    completed: u64,
}

impl State {
    /// The device. Only a crashed boot's moves on, and the crash flag
    /// is only set under the region lock: a caller that found the boot
    /// alive under the lock finds the device here.
    fn device(&mut self) -> &mut Device {
        self.device.as_mut().expect("a live boot has its device")
    }
}

struct Inner {
    len: usize,
    line_size: usize,
    jitter: Option<Jitter>,
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
    /// The region's gate: held by its one exclusive section
    /// ([`PMem::quiesce`]); never taken by `PMem` itself.
    gate: StdMutex<()>,
    /// What programs keep in DRAM beside this boot ([`PMem::volatile`]).
    volatile: StdMutex<crate::volatile::Slots>,
}

/// Process-wide monotonic clock of crash observations: every region
/// death draws the next tick, so near-simultaneous multi-region
/// failures stay totally ordered by who observed its crash first.
static CRASH_CLOCK: AtomicU64 = AtomicU64::new(0);

/// RAII exclusive section (see [`PMem::quiesce`]): while it lives, no
/// other exclusive section runs on the region. Dropping it reopens the
/// gate.
pub struct QuiesceGuard<'a> {
    _held: std::sync::MutexGuard<'a, ()>,
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
            .field("crashed", &self.inner.crashed.load(Ordering::Relaxed))
            .finish()
    }
}

impl PMem {
    /// A boot of a region on `device`: the one way both a builder and
    /// [`PMem::reopen`] make a handle.
    pub(crate) fn start(
        device: Device,
        jitter: Option<Jitter>,
        psan: Option<Arc<PsanCell>>,
        tlabel: u32,
    ) -> PMem {
        PMem {
            inner: Arc::new(Inner {
                len: device.len(),
                line_size: device.line_size(),
                jitter,
                psan,
                tlabel: AtomicU32::new(tlabel),
                crashed: AtomicBool::new(false),
                crash_stamp: AtomicU64::new(0),
                stats: MemStats::default(),
                state: FairMutex::new(State {
                    device: Some(device),
                    fail: FailState::default(),
                    issued: 0,
                    completed: 0,
                }),
                gate: StdMutex::new(()),
                volatile: StdMutex::default(),
            }),
        }
    }

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

    /// Live statistics counters for this boot of the region.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.inner.stats
    }

    /// Enters the region's **exclusive section**: blocks until no other
    /// section holds the gate, and holds it until the guard drops.
    /// Multi-access protocols over the region — the KV store's group
    /// commits (every mutation is one) and its compactions — serialize
    /// through it, machine-checked rather than caller-promised. Any
    /// number of handles opened from the same region share the gate —
    /// clones and independent opens. Purely volatile: not part of the
    /// persistent image, reset on reopen. Entering it again on a thread
    /// that already holds it deadlocks.
    pub fn quiesce(&self) -> QuiesceGuard<'_> {
        // A section that panicked left nothing half-done in the gate
        // itself: a poisoned lock is still the region's one gate.
        let held = self
            .inner
            .gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        QuiesceGuard { _held: held }
    }

    pub(crate) fn volatile_slots(&self) -> &StdMutex<crate::volatile::Slots> {
        &self.inner.volatile
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
        // `POffset::NULL` is `u64::MAX`: past the end of every region.
        match off.get().checked_add(len as u64) {
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
        let mut st = self.inner.state.lock();
        self.check_alive()?;
        self.check_bounds(off, buf.len())?;
        st.device().read(off.as_usize(), buf);
        MemStats::bump(&self.inner.stats.reads);
        if let Some(psan) = &self.inner.psan {
            psan.note_read(off.get(), buf.len(), st.fail.events);
        }
        Ok(())
    }

    /// Writes `data` at `off` into the volatile cache. The data is *not*
    /// durable until the covering lines are flushed.
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] after a crash (including one injected by an
    /// armed fail-point during this very call, in which case the write
    /// does **not** take effect); [`MemError::OutOfBounds`] past the end.
    pub fn write(&self, off: POffset, data: &[u8]) -> Result<(), MemError> {
        self.check_alive()?;
        self.check_bounds(off, data.len())?;
        {
            let mut st = self.inner.state.lock();
            self.on_event(&mut st)?;
            st.device().write(off.as_usize(), data);
            MemStats::bump(&self.inner.stats.writes);
            MemStats::add(&self.inner.stats.bytes_written, data.len() as u64);
            if let Some(psan) = &self.inner.psan {
                psan.note_write(off.get(), data.len(), st.fail.events);
            }
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

    /// Makes the cache lines covering `[off, off + len)` durable and
    /// returns their receipt: one flight issued exactly as
    /// [`PMem::flush_async`] issues it, then awaited — which completes
    /// every older flight on the region too, since flights complete in
    /// issue order. Each line persists atomically; a crash before the
    /// flight completes leaves the covered lines to the survivor
    /// lottery, so any subset of them may survive — the torn state
    /// Fig. 5 in the paper tolerates.
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`], [`MemError::OutOfBounds`], or an I/O error
    /// from the file the device writes through to.
    pub fn flush(&self, off: POffset, len: usize) -> Result<Durable, MemError> {
        self.persist(off, len, false)?;
        Ok(Durable::flight(self.ticket(0, off, len)))
    }

    /// The **durable-read** primitive (FliT's rule: a reader persists
    /// a line only if a writer has left it un-persisted). Decided under
    /// the region lock: if no line covering `[off, off + len)` is dirty
    /// — none written since its last persist, none staged in an
    /// un-completed flight — this returns `Ok(false)` having done
    /// **nothing**: no persistence event, no round-trip, no counter
    /// (not even `redundant_persists`). Otherwise it is exactly
    /// [`PMem::flush`] and returns `Ok(true)`.
    ///
    /// A reader that returns a value read from these lines calls this
    /// first, so the value it hands out survives a crash; on a
    /// quiescent region that costs nothing.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::flush`].
    pub fn persist_if_dirty(&self, off: POffset, len: usize) -> Result<bool, MemError> {
        self.persist(off, len, true)
    }

    /// `true` when [`PMem::persist_if_dirty`] over `[off, off + len)`
    /// would persist: a covering line is dirty. No persistence event.
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] or [`MemError::OutOfBounds`].
    pub fn is_dirty(&self, off: POffset, len: usize) -> Result<bool, MemError> {
        let mut st = self.inner.state.lock();
        self.check_alive()?;
        self.check_bounds(off, len)?;
        Ok(self.dirty_in(&mut st, off, len))
    }

    fn dirty_in(&self, st: &mut State, off: POffset, len: usize) -> bool {
        let (line, start) = (self.inner.line_size, off.as_usize());
        len != 0
            && st
                .device()
                .any_dirty(start / line, (start + len - 1) / line)
    }

    /// [`PMem::flush`], or with `only_if_dirty` [`PMem::persist_if_dirty`]:
    /// one flight issued and awaited, under one lock unless the await
    /// has device time to sleep.
    fn persist(&self, off: POffset, len: usize, only_if_dirty: bool) -> Result<bool, MemError> {
        // Telemetry round-trip timer: a no-op unless recording.
        let probe = pstack_telemetry::persist_probe();
        let mut st = self.inner.state.lock();
        self.check_alive()?;
        self.check_bounds(off, len)?;
        if only_if_dirty && !self.dirty_in(&mut st, off, len) {
            return Ok(false);
        }
        MemStats::bump(&self.inner.stats.flush_calls);
        let serial = self.issue(&mut st, off.as_usize(), len)?;
        let persisted = self.await_serial(st, serial)?;
        // Recorded after the emulated device latency so span/persist
        // durations reflect the cost the caller actually paid.
        probe.record(
            self.inner.tlabel.load(Ordering::Relaxed),
            persisted as usize,
        );
        self.maybe_jitter();
        Ok(true)
    }

    /// Issues an **asynchronous flush** of the lines covering
    /// `[off, off + len)`: one flight, its device time charged into its
    /// deadline, whose [`FlushTicket`] is awaited — by
    /// [`PMem::await_ticket`], a [`PMem::fence`] or any later
    /// [`PMem::flush`] on the region — where durability is needed,
    /// typically right before a commit-point CAS or root swap. Work done
    /// in between overlaps the round-trip; that overlap is the pipeline
    /// win.
    ///
    /// Dirty lines are snapshotted at issue: once awaited, the ticket
    /// guarantees the content *as of this call* is durable, even if the
    /// lines are re-dirtied in between. A covered line staged by an
    /// earlier un-completed flight (and not re-dirtied since) is elided:
    /// the ticket rides that flight. A call whose every covered line is
    /// clean issues nothing (counted in `redundant_persists`). Each
    /// covered line is one persistence event, as in [`PMem::flush`]; a
    /// crash with the flight still queued keeps only completed flights
    /// durable (staged lines take the survivor lottery like any other
    /// dirty line).
    ///
    /// # Errors
    ///
    /// [`MemError::Crashed`] (including a fail-point firing on a
    /// covered line's event) or [`MemError::OutOfBounds`].
    pub fn flush_async(&self, off: POffset, len: usize) -> Result<FlushTicket, MemError> {
        let _issue = pstack_telemetry::span("flush.issue");
        let mut st = self.inner.state.lock();
        self.check_alive()?;
        self.check_bounds(off, len)?;
        MemStats::bump(&self.inner.stats.flush_calls);
        let issued = st.issued;
        let serial = self.issue(&mut st, off.as_usize(), len)?;
        if serial > issued {
            MemStats::bump(&self.inner.stats.async_flushes);
        }
        Ok(self.ticket(serial, off, len))
    }

    /// Identity of this region boot: what a [`FlushTicket`] and a
    /// [`Durable`] receipt are bound to.
    pub(crate) fn boot(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// A ticket for flight `serial` over `[off, off + len)` of this boot.
    pub(crate) fn ticket(&self, serial: u64, off: POffset, len: usize) -> FlushTicket {
        FlushTicket {
            region: self.boot(),
            serial,
            start: off.get(),
            end: off.get() + len as u64,
        }
    }

    /// Stages one flight over the dirty lines covering `[start, start +
    /// len)` — each covered line one persistence event — and returns the
    /// serial whose completion makes them all durable: the new flight's,
    /// else the youngest flight a covered line rides, else (every
    /// covered line clean) the last completed one.
    fn issue(&self, st: &mut State, start: usize, len: usize) -> Result<u64, MemError> {
        if len == 0 {
            return Ok(st.completed);
        }
        let line = self.inner.line_size;
        let (first, last) = (start / line, (start + len - 1) / line);
        let serial = st.issued + 1;
        let mut flight = st.device().begin_flight(serial, first, last);
        let mut covering = 0u64;
        for li in first..=last {
            self.on_event(st)?;
            match st.device().stage(&mut flight, li) {
                Some(s) if s == serial => {
                    if let Some(psan) = &self.inner.psan {
                        psan.note_persist_line_ticket(li, serial, st.fail.events);
                    }
                }
                Some(s) => {
                    // Staged by an un-completed flight and not
                    // re-dirtied since: the line rides it (FliT-style
                    // per-line durable tracking).
                    MemStats::bump(&self.inner.stats.elided_lines);
                    covering = covering.max(s);
                }
                None => {}
            }
        }
        let Some(charge) = st.device().queue(flight) else {
            if covering == 0 {
                // Every covered line was already durable. Diagnostic,
                // not a violation.
                MemStats::bump(&self.inner.stats.redundant_persists);
                return Ok(st.completed);
            }
            return Ok(covering);
        };
        st.issued = serial;
        if !charge.is_zero() {
            MemStats::add(
                &self.inner.stats.async_latency_charged_ns,
                charge.as_nanos() as u64,
            );
        }
        Ok(serial)
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
        if ticket.region != self.boot() {
            return Err(MemError::InvalidConfig(
                "flush ticket belongs to a different region or boot".into(),
            ));
        }
        self.await_traced(ticket.serial)
    }

    /// [`PMem::await_serial`] as a ticket or a fence waits: timed by a
    /// `flush.await` span when anything is left to complete.
    fn await_traced(&self, serial: u64) -> Result<(), MemError> {
        let st = self.inner.state.lock();
        if st.completed >= serial {
            return Ok(());
        }
        let probe = pstack_telemetry::persist_probe();
        let persisted = {
            // The span times the wait; the persist it completes belongs
            // to the awaiting op, recorded once the span has closed —
            // as a synchronous flush's is.
            let _await = pstack_telemetry::span("flush.await");
            self.await_serial(st, serial)?
        };
        probe.record(
            self.inner.tlabel.load(Ordering::Relaxed),
            persisted as usize,
        );
        Ok(())
    }

    /// The one await: completes every queued flight up to `serial` and
    /// returns how many lines they made durable. The device time is
    /// slept here and nowhere else — until the latest deadline among
    /// the flights it completes, with the region lock released (so
    /// concurrent awaits, and round-trips on other regions, overlap).
    /// With nothing left to sleep the flights apply under the lock the
    /// caller already holds. Completing a flight consumes no
    /// persistence events — those were charged at issue.
    fn await_serial<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        serial: u64,
    ) -> Result<u64, MemError> {
        if st.completed >= serial {
            return Ok(0);
        }
        if self.is_crashed() {
            return Err(MemError::Crashed);
        }
        let deadline = st.device().deadline(serial);
        if let Some(wait) =
            deadline.and_then(|d| d.checked_duration_since(std::time::Instant::now()))
        {
            drop(st);
            std::thread::sleep(wait);
            MemStats::add(
                &self.inner.stats.async_latency_waited_ns,
                wait.as_nanos() as u64,
            );
            st = self.inner.state.lock();
            if self.is_crashed() {
                return Err(MemError::Crashed);
            }
        }
        let mut persisted = 0u64;
        while let Some((done, lines)) = st.device().complete(serial)? {
            st.completed = done;
            // One round-trip: `persists` counts it, `coalesced_lines`
            // the lines amortized beyond the first.
            persisted += lines;
            MemStats::add(&self.inner.stats.lines_persisted, lines);
            MemStats::bump(&self.inner.stats.persists);
            MemStats::add(&self.inner.stats.coalesced_lines, lines - 1);
            if let Some(psan) = &self.inner.psan {
                psan.note_ticket_complete(done, st.fail.events);
            }
        }
        Ok(persisted)
    }

    /// Number of flights issued but not yet completed (still on the
    /// queue). Crash campaigns use this to prove kills land while
    /// flushes are in flight.
    #[must_use]
    pub fn inflight_tickets(&self) -> u64 {
        let st = self.inner.state.lock();
        st.device.as_ref().map_or(0, |d| d.in_flight() as u64)
    }

    /// Persistence fence: completes every flight on the region (the
    /// strongest await — under PSan every `Flushed` line is `Durable`
    /// after it), then records the `sfence`-style marker. Errors from
    /// draining — a crashed region — are swallowed to keep the
    /// infallible signature; the crash surfaces on the next access.
    pub fn fence(&self) {
        let target = self.inner.state.lock().issued;
        let _ = self.await_traced(target);
        MemStats::bump(&self.inner.stats.fences);
        pstack_telemetry::fence_event(self.inner.tlabel.load(Ordering::Relaxed));
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
        let device = st.device();
        device.read(off.as_usize(), &mut current);
        if current != expected {
            return Ok(false);
        }
        device.write(off.as_usize(), new);
        MemStats::bump(&self.inner.stats.writes);
        MemStats::add(&self.inner.stats.bytes_written, new.len() as u64);
        if let Some(psan) = &self.inner.psan {
            psan.note_write(off.get(), new.len(), st.fail.events);
            // A successful CAS in a registered publish range makes its
            // new value reachable: early-publish check on the target.
            psan.note_cas_publish(off.get(), new, st.fail.events);
        }
        drop(st);
        self.maybe_jitter();
        Ok(true)
    }

    /// Injects a crash: each dirty line independently survives (is
    /// persisted) with probability `survival_prob`, decided
    /// deterministically from `seed`; all other dirty lines are lost.
    /// Afterwards every access fails until [`PMem::reopen`].
    ///
    /// Calling this on an already-crashed region is a no-op.
    pub fn crash_now(&self, seed: u64, survival_prob: f64) {
        let mut st = self.inner.state.lock();
        if !self.is_crashed() {
            self.crash_locked(&mut st, seed, survival_prob);
        }
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
        let (outcomes, cut) = st.device().crash(seed, survival_prob);
        let survivors = outcomes.iter().filter(|&&(_, kept)| kept).count();
        MemStats::add(&self.inner.stats.lines_persisted, survivors as u64);
        // Un-completed flights died with the cache: their staged lines
        // took the lottery (so recovery sees exactly the
        // completed-ticket prefix, plus any lucky survivors), and
        // pending tickets fail their await with `Crashed`.
        MemStats::add(&self.inner.stats.flights_cut, cut as u64);
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
    /// The region's device moves to the new boot, so a crashed boot
    /// reopens once.
    ///
    /// For file-backed regions the image is re-read from the file, so
    /// the returned handle sees exactly what a new process would see.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] if the region has not
    /// crashed or this boot was already reopened, or an I/O error when
    /// re-reading the file.
    pub fn reopen(&self) -> Result<PMem, MemError> {
        if !self.is_crashed() {
            return Err(MemError::InvalidConfig(
                "reopen requires a crashed region; call crash_now first".into(),
            ));
        }
        let mut st = self.inner.state.lock();
        let Some(device) = st.device.as_mut() else {
            return Err(MemError::InvalidConfig(
                "this crashed boot was already reopened".into(),
            ));
        };
        device.restart()?;
        let device = st.device.take().expect("checked above");
        Ok(PMem::start(
            device,
            self.inner.jitter,
            self.inner.psan.clone(),
            self.inner.tlabel.load(Ordering::Relaxed),
        ))
    }

    /// Names the region (e.g. `"shard-3"`, `"control"`) in PSan
    /// violation reports and in telemetry traces (persist round-trips,
    /// crash events). Survives [`PMem::reopen`]. Unnamed, a region is
    /// `"region"` in both.
    pub fn set_label(&self, label: &str) {
        if let Some(psan) = &self.inner.psan {
            psan.set_label(label);
        }
        self.inner
            .tlabel
            .store(pstack_telemetry::intern(label), Ordering::Relaxed);
    }

    /// The region's PSan shadow, when enabled.
    pub(crate) fn psan(&self) -> Option<&PsanCell> {
        self.inner.psan.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PMemBuilder;

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
        // `on_event` — where a late persist-store would reach the image.
        let p = PMemBuilder::new().len(4096).build_in_memory();
        p.write_persist(POffset::new(64), &7u64.to_le_bytes())
            .unwrap();
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
        // Write 3 lines and cut their flush at its second line's event:
        // the flight never completes, so all three lines take the
        // survivor lottery — none survive at probability 0, all at 1,
        // and a seeded 0.5 cut keeps a set that is not a prefix (the
        // torn state Fig. 5 tolerates).
        let cut = |seed: u64, prob: f64| {
            let p = small();
            p.write(POffset::new(0), &[1u8; 64]).unwrap();
            p.write(POffset::new(64), &[2u8; 64]).unwrap();
            p.write(POffset::new(128), &[3u8; 64]).unwrap();
            p.arm_failpoint(FailPlan::after_events(1).with_survivors(seed, prob));
            let err = p.flush(POffset::new(0), 192).unwrap_err();
            assert!(matches!(err, MemError::Crashed));
            let p = p.reopen().unwrap();
            [0, 64, 128].map(|off| p.read_u8(POffset::new(off)).unwrap())
        };
        assert_eq!(cut(0, 0.0), [0, 0, 0]);
        assert_eq!(cut(0, 1.0), [1, 2, 3]);
        // The first and last line survive, the middle one is lost.
        assert_eq!(cut(3, 0.5), [1, 0, 3]);
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
        p.set_label("ghost-demo");
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
        // Re-dirty after staging: the marker clears, and the sync
        // flush's flight carries the new content, completing after the
        // stale snapshot's.
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
        // The line was dirty, so the call is not redundant: only a
        // call whose every covered line was clean is.
        assert_eq!(d.elided_lines, 1);
        assert_eq!(d.redundant_persists, 0);
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
        let other = psan_region();
        let off = POffset::new(64);
        p.write_u64(off, 7).unwrap();
        let t = p.flush_async(off, 8).unwrap();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Flushed));
        // A sync flush on another region must NOT promote the staged
        // line.
        other.write_u64(POffset::new(256), 1).unwrap();
        other.flush(POffset::new(256), 8).unwrap();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Flushed));
        // A sync flush on the same region completes the flight: flights
        // complete in issue order, as they do when a later ticket is
        // awaited.
        p.write_u64(POffset::new(256), 1).unwrap();
        p.flush(POffset::new(256), 8).unwrap();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Durable));
        assert_eq!(p.inflight_tickets(), 0);
        p.await_ticket(&t).unwrap();
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

    #[test]
    fn a_crashed_boot_reopens_once() {
        let mut path = std::env::temp_dir();
        path.push(format!("pstack-pmem-reopen-once-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = PMemBuilder::new().len(4096).build_file(&path).unwrap();
        for p in [PMemBuilder::new().len(4096).build_in_memory(), file] {
            p.write_u64(POffset::new(128), 42).unwrap();
            p.flush(POffset::new(128), 8).unwrap();
            p.crash_now(1, 0.0);
            let reopened = p.reopen().unwrap();
            assert!(matches!(p.reopen(), Err(MemError::InvalidConfig(_))));
            assert_eq!(reopened.read_u64(POffset::new(128)).unwrap(), 42);
            // The device moved on whole: the new boot still writes
            // through, and reopens once in its turn.
            reopened.write_u64(POffset::new(256), 7).unwrap();
            reopened.flush(POffset::new(256), 8).unwrap();
            reopened.crash_now(1, 0.0);
            let again = reopened.reopen().unwrap();
            assert_eq!(again.read_u64(POffset::new(256)).unwrap(), 7);
        }
        let p = PMemBuilder::new().len(4096).build_file(&path).unwrap();
        assert_eq!(p.read_u64(POffset::new(256)).unwrap(), 7);
        let _ = std::fs::remove_file(&path);
    }
}
