//! `pstack-telemetry` — an always-compiled flight recorder for the
//! persistent-stack runtime, switched on at run time.
//!
//! The recorder turns the sanitizer's `op_label()` stack into real
//! spans: per-thread lock-free ring buffers record span enter/exit,
//! persist round-trips, crash events, and recovery phases with
//! monotonic timestamps. A collector merges the rings
//! into per-op latency histograms (p50/p99/p999), persist-economy
//! counters attributed per op, and a crash→recovery timeline.
//!
//! Cost model, in two regimes (the `instrumentation` bench in
//! `pstack-bench` measures both):
//!
//! 1. **Idle** (no [`TraceSession`] active): one relaxed atomic load
//!    and a branch per hook.
//! 2. **Recording** (inside a [`TraceSession`]): one seqlock slot
//!    write into the calling thread's ring — no locks, no allocation
//!    after the ring exists.
//!
//! Rings are pooled: when a thread exits, its ring returns to a free
//! list and the next spawned thread reuses it, so chaos campaigns
//! that spawn hundreds of short-lived workers stay bounded at
//! (max concurrent threads) × ring size.

mod collect;
mod hist;
mod ring;
mod trace;

pub use collect::{
    CrashEntry, OpStat, PersistEconomy, RecoveryPhaseStat, TelemetrySummary, ThreadTrace,
    TraceSnapshot,
};
pub use hist::LatencyHistogram;
pub use ring::{Event, EventKind, Ring, RingRead};
pub use trace::summary_json;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// True when events are being recorded right now: the hot-path gate
/// every hook checks first.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace epoch (first use).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Label interning

struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERN: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERN.get_or_init(|| {
        Mutex::new(Interner {
            // Id 0 is the attribution sink for events outside any span.
            names: vec!["unlabeled".to_string()],
            by_name: HashMap::from([("unlabeled".to_string(), 0)]),
        })
    })
}

/// Interns a label, returning its stable id. Region names go through
/// here once at build time.
#[must_use]
pub fn intern(name: &str) -> u32 {
    let mut it = interner().lock().unwrap();
    if let Some(&id) = it.by_name.get(name) {
        return id;
    }
    let id = u32::try_from(it.names.len()).expect("label table overflow");
    it.names.push(name.to_string());
    it.by_name.insert(name.to_string(), id);
    id
}

/// Interns a `&'static str` through a per-thread pointer cache, so the
/// span hot path pays a hash of (ptr, len) instead of the string.
fn intern_static(name: &'static str) -> u32 {
    thread_local! {
        static CACHE: RefCell<HashMap<(usize, usize), u32>> = RefCell::new(HashMap::new());
    }
    CACHE
        .try_with(|c| {
            let key = (name.as_ptr() as usize, name.len());
            if let Some(&id) = c.borrow().get(&key) {
                return id;
            }
            let id = intern(name);
            c.borrow_mut().insert(key, id);
            id
        })
        .unwrap_or_else(|_| intern(name))
}

fn label_names() -> Vec<String> {
    interner().lock().unwrap().names.clone()
}

// ---------------------------------------------------------------------------
// Ring registry (pooled per-thread rings)

struct Registry {
    rings: Vec<Arc<Ring>>,
    free: Vec<usize>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            rings: Vec::new(),
            free: Vec::new(),
        })
    })
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("PSTACK_TELEMETRY_RING")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(1 << 15)
    })
}

/// Owns this thread's slot in the registry; returning it to the free
/// list on thread exit is what keeps campaign memory bounded.
struct ThreadRing {
    idx: usize,
    ring: Arc<Ring>,
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        if let Ok(mut reg) = registry().lock() {
            reg.free.push(self.idx);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadRing>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's ring, acquiring one on first use.
/// Silently skips during thread teardown (TLS already destroyed).
fn with_ring(f: impl FnOnce(&Ring)) {
    let _ = CURRENT.try_with(|cur| {
        let mut cur = cur.borrow_mut();
        if cur.is_none() {
            let mut reg = registry().lock().unwrap();
            let idx = reg.free.pop().unwrap_or_else(|| {
                reg.rings.push(Arc::new(Ring::new(ring_capacity())));
                reg.rings.len() - 1
            });
            let ring = reg.rings[idx].clone();
            *cur = Some(ThreadRing { idx, ring });
        }
        f(&cur.as_ref().unwrap().ring);
    });
}

fn push_event(kind: EventKind) {
    with_ring(|ring| ring.push(now_ns(), kind));
}

// ---------------------------------------------------------------------------
// Hooks

/// Records a span-enter for `label`; returns true if recorded (the
/// caller should then emit the matching [`span_exit`] on drop).
#[inline]
pub fn span_enter(label: &'static str) -> bool {
    if !enabled() {
        return false;
    }
    let id = intern_static(label);
    push_event(EventKind::SpanEnter { label: id });
    true
}

/// Records the matching span-exit. Call only when [`span_enter`]
/// returned true, so toggling mid-span cannot unbalance a trace.
#[inline]
pub fn span_exit(label: &'static str) {
    if !enabled() {
        return;
    }
    let id = intern_static(label);
    push_event(EventKind::SpanExit { label: id });
}

/// RAII span for call sites without an `op_label` (telemetry-only).
pub struct SpanGuard {
    label: &'static str,
    armed: bool,
}

/// Opens a telemetry-only span (no sanitizer attribution).
#[inline]
#[must_use]
pub fn span(label: &'static str) -> SpanGuard {
    SpanGuard {
        label,
        armed: span_enter(label),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            span_exit(self.label);
        }
    }
}

/// RAII recovery-phase marker. Phases are the currency of the
/// crash→recovery timeline; unlike spans they do not attribute
/// persists, so they can wrap whole recovery passes without stealing
/// attribution from the op labels inside.
pub struct PhaseGuard {
    label: u32,
    armed: bool,
}

/// Opens a recovery phase (e.g. `recovery.evidence-scan`).
#[inline]
#[must_use]
pub fn phase(label: &'static str) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard {
            label: 0,
            armed: false,
        };
    }
    let id = intern_static(label);
    push_event(EventKind::PhaseEnter { label: id });
    PhaseGuard {
        label: id,
        armed: true,
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if self.armed {
            push_event(EventKind::PhaseExit { label: self.label });
        }
    }
}

/// Start-of-persist timestamp capture. Constructed unconditionally on
/// the persist path; costs one branch when recording is off.
pub struct PersistProbe {
    start: Option<Instant>,
}

/// Captures the persist round-trip start time (None when off).
#[inline]
#[must_use]
pub fn persist_probe() -> PersistProbe {
    PersistProbe {
        start: enabled().then(Instant::now),
    }
}

impl PersistProbe {
    /// Completes the round-trip: `lines` actually-flushed cache lines
    /// (0 means the barrier was redundant).
    #[inline]
    pub fn record(self, region: u32, lines: usize) {
        if let Some(t0) = self.start {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            push_event(EventKind::Persist {
                region,
                lines: u32::try_from(lines).unwrap_or(u32::MAX),
                dur_ns,
            });
        }
    }
}

/// Records a bare fence (ordering barrier with no flushed range).
#[inline]
pub fn fence_event(region: u32) {
    if enabled() {
        push_event(EventKind::Fence { region });
    }
}

/// Records a region crash with its event-counter reading.
#[inline]
pub fn crash(region: u32, events: u64) {
    if enabled() {
        push_event(EventKind::Crash { region, events });
    }
}

/// Records runtime-level crash attribution. `shard` is the shard
/// index, or [`CONTROL_REGION`] for the control region.
#[inline]
pub fn crash_site(shard: u64, events: u64) {
    if enabled() {
        push_event(EventKind::CrashSite { shard, events });
    }
}

/// `shard` value in [`crash_site`] naming the runtime control region.
pub const CONTROL_REGION: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// Sessions

/// A recording window. Starting a session turns the recorder on;
/// finishing it collects every event recorded since the
/// start into a [`TraceSnapshot`]. Sessions nest/overlap: each keeps
/// its own per-ring cursors, and the recorder switches off when the
/// last one finishes.
pub struct TraceSession {
    /// Ring-head positions at start, indexed by registry slot. Rings
    /// created after the session started implicitly begin at 0.
    start: Vec<u64>,
    /// Still holding a recorder activation (cleared by `finish`; the
    /// `Drop` impl releases it if the session is abandoned).
    live: bool,
}

fn deactivate() {
    if ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed) == 1 {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

impl TraceSession {
    /// Starts recording and marks the collection window.
    #[must_use]
    pub fn start() -> Self {
        let reg = registry().lock().unwrap();
        let start = reg.rings.iter().map(|r| r.head()).collect();
        ACTIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        Self { start, live: true }
    }

    /// Stops this session and returns everything it recorded.
    #[must_use]
    pub fn finish(mut self) -> TraceSnapshot {
        if std::mem::take(&mut self.live) {
            deactivate();
        }
        let reg = registry().lock().unwrap();
        let mut threads = Vec::new();
        for (idx, ring) in reg.rings.iter().enumerate() {
            let from = self.start.get(idx).copied().unwrap_or(0);
            let read = ring.read_from(from);
            if !read.events.is_empty() || read.dropped > 0 {
                threads.push(ThreadTrace {
                    ring: idx,
                    events: read.events,
                    dropped: read.dropped,
                });
            }
        }
        TraceSnapshot {
            labels: label_names(),
            threads,
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if std::mem::take(&mut self.live) {
            deactivate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sessions share global recorder state; keep session-based tests in
    // one #[test] so parallel test threads don't cross-pollinate the
    // enabled flag in ways the assertions below care about. (Even so,
    // assertions only ever look at labels this test itself creates.)
    #[test]
    fn session_records_spans_and_persists() {
        let session = TraceSession::start();
        {
            let _outer = span("lib-test.outer");
            let probe = persist_probe();
            probe.record(intern("lib-test.region"), 3);
            let _inner = span("lib-test.inner");
        }
        let snap = session.finish();
        let sum = snap.summary();
        let outer = sum
            .ops
            .iter()
            .find(|o| o.label == "lib-test.outer")
            .expect("outer span present");
        assert_eq!(outer.count, 1);
        let pe = sum
            .persist_economy
            .iter()
            .find(|p| p.label == "lib-test.outer")
            .expect("persist attributed to innermost open span");
        assert_eq!(pe.persists, 1);
        assert_eq!(pe.lines, 3);
        assert_eq!(pe.coalesced, 2);
        assert_eq!(pe.redundant, 0);
    }
}
