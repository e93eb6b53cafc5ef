//! Per-thread lock-free event rings.
//!
//! Each recording thread owns one ring: the owner is the only writer,
//! so slots need no CAS. A per-slot sequence word (seqlock discipline,
//! the crossbeam `AtomicCell` recipe) lets a collector snapshot the
//! ring while the owner keeps writing: readers detect torn or
//! overwritten slots from the sequence, and the monotonic head counter
//! turns what they lose into an explicit dropped-events count instead
//! of silent truncation. A read hands out a contiguous suffix of its
//! window, never a run with a hole in it ([`Ring::read_from`]).

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Words per slot: sequence, timestamp, kind+label, payload b, payload c.
const SLOT_WORDS: usize = 5;

/// One recorded event, decoded from a ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic position in the owning ring (defines per-thread order).
    pub pos: u64,
    /// Nanoseconds since the process-wide trace epoch.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Event payloads. Label/region fields are interned-string ids
/// resolved through the snapshot's label table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An `op_label` (or telemetry-only) span opened.
    SpanEnter { label: u32 },
    /// The innermost span closed.
    SpanExit { label: u32 },
    /// A recovery phase opened (evidence scan, frame replay, …).
    PhaseEnter { label: u32 },
    /// A recovery phase closed.
    PhaseExit { label: u32 },
    /// One persist round-trip: `lines` cache lines actually flushed
    /// (0 ⇒ redundant — the barrier found nothing dirty).
    Persist {
        region: u32,
        lines: u32,
        dur_ns: u64,
    },
    /// An explicit fence with no range.
    Fence { region: u32 },
    /// A region crashed; `events` is its event-counter reading.
    Crash { region: u32, events: u64 },
    /// Runtime-level crash attribution (`CrashSite`): `shard` is the
    /// shard index, or `u64::MAX` for the control region.
    CrashSite { shard: u64, events: u64 },
}

const K_SPAN_ENTER: u64 = 1;
const K_SPAN_EXIT: u64 = 2;
const K_PHASE_ENTER: u64 = 3;
const K_PHASE_EXIT: u64 = 4;
const K_PERSIST: u64 = 5;
const K_FENCE: u64 = 6;
// Tag 7 is retired: decoded as an unknown kind, never reused.
const K_CRASH: u64 = 8;
const K_CRASH_SITE: u64 = 9;

impl EventKind {
    /// Packs into (kind|label word, b, c).
    pub(crate) fn encode(self) -> (u64, u64, u64) {
        let pack = |k: u64, a: u32| (k << 32) | u64::from(a);
        match self {
            EventKind::SpanEnter { label } => (pack(K_SPAN_ENTER, label), 0, 0),
            EventKind::SpanExit { label } => (pack(K_SPAN_EXIT, label), 0, 0),
            EventKind::PhaseEnter { label } => (pack(K_PHASE_ENTER, label), 0, 0),
            EventKind::PhaseExit { label } => (pack(K_PHASE_EXIT, label), 0, 0),
            EventKind::Persist {
                region,
                lines,
                dur_ns,
            } => (pack(K_PERSIST, region), u64::from(lines), dur_ns),
            EventKind::Fence { region } => (pack(K_FENCE, region), 0, 0),
            EventKind::Crash { region, events } => (pack(K_CRASH, region), events, 0),
            EventKind::CrashSite { shard, events } => (pack(K_CRASH_SITE, 0), shard, events),
        }
    }

    /// Decodes from packed words; `None` for an unknown kind tag.
    pub(crate) fn decode(ka: u64, b: u64, c: u64) -> Option<Self> {
        let a = ka as u32;
        Some(match ka >> 32 {
            K_SPAN_ENTER => EventKind::SpanEnter { label: a },
            K_SPAN_EXIT => EventKind::SpanExit { label: a },
            K_PHASE_ENTER => EventKind::PhaseEnter { label: a },
            K_PHASE_EXIT => EventKind::PhaseExit { label: a },
            K_PERSIST => EventKind::Persist {
                region: a,
                lines: b as u32,
                dur_ns: c,
            },
            K_FENCE => EventKind::Fence { region: a },
            K_CRASH => EventKind::Crash {
                region: a,
                events: b,
            },
            K_CRASH_SITE => EventKind::CrashSite {
                shard: b,
                events: c,
            },
            _ => return None,
        })
    }

    /// Wire tag used by the trace-file format.
    #[must_use]
    pub fn tag(&self) -> u64 {
        self.encode().0 >> 32
    }
}

/// Single-writer, multi-reader event ring.
pub struct Ring {
    slots: Box<[AtomicU64]>,
    mask: u64,
    /// Next write position; grows without bound (wraps modulo capacity
    /// into `slots`). Readers use it to find the live window.
    head: AtomicU64,
}

impl Ring {
    /// Creates a ring holding `capacity` events (rounded up to a power
    /// of two, minimum 64).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(64).next_power_of_two();
        let slots = (0..cap * SLOT_WORDS).map(|_| AtomicU64::new(0)).collect();
        Self {
            slots,
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
        }
    }

    /// Event capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Number of events ever pushed.
    #[must_use]
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    fn slot(&self, pos: u64) -> &[AtomicU64] {
        let base = (pos & self.mask) as usize * SLOT_WORDS;
        &self.slots[base..base + SLOT_WORDS]
    }

    /// Appends one event. Caller must be the ring's owning thread —
    /// the single-writer contract is what makes this lock-free.
    pub fn push(&self, ts: u64, kind: EventKind) {
        let pos = self.head.load(Ordering::Relaxed);
        let slot = self.slot(pos);
        // Seqlock write: odd = in progress. The RMW with AcqRel keeps
        // the payload stores from floating above it.
        slot[0].swap(2 * pos + 1, Ordering::AcqRel);
        let (ka, b, c) = kind.encode();
        slot[1].store(ts, Ordering::Relaxed);
        slot[2].store(ka, Ordering::Relaxed);
        slot[3].store(b, Ordering::Relaxed);
        slot[4].store(c, Ordering::Relaxed);
        slot[0].store(2 * pos + 2, Ordering::Release);
        self.head.store(pos + 1, Ordering::Release);
    }

    /// Reads the events at positions `[from, head)` that are still
    /// intact, oldest first.
    ///
    /// **Contract: the result is a contiguous suffix of the window,
    /// ending at `head`; every earlier position is counted in
    /// `dropped`.** So `events[0].pos == head - events.len()` and
    /// `dropped == that - from`, always. Positions the window outran
    /// (wraparound) are dropped up front; a slot found torn or already
    /// recycled *mid-window* drops everything collected before it as
    /// well. That can happen — a reader preempted after slot *p*, the
    /// writer lapping *p+1..q* and pausing, the reader resuming over
    /// *q+1..head* that still hold the old lap — and the collector's
    /// span replay pairs enters with exits across whatever it is
    /// handed: it tolerates a missing prefix, not a hole.
    pub fn read_from(&self, from: u64) -> RingRead {
        let head = self.head.load(Ordering::Acquire);
        let lo = from.max(head.saturating_sub(self.mask + 1));
        let mut events = Vec::with_capacity((head - lo) as usize);
        let mut dropped = lo - from.min(lo);
        for pos in lo..head {
            match self.read_slot(pos) {
                Some(event) => events.push(event),
                None => {
                    dropped += 1 + events.len() as u64;
                    events.clear();
                }
            }
        }
        RingRead {
            events,
            dropped,
            head,
        }
    }

    /// The event at `pos`, or `None` if its slot is torn by a write in
    /// progress, already recycled by a later lap, or undecodable.
    fn read_slot(&self, pos: u64) -> Option<Event> {
        let slot = self.slot(pos);
        let s1 = slot[0].load(Ordering::Acquire);
        if s1 != 2 * pos + 2 {
            return None;
        }
        let ts = slot[1].load(Ordering::Relaxed);
        let ka = slot[2].load(Ordering::Relaxed);
        let b = slot[3].load(Ordering::Relaxed);
        let c = slot[4].load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if slot[0].load(Ordering::Relaxed) != s1 {
            return None;
        }
        let kind = EventKind::decode(ka, b, c)?;
        Some(Event { pos, ts, kind })
    }
}

/// Result of [`Ring::read_from`].
pub struct RingRead {
    /// Decoded events in position order: a gapless run ending at
    /// `head`.
    pub events: Vec<Event>,
    /// Events in the requested window that are not in `events`:
    /// overwritten by wraparound, torn mid-write, or ahead of such a
    /// slot.
    pub dropped: u64,
    /// Ring head at snapshot time (pass as the next `from`).
    pub head: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_kind() {
        let kinds = [
            EventKind::SpanEnter { label: 7 },
            EventKind::SpanExit { label: 7 },
            EventKind::PhaseEnter { label: 1 },
            EventKind::PhaseExit { label: 1 },
            EventKind::Persist {
                region: 3,
                lines: 12,
                dur_ns: 999,
            },
            EventKind::Fence { region: 3 },
            EventKind::Crash {
                region: 2,
                events: 1234,
            },
            EventKind::CrashSite {
                shard: u64::MAX,
                events: 55,
            },
        ];
        let ring = Ring::new(64);
        for (i, k) in kinds.iter().enumerate() {
            ring.push(i as u64, *k);
        }
        let read = ring.read_from(0);
        assert_eq!(read.dropped, 0);
        assert_eq!(read.events.len(), kinds.len());
        for (ev, k) in read.events.iter().zip(kinds.iter()) {
            assert_eq!(ev.kind, *k);
        }
    }

    #[test]
    fn wraparound_reports_dropped() {
        let ring = Ring::new(64);
        for i in 0..200u64 {
            ring.push(i, EventKind::SpanEnter { label: 1 });
        }
        let read = ring.read_from(0);
        assert_eq!(read.head, 200);
        assert_eq!(read.events.len(), 64);
        assert_eq!(read.dropped, 136);
        // The survivors are the newest window, in order.
        assert_eq!(read.events.first().unwrap().pos, 136);
        assert_eq!(read.events.last().unwrap().pos, 199);
        // Resuming from the head sees nothing new.
        let again = ring.read_from(read.head);
        assert!(again.events.is_empty());
        assert_eq!(again.dropped, 0);
    }

    #[test]
    fn a_lap_in_the_middle_of_the_window_drops_everything_before_it() {
        // The interleaving a preempted reader can meet, forged rather
        // than raced for: positions 0..8 are written, then the slot of
        // position 3 alone moves on to the next lap (sequence word of
        // position 3 + capacity) while the head still says 8 — a
        // writer that lapped the reader's next slot and paused.
        let ring = Ring::new(64);
        for i in 0..8u64 {
            ring.push(i, EventKind::SpanEnter { label: i as u32 });
        }
        let lapped = 3 + ring.capacity() as u64;
        ring.slot(3)[0].store(2 * lapped + 2, Ordering::Release);
        let read = ring.read_from(0);
        assert_eq!(read.head, 8);
        let positions: Vec<u64> = read.events.iter().map(|e| e.pos).collect();
        assert_eq!(positions, vec![4, 5, 6, 7], "a contiguous suffix, no hole");
        assert_eq!(read.dropped, 4, "the lapped slot and all before it");
        assert_eq!(read.head - read.events.len() as u64, read.dropped);

        // The writer resumes: a later read is gapless again.
        ring.push(8, EventKind::SpanEnter { label: 8 });
        let next = ring.read_from(read.head);
        assert_eq!((next.events.len(), next.dropped), (1, 0));
        assert_eq!(next.events[0].pos, 8);
    }
}
