//! A recoverable bounded FIFO queue — the "other NVRAM algorithms"
//! direction of the paper's future work (§6, item 1), built in the same
//! NSRL style as the recoverable CAS (§5).
//!
//! # Design
//!
//! The queue is a bounded, log-structured array of `capacity` slots.
//! A slot moves through exactly three states, monotonically:
//!
//! ```text
//! EMPTY ──enqueue──▶ FULL ──dequeue──▶ TOMBSTONE
//! ```
//!
//! * `enqueue` installs `(FULL, value, pid, seq)` into the slot at the
//!   tail with one hardware CAS over the whole 48-byte record (the slot
//!   is 64-byte aligned, so the record never crosses a cache line and
//!   persists atomically), then helps advance the tail counter.
//! * `dequeue` CASes the head slot from `FULL` to
//!   `(TOMBSTONE, …, deq_pid, deq_seq)`, recording **who** consumed the
//!   item in the slot itself, then helps advance the head counter.
//!
//! Because slots are never recycled, each operation's effect is
//! *self-evidencing*: an interrupted `enqueue(pid, seq)` linearized iff
//! some slot carries its `(pid, seq)` tag, and an interrupted
//! `dequeue(pid, seq)` linearized iff some tombstone carries its
//! `(deq_pid, deq_seq)` tag. Recovery is a scan — no helping matrix is
//! needed (contrast with the CAS of §5, where successful values are
//! overwritten and the matrix `R` must preserve the evidence).
//! [`QueueVariant::NoScan`] removes the scan, the exact analogue of the
//! paper removing the matrix `R`: recovery then re-executes operations
//! that already linearized, and the FIFO verifier catches the duplicate
//! tags.
//!
//! Head and tail counters are only *hints* (they lag by at most the
//! number of in-flight operations and every operation helps repair
//! them); the slot array is the durable truth. Like every §5 object the
//! queue flushes each CAS it lands at once, and persists each slot or
//! counter it reads if a writer left it dirty: no operation installs,
//! tombstones or answers from a state a crash can take back.
//!
//! # Example
//!
//! ```
//! use pstack_nvram::PMemBuilder;
//! use pstack_heap::PHeap;
//! use pstack_recoverable::{QueueVariant, RecoverableQueue};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
//! let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 16)?;
//! let q = RecoverableQueue::format(pmem, &heap, 8, QueueVariant::Nsrl)?;
//! assert!(q.enqueue(0, 1, 42)?);
//! assert_eq!(q.dequeue(1, 2)?, Some(42));
//! assert_eq!(q.dequeue(1, 3)?, None);
//! # Ok(())
//! # }
//! ```

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

const QUEUE_MAGIC: u64 = 0x5053_5155_4555_4531; // "PSQUEUE1"
const HEADER_LEN: u64 = 64;
const SLOT_STRIDE: u64 = 64;
/// Bytes of a slot record that participate in CAS updates.
const SLOT_RECORD_LEN: usize = 48;

const ST_EMPTY: u8 = 0;
const ST_FULL: u8 = 1;
const ST_TOMBSTONE: u8 = 2;

/// Sentinel for "no dequeuer yet" in a slot's dequeuer fields.
pub const NO_DEQ: u64 = u64::MAX;

const OFF_MAGIC: u64 = 0;
const OFF_CAPACITY: u64 = 8;
const OFF_HEAD: u64 = 16;
const OFF_TAIL: u64 = 24;

/// Which recovery procedure the queue runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueVariant {
    /// Correct NSRL recovery: scan the slot array for the interrupted
    /// operation's tag before re-executing.
    #[default]
    Nsrl,
    /// Injected bug mirroring §5.2's matrix removal: recovery skips the
    /// evidence scan and always re-executes — operations that already
    /// linearized are applied twice.
    NoScan,
}

impl QueueVariant {
    /// One-byte encoding for persistent configuration records.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            QueueVariant::Nsrl => 0,
            QueueVariant::NoScan => 1,
        }
    }

    /// Decodes [`QueueVariant::as_u8`].
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for unknown encodings.
    pub fn from_u8(v: u8) -> Result<Self, PError> {
        match v {
            0 => Ok(QueueVariant::Nsrl),
            1 => Ok(QueueVariant::NoScan),
            other => Err(PError::InvalidConfig(format!(
                "unknown queue variant encoding {other}"
            ))),
        }
    }
}

/// One slot's decoded content (see the module docs for the protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSlot {
    /// `EMPTY`, `FULL` or `TOMBSTONE` (exposed for diagnostics through
    /// the state predicate methods).
    state: u8,
    /// The enqueued value (meaningful unless empty).
    pub value: i64,
    /// Enqueuer process id.
    pub pid: u64,
    /// Enqueuer operation tag.
    pub seq: u64,
    /// Dequeuer process id ([`NO_DEQ`] until tombstoned).
    pub deq_pid: u64,
    /// Dequeuer operation tag ([`NO_DEQ`] until tombstoned).
    pub deq_seq: u64,
}

impl QueueSlot {
    fn empty() -> Self {
        QueueSlot {
            state: ST_EMPTY,
            value: 0,
            pid: 0,
            seq: 0,
            deq_pid: 0,
            deq_seq: 0,
        }
    }

    fn full(value: i64, pid: u64, seq: u64) -> Self {
        QueueSlot {
            state: ST_FULL,
            value,
            pid,
            seq,
            deq_pid: NO_DEQ,
            deq_seq: NO_DEQ,
        }
    }

    fn tombstoned(self, deq_pid: u64, deq_seq: u64) -> Self {
        QueueSlot {
            state: ST_TOMBSTONE,
            deq_pid,
            deq_seq,
            ..self
        }
    }

    /// `true` if no enqueue has touched the slot.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state == ST_EMPTY
    }

    /// `true` if the slot holds a value not yet dequeued.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.state == ST_FULL
    }

    /// `true` if the slot's value has been dequeued.
    #[must_use]
    pub fn is_tombstone(&self) -> bool {
        self.state == ST_TOMBSTONE
    }

    fn encode(&self) -> [u8; SLOT_RECORD_LEN] {
        let mut b = [0u8; SLOT_RECORD_LEN];
        b[0] = self.state;
        b[8..16].copy_from_slice(&self.value.to_le_bytes());
        b[16..24].copy_from_slice(&self.pid.to_le_bytes());
        b[24..32].copy_from_slice(&self.seq.to_le_bytes());
        b[32..40].copy_from_slice(&self.deq_pid.to_le_bytes());
        b[40..48].copy_from_slice(&self.deq_seq.to_le_bytes());
        b
    }

    fn decode(b: &[u8; SLOT_RECORD_LEN]) -> Self {
        QueueSlot {
            state: b[0],
            value: i64::from_le_bytes(b[8..16].try_into().expect("slice length")),
            pid: u64::from_le_bytes(b[16..24].try_into().expect("slice length")),
            seq: u64::from_le_bytes(b[24..32].try_into().expect("slice length")),
            deq_pid: u64::from_le_bytes(b[32..40].try_into().expect("slice length")),
            deq_seq: u64::from_le_bytes(b[40..48].try_into().expect("slice length")),
        }
    }
}

/// A recoverable bounded FIFO queue of `i64` values for any number of
/// processes. See the type-level docs above and the `queue` module
/// source header for the full protocol.
#[derive(Debug, Clone)]
pub struct RecoverableQueue {
    pmem: PMem,
    base: POffset,
    capacity: u64,
    variant: QueueVariant,
}

impl RecoverableQueue {
    /// Bytes of NVRAM the queue needs for `capacity` slots.
    #[must_use]
    pub fn required_len(capacity: u64) -> usize {
        (HEADER_LEN + capacity * SLOT_STRIDE) as usize
    }

    /// Allocates and persists an empty queue with room for `capacity`
    /// lifetime enqueues (slots are never recycled — the queue is a
    /// bounded log, which is what makes recovery a scan).
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for zero capacity; heap/NVRAM errors
    /// otherwise.
    pub fn format(
        pmem: PMem,
        heap: &PHeap,
        capacity: u64,
        variant: QueueVariant,
    ) -> Result<Self, PError> {
        if capacity == 0 {
            return Err(PError::InvalidConfig(
                "queue capacity must be positive".into(),
            ));
        }
        let base = heap.alloc_filled(Self::required_len(capacity), 64, |base| {
            pmem.write_u64(base + OFF_MAGIC, QUEUE_MAGIC)?;
            pmem.write_u64(base + OFF_CAPACITY, capacity)
        })?;
        Ok(RecoverableQueue {
            pmem,
            base,
            capacity,
            variant,
        })
    }

    /// Re-attaches to a queue previously created at `base` (recovery
    /// boot).
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad magic word.
    pub fn open(pmem: PMem, base: POffset, variant: QueueVariant) -> Result<Self, PError> {
        let magic = pmem.read_u64(base + OFF_MAGIC)?;
        if magic != QUEUE_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad queue magic {magic:#x} at {base}"
            )));
        }
        let capacity = pmem.read_u64(base + OFF_CAPACITY)?;
        Ok(RecoverableQueue {
            pmem,
            base,
            capacity,
            variant,
        })
    }

    /// The queue's base offset (persist it to find the queue again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// Lifetime slot capacity.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The recovery variant this handle runs.
    #[must_use]
    pub fn variant(&self) -> QueueVariant {
        self.variant
    }

    fn slot_off(&self, i: u64) -> POffset {
        self.base + (HEADER_LEN + i * SLOT_STRIDE)
    }

    /// Reads slot `i`'s record, durable.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn slot(&self, i: u64) -> Result<QueueSlot, PError> {
        assert!(
            i < self.capacity,
            "slot {i} out of range ({} slots)",
            self.capacity
        );
        let mut b = [0u8; SLOT_RECORD_LEN];
        self.pmem.read_persist(self.slot_off(i), &mut b)?;
        Ok(QueueSlot::decode(&b))
    }

    /// A CAS at `off`, flushed when it lands.
    fn cas_persist(&self, off: POffset, expected: &[u8], new: &[u8]) -> Result<bool, PError> {
        let landed = self.pmem.compare_exchange(off, expected, new)?;
        if landed {
            self.pmem.flush(off, new.len())?;
        }
        Ok(landed)
    }

    fn cas_slot(&self, i: u64, expected: &QueueSlot, new: &QueueSlot) -> Result<bool, PError> {
        self.cas_persist(self.slot_off(i), &expected.encode(), &new.encode())
    }

    fn counter(&self, off: u64) -> Result<u64, PError> {
        let mut b = [0u8; 8];
        self.pmem.read_persist(self.base + off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn help_advance(&self, off: u64, from: u64) -> Result<(), PError> {
        // Failure means someone else already advanced it — fine.
        self.cas_persist(
            self.base + off,
            &from.to_le_bytes(),
            &(from + 1).to_le_bytes(),
        )?;
        Ok(())
    }

    /// Enqueues `value` as process `pid` with unique tag `seq`. Returns
    /// `false` if the queue's lifetime capacity is exhausted.
    ///
    /// # Errors
    ///
    /// A propagated crash (complete with
    /// [`RecoverableQueue::recover_enqueue`] after restart).
    pub fn enqueue(&self, pid: u64, seq: u64, value: i64) -> Result<bool, PError> {
        loop {
            let t = self.counter(OFF_TAIL)?;
            if t >= self.capacity {
                return Ok(false);
            }
            let s = self.slot(t)?;
            if s.is_empty() {
                if self.cas_slot(t, &QueueSlot::empty(), &QueueSlot::full(value, pid, seq))? {
                    self.help_advance(OFF_TAIL, t)?;
                    return Ok(true);
                }
                // Lost the slot race; the winner (or we) will advance
                // the tail — retry from a fresh read.
            } else {
                // Tail hint lags behind an installed slot: help.
                self.help_advance(OFF_TAIL, t)?;
            }
        }
    }

    /// Dequeues the oldest value as process `pid` with unique tag
    /// `seq`; `None` if the queue is empty (or fully drained).
    ///
    /// # Errors
    ///
    /// A propagated crash (complete with
    /// [`RecoverableQueue::recover_dequeue`] after restart).
    pub fn dequeue(&self, pid: u64, seq: u64) -> Result<Option<i64>, PError> {
        loop {
            let h = self.counter(OFF_HEAD)?;
            if h >= self.capacity {
                return Ok(None);
            }
            let s = self.slot(h)?;
            if s.is_empty() {
                // Slots fill without gaps, so an empty head slot means
                // an empty queue at this moment.
                return Ok(None);
            }
            if s.is_full() {
                let tomb = s.tombstoned(pid, seq);
                if self.cas_slot(h, &s, &tomb)? {
                    self.help_advance(OFF_HEAD, h)?;
                    return Ok(Some(s.value));
                }
                // Lost the race for this item; retry.
            } else {
                // Tombstone at the head hint: help advance.
                self.help_advance(OFF_HEAD, h)?;
            }
        }
    }

    /// Completes an interrupted `enqueue(pid, seq, value)`: scans for
    /// the operation's tag (the slot array is the evidence) and
    /// re-executes only if it never linearized.
    ///
    /// # Errors
    ///
    /// A propagated crash; recovery is then re-run after restart.
    pub fn recover_enqueue(&self, pid: u64, seq: u64, value: i64) -> Result<bool, PError> {
        if self.variant == QueueVariant::Nsrl {
            for i in 0..self.capacity {
                let s = self.slot(i)?;
                if s.is_empty() {
                    break; // slots fill without gaps
                }
                if s.pid == pid && s.seq == seq {
                    return Ok(true);
                }
            }
        }
        self.enqueue(pid, seq, value)
    }

    /// Completes an interrupted `dequeue(pid, seq)`: scans the
    /// tombstones for the operation's dequeuer tag and re-executes only
    /// if it never linearized a removal.
    ///
    /// Note the asymmetry with CAS: a dequeue that observed an empty
    /// queue and crashed before reporting leaves no evidence — recovery
    /// re-executes it, which is correct because an "empty" answer that
    /// was never persisted is indistinguishable from the operation not
    /// having run (the same argument the paper makes for a frame lost
    /// before the marker flip).
    ///
    /// # Errors
    ///
    /// A propagated crash; recovery is then re-run after restart.
    pub fn recover_dequeue(&self, pid: u64, seq: u64) -> Result<Option<i64>, PError> {
        if self.variant == QueueVariant::Nsrl {
            for i in 0..self.capacity {
                let s = self.slot(i)?;
                if s.is_empty() {
                    break;
                }
                if s.is_tombstone() && s.deq_pid == pid && s.deq_seq == seq {
                    return Ok(Some(s.value));
                }
            }
        }
        self.dequeue(pid, seq)
    }

    /// Snapshot of every touched slot in linearization order (slot
    /// order *is* both the enqueue and the dequeue order — slots fill
    /// and tombstone monotonically). Used by the FIFO verifier.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn snapshot(&self) -> Result<Vec<QueueSlot>, PError> {
        let mut out = Vec::new();
        for i in 0..self.capacity {
            let s = self.slot(i)?;
            if s.is_empty() {
                break;
            }
            out.push(s);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, PMemBuilder};

    fn fixture(capacity: u64, variant: QueueVariant) -> (PMem, PHeap, RecoverableQueue) {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 18).unwrap();
        let q = RecoverableQueue::format(pmem.clone(), &heap, capacity, variant).unwrap();
        (pmem, heap, q)
    }

    #[test]
    fn fifo_order_single_process() {
        let (_, _, q) = fixture(8, QueueVariant::Nsrl);
        for (i, v) in [10, 20, 30].iter().enumerate() {
            assert!(q.enqueue(0, i as u64 + 1, *v).unwrap());
        }
        assert_eq!(q.dequeue(0, 10).unwrap(), Some(10));
        assert_eq!(q.dequeue(0, 11).unwrap(), Some(20));
        assert_eq!(q.dequeue(0, 12).unwrap(), Some(30));
        assert_eq!(q.dequeue(0, 13).unwrap(), None);
    }

    #[test]
    fn capacity_is_lifetime_bounded() {
        let (_, _, q) = fixture(2, QueueVariant::Nsrl);
        assert!(q.enqueue(0, 1, 1).unwrap());
        assert!(q.enqueue(0, 2, 2).unwrap());
        assert!(
            !q.enqueue(0, 3, 3).unwrap(),
            "third enqueue must report full"
        );
        // Dequeuing does not free capacity: slots are never recycled.
        assert_eq!(q.dequeue(0, 4).unwrap(), Some(1));
        assert!(!q.enqueue(0, 5, 5).unwrap());
    }

    #[test]
    fn open_round_trips_and_rejects_garbage() {
        let (pmem, heap, q) = fixture(4, QueueVariant::Nsrl);
        q.enqueue(0, 1, 7).unwrap();
        let q2 = RecoverableQueue::open(pmem.clone(), q.base(), QueueVariant::Nsrl).unwrap();
        assert_eq!(q2.capacity(), 4);
        assert_eq!(q2.dequeue(1, 2).unwrap(), Some(7));
        let junk = heap.alloc_zeroed(128).unwrap();
        assert!(matches!(
            RecoverableQueue::open(pmem, junk, QueueVariant::Nsrl),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn recover_enqueue_sees_linearized_op() {
        let (_, _, q) = fixture(4, QueueVariant::Nsrl);
        assert!(q.enqueue(3, 9, 77).unwrap());
        // Crash "happened" after the slot CAS: recovery confirms without
        // enqueueing again.
        assert!(q.recover_enqueue(3, 9, 77).unwrap());
        assert_eq!(q.snapshot().unwrap().len(), 1);
    }

    #[test]
    fn recover_enqueue_reexecutes_unlinearized_op() {
        let (_, _, q) = fixture(4, QueueVariant::Nsrl);
        assert!(q.recover_enqueue(3, 9, 77).unwrap());
        assert_eq!(q.dequeue(0, 1).unwrap(), Some(77));
    }

    #[test]
    fn recover_dequeue_sees_tombstone_evidence() {
        let (_, _, q) = fixture(4, QueueVariant::Nsrl);
        q.enqueue(0, 1, 5).unwrap();
        assert_eq!(q.dequeue(2, 8).unwrap(), Some(5));
        // The answer was lost with the crash; the tombstone restores it.
        assert_eq!(q.recover_dequeue(2, 8).unwrap(), Some(5));
        // And nothing was double-consumed.
        assert_eq!(q.dequeue(2, 9).unwrap(), None);
    }

    #[test]
    fn recover_dequeue_on_empty_queue_reexecutes_to_none() {
        let (_, _, q) = fixture(4, QueueVariant::Nsrl);
        assert_eq!(q.recover_dequeue(1, 1).unwrap(), None);
    }

    #[test]
    fn noscan_variant_double_enqueues() {
        // The §5.2-style negative control: without the evidence scan an
        // already-linearized enqueue is re-executed, leaving two slots
        // with the same (pid, seq) tag.
        let (_, _, q) = fixture(4, QueueVariant::NoScan);
        assert!(q.enqueue(0, 1, 42).unwrap());
        assert!(q.recover_enqueue(0, 1, 42).unwrap());
        let snap = q.snapshot().unwrap();
        assert_eq!(snap.len(), 2, "double application must be visible");
        assert_eq!(snap[0].pid, snap[1].pid);
        assert_eq!(snap[0].seq, snap[1].seq);
        // The correct variant does not duplicate.
        let (_, _, q) = fixture(4, QueueVariant::Nsrl);
        assert!(q.enqueue(0, 1, 42).unwrap());
        assert!(q.recover_enqueue(0, 1, 42).unwrap());
        assert_eq!(q.snapshot().unwrap().len(), 1);
    }

    #[test]
    fn noscan_variant_double_dequeues() {
        let (_, _, q) = fixture(4, QueueVariant::NoScan);
        q.enqueue(0, 1, 1).unwrap();
        q.enqueue(0, 2, 2).unwrap();
        assert_eq!(q.dequeue(1, 3).unwrap(), Some(1));
        // Recovery re-executes and wrongly consumes a second item under
        // the same tag.
        assert_eq!(q.recover_dequeue(1, 3).unwrap(), Some(2));
        let snap = q.snapshot().unwrap();
        let tags: Vec<(u64, u64)> = snap
            .iter()
            .filter(|s| s.is_tombstone())
            .map(|s| (s.deq_pid, s.deq_seq))
            .collect();
        assert_eq!(tags, vec![(1, 3), (1, 3)], "duplicate dequeuer tag");
    }

    #[test]
    fn crash_point_enumeration_enqueue_recovery_is_exact() {
        // For every crash point inside an enqueue, recovery must
        // complete the operation exactly once.
        let events = sweep(
            || {
                let (pmem, _, q) = fixture(4, QueueVariant::Nsrl);
                (pmem, q)
            },
            |(_, q)| q.enqueue(0, 1, 11),
            |(pmem, q), cut| {
                let q2 = RecoverableQueue::open(pmem, q.base(), QueueVariant::Nsrl).unwrap();
                assert!(q2.recover_enqueue(0, 1, 11).unwrap(), "{cut}");
                let snap = q2.snapshot().unwrap();
                assert_eq!(snap.len(), 1, "{cut}: exactly one slot");
                assert_eq!(snap[0].value, 11);
            },
        );
        assert!(events[0] >= 1);
    }

    #[test]
    fn crash_point_enumeration_dequeue_recovery_is_exact() {
        let probe = || {
            let (pmem, _, q) = fixture(4, QueueVariant::Nsrl);
            q.enqueue(0, 1, 21).unwrap();
            q.enqueue(0, 2, 22).unwrap();
            (pmem, q)
        };
        let events = sweep(
            probe,
            |(_, q)| q.dequeue(1, 5),
            |(pmem, q), cut| {
                let q2 = RecoverableQueue::open(pmem, q.base(), QueueVariant::Nsrl).unwrap();
                let v = q2.recover_dequeue(1, 5).unwrap();
                assert_eq!(v, Some(21), "{cut}: FIFO answer");
                // The second item is untouched and dequeues next.
                assert_eq!(q2.dequeue(1, 6).unwrap(), Some(22), "{cut}");
            },
        );
        assert_eq!(events, [4], "a dequeue's events");
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_items() {
        let (_, _, q) = fixture(256, QueueVariant::Nsrl);
        let producers = 4u64;
        let per = 32u64;
        let consumed = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..producers {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let v = (p * 1000 + i) as i64;
                        assert!(q.enqueue(p, i + 1, v).unwrap());
                    }
                });
            }
            for c in 0..2u64 {
                let q = q.clone();
                let consumed = &consumed;
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut seq = 0;
                    while got.len() < (producers * per / 2) as usize {
                        seq += 1;
                        if let Some(v) = q.dequeue(100 + c, seq).unwrap() {
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    consumed.lock().unwrap().extend(got);
                });
            }
        });
        let mut all = consumed.into_inner().unwrap();
        assert_eq!(all.len(), (producers * per) as usize);
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            (producers * per) as usize,
            "no item lost or duplicated"
        );
        // Per-producer FIFO: slot order must preserve each producer's
        // program order.
        let snap = q.snapshot().unwrap();
        for p in 0..producers {
            let seqs: Vec<u64> = snap.iter().filter(|s| s.pid == p).map(|s| s.seq).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "producer {p} order violated");
        }
    }

    #[test]
    fn slot_codec_round_trips() {
        let s = QueueSlot::full(-42, 3, 99).tombstoned(7, 123);
        assert_eq!(QueueSlot::decode(&s.encode()), s);
        assert!(s.is_tombstone());
        assert!(QueueSlot::empty().is_empty());
    }

    #[test]
    fn required_len_covers_slots() {
        assert_eq!(RecoverableQueue::required_len(1), 64 + 64);
        assert_eq!(RecoverableQueue::required_len(8), 64 + 8 * 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_bounds_are_enforced() {
        let (_, _, q) = fixture(2, QueueVariant::Nsrl);
        let _ = q.slot(2);
    }
}
