//! A **bounded, request-id-keyed** descriptor/answer table — the
//! durable half of exactly-once execution.
//!
//! [`KvRequestTable`] is `pstack-core`'s one descriptor-table format
//! ([`pstack_core::table`]: header, slot addressing, the checks at open
//! and format, the answer rule, the pending scan) plus what only KV
//! has: the [`KvTaskOp`] codec, request ids, the free list, recycling,
//! marks, [`ReqSubmit::Stale`] and the answer's record span. It is a
//! fixed-capacity slab of slots, each holding
//! one request's descriptor and (once executed) its answer, looked up
//! by request id. A serving front end admits requests into it forever
//! — each tagged with a client-chosen id, retried requests answered
//! from the durable record of their first execution, never
//! re-executed; a static workload is the same table preloaded with
//! every mutation up front
//! ([`KvServeFunction::preload`](crate::KvServeFunction::preload)).
//!
//! The table's ordering arguments below rest on the core's one fact: a
//! slot is one line, and a line persists atomically. A region whose
//! lines are shorter than a slot is refused at format and open.
//!
//! # Lifecycle and recycling
//!
//! A slot moves `Free → Pending → Done → Done+Acked → Free`:
//!
//! * [`KvRequestTable::submit`] claims a free slot and **stages** the
//!   descriptor in it — written, not flushed, under the table's next
//!   **claim**, its admission count — and returns [`ReqSubmit::Full`] —
//!   the admission-control signal — when no slot is recyclable. The
//!   window that executes the slot persists the descriptor with its
//!   answer, one line in the window's one level beside the group
//!   commit's records ([`KvRequestTable::answer`]); each record names
//!   its slot and a fresh claim its execution took, which the answer
//!   line records, and a reboot publishes the newest batch only if its
//!   slots hold their claims, answered, or later ones
//!   (`store/recovery.rs`).
//!   So no record is published without its descriptor, and nothing is
//!   promised to a client while a descriptor is only staged: a crash in
//!   between loses nothing — the slot reverts to its old, recyclable
//!   occupant and the client's retry is `Fresh`. A preloaded table
//!   persists its descriptors up front ([`KvRequestTable::persist_slots`]).
//! * [`KvRequestTable::answer`] is the core's answer rule — each
//!   payload, then its done flag, the slots one flight — issued into the
//!   window's level, awaited before any answer is shown. An answer
//!   records its batch's first slot and that record's stamp word, so an
//!   answer a reboot finds can be told from one whose batch never
//!   published: the first time it is read after a reboot — by a retry's
//!   dedup, a replayed window, [`KvRequestTable::pending_slots`] or an
//!   ack — it counts only if that slot is below the tail the reboot
//!   found and still carries that stamp (`PKvStore::answer_published`);
//!   otherwise it was never shown, and it is taken back, durably, before
//!   anything re-executes the slot. One record read per answer checked,
//!   none at `open`. A slot a crash left pending is recomputed through
//!   the store's evidence-scanning dual
//!   ([`PKvStore::recover_batch`](crate::PKvStore::recover_batch)).
//! * [`KvRequestTable::ack`] records that the client received the
//!   answer: the slot is **recyclable** in volatile state at once, and
//!   its acked byte — the **mark** — is written and issued as a flight
//!   that nothing awaits, so the `AckOk` waits for nothing. The mark
//!   lands with the region's next await, and before the slot's next
//!   occupant overwrites it (below). An ack a power failure caught
//!   before its mark landed leaves the answer pinned, as if un-acked,
//!   until the client's next request in the table (the retry contract)
//!   or a retransmitted ack — at most one slot per client. This keeps
//!   a long-running server's table bounded (it never grows; it sheds
//!   instead, see `Full` above).
//!
//! # The retry contract
//!
//! Recycling leans on the client contract: *a client never retransmits
//! a request after acknowledging its answer, and sends request n+1 only
//! after its `AckOk` for n* — so [`KvRequestTable::open`] retires an
//! answered slot that shows its mark or has a later request of its
//! client in the table (a preloaded static table never admits, so a
//! slot retired there is never reused). A retry of a live request
//! dedupes against the slot (pending → the caller routes it through the
//! recovery dual; done → the durable answer is replayed). The contract
//! is **not trusted blindly**: the table keeps a per-client high-water
//! line of acked sequence numbers, and a retransmission at or below it
//! whose slot has already been recycled is shed as [`ReqSubmit::Stale`]
//! — a buggy client gets a typed refusal, never a second effect.
//!
//! # Crash safety of recycling
//!
//! A slot is recycled only over a landed mark: the free list hands out
//! the longest-free slot first, and a recycle that finds its mark still
//! in flight awaits it. The recycle then rewrites the slot in two
//! stores in a fixed order — the cleared completion state
//! (done/acked/flag) together with the new descriptor and a cleared
//! request id first, the new request id **last** — and a flush persists
//! the slot's one line, so the whole transition, atomically. A crash
//! between the stores — one whose slot line survives the power failure
//! unflushed — can only produce a free slot (request id 0): the old
//! occupant is gone, which its client
//! acked and will never ask about again, and nothing is pending; any
//! other crash leaves the old occupant, marked, or the new one. Never a
//! new request paired with a stale answer, and never the old id over a
//! cleared completion state — which would read as pending, and be
//! executed a second time under the old id by whoever re-drives pending
//! slots.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use pstack_core::table::{line_done, Codec, DescriptorTable, F_EXEC, F_FLAG, F_KIND, SLOT_LEN};
use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{Durable, FlushTicket, Level, MemError, PMem, POffset};

use crate::funcs::{KvTaskAnswer, KvTaskOp, KvTaskResult};
use crate::store::{PKvStore, MAX_SERVED_SLOTS};

const KIND_PUT: u8 = 0;
const KIND_GET: u8 = 1;
const KIND_DEL: u8 = 2;
const KIND_CAS: u8 = 3;

// The codec's fields, each inside the slot's one line, around the
// core's kind, done, flag and executor bytes.
/// The mark: the client acked the answer.
const F_ACKED: u64 = 3;
const F_KEY: u64 = 8;
const F_VALUE: u64 = 16;
const F_EXPECTED: u64 = 24;
const F_GOT: u64 = 32;
const F_REQ_ID: u64 = 40;
/// The descriptor's claim: the table's admission count when it was
/// staged (`u32`, never 0).
const F_CLAIM: u64 = 48;
/// The answering batch's first log slot + 1 (`u32`; 0 when the batch
/// staged no record) ...
const F_FIRST: u64 = 52;
/// ... and that record's stamp word (`u64`).
const F_STAMP: u64 = 56;

/// Outcome of a [`KvRequestTable::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqSubmit {
    /// The request id was unknown; a slot now holds its **staged**
    /// descriptor (durable once [`KvRequestTable::persist_slots`]
    /// covers the slot) and the operation has never executed.
    Fresh(u32),
    /// The request id is already in the table — a retry. `answer` is
    /// the durable answer when the first execution completed, `None`
    /// while the slot is still pending (route the retry through the
    /// store's recovery dual, [`PKvStore::recover_batch`](crate::PKvStore::recover_batch)).
    Known {
        /// The slot holding the request.
        slot: u32,
        /// The durable answer, if the request already completed.
        answer: Option<KvTaskAnswer>,
    },
    /// Every slot is occupied by a request that is not yet both done
    /// and acked — the admission-control signal (shed the request with
    /// an explicit overload response; never drop it silently).
    Full,
    /// The request id is at or below its client's acknowledged
    /// high-water `seq` but no longer in the table — a retransmission
    /// of an answered-and-acked (possibly recycled) request, which the
    /// retry contract forbids. Shed it with an explicit stale response;
    /// admitting it would hand a buggy client a **second effect** for
    /// an id that already executed.
    Stale,
}

/// Splits a `(client_id << 32) | seq` request id into its halves — the
/// identity convention of the serving layer, which is what makes a
/// per-client high-water line possible.
pub(crate) fn split_id(req_id: u64) -> (u32, u32) {
    ((req_id >> 32) as u32, req_id as u32)
}

/// Where a slot's occupant stands: what a recycle checks before it
/// overwrites the occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Occupant {
    /// Nothing to keep: never used, or retired with its mark durable.
    Free,
    /// Pending, or answered and not yet acked.
    Live,
    /// Answered, and found by `open` with no mark and no later request
    /// of its client: an ack a power failure may have caught before its
    /// mark landed. The client's next request in the table retires it.
    Pinned,
    /// Retired; its mark rides this flight.
    Marked(FlushTicket),
}

/// Volatile bookkeeping rebuilt by [`KvRequestTable::open`]: the
/// request-id index, the free list and where each slot's occupant
/// stands.
#[derive(Debug, Default)]
struct ReqIndex {
    /// Request id → slot, for every slot whose identity is still
    /// meaningful (pending, done-unacked, and done+acked slots that
    /// have not been recycled yet — the latter still serve dedup hits).
    by_id: HashMap<u64, u32>,
    /// Slots whose next occupant may overwrite them, the longest-free
    /// first: by the time a slot comes round again its mark has landed.
    free: VecDeque<u32>,
    /// Per slot.
    occupant: Vec<Occupant>,
    /// Slots handed out again after an earlier occupant completed.
    recycled: u64,
    /// High-water mark of live (non-recyclable) slots.
    live_high_water: u64,
    /// Per slot: holds an answer recorded before this boot that no
    /// reader has checked yet.
    unchecked: Vec<bool>,
    /// The claim the next admission or execution takes.
    next_claim: u32,
    /// Per slot: the claim its execution took, for its answer to record
    /// (0: none since the last answer).
    executing: Vec<u32>,
    /// Per-client high-water of **acked** sequence numbers — the
    /// server-side guard behind the client's never-retransmit-after-ack
    /// promise. A submit whose `(client, seq)` is at or below this line
    /// and absent from `by_id` is a stale retransmission
    /// ([`ReqSubmit::Stale`]), not a fresh admission. Rebuilt
    /// best-effort by [`KvRequestTable::open`] from each client's
    /// latest request still in a slot — the closed loop acked every
    /// earlier one (evidence in recycled slots is gone — the line
    /// re-grows as the client acks again).
    acked_high: HashMap<u32, u32>,
}

impl ReqIndex {
    fn new(capacity: u32) -> Self {
        ReqIndex {
            occupant: vec![Occupant::Free; capacity as usize],
            unchecked: vec![false; capacity as usize],
            executing: vec![0; capacity as usize],
            next_claim: 1,
            ..ReqIndex::default()
        }
    }

    /// The next claim: admissions and executions share one count, so an
    /// admission's claim is later than any execution's before it.
    fn take_claim(&mut self) -> u32 {
        let claim = self.next_claim;
        self.next_claim = claim.wrapping_add(1).max(1);
        claim
    }

    /// Frees retired slot `slot` of `req_id`, standing `now`, and
    /// advances its client's acked line.
    fn free_retired(&mut self, req_id: u64, slot: u32, now: Occupant) {
        self.occupant[slot as usize] = now;
        self.free.push_back(slot);
        let (client, seq) = split_id(req_id);
        let hw = self.acked_high.entry(client).or_insert(0);
        *hw = (*hw).max(seq);
    }
}

/// A persistent, bounded, request-id-keyed descriptor/answer table.
///
/// # Example
///
/// ```
/// use pstack_nvram::{Level, PMemBuilder};
/// use pstack_heap::PHeap;
/// use pstack_kv::{KvRequestTable, KvTaskOp, KvTaskResult, ReqSubmit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 14).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 14)?;
/// let table = KvRequestTable::format(pmem, &heap, 4)?;
///
/// // First delivery: a fresh slot.
/// let ReqSubmit::Fresh(slot) = table.submit(0x1_0001, KvTaskOp::Put { key: 9, value: 4 })? else {
///     panic!("fresh request");
/// };
/// // The answer rides its window's one level, its descriptor in the
/// // same line (here, a commit that staged no record: no batch).
/// let mut level = Level::default();
/// table.answer(&[(slot, 1, KvTaskResult::Stored(true))], None, &mut level)?;
/// level.await_all()?;
///
/// // A retry dedupes against the durable answer instead of re-executing.
/// let ReqSubmit::Known { answer: Some(a), .. } =
///     table.submit(0x1_0001, KvTaskOp::Put { key: 9, value: 4 })? else {
///     panic!("retry must hit the table");
/// };
/// assert_eq!(a.result, KvTaskResult::Stored(true));
///
/// // Ack → the slot becomes recyclable, and its mark is in flight:
/// // nothing needs to await it.
/// assert!(table.ack(0x1_0001)?);
/// assert_eq!(table.live(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KvRequestTable {
    table: DescriptorTable,
    idx: Arc<Mutex<ReqIndex>>,
    /// The shard's store, which checks an answer recorded before this
    /// boot (attached by [`KvServeFunction::new`](crate::KvServeFunction::new);
    /// a table alone trusts its answers).
    store: Arc<OnceLock<PKvStore>>,
}

impl KvRequestTable {
    /// Bytes of NVRAM needed for a `capacity`-slot table.
    #[must_use]
    pub fn required_len(capacity: u32) -> usize {
        DescriptorTable::required_len(capacity as usize)
    }

    /// Allocates and persists an empty table of `capacity` slots.
    ///
    /// # Errors
    ///
    /// Heap or NVRAM errors, or [`PError::InvalidConfig`] for zero
    /// capacity, one a log record cannot name (2²⁴ slots or more), or a
    /// line shorter than a slot.
    pub fn format(pmem: PMem, heap: &PHeap, capacity: u32) -> Result<Self, PError> {
        if capacity > MAX_SERVED_SLOTS {
            let msg = format!("a request table of {capacity} slots: at most {MAX_SERVED_SLOTS}");
            return Err(PError::InvalidConfig(msg));
        }
        let table = DescriptorTable::format(pmem, heap, Codec::Request, capacity, |_, _| Ok(()))?;
        let mut idx = ReqIndex::new(capacity);
        idx.free = (0..capacity).collect();
        Ok(Self::with_index(table, idx))
    }

    fn with_index(table: DescriptorTable, idx: ReqIndex) -> Self {
        KvRequestTable {
            table,
            idx: Arc::new(Mutex::new(idx)),
            store: Arc::new(OnceLock::new()),
        }
    }

    /// Gives the table its shard's store, which checks the answers it
    /// found at `open` (every clone of the table shares it; the first
    /// store attached stays).
    pub(crate) fn attach(&self, store: &PKvStore) {
        let _ = self.store.set(store.clone());
    }

    /// Re-attaches to a table created at `base`, rebuilding the
    /// volatile request-id index, the free list and the claim count
    /// from the durable slots, in one read each. Their answers are
    /// checked later, one at a time, when first read.
    /// An answered slot is retired when it shows its mark, or when a
    /// later request of its client sits in the table (the retry
    /// contract: that request was sent after the `AckOk`) — then this
    /// writes and issues its mark. Else it stays pinned until its
    /// client's next request or a retransmitted ack.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad magic word or a capacity that
    /// overruns the region (nothing is scanned then),
    /// [`PError::InvalidConfig`] for a line shorter than a slot, NVRAM
    /// errors.
    pub fn open(pmem: PMem, base: POffset) -> Result<Self, PError> {
        let table = DescriptorTable::open(pmem, base, Codec::Request)?;
        let capacity = table.slots();
        if capacity > MAX_SERVED_SLOTS {
            let msg = format!("a request table of {capacity} slots: at most {MAX_SERVED_SLOTS}");
            return Err(PError::CorruptStack(msg));
        }
        let table = Self::with_index(table, ReqIndex::new(capacity));
        let mut idx = table.idx.lock().expect("request-table index poisoned");
        // One pass over the slots, one read each, then the inference: a
        // client's latest request in the table acks every earlier one.
        let mut unmarked = Vec::new();
        for slot in 0..capacity {
            let line = table.table.read_slot(slot)?;
            let id = &line[F_REQ_ID as usize..][..8];
            let req_id = u64::from_le_bytes(id.try_into().expect("slice length"));
            let claim = &line[F_CLAIM as usize..][..4];
            let claim = u32::from_le_bytes(claim.try_into().expect("slice length"));
            idx.next_claim = idx.next_claim.max(claim.wrapping_add(1)).max(1);
            if req_id == 0 {
                idx.free.push_back(slot);
                continue;
            }
            // Done+acked slots stay in the index until recycled: a
            // duplicate retry that races the ack still dedupes.
            idx.by_id.insert(req_id, slot);
            let (client, seq) = split_id(req_id);
            let hw = idx.acked_high.entry(client).or_insert(0);
            *hw = (*hw).max(seq.saturating_sub(1));
            if !line_done(&line) {
                idx.occupant[slot as usize] = Occupant::Live;
                continue;
            }
            idx.unchecked[slot as usize] = true;
            if line[F_ACKED as usize] != 0 {
                idx.free_retired(req_id, slot, Occupant::Free);
            } else {
                unmarked.push((slot, req_id));
            }
        }
        for (slot, req_id) in unmarked {
            let (client, seq) = split_id(req_id);
            idx.occupant[slot as usize] = Occupant::Pinned;
            if seq <= idx.acked_high[&client] {
                table.retire(&mut idx, req_id, slot)?;
            }
        }
        idx.live_high_water = u64::from(capacity) - idx.free.len() as u64;
        drop(idx);
        Ok(table)
    }

    /// Retires answered slot `slot` of `req_id`, live or pinned: writes
    /// its mark, issues it as a flight that nothing awaits, and frees
    /// the slot. Idempotent.
    fn retire(&self, idx: &mut ReqIndex, req_id: u64, slot: u32) -> Result<(), PError> {
        if matches!(
            idx.occupant[slot as usize],
            Occupant::Live | Occupant::Pinned
        ) {
            let e = self.table.slot(slot)?;
            self.pmem().write_u8(e + F_ACKED, 1)?;
            let ticket = self.pmem().flush_async(e, SLOT_LEN)?;
            idx.free_retired(req_id, slot, Occupant::Marked(ticket));
        }
        Ok(())
    }

    fn pmem(&self) -> &PMem {
        self.table.pmem()
    }

    /// The table's base offset (persist it to find the table again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.table.base()
    }

    /// Number of slots — the hard bound on outstanding-or-unacked
    /// requests.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.table.slots()
    }

    /// Slots currently holding a request that is not yet recyclable.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    #[must_use]
    pub fn live(&self) -> u64 {
        let idx = self.idx.lock().expect("request-table index poisoned");
        u64::from(self.capacity()) - idx.free.len() as u64
    }

    /// High-water mark of live slots since this handle family opened —
    /// the number a bounded-growth assertion checks.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    #[must_use]
    pub fn live_high_water(&self) -> u64 {
        self.idx
            .lock()
            .expect("request-table index poisoned")
            .live_high_water
    }

    /// Slots handed out again after an earlier occupant was answered
    /// and acked.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    #[must_use]
    pub fn recycled(&self) -> u64 {
        self.idx
            .lock()
            .expect("request-table index poisoned")
            .recycled
    }

    /// Admits request `req_id` into the table: dedups against live and
    /// answered slots, sheds stale retransmissions of already-acked
    /// sequence numbers ([`ReqSubmit::Stale`]), claims (possibly
    /// recycling) a slot for a fresh id, and reports
    /// [`ReqSubmit::Full`] when nothing is recyclable. A fresh
    /// descriptor is only **staged** when this returns: the caller
    /// persists it ([`KvRequestTable::persist_slots`]) before anything
    /// is published on its behalf.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for the reserved id 0, NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn submit(&self, req_id: u64, op: KvTaskOp) -> Result<ReqSubmit, PError> {
        if req_id == 0 {
            return Err(PError::InvalidConfig(
                "request id 0 is reserved for free slots".into(),
            ));
        }
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        if let Some(&slot) = idx.by_id.get(&req_id) {
            return Ok(ReqSubmit::Known {
                slot,
                answer: self.checked(&mut idx, slot)?,
            });
        }
        // Stale-retransmission guard: the id is gone from the table but
        // its client already acked this seq (or a later one) — the slot
        // was legitimately recycled and re-admitting would re-execute.
        let (client, seq) = split_id(req_id);
        let hw = idx.acked_high.get(&client).copied().unwrap_or(0);
        if seq <= hw {
            return Ok(ReqSubmit::Stale);
        }
        // `open` pins a client's latest answer, the one just above its
        // acked line; a later request of the client follows that
        // answer's `AckOk` (the retry contract) and retires it.
        let pin = (u64::from(client) << 32) | u64::from(hw + 1);
        if let Some(&slot) = idx.by_id.get(&pin).filter(|_| seq > hw + 1) {
            if idx.occupant[slot as usize] == Occupant::Pinned {
                self.retire(&mut idx, pin, slot)?;
            }
        }
        let Some(&slot) = idx.free.front() else {
            return Ok(ReqSubmit::Full);
        };
        // Never over a mark that has not landed (see the module docs).
        if let Occupant::Marked(ticket) = idx.occupant[slot as usize] {
            self.pmem().await_ticket(&ticket)?;
        }
        let e = self.table.slot(slot)?;
        idx.free.pop_front();
        idx.occupant[slot as usize] = Occupant::Live;
        let old_id = self.pmem().read_u64(e + F_REQ_ID)?;
        if old_id != 0 {
            idx.by_id.remove(&old_id);
            idx.recycled += 1;
        }
        // Completion state, descriptor and a cleared identity in one
        // store, the identity last (see module docs: a crash between the
        // two leaves a free slot, never an id over state that is not
        // its own). Every store is a step a power failure can land on
        // with the round's requests admitted but nothing executed, so
        // the staging is as few as identity-last allows.
        let (kind, key, value, expected) = match op {
            KvTaskOp::Put { key, value } => (KIND_PUT, key, value, 0),
            KvTaskOp::Get { key } => (KIND_GET, key, 0, 0),
            KvTaskOp::Delete { key } => (KIND_DEL, key, 0, 0),
            KvTaskOp::Cas { key, expected, new } => (KIND_CAS, key, new, expected),
        };
        // done, flag, acked, executor, got, the request id and the
        // answer's batch: cleared
        let claim = idx.take_claim();
        idx.unchecked[slot as usize] = false;
        let mut body = [0u8; SLOT_LEN];
        body[F_KIND as usize] = kind;
        body[F_KEY as usize..][..8].copy_from_slice(&key.to_le_bytes());
        body[F_VALUE as usize..][..8].copy_from_slice(&value.to_le_bytes());
        body[F_EXPECTED as usize..][..8].copy_from_slice(&expected.to_le_bytes());
        body[F_CLAIM as usize..][..4].copy_from_slice(&claim.to_le_bytes());
        self.pmem().write(e, &body)?;
        // The identity publishes the slot, and is not persisted here: it
        // rides its descriptor's line, which the window that executes
        // the slot persists whole, with its answer.
        let descriptor = Durable::same_line(self.pmem(), (e, F_REQ_ID as usize), (e + F_REQ_ID, 8));
        debug_assert!(descriptor.is_some(), "a request slot spans lines");
        self.pmem().write_u64(e + F_REQ_ID, req_id)?;
        idx.by_id.insert(req_id, slot);
        let live = u64::from(self.capacity()) - idx.free.len() as u64;
        idx.live_high_water = idx.live_high_water.max(live);
        Ok(ReqSubmit::Fresh(slot))
    }

    /// Makes the staged descriptors in `slots` durable with one
    /// coalesced persist — how a preloaded table persists its
    /// descriptors before any window runs.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors (a crash leaves the
    /// descriptors staged or lost, never torn).
    pub fn persist_slots(&self, slots: &[u32]) -> Result<(), PError> {
        let (lo, len) = self.table.span(slots.iter().copied())?;
        self.pmem().flush(lo, len)?;
        Ok(())
    }

    /// A fresh claim for executing slot `slot`: the window's records
    /// name it, and the slot's answer line records it in place of the
    /// admission's ([`KvRequestTable::answer`]). So a reboot publishes a
    /// record only if the answer beside it landed too — or a later
    /// occupant's line, over an answer already shown — and a slot still
    /// pending after a reboot has published nothing, preloaded or not.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub(crate) fn execution_claim(&self, slot: u32) -> u32 {
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        let claim = idx.take_claim();
        if let Some(executing) = idx.executing.get_mut(slot as usize) {
            *executing = claim;
        }
        claim
    }

    /// `true` if `req_id` is in the table (pending, or answered and not
    /// yet recycled) — the volatile half of the dedup lookup, without a
    /// single NVRAM access.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    #[must_use]
    pub fn contains(&self, req_id: u64) -> bool {
        let idx = self.idx.lock().expect("request-table index poisoned");
        idx.by_id.contains_key(&req_id)
    }

    /// Looks request `req_id` up without admitting anything.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn lookup(&self, req_id: u64) -> Result<Option<(u32, Option<KvTaskAnswer>)>, PError> {
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        match idx.by_id.get(&req_id) {
            Some(&slot) => Ok(Some((slot, self.checked(&mut idx, slot)?))),
            None => Ok(None),
        }
    }

    /// Reads slot `slot`'s request id (0 for never-used slots).
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn req_id(&self, slot: u32) -> Result<u64, PError> {
        Ok(self.pmem().read_u64(self.table.slot(slot)? + F_REQ_ID)?)
    }

    /// Reads slot `slot`'s operation.
    ///
    /// # Errors
    ///
    /// Out-of-range slot, an unknown kind byte (corruption), or NVRAM
    /// errors.
    pub fn op(&self, slot: u32) -> Result<KvTaskOp, PError> {
        let e = self.table.slot(slot)?;
        let pmem = self.pmem();
        let key = pmem.read_u64(e + F_KEY)?;
        match pmem.read_u8(e + F_KIND)? {
            KIND_PUT => Ok(KvTaskOp::Put {
                key,
                value: pmem.read_i64(e + F_VALUE)?,
            }),
            KIND_GET => Ok(KvTaskOp::Get { key }),
            KIND_DEL => Ok(KvTaskOp::Delete { key }),
            KIND_CAS => Ok(KvTaskOp::Cas {
                key,
                expected: pmem.read_i64(e + F_EXPECTED)?,
                new: pmem.read_i64(e + F_VALUE)?,
            }),
            other => Err(PError::CorruptStack(format!(
                "slot {slot} has unknown kind {other}"
            ))),
        }
    }

    /// Reads slot `slot`'s answer, if its execution completed — and,
    /// for an answer recorded before this boot, if its batch was
    /// published (see the module docs; one that was not is taken back
    /// here).
    ///
    /// # Errors
    ///
    /// Out-of-range slot, an unknown kind byte (corruption), or NVRAM
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn result(&self, slot: u32) -> Result<Option<KvTaskAnswer>, PError> {
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        self.checked(&mut idx, slot)
    }

    /// Slot `slot`'s answer if it counts: an answer recorded before
    /// this boot is checked once, against the store, and one whose
    /// batch was never published is taken back durably
    /// ([`DescriptorTable::unanswer`]) — its slot pending again — before
    /// anything can re-execute the slot, so no later crash can make it
    /// count. A table with no store attached trusts its answers.
    fn checked(&self, idx: &mut ReqIndex, slot: u32) -> Result<Option<KvTaskAnswer>, PError> {
        let answer = self.read_result(slot)?;
        if answer.is_some() && idx.unchecked[slot as usize] && !self.check(idx, slot)? {
            return Ok(None);
        }
        Ok(answer)
    }

    /// Whether slot `slot` holds an answer that counts, reading only its
    /// done flag unless the answer is one this boot has not checked.
    fn answer_counts(&self, idx: &mut ReqIndex, slot: u32) -> Result<bool, PError> {
        if !self.table.is_done(slot)? {
            return Ok(false);
        }
        if !idx.unchecked[slot as usize] {
            return Ok(true);
        }
        self.check(idx, slot)
    }

    /// Checks slot `slot`'s answer, recorded before this boot, against
    /// its batch; one whose batch never published is taken back.
    fn check(&self, idx: &mut ReqIndex, slot: u32) -> Result<bool, PError> {
        let e = self.table.slot(slot)?;
        let first = self.pmem().read_u32(e + F_FIRST)?;
        let published = match (first.checked_sub(1), self.store.get()) {
            (Some(first), Some(store)) => {
                store.answer_published(first, self.pmem().read_u64(e + F_STAMP)?)?
            }
            _ => true,
        };
        if !published {
            self.table.unanswer(slot)?;
            idx.occupant[slot as usize] = Occupant::Live;
            idx.free.retain(|&s| s != slot);
        }
        idx.unchecked[slot as usize] = false;
        Ok(published)
    }

    /// What slot `slot`'s line, checked or not, records of its answer's
    /// batch: `None` while it holds no answer, `Some(None)` for a batch
    /// that staged no record.
    #[cfg(test)]
    pub(crate) fn recorded_batch(&self, slot: u32) -> Result<Option<Option<(u32, u64)>>, PError> {
        if !self.table.is_done(slot)? {
            return Ok(None);
        }
        let e = self.table.slot(slot)?;
        let first = self.pmem().read_u32(e + F_FIRST)?;
        let stamp = self.pmem().read_u64(e + F_STAMP)?;
        Ok(Some(first.checked_sub(1).map(|first| (first, stamp))))
    }

    /// Slot `slot`'s answer as its line holds it, unchecked.
    fn read_result(&self, slot: u32) -> Result<Option<KvTaskAnswer>, PError> {
        let Some(a) = self.table.answered(slot)? else {
            return Ok(None);
        };
        let result = match a.kind {
            KIND_PUT => KvTaskResult::Stored(a.flag),
            KIND_GET if a.flag => KvTaskResult::Got(Some(self.pmem().read_i64(a.at + F_GOT)?)),
            KIND_GET => KvTaskResult::Got(None),
            KIND_DEL => KvTaskResult::Deleted(a.flag),
            KIND_CAS => KvTaskResult::Swapped(a.flag),
            other => {
                return Err(PError::CorruptStack(format!(
                    "slot {slot} has unknown kind {other}"
                )))
            }
        };
        Ok(Some(KvTaskAnswer {
            executor: a.executor,
            result,
        }))
    }

    /// `true` if slot `slot`'s answer was acknowledged by its client:
    /// its mark is written, landed or not (see the module docs).
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn acked(&self, slot: u32) -> Result<bool, PError> {
        Ok(self.pmem().read_u8(self.table.slot(slot)? + F_ACKED)? != 0)
    }

    /// Writes the answer payload of the slot at `e` — flag, executor
    /// and what it records of its batch (and a got value): flag and
    /// executor are one store, with the acked byte between them
    /// rewritten as the 0 its staging left, and the batch another.
    fn write_answer(
        &self,
        e: POffset,
        (executor, result, claim): (u32, KvTaskResult, u32),
        batch: Option<(u32, u64)>,
    ) -> Result<(), MemError> {
        let pmem = self.pmem();
        let flag = match result {
            KvTaskResult::Stored(ok) | KvTaskResult::Deleted(ok) | KvTaskResult::Swapped(ok) => ok,
            KvTaskResult::Got(None) => false,
            KvTaskResult::Got(Some(v)) => {
                pmem.write_i64(e + F_GOT, v)?;
                true
            }
        };
        let mut head = [0u8; (F_EXEC + 4 - F_FLAG) as usize];
        head[0] = u8::from(flag);
        head[(F_EXEC - F_FLAG) as usize..].copy_from_slice(&executor.to_le_bytes());
        pmem.write(e + F_FLAG, &head)?;
        let (first, stamp) = batch.map_or((0, 0), |(first, stamp)| (first + 1, stamp));
        let mut tail = [0u8; 16];
        tail[..4].copy_from_slice(&claim.to_le_bytes());
        tail[4..8].copy_from_slice(&first.to_le_bytes());
        tail[8..].copy_from_slice(&stamp.to_le_bytes());
        match claim {
            0 => pmem.write(e + F_FIRST, &tail[4..]),
            _ => pmem.write(e + F_CLAIM, &tail),
        }
    }

    /// Writes a batch of answers and issues their slots' lines as
    /// **one** flight of `level` — the window's one level, beside its
    /// `CALL` and its group commits' records and headers — each line
    /// carrying its descriptor and its answer, and the claim its
    /// execution took ([`KvRequestTable::execution_claim`]), which its
    /// records name. Every answer records `batch`, the first slot and
    /// stamp word of the group commit that answered it ([`KvPendingBatch::answer_ref`](crate::KvPendingBatch);
    /// `None` when it staged no record): an answer may land while its
    /// batch does not, and a reboot then finds it void (see the module
    /// docs). Nothing may show an answer before `level` is awaited. The
    /// core's answer rule orders each slot's payload before its done
    /// flag in one line-atomic persist: a crash leaves each slot either
    /// answered or still pending, never a flag over a missing payload.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn answer(
        &self,
        entries: &[(u32, u32, KvTaskResult)],
        batch: Option<(u32, u64)>,
        level: &mut Level,
    ) -> Result<(), PError> {
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        let mut claims = Vec::with_capacity(entries.len());
        for &(slot, _, _) in entries {
            if let Some(unchecked) = idx.unchecked.get_mut(slot as usize) {
                *unchecked = false;
            }
            claims.push(
                idx.executing
                    .get_mut(slot as usize)
                    .map_or(0, std::mem::take),
            );
        }
        drop(idx);
        let entries = entries
            .iter()
            .zip(claims)
            .map(|(&(slot, exec, result), claim)| (slot, (exec, result, claim)));
        self.table.answer(entries, level, |e, answer| {
            self.write_answer(e, answer, batch)
        })
    }

    /// Records the client's acknowledgement of `req_id`'s answer: the
    /// slot is recyclable at once, the client's acked line advances,
    /// and the slot's mark is written and issued as a flight that
    /// nothing awaits, so the caller may show its `AckOk` at once. An
    /// ack carries no effect; a power failure that catches its mark in
    /// flight leaves the slot answered, pinned until the client's next
    /// request or a retransmitted ack (see the module docs).
    /// Idempotent. Returns `false` for unknown ids (already recycled,
    /// or never admitted) and done-less slots (acks are only valid
    /// answers to a durable `Done`).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn ack(&self, req_id: u64) -> Result<bool, PError> {
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        let Some(&slot) = idx.by_id.get(&req_id) else {
            return Ok(false);
        };
        if !self.answer_counts(&mut idx, slot)? {
            return Ok(false);
        }
        self.retire(&mut idx, req_id, slot)?;
        Ok(true)
    }

    /// Slots holding a request whose execution has not completed — or
    /// whose answer, recorded before this boot, reports a batch that
    /// never published — in slot order: what a reboot re-drives through
    /// the recovery dual when the client retries.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn pending_slots(&self) -> Result<Vec<u32>, PError> {
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        for slot in 0..self.capacity() {
            if idx.unchecked[slot as usize] {
                self.check(&mut idx, slot)?;
            }
        }
        let pmem = self.pmem();
        self.table
            .pending(|e| Ok(pmem.read_u64(e + F_REQ_ID)? != 0))
    }
}

/// Whether every `(slot, claim)` of `served` holds that claim, answered,
/// or a later one in the request table at `base` of `pmem` — the check
/// a reboot's replay makes of the newest batch's served records
/// (`store/recovery.rs`). Reads the table's header and the span of the
/// named slots, one access each; a slot out of range fails. Claims
/// compare as wrapping admission counts.
///
/// # Errors
///
/// A table header that does not check, NVRAM errors.
pub(crate) fn claims_hold(
    pmem: &PMem,
    base: POffset,
    served: &[(u32, u32)],
) -> Result<bool, PError> {
    let table = DescriptorTable::open(pmem.clone(), base, Codec::Request)?;
    if served.iter().any(|&(slot, _)| slot >= table.slots()) {
        return Ok(false);
    }
    let (lo, len) = table.span(served.iter().map(|&(slot, _)| slot))?;
    let mut lines = vec![0u8; len];
    pmem.read(lo, &mut lines)?;
    Ok(served.iter().all(|&(slot, claim)| {
        let at = (table.slot(slot).expect("in range").get() - lo.get()) as usize;
        let line: &[u8; SLOT_LEN] = lines[at..at + SLOT_LEN].try_into().expect("a line");
        let held = &line[F_CLAIM as usize..][..4];
        let held = u32::from_le_bytes(held.try_into().expect("4 bytes"));
        // The execution's own claim counts only with the answer it rides
        // (a cut can land the claim's store and not the done flag's); a
        // later one is a later admission or execution.
        (held == claim && line_done(line)) || held.wrapping_sub(claim) as i32 > 0
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, PMemBuilder, Survivors};

    /// Answers `entries` as a window does: one flight of its level,
    /// then the level awaited. Nothing is committed with them, so they
    /// record no batch.
    fn answer(table: &KvRequestTable, entries: &[(u32, u32, KvTaskResult)]) -> Result<(), PError> {
        let mut level = Level::default();
        table.answer(entries, None, &mut level)?;
        level.await_all()?;
        Ok(())
    }

    fn fixture(capacity: u32) -> (PMem, KvRequestTable) {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let table = KvRequestTable::format(pmem.clone(), &heap, capacity).unwrap();
        (pmem, table)
    }

    #[test]
    fn submit_dedup_done_ack_round_trip() {
        let (pmem, table) = fixture(4);
        assert_eq!(table.capacity(), 4);
        assert_eq!(table.live(), 0);

        let op = KvTaskOp::Cas {
            key: 3,
            expected: -1,
            new: 7,
        };
        let ReqSubmit::Fresh(slot) = table.submit(0x7_0001, op).unwrap() else {
            panic!("fresh")
        };
        assert_eq!(table.op(slot).unwrap(), op);
        assert_eq!(table.req_id(slot).unwrap(), 0x7_0001);
        assert_eq!(table.live(), 1);
        assert_eq!(table.pending_slots().unwrap(), vec![slot]);

        // A retry before completion dedupes to the pending slot.
        assert_eq!(
            table.submit(0x7_0001, op).unwrap(),
            ReqSubmit::Known { slot, answer: None }
        );

        answer(&table, &[(slot, 7, KvTaskResult::Swapped(true))]).unwrap();
        let ReqSubmit::Known {
            answer: Some(ans), ..
        } = table.submit(0x7_0001, op).unwrap()
        else {
            panic!("done retry")
        };
        assert_eq!(ans.executor, 7);
        assert_eq!(ans.result, KvTaskResult::Swapped(true));

        assert!(!table.acked(slot).unwrap());
        let before = pmem.stats().snapshot();
        assert!(table.ack(0x7_0001).unwrap());
        assert!(table.acked(slot).unwrap());
        assert_eq!(table.live(), 0, "done+acked slots are recyclable");
        // Acks are idempotent; unknown ids are refused. The first wrote
        // the mark and issued it, awaiting nothing.
        assert!(table.ack(0x7_0001).unwrap());
        assert!(!table.ack(0xDEAD).unwrap());
        let d = pmem.stats().snapshot() - before;
        assert_eq!((d.writes, d.persists, d.async_flushes), (1, 0, 1));
        // Reopen rebuilds the same view.
        let t2 = KvRequestTable::open(pmem, table.base()).unwrap();
        assert_eq!(t2.live(), 0);
        assert_eq!(
            t2.lookup(0x7_0001).unwrap().unwrap().1.unwrap().result,
            KvTaskResult::Swapped(true)
        );
    }

    #[test]
    fn ack_of_pending_slot_is_refused() {
        let (_, table) = fixture(2);
        table.submit(5, KvTaskOp::Get { key: 0 }).unwrap();
        assert!(!table.ack(5).unwrap(), "only durable answers can be acked");
        assert_eq!(table.live(), 1);
    }

    #[test]
    fn full_table_sheds_and_recycling_keeps_it_bounded() {
        // Satellite gate: a long-running server's answer table must not
        // grow without bound. 10× more requests than slots, each
        // answered and acked, all through a 8-slot table.
        let (_, table) = fixture(8);
        for req in 1..=80u64 {
            let ReqSubmit::Fresh(slot) = table.submit(req, KvTaskOp::Get { key: req }).unwrap()
            else {
                panic!("req {req} should find a recycled slot")
            };
            answer(&table, &[(slot, 0, KvTaskResult::Got(None))]).unwrap();
            assert!(table.ack(req).unwrap());
        }
        assert!(table.live_high_water() <= 8);
        assert_eq!(
            table.recycled(),
            72,
            "every request after the first eight reused a slot"
        );

        // Un-acked answers pin their slots: the table fills and sheds
        // explicitly instead of growing.
        for req in 100..108u64 {
            let ReqSubmit::Fresh(slot) = table.submit(req, KvTaskOp::Get { key: 1 }).unwrap()
            else {
                panic!("slots free again")
            };
            answer(&table, &[(slot, 0, KvTaskResult::Got(None))]).unwrap();
        }
        assert_eq!(
            table.submit(999, KvTaskOp::Get { key: 1 }).unwrap(),
            ReqSubmit::Full
        );
        assert_eq!(table.live(), 8);
        // Draining one ack frees exactly one admission.
        assert!(table.ack(100).unwrap());
        assert!(matches!(
            table.submit(999, KvTaskOp::Get { key: 1 }).unwrap(),
            ReqSubmit::Fresh(_)
        ));
    }

    #[test]
    fn recycled_req_id_retransmission_is_shed_as_stale() {
        // Regression: a buggy client that retransmits an id whose slot
        // has been recycled must not be re-admitted as Fresh — the
        // effect already executed and the evidence is gone. The
        // per-client acked high-water line sheds it as `Stale`.
        let id = |client: u32, seq: u32| (u64::from(client) << 32) | u64::from(seq);
        let (pmem, table) = fixture(2);

        // Client 1 runs seq 1 to completion and acks it.
        let ReqSubmit::Fresh(slot) = table.submit(id(1, 1), KvTaskOp::Get { key: 9 }).unwrap()
        else {
            panic!("fresh")
        };
        answer(&table, &[(slot, 0, KvTaskResult::Got(None))]).unwrap();
        assert!(table.ack(id(1, 1)).unwrap());

        // Another client recycles the table until client 1's evidence
        // is overwritten.
        for seq in 1..=4u32 {
            let ReqSubmit::Fresh(s) = table.submit(id(2, seq), KvTaskOp::Get { key: 1 }).unwrap()
            else {
                panic!("recyclable")
            };
            answer(&table, &[(s, 0, KvTaskResult::Got(None))]).unwrap();
            assert!(table.ack(id(2, seq)).unwrap());
        }
        assert!(table.lookup(id(1, 1)).unwrap().is_none(), "evidence gone");

        // The buggy retransmission is shed, not re-executed and not
        // treated as overload.
        assert_eq!(
            table.submit(id(1, 1), KvTaskOp::Get { key: 9 }).unwrap(),
            ReqSubmit::Stale
        );
        // Reopen rebuilds the line from each client's latest request
        // still in a slot: client 2's seq 4 sits in one, so its earlier
        // seqs stay shed across a restart. (Shedding writes nothing, so
        // the probe leaves the table untouched.)
        let t2 = KvRequestTable::open(pmem, table.base()).unwrap();
        assert!(t2.lookup(id(2, 2)).unwrap().is_none(), "recycled");
        assert_eq!(
            t2.submit(id(2, 2), KvTaskOp::Get { key: 1 }).unwrap(),
            ReqSubmit::Stale,
            "acked high-water rebuilt from slot evidence"
        );

        // A genuinely new seq from the same client is still admitted.
        assert!(matches!(
            table
                .submit(id(1, 2), KvTaskOp::Put { key: 9, value: 1 })
                .unwrap(),
            ReqSubmit::Fresh(_)
        ));
    }

    #[test]
    fn recycle_is_atomic_on_buffered_regions() {
        // A slot is one aligned persist line: crash at any flush
        // boundary of a recycle leaves either the old occupant (done,
        // acked) or the new one (pending), never a mix — and where the
        // unflushed line survives the crash, a free slot between the
        // two stores, never the old id over a cleared (pending) state.
        let build = || {
            let pmem = PMemBuilder::new().len(1 << 16).build_in_memory(); // buffered
            let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
            let table = KvRequestTable::format(pmem.clone(), &heap, 1).unwrap();
            let ReqSubmit::Fresh(slot) =
                table.submit(1, KvTaskOp::Put { key: 4, value: 2 }).unwrap()
            else {
                panic!("fresh")
            };
            answer(&table, &[(slot, 0, KvTaskResult::Stored(true))]).unwrap();
            table.ack(1).unwrap();
            (pmem, table)
        };
        // The recycle under test: stage the new descriptor, then the
        // one persist that makes it durable.
        let recycle = |table: &KvRequestTable| -> Result<(), PError> {
            let ReqSubmit::Fresh(slot) = table.submit(2, KvTaskOp::Delete { key: 9 })? else {
                panic!("the acked slot recycles")
            };
            table.persist_slots(&[slot])
        };
        let (mut seen_new, mut seen_free) = (false, false);
        let events = sweep(
            build,
            |(_, table)| recycle(table),
            |(pmem, table), cut| {
                let t2 = KvRequestTable::open(pmem, table.base()).unwrap();
                match t2.req_id(0).unwrap() {
                    0 => {
                        // The first store survived alone: free, nothing
                        // pending, the acked old occupant simply gone.
                        assert_ne!(cut.survivors, Survivors::None, "{cut}");
                        assert_eq!(t2.live(), 0);
                        assert!(t2.pending_slots().unwrap().is_empty());
                        seen_free = true;
                    }
                    1 => {
                        // Old occupant intact: done, acked (the recycle
                        // awaited its mark), recyclable.
                        assert_eq!(
                            t2.result(0).unwrap().unwrap().result,
                            KvTaskResult::Stored(true)
                        );
                        assert!(t2.acked(0).unwrap());
                        assert_eq!(t2.live(), 0);
                    }
                    2 => {
                        // New occupant fully installed and pending.
                        assert_eq!(t2.op(0).unwrap(), KvTaskOp::Delete { key: 9 });
                        assert!(t2.result(0).unwrap().is_none());
                        assert_eq!(t2.pending_slots().unwrap(), vec![0]);
                        seen_new = true;
                    }
                    other => panic!("{cut}: torn identity {other}"),
                }
            },
        );
        assert!(events[0] >= 2, "descriptor writes + the line persist");
        assert!(seen_new, "a completed persist installs the new occupant");
        assert!(seen_free, "a survivor between the two stores");
    }

    #[test]
    fn staged_descriptors_persist_once_per_batch_and_vanish_if_never_persisted() {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory(); // buffered
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let table = KvRequestTable::format(pmem.clone(), &heap, 8).unwrap();
        let before = pmem.stats().snapshot();
        let mut slots = Vec::new();
        for req in 1..=5u64 {
            let ReqSubmit::Fresh(slot) = table
                .submit(req, KvTaskOp::Put { key: req, value: 1 })
                .unwrap()
            else {
                panic!("fresh")
            };
            slots.push(slot);
        }
        let staged = pmem.stats().snapshot() - before;
        assert_eq!(
            (staged.persists, staged.flush_calls),
            (0, 0),
            "submit only stages"
        );
        table.persist_slots(&slots[..4]).unwrap();
        let d = pmem.stats().snapshot() - before;
        assert_eq!(
            (d.persists, d.lines_persisted),
            (1, 4),
            "one coalesced persist"
        );
        table.persist_slots(&[]).unwrap();
        assert_eq!((pmem.stats().snapshot() - before).persists, 1);

        // Power failure: the four persisted descriptors are pending,
        // the fifth — staged only — is gone and its slot is free, so
        // its client's retry is Fresh again.
        pmem.crash_now(0, 0.0);
        let t2 = KvRequestTable::open(pmem.reopen().unwrap(), table.base()).unwrap();
        assert_eq!(t2.pending_slots().unwrap().len(), 4);
        assert_eq!(t2.live(), 4);
        assert!(t2.lookup(5).unwrap().is_none());
        assert!(matches!(
            t2.submit(5, KvTaskOp::Put { key: 5, value: 1 }).unwrap(),
            ReqSubmit::Fresh(_)
        ));
    }

    #[test]
    fn mark_done_batch_coalesces() {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory(); // buffered
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let table = KvRequestTable::format(pmem.clone(), &heap, 8).unwrap();
        let mut entries = Vec::new();
        for req in 1..=8u64 {
            let ReqSubmit::Fresh(slot) = table.submit(req, KvTaskOp::Get { key: req }).unwrap()
            else {
                panic!("fresh")
            };
            entries.push((slot, 1u32, KvTaskResult::Got(Some(req as i64))));
        }
        let before = pmem.stats().snapshot();
        answer(&table, &entries).unwrap();
        let delta = pmem.stats().snapshot() - before;
        assert_eq!(delta.persists, 1, "payloads and flags ride one persist");
        assert_eq!(delta.lines_persisted, 8);
        for (slot, _, expect) in entries {
            assert_eq!(table.result(slot).unwrap().unwrap().result, expect);
        }
        assert!(answer(&table, &[]).is_ok());
    }

    #[test]
    fn an_answer_records_the_span_of_its_commit() {
        // What an answer records of its commit: the batch's first log
        // slot and that record's stamp word, in the slot's own line.
        let (_, table) = fixture(2);
        let ReqSubmit::Fresh(slot) = table.submit(1, KvTaskOp::Put { key: 1, value: 1 }).unwrap()
        else {
            panic!("fresh")
        };
        let mut level = Level::default();
        let entry = [(slot, 3, KvTaskResult::Stored(true))];
        table.answer(&entry, Some((5, 0xABCD)), &mut level).unwrap();
        level.await_all().unwrap();
        assert_eq!(table.recorded_batch(slot).unwrap(), Some(Some((5, 0xABCD))));
        assert_eq!(
            table.result(slot).unwrap(),
            Some(KvTaskAnswer {
                executor: 3,
                result: KvTaskResult::Stored(true)
            })
        );
        // A commit that staged nothing records no batch.
        answer(&table, &entry).unwrap();
        assert_eq!(table.recorded_batch(slot).unwrap(), Some(None));
    }

    #[test]
    fn answer_persist_is_all_or_nothing_per_slot_at_every_crash_point() {
        // One persist carries payload and flag: whichever event the
        // power fails at, and whichever dirty lines happen to survive
        // it, a slot reopens either pending or answered with its full
        // payload — never a done flag over a stale one. The persist is
        // a flight, so with no survivors nothing of it is durable before
        // its await; the lottery is what reaches the answered states.
        let build = || {
            let pmem = PMemBuilder::new().len(1 << 16).build_in_memory(); // buffered
            let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
            let table = KvRequestTable::format(pmem.clone(), &heap, 4).unwrap();
            let mut entries = Vec::new();
            for req in 1..=3u64 {
                let ReqSubmit::Fresh(slot) = table.submit(req, KvTaskOp::Get { key: req }).unwrap()
                else {
                    panic!("fresh")
                };
                entries.push((slot, 7u32, KvTaskResult::Got(Some(req as i64 * 11))));
            }
            let slots: Vec<u32> = entries.iter().map(|e| e.0).collect();
            table.persist_slots(&slots).unwrap();
            (pmem, table, entries)
        };
        let mut answered = 0usize;
        sweep(
            || {
                let (pmem, table, entries) = build();
                (pmem, (table, entries))
            },
            |(_, (table, entries))| answer(table, entries),
            |(pmem, (table, entries)), cut| {
                let t2 = KvRequestTable::open(pmem, table.base()).unwrap();
                for &(slot, executor, result) in &entries {
                    match t2.result(slot).unwrap() {
                        None => assert!(!cut.returned(), "{cut}: an awaited answer lost"),
                        Some(a) => {
                            assert!(
                                cut.survivors != Survivors::None || cut.returned(),
                                "{cut}: an un-awaited flight kept a line"
                            );
                            assert_eq!((a.executor, a.result), (executor, result), "{cut}");
                            answered += 1;
                        }
                    }
                }
            },
        );
        assert!(
            answered > 0,
            "surviving lines must reach the answered state"
        );
    }

    #[test]
    fn rejects_bad_magic_zero_capacity_and_reserved_id() {
        let (pmem, table) = fixture(2);
        let heap = PHeap::format(
            PMemBuilder::new().len(1 << 14).build_in_memory(),
            POffset::new(0),
            1 << 14,
        )
        .unwrap();
        assert!(matches!(
            KvRequestTable::format(heap_pmem(&heap), &heap, 0),
            Err(PError::InvalidConfig(_))
        ));
        assert!(matches!(
            KvRequestTable::open(pmem, POffset::new(4096)),
            Err(PError::CorruptStack(_))
        ));
        assert!(matches!(
            table.submit(0, KvTaskOp::Get { key: 1 }),
            Err(PError::InvalidConfig(_))
        ));
        assert!(table.op(99).is_err());
        assert!(answer(&table, &[(99, 0, KvTaskResult::Got(None))]).is_err());
    }

    #[test]
    fn a_request_table_on_short_lines_is_refused() {
        // A slot is one line: on 32-byte lines a recycle could persist
        // the new request id over the old descriptor's other half.
        let pmem = PMemBuilder::new()
            .len(1 << 16)
            .line_size(32)
            .build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        assert!(matches!(
            KvRequestTable::format(pmem.clone(), &heap, 4),
            Err(PError::InvalidConfig(_))
        ));
        assert!(matches!(
            KvRequestTable::open(pmem, POffset::new(4096)),
            Err(PError::InvalidConfig(_))
        ));
    }

    fn heap_pmem(heap: &PHeap) -> PMem {
        heap.pmem().clone()
    }
}
