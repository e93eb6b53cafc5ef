//! The persistent hash-indexed key-value store, with a **generational**
//! version log.
//!
//! See the crate-level documentation for the design rationale. The
//! store is rooted at a small fixed block whose generation pointer (a
//! [`RootCell`]) names the active generation; each generation is a
//! self-contained bucket-array + version-log block:
//!
//! ```text
//! root (128 B):  magic, bucket count, reserved word (offset 16, never
//!                written), RootCell (seq = generation number,
//!                ptr = block base)
//!
//! generation block (heap-allocated, 64-aligned):
//!   header (64 B): magic, number, log capacity, log tail,
//!                  prev-generation base, state, carried count
//!   buckets:       nbuckets × 8 B — absolute offset of the newest
//!                                   record of each chain (0 = empty)
//!   version log:   log_cap × 64 B — immutable records, 64-aligned
//! ```
//!
//! A record occupies the first 48 bytes of its 64-byte slot:
//!
//! ```text
//! 0      kind   (0 = unpublished, 1 = PUT, 2 = DELETE,
//!                3 = carried PUT — a compaction copy of a live record)
//! 8..16  key
//! 16..24 value  (the stored value; for DELETE, the value removed)
//! 24..32 pid    (writer's process id)
//! 32..40 seq    (writer's operation tag)
//! 40..48 next   (offset of the chain's previous record, 0 = end)
//! ```
//!
//! Records become visible only through the bucket-head publish, after
//! every field is durable, so no crash moment can expose a torn
//! record. Reserved-but-unpublished slots are orphans: invisible to
//! lookups, scans and the verifier alike.
//!
//! # Compaction: the generational log
//!
//! A generation's log is append-only and lifetime-bounded (the
//! recoverable-queue trade: records are evidence, so they are never
//! recycled in place). [`PKvStore::compact`] lifts the lifetime bound
//! without touching that argument: it rewrites the **live** bucket
//! heads — the newest non-delete record of each key, O(live keys)
//! persists, not O(history) — into a freshly allocated generation
//! block as `carried` records (kind 3, original `(pid, seq)` tags
//! preserved), persists the block with one coalesced flush, and then
//! commits with a single [`RootCell::swap`]. The selector flip is the
//! *only* commit point: a crash anywhere before it recovers into the
//! old generation (the half-built block is an unreachable orphan); a
//! crash anywhere after it recovers into the new one. Old generations
//! are retained, marked retired, and chained via their `prev` pointer:
//!
//! * recovery evidence scans ([`PKvStore::recover_batch`]) walk the
//!   key's chain **across generations**, so an operation that
//!   published before a compaction is never re-executed after one —
//!   and a carried record is itself evidence (it is a copy of the
//!   original published record, tag included);
//! * [`PKvStore::chain`]/[`PKvStore::snapshot`] return the full
//!   multi-generation witness (oldest generation first), which is what
//!   `pstack-verify`'s generation-aware checkers validate: carried
//!   records must reproduce exactly the live state at the boundary,
//!   and no live key may be dropped by a swap.
//!
//! Crash-recovering an *interrupted* compaction is an evidence scan
//! too ([`PKvStore::recover_compact`]): if the root cell already moved
//! past the starting generation, the compaction committed (recovery
//! just finishes the idempotent retirement mark); otherwise it is
//! safely re-executed from the current state.
//!
//! Compaction runs in the region's exclusive section
//! ([`PMem::quiesce`]), which every mutation holds too, so the
//! generation it rewrites cannot move under it. The discipline is
//! machine-checked — a racing mutation *blocks* instead of corrupting.
//!
//! [`RootCell`]: pstack_nvram::RootCell
//!
//! # Persist order
//!
//! The store runs on a buffered region — caches in front of NVRAM, as
//! on real hardware, the one kind of region there is — and orders its
//! own persists through one routine, the group commit.
//! [`PKvStore::apply_batch`] enters the region's exclusive section,
//! stages the records of a whole batch, issues their persist and the
//! log tail's as two overlapping flush flights
//! ([`PKvStore::apply_batch_begin`]), then
//! moves through two dependence levels ([`KvPendingBatch::commit`]) —
//! awaits both and publishes each touched bucket's head once (heads
//! flight issued), then awaits the heads: records ‖ tail → heads. The
//! heads' flight is the batch's last persist and its commit point;
//! once it is awaited every effect of the batch is durable. A served
//! window issues its answers into the heads' level, each recording the
//! batch's record span (`KvPendingBatch::published`), and shows them
//! once that level is awaited; a replay tells an answer that landed
//! without its heads by that span (`PKvStore::span_published`). Every
//! persist is a flight awaited where
//! something depends on it, and batches of several shards move
//! through the levels together. There is one mutation API: a write is
//! a [`KvBatchOp`] in a group commit (a lone write a batch of one), and
//! its recovery dual is [`PKvStore::recover_batch`]. Records are
//! durable strictly before any head that can reach them, so a crash at
//! *any* flush boundary leaves each bucket either entirely pre-batch or
//! entirely post-batch — never a torn head — and recovery detects a
//! completed-but-unacked operation purely from the `(pid, seq)`
//! evidence already in the log. (Shard-level parallelism comes from
//! striping stores across regions, see
//! [`ShardedKvStore`](crate::ShardedKvStore).)
//!
//! [`PMem::quiesce`]: pstack_nvram::PMem::quiesce

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{op_label, Durable, Level, MemError, PMem, POffset, QuiesceGuard, RootCell};
use std::collections::BTreeMap;

const KV_MAGIC: u64 = 0x5053_4B56_5354_4F32; // "PSKVSTO2" (generational)
const RECORD_STRIDE: u64 = 64;
const RECORD_LEN: usize = 48;

/// Root block: magic, bucket count, then the generation pointer cell at
/// [`OFF_GEN_CELL`]. Offset 16 is reserved: zeroed by `format`, never
/// written or read — an older image's commit counter there is ignored,
/// so such images still open.
const ROOT_LEN: u64 = 128;
const OFF_MAGIC: u64 = 0;
const OFF_NBUCKETS: u64 = 8;
const OFF_GEN_CELL: u64 = 64;

/// Generation block header.
const GEN_MAGIC: u64 = 0x5053_4B56_4745_4E31; // "PSKVGEN1"
const GEN_HEADER_LEN: u64 = 64;
const GEN_OFF_MAGIC: u64 = 0;
const GEN_OFF_NUMBER: u64 = 8;
const GEN_OFF_LOG_CAP: u64 = 16;
const GEN_OFF_LOG_TAIL: u64 = 24;
const GEN_OFF_PREV: u64 = 32;
const GEN_OFF_STATE: u64 = 40;
const GEN_OFF_CARRIED: u64 = 48;

const GEN_STATE_ACTIVE: u64 = 1;
const GEN_STATE_RETIRED: u64 = 2;

const KIND_PUT: u8 = 1;
const KIND_DEL: u8 = 2;
/// A compaction carry-over: a copy of a live PUT (or effective CAS)
/// record, original tag preserved.
const KIND_CARRY: u8 = 3;

/// Which recovery procedure the store runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvVariant {
    /// Correct NSRL recovery: scan the key's published chain for the
    /// interrupted operation's tag before re-executing.
    #[default]
    Nsrl,
    /// Injected bug mirroring §5.2's matrix removal, in `test` and
    /// `fault-seeds` builds only: recovery skips the evidence scans and
    /// always re-executes — a replayed window cannot tell a settled
    /// answer from one whose heads were lost, so it re-runs every
    /// un-acked one, and operations that already linearized are
    /// applied twice, which the KV verifier flags.
    #[cfg(any(test, feature = "fault-seeds"))]
    NoScan,
    /// Injected persist-order bug, in `test` and `fault-seeds` builds
    /// only: a group commit (every mutation is one) issues no record
    /// flight and forges its receipt, so the heads publish still-volatile
    /// records — the early-publish class PSan's shadow tracking flags at
    /// the head CAS. Recovery itself is correct (the scan still runs).
    #[cfg(any(test, feature = "fault-seeds"))]
    EarlyPublish,
    /// Injected persist-order bug, in `test` and `fault-seeds` builds
    /// only: compaction forges the new generation block's receipt
    /// instead of flushing it, so the root swap commits a still-volatile
    /// generation — the unordered-commit class PSan flags at the
    /// selector flip. Recovery itself is correct (the scan still runs).
    #[cfg(any(test, feature = "fault-seeds"))]
    NoPersistBeforeSwap,
}

impl KvVariant {
    /// `true` when recovery runs the evidence scan before re-executing.
    /// Only the `NoScan` seed skips it; the persist-order seeds break
    /// durability ordering, not recovery.
    #[must_use]
    pub fn scans_evidence(self) -> bool {
        #[cfg(any(test, feature = "fault-seeds"))]
        if self == KvVariant::NoScan {
            return false;
        }
        true
    }
}

/// One published version record, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionRecord {
    /// The key this record belongs to.
    pub key: u64,
    /// The value stored (for a delete: the value that was removed).
    pub value: i64,
    /// Writer's process id.
    pub pid: u64,
    /// Writer's operation tag.
    pub seq: u64,
    /// `true` for a DELETE record, `false` for a PUT record.
    pub is_delete: bool,
    /// `true` for a compaction carry-over (a copy of a live record made
    /// by [`PKvStore::compact`], original tag preserved) — not a new
    /// application of its operation.
    pub compacted: bool,
    /// The generation whose log holds this record.
    pub gen: u64,
}

/// The canonical bridge into the verifier's witness shape —
/// [`ShardedKvStore::check`](crate::ShardedKvStore::check) and every
/// history built by hand for `check_kv_sharded_gen` map snapshots
/// through this one conversion, so a new record field cannot be
/// silently dropped by one of them.
impl From<VersionRecord> for pstack_verify::KvWitnessRecord {
    fn from(r: VersionRecord) -> Self {
        pstack_verify::KvWitnessRecord {
            key: r.key,
            value: r.value,
            pid: r.pid,
            seq: r.seq,
            is_delete: r.is_delete,
            compacted: r.compacted,
            gen: r.gen,
        }
    }
}

/// One generation of the store, as reported by
/// [`PKvStore::generations`] (oldest first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationInfo {
    /// The generation number (0 = the generation `format` created).
    pub number: u64,
    /// The generation's log capacity in records.
    pub log_cap: u64,
    /// Log slots reserved in this generation (published plus orphans).
    pub reserved: u64,
    /// Carry-over records the compactor seeded this generation with.
    pub carried: u64,
    /// `true` once a later generation superseded this one.
    pub retired: bool,
}

/// What one [`PKvStore::compact`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// The generation that was compacted away.
    pub from_gen: u64,
    /// The freshly committed generation.
    pub to_gen: u64,
    /// Live records carried over (the compactor's persist bill is
    /// O(this), not O(history)).
    pub carried: u64,
    /// Old-generation log slots whose history the new generation does
    /// not repeat (superseded versions, deletes, orphans).
    pub dropped: u64,
    /// The new generation's log capacity.
    pub new_capacity: u64,
}

impl CompactionStats {
    /// Headroom the swap opened up: free slots in the new generation.
    #[must_use]
    pub fn headroom(&self) -> u64 {
        self.new_capacity - self.carried
    }
}

/// A loaded generation descriptor (volatile; re-read from the root
/// cell on every operation so handles never go stale across swaps).
#[derive(Debug, Clone, Copy)]
struct Gen {
    base: u64,
    number: u64,
    log_cap: u64,
}

/// Per-op outcome of [`PKvStore::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvApplied {
    /// The mutation took effect (its record is published).
    Applied,
    /// The precondition failed (absent key for a delete, mismatched
    /// expected value for a cas) — no effect, no record.
    PrecondFailed,
    /// The version log's lifetime capacity is exhausted — no effect.
    LogFull,
}

impl KvApplied {
    /// `true` for [`KvApplied::Applied`].
    #[must_use]
    pub fn took_effect(self) -> bool {
        matches!(self, KvApplied::Applied)
    }
}

/// Precondition, resolved in the region's exclusive section that the
/// head CAS runs in too, so a passed check still holds at the
/// linearization point.
enum Precond {
    /// No precondition (plain put).
    None,
    /// The key must currently be present (delete).
    Exists,
    /// The key must currently hold exactly this value (cas).
    ValueIs(i64),
}

/// One mutation of a group-commit batch (see
/// [`PKvStore::apply_batch`]). Gets never need batching — they take no
/// log slot and persist nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvBatchOp {
    /// Store `value` under `key` (insert or overwrite).
    Put {
        /// Writer's process id.
        pid: u64,
        /// Writer's unique operation tag.
        seq: u64,
        /// The key.
        key: u64,
        /// The value to store.
        value: i64,
    },
    /// Remove `key`.
    Delete {
        /// Writer's process id.
        pid: u64,
        /// Writer's unique operation tag.
        seq: u64,
        /// The key.
        key: u64,
    },
    /// Replace `key`'s value with `new` iff it currently holds
    /// `expected`.
    Cas {
        /// Writer's process id.
        pid: u64,
        /// Writer's unique operation tag.
        seq: u64,
        /// The key.
        key: u64,
        /// The value the key must currently hold.
        expected: i64,
        /// The replacement value.
        new: i64,
    },
}

impl KvBatchOp {
    /// The key this mutation targets (what the shard router hashes).
    #[must_use]
    pub fn key(&self) -> u64 {
        match *self {
            KvBatchOp::Put { key, .. }
            | KvBatchOp::Delete { key, .. }
            | KvBatchOp::Cas { key, .. } => key,
        }
    }

    /// The writer's `(pid, seq)` tag.
    #[must_use]
    pub fn tag(&self) -> (u64, u64) {
        match *self {
            KvBatchOp::Put { pid, seq, .. }
            | KvBatchOp::Delete { pid, seq, .. }
            | KvBatchOp::Cas { pid, seq, .. } => (pid, seq),
        }
    }

    fn parts(&self) -> (u64, u64, u64, u8, i64, Precond) {
        match *self {
            KvBatchOp::Put {
                pid,
                seq,
                key,
                value,
            } => (pid, seq, key, KIND_PUT, value, Precond::None),
            KvBatchOp::Delete { pid, seq, key } => (pid, seq, key, KIND_DEL, 0, Precond::Exists),
            KvBatchOp::Cas {
                pid,
                seq,
                key,
                expected,
                new,
            } => (pid, seq, key, KIND_PUT, new, Precond::ValueIs(expected)),
        }
    }
}

/// A crash-recoverable hash-indexed map from `u64` keys to `i64`
/// values. Cheap to clone; all clones share the same store. See the
/// [module docs](self) for the persistent layout and the crate docs
/// for the recovery argument.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_kv::{KvApplied, KvBatchOp, KvVariant, PKvStore};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 18)?;
/// let kv = PKvStore::format(pmem, &heap, 16, 64, KvVariant::Nsrl)?;
/// let put = KvBatchOp::Put { pid: 0, seq: 1, key: 7, value: 700 };
/// assert_eq!(kv.apply_batch(&[put])?, [KvApplied::Applied]);
/// assert_eq!(kv.get(7)?, Some(700));
/// let cas = KvBatchOp::Cas { pid: 0, seq: 2, key: 7, expected: 700, new: 701 };
/// let delete = KvBatchOp::Delete { pid: 0, seq: 3, key: 7 };
/// assert_eq!(kv.apply_batch(&[cas, delete])?, [KvApplied::Applied; 2]);
/// assert_eq!(kv.get(7)?, None);
/// // Replaying a write that published is answered from its evidence.
/// assert_eq!(kv.recover_batch(&[put])?, [KvApplied::Applied]);
/// assert_eq!(kv.get(7)?, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PKvStore {
    pmem: PMem,
    base: POffset,
    cell: RootCell,
    nbuckets: u64,
    variant: KvVariant,
}

/// What staging a group commit produced: records written (volatile), per
/// touched bucket the durable pre-batch head and the staged head to
/// publish, the `[lo, hi]` slot span (`None` when nothing staged) and
/// the log tail that reserved it.
struct StagedBatch {
    outcomes: Vec<KvApplied>,
    pre_heads: BTreeMap<u64, u64>,
    staged_heads: BTreeMap<u64, u64>,
    slots: Option<(u64, u64)>,
    tail: POffset,
}

/// A group commit staged by [`PKvStore::apply_batch_begin`] whose
/// record and log-tail persists are in flight as one dependence level.
/// Holds the region quiesced until committed or dropped; nothing is
/// visible (or recoverable) until [`KvPendingBatch::commit`] runs its
/// levels: records ‖ tail awaited and heads published on its receipt,
/// their flight issued ([`KvPendingBatch::publish`]), then heads
/// awaited — the commit point ([`KvPendingBatch::committed`]). Every
/// persist is a flight, awaited where something depends on it.
#[must_use = "a pending batch publishes nothing until committed"]
pub struct KvPendingBatch<'a> {
    store: &'a PKvStore,
    _quiesce: QuiesceGuard<'a>,
    staged: StagedBatch,
    /// Records ‖ tail: the level the heads depend on.
    records: Level,
    /// The records level's receipt, once [`KvPendingBatch::publish`]
    /// awaited it.
    durable: Option<Durable>,
}

impl KvPendingBatch<'_> {
    /// `true` when the batch staged at least one record, i.e. commit
    /// has persists in flight and heads to publish.
    #[must_use]
    pub fn is_staged(&self) -> bool {
        self.staged.slots.is_some()
    }

    /// Runs the batch's levels and publishes it: heads flipped and
    /// durable. Outcomes are reported in submission order.
    ///
    /// # Errors
    ///
    /// A propagated crash (complete the batch with
    /// [`PKvStore::recover_batch`] after restart).
    pub fn commit(mut self) -> Result<Vec<KvApplied>, PError> {
        let _label = op_label("kv.apply_batch");
        let mut heads = Level::default();
        self.publish(&mut heads)?;
        let heads = heads.await_all()?;
        Ok(self.committed(&heads))
    }

    /// Awaits the records ‖ tail, publishes the heads on its receipt
    /// ([`KvPendingBatch::flip_heads`]), and issues the heads' flight
    /// into `heads` — one level for every region's.
    pub(crate) fn publish(&mut self, heads: &mut Level) -> Result<(), PError> {
        let records = std::mem::take(&mut self.records).await_all()?;
        self.flip_heads(&records)?;
        self.durable = Some(records);
        if let Some((off, len)) = self.heads_span() {
            heads.issue(&self.store.pmem, off, len)?;
        }
        Ok(())
    }

    /// What a served window's answers rest on once
    /// [`KvPendingBatch::publish`] has run: the batch's record span
    /// `[first, last]` by offset (`None` when it staged no record), the
    /// records ‖ tail receipt its heads were published on, and every
    /// op's outcome in submission order.
    ///
    /// # Panics
    ///
    /// Panics if the batch was not published.
    pub(crate) fn published(&self) -> (Option<(u64, u64)>, &Durable, &[KvApplied]) {
        let records = self.durable.as_ref().expect("a published batch");
        (self.staged.slots, records, &self.staged.outcomes)
    }

    /// The publish: flips each touched bucket's head once, to the newest
    /// staged record (intermediate staged heads are never published, so
    /// per bucket the batch is all-or-nothing), on `records`, the
    /// receipt for the record span and the log tail.
    fn flip_heads(&self, records: &Durable) -> Result<(), PError> {
        let pmem = &self.store.pmem;
        if let Some((lo, hi)) = self.staged.slots {
            records.check(pmem, POffset::new(lo), (hi - lo + RECORD_STRIDE) as usize);
            records.check(pmem, self.staged.tail, 8);
        }
        for (&bucket, &new_head) in &self.staged.staged_heads {
            let expected = self.staged.pre_heads[&bucket];
            if !pmem.compare_exchange(
                POffset::new(bucket),
                &expected.to_le_bytes(),
                &new_head.to_le_bytes(),
            )? {
                return Err(PError::CorruptStack(
                    "bucket head moved under a group commit — every mutation must \
                     run in the region's exclusive section"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// The commit point, once the heads' level is awaited into `heads`:
    /// a bare commit returns and a window shows its answers, so under
    /// PSan the ranges of both receipts on this region — records ‖ tail
    /// and the heads — must be durable *now*. Takes the outcomes
    /// (submission order); the exclusive section lasts until drop.
    pub(crate) fn committed(&mut self, heads: &Durable) -> Vec<KvApplied> {
        if let Some(records) = self.durable.take() {
            let pmem = &self.store.pmem;
            records.psan_check(pmem);
            heads.psan_check(pmem);
        }
        std::mem::take(&mut self.staged.outcomes)
    }

    /// The touched buckets' span, if any: one flight over it coalesces
    /// the touched lines (clean lines in between stage nothing).
    fn heads_span(&self) -> Option<(POffset, usize)> {
        let first = *self.staged.staged_heads.keys().next()?;
        let last = *self.staged.staged_heads.keys().next_back()?;
        Some((POffset::new(first), (last - first + 8) as usize))
    }
}

/// The bytes of a record span `[first, last]` (slot offsets, as
/// [`KvPendingBatch::published`] reports them): what the records ‖ tail
/// level persisted for it.
pub(crate) fn span_extent((first, last): (u64, u64)) -> (POffset, usize) {
    (POffset::new(first), (last - first + RECORD_STRIDE) as usize)
}

fn round64(v: u64) -> u64 {
    (v + 63) & !63
}

/// SplitMix64 finalizer: a full-avalanche mix so sequential keys spread
/// across buckets.
pub(crate) fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes of the fixed prefix (header + bucket array) of a generation
/// block, rounded so the log starts 64-aligned.
fn gen_prefix_len(nbuckets: u64) -> u64 {
    round64(GEN_HEADER_LEN + nbuckets * 8)
}

/// Bytes of a whole generation block.
fn gen_block_len(nbuckets: u64, log_cap: u64) -> u64 {
    gen_prefix_len(nbuckets) + log_cap * RECORD_STRIDE
}

impl PKvStore {
    /// Bytes of NVRAM the store needs for its root block plus one
    /// generation of `nbuckets` buckets and a `log_cap`-record version
    /// log. Every [`PKvStore::compact`] allocates one further
    /// generation block from the heap.
    #[must_use]
    pub fn required_len(nbuckets: u64, log_cap: u64) -> usize {
        (ROOT_LEN + gen_block_len(nbuckets, log_cap)) as usize
    }

    /// Allocates and persists an empty store. `log_cap` bounds one
    /// *generation's* mutation count (records are never recycled in
    /// place — the same trade the recoverable queue makes to keep
    /// recovery a scan); [`PKvStore::compact`] rewrites the live heads
    /// into a fresh generation when the log runs out of headroom, so
    /// the store's lifetime write count is unbounded.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for a zero bucket count or log
    /// capacity; heap/NVRAM errors otherwise.
    pub fn format(
        pmem: PMem,
        heap: &PHeap,
        nbuckets: u64,
        log_cap: u64,
        variant: KvVariant,
    ) -> Result<Self, PError> {
        if nbuckets == 0 || log_cap == 0 {
            return Err(PError::InvalidConfig(
                "KV store needs at least one bucket and one log slot".into(),
            ));
        }
        let base = heap.alloc_aligned(ROOT_LEN as usize, 64)?;
        pmem.fill(base, 0, ROOT_LEN as usize)?;
        pmem.write_u64(base + OFF_NBUCKETS, nbuckets)?;
        pmem.write_u64(base + OFF_MAGIC, KV_MAGIC)?;
        let gen0 = Self::format_generation(&pmem, heap, nbuckets, log_cap, 0, 0)?;
        // Root + generation 0 durable before the cell (formatted below,
        // self-persisting) names them.
        pmem.flush(base, ROOT_LEN as usize)?;
        pmem.flush(POffset::new(gen0), gen_prefix_len(nbuckets) as usize)?;
        let cell = RootCell::format(pmem.clone(), base + OFF_GEN_CELL, 0, gen0)?;
        Self::register_publish_range(&pmem, gen0, nbuckets);
        Ok(PKvStore {
            pmem,
            base,
            cell,
            nbuckets,
            variant,
        })
    }

    /// Tells PSan (no-op when disabled) that the generation's bucket
    /// array publishes record offsets: every head CAS in it must point
    /// at a durable record slot.
    fn register_publish_range(pmem: &PMem, gen_base: u64, nbuckets: u64) {
        pmem.psan_register_publish_range(
            POffset::new(gen_base + GEN_HEADER_LEN),
            (nbuckets * 8) as usize,
            RECORD_STRIDE as usize,
        );
    }

    /// Writes an empty generation block's header (state ACTIVE, tail 0)
    /// and zeroes its bucket array. Log slots are left untouched: they
    /// are unreachable until reserved, written in full and published.
    /// Volatile until the caller persists it.
    fn format_generation(
        pmem: &PMem,
        heap: &PHeap,
        nbuckets: u64,
        log_cap: u64,
        number: u64,
        prev: u64,
    ) -> Result<u64, PError> {
        let len = gen_block_len(nbuckets, log_cap) as usize;
        let base = heap.alloc_aligned(len, 64)?;
        pmem.fill(base, 0, gen_prefix_len(nbuckets) as usize)?;
        pmem.write_u64(base + GEN_OFF_NUMBER, number)?;
        pmem.write_u64(base + GEN_OFF_LOG_CAP, log_cap)?;
        pmem.write_u64(base + GEN_OFF_PREV, prev)?;
        pmem.write_u64(base + GEN_OFF_STATE, GEN_STATE_ACTIVE)?;
        pmem.write_u64(base + GEN_OFF_MAGIC, GEN_MAGIC)?;
        Ok(base.get())
    }

    /// Re-attaches to a store previously created at `base` (recovery
    /// boot).
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad magic word (root or active
    /// generation).
    pub fn open(pmem: PMem, base: POffset, variant: KvVariant) -> Result<Self, PError> {
        let magic = pmem.read_u64(base + OFF_MAGIC)?;
        if magic != KV_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad KV store magic {magic:#x} at {base}"
            )));
        }
        let nbuckets = pmem.read_u64(base + OFF_NBUCKETS)?;
        let cell = RootCell::open(pmem.clone(), base + OFF_GEN_CELL).map_err(|e| match e {
            MemError::Crashed => PError::Mem(e),
            e => PError::CorruptStack(format!("KV store root cell at {base}: {e}")),
        })?;
        let store = PKvStore {
            pmem,
            base,
            cell,
            nbuckets,
            variant,
        };
        let gen = store.active_gen()?; // validates the active generation's magic
        Self::register_publish_range(&store.pmem, gen.base, nbuckets);
        Ok(store)
    }

    /// Loads the active generation from the root cell. Re-read on every
    /// operation (reads are free of persistence events), so clones and
    /// independently opened handles observe a compaction swap
    /// immediately.
    fn active_gen(&self) -> Result<Gen, PError> {
        // A mid-read power failure is a crash, not corruption — it
        // must keep its classification so callers route it to
        // recovery instead of aborting on a phantom corruption.
        let (number, base) = self.cell.current().map_err(|e| match e {
            MemError::Crashed => PError::Mem(e),
            e => PError::CorruptStack(format!("KV store root cell: {e}")),
        })?;
        let off = POffset::new(base);
        let magic = self.pmem.read_u64(off + GEN_OFF_MAGIC)?;
        if magic != GEN_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad KV generation magic {magic:#x} at {off} (generation {number})"
            )));
        }
        let log_cap = self.pmem.read_u64(off + GEN_OFF_LOG_CAP)?;
        Ok(Gen {
            base,
            number,
            log_cap,
        })
    }

    /// The store's base offset (persist it to find the store again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// Number of hash buckets.
    #[must_use]
    pub fn nbuckets(&self) -> u64 {
        self.nbuckets
    }

    /// The **active generation's** version-log capacity in records.
    /// Compaction may grow it; within one generation it is fixed.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn log_capacity(&self) -> Result<u64, PError> {
        Ok(self.active_gen()?.log_cap)
    }

    /// The active generation's number (0 until the first successful
    /// [`PKvStore::compact`]).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn generation(&self) -> Result<u64, PError> {
        Ok(self.active_gen()?.number)
    }

    /// The recovery variant this handle runs.
    #[must_use]
    pub fn variant(&self) -> KvVariant {
        self.variant
    }

    /// Log slots reserved so far in the **active generation**
    /// (published records, carry-overs and crash orphans).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn log_reserved(&self) -> Result<u64, PError> {
        let gen = self.active_gen()?;
        Ok(self
            .pmem
            .read_u64(POffset::new(gen.base + GEN_OFF_LOG_TAIL))?)
    }

    fn bucket_off(&self, gen: &Gen, key: u64) -> POffset {
        let b = mix(key) % self.nbuckets;
        self.bucket_off_at(gen, b)
    }

    fn bucket_off_at(&self, gen: &Gen, bucket: u64) -> POffset {
        POffset::new(gen.base + GEN_HEADER_LEN + bucket * 8)
    }

    fn record_off(&self, gen: &Gen, idx: u64) -> u64 {
        gen.base + gen_prefix_len(self.nbuckets) + idx * RECORD_STRIDE
    }

    fn read_record(&self, off: u64, gen_number: u64) -> Result<(VersionRecord, u64), PError> {
        let mut b = [0u8; RECORD_LEN];
        self.pmem.read(POffset::new(off), &mut b)?;
        let kind = b[0];
        if kind != KIND_PUT && kind != KIND_DEL && kind != KIND_CARRY {
            return Err(PError::CorruptStack(format!(
                "published KV record at {off:#x} has kind {kind}"
            )));
        }
        let rec = VersionRecord {
            key: u64::from_le_bytes(b[8..16].try_into().expect("slice length")),
            value: i64::from_le_bytes(b[16..24].try_into().expect("slice length")),
            pid: u64::from_le_bytes(b[24..32].try_into().expect("slice length")),
            seq: u64::from_le_bytes(b[32..40].try_into().expect("slice length")),
            is_delete: kind == KIND_DEL,
            compacted: kind == KIND_CARRY,
            gen: gen_number,
        };
        let next = u64::from_le_bytes(b[40..48].try_into().expect("slice length"));
        Ok((rec, next))
    }

    /// Walks a chain from `head` for `key`: the newest record decides.
    /// (Carry-overs are copies of live PUTs, so they decide like PUTs.)
    fn lookup_from(&self, head: u64, key: u64, gen_number: u64) -> Result<Option<i64>, PError> {
        let mut off = head;
        while off != 0 {
            let (rec, next) = self.read_record(off, gen_number)?;
            if rec.key == key {
                return Ok(if rec.is_delete { None } else { Some(rec.value) });
            }
            off = next;
        }
        Ok(None)
    }

    /// Reserves one log slot in `gen`; `None` when its log is
    /// exhausted.
    fn reserve(&self, gen: &Gen) -> Result<Option<u64>, PError> {
        let tail = POffset::new(gen.base + GEN_OFF_LOG_TAIL);
        loop {
            let t = self.pmem.read_u64(tail)?;
            if t >= gen.log_cap {
                return Ok(None);
            }
            if self
                .pmem
                .compare_exchange(tail, &t.to_le_bytes(), &(t + 1).to_le_bytes())?
            {
                return Ok(Some(self.record_off(gen, t)));
            }
        }
    }

    /// Resolves a mutation's precondition against the chain at `head`:
    /// `None` means the precondition failed, `Some(v)` the value the
    /// record must carry (a delete records the value it removed).
    fn resolve_value(
        &self,
        head: u64,
        key: u64,
        value: i64,
        precond: &Precond,
        gen_number: u64,
    ) -> Result<Option<i64>, PError> {
        match precond {
            Precond::None => Ok(Some(value)),
            Precond::Exists => self.lookup_from(head, key, gen_number),
            Precond::ValueIs(expected) => {
                if self.lookup_from(head, key, gen_number)? == Some(*expected) {
                    Ok(Some(value))
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Writes a full record into slot `off` (volatile until flushed).
    /// `tag` is the writer's `(pid, seq)` pair.
    fn write_record(
        &self,
        off: u64,
        kind: u8,
        key: u64,
        value: i64,
        tag: (u64, u64),
        next: u64,
    ) -> Result<(), PError> {
        let mut b = [0u8; RECORD_LEN];
        b[0] = kind;
        b[8..16].copy_from_slice(&key.to_le_bytes());
        b[16..24].copy_from_slice(&value.to_le_bytes());
        b[24..32].copy_from_slice(&tag.0.to_le_bytes());
        b[32..40].copy_from_slice(&tag.1.to_le_bytes());
        b[40..48].copy_from_slice(&next.to_le_bytes());
        Ok(self.pmem.write(POffset::new(off), &b)?)
    }

    /// Group-commits a batch of mutations, in order, and reports each
    /// op's outcome. Ops see the staged effects of earlier ops in the
    /// same batch (a `cas` after a `put` of its expected value
    /// succeeds).
    ///
    /// This is the hot path the sharding layer amortizes persists
    /// with, and it is exactly
    /// [`PKvStore::apply_batch_begin`] followed at once by
    /// [`KvPendingBatch::commit`]: all records become durable in one
    /// coalesced flight and the log tail in a second that overlaps it,
    /// each touched bucket's head is published once, and the heads are
    /// persisted — 3 persists (2 + ⌈heads/lines⌉ in general), every one
    /// a flight, and 2 round-trips of waiting for the whole batch (one
    /// per dependence level) instead of ≥ 2 per mutation. A crash
    /// at any flush boundary leaves every bucket either entirely
    /// pre-batch or entirely post-batch (records are durable strictly
    /// before any head that can reach them), so recovery remains the
    /// per-key evidence scan.
    ///
    /// It is the one way to write the store: a lone mutation is a batch
    /// of one, at the same 3 persists and 2 round-trips.
    ///
    /// # Errors
    ///
    /// A propagated crash (complete the batch with
    /// [`PKvStore::recover_batch`] after restart).
    ///
    /// # Example
    ///
    /// ```
    /// use pstack_nvram::PMemBuilder;
    /// use pstack_heap::PHeap;
    /// use pstack_kv::{KvBatchOp, KvVariant, PKvStore};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
    /// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 18)?;
    /// let kv = PKvStore::format(pmem.clone(), &heap, 16, 64, KvVariant::Nsrl)?;
    /// let before = pmem.stats().snapshot();
    /// let applied = kv.apply_batch(&[
    ///     KvBatchOp::Put { pid: 0, seq: 1, key: 7, value: 70 },
    ///     KvBatchOp::Cas { pid: 0, seq: 2, key: 7, expected: 70, new: 71 },
    /// ])?;
    /// assert_eq!(applied, vec![Applied, Applied]);
    /// assert_eq!(kv.get(7)?, Some(71));
    /// // Records ‖ log tail, then the heads: three flights in all.
    /// assert_eq!((pmem.stats().snapshot() - before).async_flushes, 3);
    /// # Ok(())
    /// # }
    /// # use pstack_kv::KvApplied::Applied;
    /// ```
    pub fn apply_batch(&self, ops: &[KvBatchOp]) -> Result<Vec<KvApplied>, PError> {
        self.apply_batch_begin(ops)?.commit()
    }

    /// The staging step of a group commit: resolve preconditions
    /// against the staged chain state, reserve slots, write records (volatile). The
    /// caller holds the region quiesced.
    fn stage_batch(&self, gen: &Gen, ops: &[KvBatchOp]) -> Result<StagedBatch, PError> {
        let mut outcomes = vec![KvApplied::PrecondFailed; ops.len()];
        // Per touched bucket: the durable pre-batch head and the staged
        // head the batch will publish.
        let mut pre_heads: BTreeMap<u64, u64> = BTreeMap::new();
        let mut staged_heads: BTreeMap<u64, u64> = BTreeMap::new();
        let mut slots: Option<(u64, u64)> = None;
        for (i, op) in ops.iter().enumerate() {
            let (pid, seq, key, kind, value, precond) = op.parts();
            let bucket = self.bucket_off(gen, key).get();
            let head = match staged_heads.get(&bucket) {
                Some(&h) => h,
                None => {
                    let h = self.pmem.read_u64(POffset::new(bucket))?;
                    pre_heads.insert(bucket, h);
                    h
                }
            };
            let Some(value) = self.resolve_value(head, key, value, &precond, gen.number)? else {
                continue;
            };
            let Some(off) = self.reserve(gen)? else {
                outcomes[i] = KvApplied::LogFull;
                continue;
            };
            self.write_record(off, kind, key, value, (pid, seq), head)?;
            staged_heads.insert(bucket, off);
            slots = Some(match slots {
                None => (off, off),
                Some((lo, hi)) => (lo.min(off), hi.max(off)),
            });
            outcomes[i] = KvApplied::Applied;
        }
        Ok(StagedBatch {
            outcomes,
            pre_heads,
            staged_heads,
            slots,
            tail: POffset::new(gen.base + GEN_OFF_LOG_TAIL),
        })
    }

    /// Stages a group commit and **issues** its record and log-tail
    /// persists as asynchronous flush commands without publishing. The
    /// two flights ride the device queue concurrently, so draining
    /// them costs about one round-trip instead of two — and while they
    /// are in flight the caller is free to build other work (another
    /// shard's batch, the next batch's records) before making this one
    /// visible with [`KvPendingBatch::commit`].
    ///
    /// The returned handle holds the region's exclusive section
    /// ([`PMem::quiesce`]) — region-scoped, not handle-scoped: any
    /// handle opened on this region, clone or independent `open`,
    /// enters it for every mutation, and so does `compact`; so the
    /// generation loaded here cannot be swapped and no bucket head can
    /// move under the batch. Dropping the handle without committing
    /// abandons the staged records as unpublished orphans — invisible
    /// to lookups, scans and recovery alike, the same shape a
    /// pre-publish crash leaves.
    ///
    /// # Errors
    ///
    /// A propagated crash (complete the batch with
    /// [`PKvStore::recover_batch`] after restart).
    pub fn apply_batch_begin(&self, ops: &[KvBatchOp]) -> Result<KvPendingBatch<'_>, PError> {
        let _label = op_label("kv.apply_batch");
        self.begin_quiesced(self.pmem.quiesce(), ops)
    }

    /// [`PKvStore::apply_batch_begin`] with the region already
    /// quiesced by `quiesce` — which the pending batch keeps until it
    /// commits.
    fn begin_quiesced<'a>(
        &'a self,
        quiesce: QuiesceGuard<'a>,
        ops: &[KvBatchOp],
    ) -> Result<KvPendingBatch<'a>, PError> {
        let gen = self.active_gen()?;
        let staged = self.stage_batch(&gen, ops)?;
        let mut records = Level::default();
        if let Some((lo, hi)) = staged.slots {
            // Issue the record-span and log-tail flights back to back;
            // their round-trips overlap in the device queue. The
            // quiesce makes the reserved slots consecutive, so [lo, hi]
            // covers exactly this batch. KvVariant::EarlyPublish forges
            // the record flight's receipt instead — PSan's negative
            // control: the head CAS then publishes still-volatile
            // records, which the sanitizer flags.
            let span = (hi - lo + RECORD_STRIDE) as usize;
            #[cfg(any(test, feature = "fault-seeds"))]
            let forged = self.forges(KvVariant::EarlyPublish, &mut records, lo, span);
            #[cfg(not(any(test, feature = "fault-seeds")))]
            let forged = false;
            if !forged {
                records.issue(&self.pmem, POffset::new(lo), span)?;
            }
            records.issue(&self.pmem, staged.tail, 8)?;
        }
        Ok(KvPendingBatch {
            store: self,
            _quiesce: quiesce,
            staged,
            records,
            durable: None,
        })
    }

    /// The persist-order seeds' one move: when this store is `seed`, puts
    /// `[off, off + len)` in `level`'s receipt with no flight behind it
    /// ([`Level::forge`]) and returns `true`.
    #[cfg(any(test, feature = "fault-seeds"))]
    fn forges(&self, seed: KvVariant, level: &mut Level, off: u64, len: usize) -> bool {
        let forged = self.variant == seed;
        if forged {
            level.forge(&self.pmem, POffset::new(off), len);
        }
        forged
    }

    /// [`PMem::flush`] of `[off, off + len)`, or its forged receipt when
    /// this store is `seed`.
    #[cfg(any(test, feature = "fault-seeds"))]
    fn flush_unless(&self, seed: KvVariant, off: u64, len: usize) -> Result<Durable, MemError> {
        let mut forged = Level::default();
        if self.forges(seed, &mut forged, off, len) {
            forged.await_all()
        } else {
            self.pmem.flush(POffset::new(off), len)
        }
    }

    /// Reads the current value of `key`.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn get(&self, key: u64) -> Result<Option<i64>, PError> {
        let gen = self.active_gen()?;
        let head = self.pmem.read_u64(self.bucket_off(&gen, key))?;
        self.lookup_from(head, key, gen.number)
    }

    /// [`PKvStore::get`] whose answer is **durably linearizable**: the
    /// value returned survives a power failure right after the call,
    /// so it may be handed to a client. A reader persists only what a
    /// writer has not yet (FliT's rule): the bucket-head line is
    /// persisted **iff** it is dirty or staged in an un-awaited flight
    /// ([`PMem::persist_if_dirty`]) — a racing mutation between its
    /// head CAS and its head persist — and on a quiescent shard the
    /// read persists nothing and costs no round-trip.
    ///
    /// Only the destination needs ordering (NVTraverse): every commit
    /// path makes a record durable *before* the head CAS that can
    /// reach it, so persisting a head early is always safe, and a head
    /// installed after ours was read only extends the chain ours heads.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn get_durable(&self, key: u64) -> Result<Option<i64>, PError> {
        let gen = self.active_gen()?;
        let bucket = self.bucket_off(&gen, key);
        let head = self.pmem.read_u64(bucket)?;
        self.pmem.persist_if_dirty(bucket, 8)?;
        self.lookup_from(head, key, gen.number)
    }

    /// Searches `key`'s published chain for the record tagged
    /// `(pid, seq)` — the evidence scan of NSRL recovery
    /// ([`PKvStore::recover_batch`]).
    ///
    /// The scan spans **every generation** (newest first): an operation
    /// that published before a compaction must still be recognized
    /// after one, whether its record survives as a live carry-over in
    /// the new generation or only in a retired generation's log.
    /// Without the cross-generation walk, a compact-then-recover
    /// sequence would re-execute it — a double application the
    /// verifier flags.
    fn find_tag(&self, key: u64, pid: u64, seq: u64) -> Result<Option<VersionRecord>, PError> {
        let mut gen = self.active_gen()?;
        loop {
            let mut off = self.pmem.read_u64(self.bucket_off(&gen, key))?;
            while off != 0 {
                let (rec, next) = self.read_record(off, gen.number)?;
                if rec.pid == pid && rec.seq == seq {
                    return Ok(Some(rec));
                }
                off = next;
            }
            let prev = self.pmem.read_u64(POffset::new(gen.base + GEN_OFF_PREV))?;
            if prev == 0 {
                return Ok(None);
            }
            gen = self.load_gen(prev)?;
        }
    }

    /// `true` when every record of `span` — a group commit's
    /// `[first, last]`, as [`KvPendingBatch::published`] reports it — is
    /// reachable from the heads of the generation whose log holds it:
    /// the batch's heads are all durable, or were when a compaction
    /// retired that generation. Reads only.
    ///
    /// A batch flips each touched bucket's head to its newest record,
    /// which chains to the batch's older records in that bucket, so
    /// the span is reachable iff every touched head's flip reached
    /// NVRAM. Within one generation a chain runs from higher log
    /// offsets to lower (a record links to the head it replaced, which
    /// was reserved before it), so each walk stops at the record's own
    /// offset. A retired generation's heads are the durable heads a
    /// compaction read: it runs in the exclusive section a batch keeps
    /// until its heads are awaited, and no generation block is ever
    /// freed, so a span names one generation for good.
    ///
    /// Under the `NoScan` seed the scan is skipped and finds nothing:
    /// `false`.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] for a span in no generation's log;
    /// propagated NVRAM errors.
    pub(crate) fn span_published(&self, (first, last): (u64, u64)) -> Result<bool, PError> {
        if !self.variant.scans_evidence() {
            return Ok(false);
        }
        let gens = self.gens_oldest_first()?;
        let log = |gen: &Gen| self.record_off(gen, 0)..self.record_off(gen, gen.log_cap);
        let gen = gens
            .iter()
            .find(|gen| log(gen).contains(&first))
            .ok_or_else(|| {
                PError::CorruptStack(format!(
                    "record span [{first:#x}, {last:#x}] lies in no generation's log"
                ))
            })?;
        for off in (first..=last).step_by(RECORD_STRIDE as usize) {
            let (rec, _) = self.read_record(off, gen.number)?;
            let mut at = self.pmem.read_u64(self.bucket_off(gen, rec.key))?;
            while at > off {
                at = self.read_record(at, gen.number)?.1;
            }
            if at != off {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Loads a generation descriptor from its block base, validating
    /// the magic word.
    fn load_gen(&self, base: u64) -> Result<Gen, PError> {
        let off = POffset::new(base);
        let magic = self.pmem.read_u64(off + GEN_OFF_MAGIC)?;
        if magic != GEN_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad KV generation magic {magic:#x} at {off}"
            )));
        }
        Ok(Gen {
            base,
            number: self.pmem.read_u64(off + GEN_OFF_NUMBER)?,
            log_cap: self.pmem.read_u64(off + GEN_OFF_LOG_CAP)?,
        })
    }

    /// Every generation of the store, oldest first (walking the active
    /// generation's `prev` chain back to generation 0).
    fn gens_oldest_first(&self) -> Result<Vec<Gen>, PError> {
        let mut gens = vec![self.active_gen()?];
        loop {
            let last = gens.last().expect("non-empty");
            let prev = self.pmem.read_u64(POffset::new(last.base + GEN_OFF_PREV))?;
            if prev == 0 {
                break;
            }
            gens.push(self.load_gen(prev)?);
        }
        gens.reverse();
        Ok(gens)
    }

    /// One bucket's published chain within one generation, oldest
    /// record first.
    fn chain_in_gen(&self, gen: &Gen, bucket: u64) -> Result<Vec<VersionRecord>, PError> {
        let mut off = self.pmem.read_u64(self.bucket_off_at(gen, bucket))?;
        let mut out = Vec::new();
        while off != 0 {
            let (rec, next) = self.read_record(off, gen.number)?;
            out.push(rec);
            off = next;
        }
        out.reverse();
        Ok(out)
    }

    /// The batched recovery dual of [`PKvStore::apply_batch`]: runs the
    /// evidence scan for every op first (an op whose tagged record
    /// already published answers `Applied` without re-executing), then
    /// re-executes the remainder through **one** group commit.
    /// Equivalent to recovering each op alone in submission order — a
    /// re-execution publishes only its own tag, so it cannot create or
    /// destroy another pending op's evidence — but it pays the batch's
    /// persist economy, so recovery traffic runs inside real batch
    /// windows too (which is what lets a crash campaign kill
    /// *recovery* mid-batch and still converge).
    ///
    /// An op that left no evidence is re-executed. That includes a
    /// delete that found its key absent, or a cas whose expected value
    /// did not match, before the crash: an answer that was never
    /// persisted is indistinguishable from the op not having run (the
    /// recoverable queue's argument for empty dequeues).
    ///
    /// Under the `NoScan` seed (`test` and `fault-seeds` builds) the
    /// scans are skipped and every op re-executes — the injected
    /// §5.2-style bug, preserved here so batched recovery stays subject
    /// to the same negative control.
    ///
    /// # Errors
    ///
    /// A propagated crash; re-run after restart.
    pub fn recover_batch(&self, ops: &[KvBatchOp]) -> Result<Vec<KvApplied>, PError> {
        self.recover_batch_begin(ops)?.commit()
    }

    /// [`PKvStore::recover_batch`] up to its group commit: the evidence
    /// scans, then the remainder begun ([`PKvStore::apply_batch_begin`]).
    /// The pending batch reports every op's outcome, evidenced ones
    /// `Applied`.
    pub(crate) fn recover_batch_begin(
        &self,
        ops: &[KvBatchOp],
    ) -> Result<KvPendingBatch<'_>, PError> {
        let _label = op_label("kv.recover_batch");
        let _phase = pstack_telemetry::phase("recovery.batch-replay");
        // The scans run in the exclusive section the group commit then
        // keeps: two replays of one op — two frames naming one pending
        // slot, recovered in parallel — are serialized, and the second
        // finds the first's evidence instead of both missing.
        let quiesce = self.pmem.quiesce();
        let mut outcomes = vec![KvApplied::PrecondFailed; ops.len()];
        let mut rest = Vec::new();
        let mut rest_idx = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let (pid, seq) = op.tag();
            if self.variant.scans_evidence() && self.find_tag(op.key(), pid, seq)?.is_some() {
                outcomes[i] = KvApplied::Applied;
            } else {
                rest.push(op);
                rest_idx.push(i);
            }
        }
        let mut pending = self.begin_quiesced(quiesce, &rest)?;
        for (i, &outcome) in rest_idx.into_iter().zip(&pending.staged.outcomes) {
            outcomes[i] = outcome;
        }
        pending.staged.outcomes = outcomes;
        Ok(pending)
    }

    /// One bucket's published chain, oldest record first, **spanning
    /// every generation** (retired generations' history first, then the
    /// active generation's carry-overs and new records). This is the
    /// witness shape the generation-aware verifier replays.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= nbuckets`.
    pub fn chain(&self, bucket: u64) -> Result<Vec<VersionRecord>, PError> {
        assert!(
            bucket < self.nbuckets,
            "bucket {bucket} out of range ({} buckets)",
            self.nbuckets
        );
        self.chain_across(&self.gens_oldest_first()?, bucket)
    }

    /// One bucket's chain across `gens` (oldest first).
    fn chain_across(&self, gens: &[Gen], bucket: u64) -> Result<Vec<VersionRecord>, PError> {
        let mut out = Vec::new();
        for gen in gens {
            out.extend(self.chain_in_gen(gen, bucket)?);
        }
        Ok(out)
    }

    /// Every bucket's published chain (oldest first, spanning every
    /// generation), in bucket order — the linearization witness the KV
    /// verifier checks answers against. The generation list is walked
    /// once, then each bucket's head is read once per generation.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn snapshot(&self) -> Result<Vec<Vec<VersionRecord>>, PError> {
        let gens = self.gens_oldest_first()?;
        (0..self.nbuckets)
            .map(|b| self.chain_across(&gens, b))
            .collect()
    }

    /// The store's current contents as an ordinary map. Replays only
    /// the **active** generation — its carry-overs capture the live
    /// state at the last compaction boundary, so retired history is
    /// redundant here (O(live + recent), not O(lifetime)).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn contents(&self) -> Result<BTreeMap<u64, i64>, PError> {
        let gen = self.active_gen()?;
        let mut out = BTreeMap::new();
        for b in 0..self.nbuckets {
            for rec in self.chain_in_gen(&gen, b)? {
                if rec.is_delete {
                    out.remove(&rec.key);
                } else {
                    out.insert(rec.key, rec.value);
                }
            }
        }
        Ok(out)
    }

    /// Every generation of the store, oldest first, with its log usage
    /// and retirement state — campaign reports and benches read this.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn generations(&self) -> Result<Vec<GenerationInfo>, PError> {
        self.gens_oldest_first()?
            .into_iter()
            .map(|gen| {
                let off = POffset::new(gen.base);
                Ok(GenerationInfo {
                    number: gen.number,
                    log_cap: gen.log_cap,
                    reserved: self.pmem.read_u64(off + GEN_OFF_LOG_TAIL)?,
                    carried: self.pmem.read_u64(off + GEN_OFF_CARRIED)?,
                    retired: self.pmem.read_u64(off + GEN_OFF_STATE)? == GEN_STATE_RETIRED,
                })
            })
            .collect()
    }

    /// Compacts the store: rewrites the live bucket heads into a fresh
    /// generation and commits it with one persisted root swap. The new
    /// capacity is the old one, grown to twice the live count if the
    /// live set has outgrown it. See [`PKvStore::compact_with_capacity`]
    /// for the full contract.
    ///
    /// # Errors
    ///
    /// A propagated crash (recover with [`PKvStore::recover_compact`]
    /// after restart), or heap exhaustion.
    pub fn compact(&self, heap: &PHeap) -> Result<CompactionStats, PError> {
        self.compact_with_capacity(heap, None)
    }

    /// Compacts the store into a fresh generation of `capacity` records
    /// (`None` = keep the current capacity, grown to twice the live
    /// count if needed).
    ///
    /// The protocol, in persist order:
    ///
    /// 1. replay the active generation's chains and collect the newest
    ///    non-delete record of every key — the live set;
    /// 2. allocate a fresh generation block from `heap` and write the
    ///    live records into it as `carried` records (original tags
    ///    preserved, one chain per bucket), then persist header,
    ///    buckets and carries with **one coalesced flush** — O(live
    ///    keys) persist traffic, never O(history);
    /// 3. commit by swapping the root cell to the new block — the
    ///    single-line selector flip is the only commit point;
    /// 4. mark the old generation retired (advisory; recovery repairs
    ///    it if the crash lands between 3 and 4).
    ///
    /// A crash before step 3 leaves the old generation active and the
    /// half-built block an unreachable orphan; a crash after it leaves
    /// the new generation active. Either way the store reopens
    /// consistent, which is what the crash-point enumeration tests
    /// check boundary by boundary.
    ///
    /// Old generations are retained (chained via their `prev` pointer)
    /// as recovery evidence and verifier witness; only the *active*
    /// generation is ever written again.
    ///
    /// Runs in the region's exclusive section
    /// ([`pstack_nvram::PMem::quiesce`]), which every mutation holds
    /// too — machine-checked: a racing mutation blocks, it does not
    /// corrupt.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if `capacity` cannot hold the live
    /// set; a propagated crash (recover with
    /// [`PKvStore::recover_compact`] after restart); heap exhaustion.
    pub fn compact_with_capacity(
        &self,
        heap: &PHeap,
        capacity: Option<u64>,
    ) -> Result<CompactionStats, PError> {
        let _label = op_label("kv.compact");
        let _serialize = self.pmem.quiesce();
        self.compact_locked(heap, capacity)
    }

    /// The compaction body; the caller holds the region quiesced.
    fn compact_locked(
        &self,
        heap: &PHeap,
        capacity: Option<u64>,
    ) -> Result<CompactionStats, PError> {
        let gen = self.active_gen()?;

        // Step 1 — the live set, per bucket in ascending key order
        // (deterministic carry layout).
        let mut live: Vec<Vec<VersionRecord>> = Vec::with_capacity(self.nbuckets as usize);
        let mut live_total = 0u64;
        for b in 0..self.nbuckets {
            let mut newest: BTreeMap<u64, VersionRecord> = BTreeMap::new();
            for rec in self.chain_in_gen(&gen, b)? {
                newest.insert(rec.key, rec);
            }
            let keep: Vec<VersionRecord> = newest.into_values().filter(|r| !r.is_delete).collect();
            live_total += keep.len() as u64;
            live.push(keep);
        }
        let new_cap = match capacity {
            Some(cap) => {
                if cap < live_total {
                    return Err(PError::InvalidConfig(format!(
                        "compaction capacity {cap} cannot hold {live_total} live records"
                    )));
                }
                cap
            }
            None => gen.log_cap.max(live_total * 2),
        };

        // Step 2 — build the new generation: header + buckets zeroed,
        // carries written slot by slot, all volatile until the single
        // coalesced flush below.
        let nb = Self::format_generation(
            &self.pmem,
            heap,
            self.nbuckets,
            new_cap,
            gen.number + 1,
            gen.base,
        )?;
        let new_gen = Gen {
            base: nb,
            number: gen.number + 1,
            log_cap: new_cap,
        };
        let mut slot = 0u64;
        for (b, keep) in live.iter().enumerate() {
            let mut head = 0u64;
            for rec in keep {
                let off = self.record_off(&new_gen, slot);
                self.write_record(
                    off,
                    KIND_CARRY,
                    rec.key,
                    rec.value,
                    (rec.pid, rec.seq),
                    head,
                )?;
                head = off;
                slot += 1;
            }
            if head != 0 {
                self.pmem
                    .write_u64(self.bucket_off_at(&new_gen, b as u64), head)?;
            }
        }
        self.pmem
            .write_u64(POffset::new(nb + GEN_OFF_LOG_TAIL), live_total)?;
        self.pmem
            .write_u64(POffset::new(nb + GEN_OFF_CARRIED), live_total)?;
        // One persist round-trip covers the contiguous prefix: header,
        // buckets and every carry slot. KvVariant::NoPersistBeforeSwap
        // forges its receipt instead — PSan's negative control: the
        // root swap below then commits a still-volatile generation,
        // which the sanitizer flags at the selector flip.
        let new_block_len = (gen_prefix_len(self.nbuckets) + live_total * RECORD_STRIDE) as usize;
        #[cfg(any(test, feature = "fault-seeds"))]
        let block = self.flush_unless(KvVariant::NoPersistBeforeSwap, nb, new_block_len)?;
        #[cfg(not(any(test, feature = "fault-seeds")))]
        let block = self.pmem.flush(POffset::new(nb), new_block_len)?;

        // Step 3 — the commit point, on the receipt for the whole new
        // block: PSan checks every line of it at the selector flip.
        Self::register_publish_range(&self.pmem, nb, self.nbuckets);
        self.cell
            .swap(new_gen.number, nb, new_block_len, &block)
            .map_err(PError::from)?;

        // Step 4 — retire the old generation (advisory, repaired by
        // recover_compact if a crash lands before it persists), and
        // register its extent with the heap: a `free` on retained
        // recovery evidence must fail typed, not corrupt silently.
        self.pmem
            .write_u64(POffset::new(gen.base + GEN_OFF_STATE), GEN_STATE_RETIRED)?;
        self.pmem.flush(POffset::new(gen.base + GEN_OFF_STATE), 8)?;
        heap.register_retired_extent(
            POffset::new(gen.base),
            gen_block_len(self.nbuckets, gen.log_cap),
        );

        let old_reserved = self
            .pmem
            .read_u64(POffset::new(gen.base + GEN_OFF_LOG_TAIL))?;
        Ok(CompactionStats {
            from_gen: gen.number,
            to_gen: new_gen.number,
            carried: live_total,
            dropped: old_reserved.saturating_sub(live_total),
            new_capacity: new_cap,
        })
    }

    /// Registers every non-active generation's extent as retired with
    /// `heap` ([`PHeap::register_retired_extent`]): the heap's registry
    /// is volatile, so a recovery boot re-walks the `prev` chain and
    /// re-arms the guard before any client could `free` retained
    /// evidence. Called by [`PKvStore::recover_compact`]; call it
    /// directly after a plain reopen when the heap outlives the boot.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn register_retired_generations(&self, heap: &PHeap) -> Result<(), PError> {
        let gens = self.gens_oldest_first()?;
        // The last generation is the active one.
        for gen in &gens[..gens.len() - 1] {
            heap.register_retired_extent(
                POffset::new(gen.base),
                gen_block_len(self.nbuckets, gen.log_cap),
            );
        }
        Ok(())
    }

    /// The evidence-scanning recovery dual of [`PKvStore::compact`]:
    /// completes a compaction that was interrupted after it started
    /// from generation `from_gen`.
    ///
    /// * If the root cell has already moved past `from_gen`, the swap
    ///   committed before the crash — the compaction *happened*; this
    ///   only repairs the idempotent retirement mark and returns
    ///   `Ok(true)`.
    /// * If the root cell still names `from_gen`, the crash landed
    ///   before the commit point; the half-built block (if any) is an
    ///   unreachable orphan and the compaction is safely re-executed
    ///   from the current state. Returns `Ok(false)`.
    ///
    /// Idempotent: crash it and re-run it as often as the fault
    /// injector likes.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if `from_gen` is *newer* than the
    /// active generation (the caller's bookkeeping is broken); a
    /// propagated crash (re-run after restart).
    pub fn recover_compact(&self, heap: &PHeap, from_gen: u64) -> Result<bool, PError> {
        let _label = op_label("kv.recover_compact");
        let _phase = pstack_telemetry::phase("recovery.compact-dual");
        let _serialize = self.pmem.quiesce();
        let gen = self.active_gen()?;
        match gen.number.cmp(&from_gen) {
            std::cmp::Ordering::Less => Err(PError::InvalidConfig(format!(
                "recover_compact from generation {from_gen}, but the store is at {}",
                gen.number
            ))),
            std::cmp::Ordering::Greater => {
                let prev = self.pmem.read_u64(POffset::new(gen.base + GEN_OFF_PREV))?;
                if prev != 0 {
                    let state = self.pmem.read_u64(POffset::new(prev + GEN_OFF_STATE))?;
                    if state != GEN_STATE_RETIRED {
                        self.pmem
                            .write_u64(POffset::new(prev + GEN_OFF_STATE), GEN_STATE_RETIRED)?;
                        self.pmem.flush(POffset::new(prev + GEN_OFF_STATE), 8)?;
                    }
                }
                self.register_retired_generations(heap)?;
                Ok(true)
            }
            std::cmp::Ordering::Equal => {
                self.compact_locked(heap, None)?;
                Ok(false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{FailPlan, PMemBuilder};

    fn fixture(nbuckets: u64, log_cap: u64) -> (PMem, PHeap, PKvStore) {
        // PSan shadows every store test: the protocols must never trip
        // the sanitizer (checked per-test where state is inspected).
        let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, nbuckets, log_cap, KvVariant::Nsrl).unwrap();
        (pmem, heap, kv)
    }

    fn put(pid: u64, seq: u64, key: u64, value: i64) -> KvBatchOp {
        KvBatchOp::Put {
            pid,
            seq,
            key,
            value,
        }
    }

    fn del(pid: u64, seq: u64, key: u64) -> KvBatchOp {
        KvBatchOp::Delete { pid, seq, key }
    }

    fn cas(pid: u64, seq: u64, key: u64, expected: i64, new: i64) -> KvBatchOp {
        KvBatchOp::Cas {
            pid,
            seq,
            key,
            expected,
            new,
        }
    }

    /// A group commit of `op` alone; `true` iff it took effect.
    fn apply(kv: &PKvStore, op: KvBatchOp) -> Result<bool, PError> {
        Ok(kv.apply_batch(&[op])?[0].took_effect())
    }

    /// A [`PKvStore::recover_batch`] of `op` alone; `true` iff it took
    /// effect (before the crash or now).
    fn recover(kv: &PKvStore, op: KvBatchOp) -> Result<bool, PError> {
        Ok(kv.recover_batch(&[op])?[0].took_effect())
    }

    #[test]
    fn put_get_delete_cas_semantics() {
        let (_, _, kv) = fixture(8, 64);
        assert_eq!(kv.get(1).unwrap(), None);
        assert!(apply(&kv, put(0, 1, 1, 100)).unwrap());
        assert!(apply(&kv, put(0, 2, 2, 200)).unwrap());
        assert_eq!(kv.get(1).unwrap(), Some(100));
        assert!(apply(&kv, put(0, 3, 1, 101)).unwrap(), "overwrite succeeds");
        assert_eq!(kv.get(1).unwrap(), Some(101));
        assert!(
            !apply(&kv, cas(0, 4, 1, 100, 999)).unwrap(),
            "stale expected fails"
        );
        assert!(apply(&kv, cas(0, 5, 1, 101, 102)).unwrap());
        assert_eq!(kv.get(1).unwrap(), Some(102));
        assert!(
            !apply(&kv, cas(0, 6, 99, 0, 1)).unwrap(),
            "absent key fails cas"
        );
        assert!(apply(&kv, del(0, 7, 1)).unwrap());
        assert_eq!(kv.get(1).unwrap(), None);
        assert!(
            !apply(&kv, del(0, 8, 1)).unwrap(),
            "double delete reports absent"
        );
        assert!(
            !apply(&kv, cas(0, 9, 1, 102, 103)).unwrap(),
            "deleted key fails cas"
        );
        assert_eq!(kv.get(2).unwrap(), Some(200));
    }

    #[test]
    fn put_after_delete_reinserts() {
        let (_, _, kv) = fixture(4, 32);
        apply(&kv, put(0, 1, 5, 50)).unwrap();
        apply(&kv, del(0, 2, 5)).unwrap();
        assert!(apply(&kv, put(0, 3, 5, 51)).unwrap());
        assert_eq!(kv.get(5).unwrap(), Some(51));
    }

    #[test]
    fn log_capacity_is_lifetime_bounded() {
        let (_, _, kv) = fixture(2, 3);
        assert!(apply(&kv, put(0, 1, 1, 1)).unwrap());
        assert!(apply(&kv, put(0, 2, 2, 2)).unwrap());
        assert!(apply(&kv, put(0, 3, 3, 3)).unwrap());
        assert!(!apply(&kv, put(0, 4, 4, 4)).unwrap(), "log exhausted");
        // Deletes and cas also need log slots.
        assert!(!apply(&kv, del(0, 5, 1)).unwrap());
        assert!(!apply(&kv, cas(0, 6, 1, 1, 9)).unwrap());
        // Reads still work.
        assert_eq!(kv.get(2).unwrap(), Some(2));
        assert_eq!(kv.log_reserved().unwrap(), 3);
    }

    #[test]
    fn uncommitted_pending_batch_leaves_invisible_orphans() {
        let (pmem, _, kv) = fixture(8, 64);
        let pending = kv
            .apply_batch_begin(&[KvBatchOp::Put {
                pid: 0,
                seq: 1,
                key: 7,
                value: 70,
            }])
            .unwrap();
        assert!(pending.is_staged());
        drop(pending);
        // Records staged but never published: invisible, no heads
        // flight issued, and the abandoned flights are simply drained by
        // the next synchronization point.
        assert_eq!(kv.get(7).unwrap(), None);
        assert_eq!(pmem.stats().snapshot().async_flushes, 2, "records + tail");
        pmem.fence();
        assert_eq!(pmem.inflight_tickets(), 0);
        assert!(
            apply(&kv, put(0, 2, 7, 71)).unwrap(),
            "store still writable"
        );
        assert_eq!(kv.get(7).unwrap(), Some(71));
    }

    #[test]
    fn pipelined_compaction_preserves_live_state() {
        let (pmem, heap, kv) = fixture(8, 256);
        for i in 0..128u64 {
            assert!(apply(&kv, put(0, i + 1, i, i as i64)).unwrap());
        }
        let stats = kv.compact(&heap).unwrap();
        assert_eq!(stats.carried, 128);
        assert_eq!(pmem.inflight_tickets(), 0, "compaction leaves no flight");
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.generation().unwrap(), 1);
        for i in 0..128u64 {
            assert_eq!(kv2.get(i).unwrap(), Some(i as i64));
        }
        assert!(pmem2.psan_violations().is_empty());
    }

    #[test]
    fn a_snapshot_walks_the_generation_list_once() {
        // Two generations: eight keys put, compacted (carried into
        // generation 1), and four of them overwritten there.
        const BUCKETS: u64 = 16;
        let (pmem, heap, kv) = fixture(BUCKETS, 64);
        for key in 0..8u64 {
            assert!(apply(&kv, put(0, key + 1, key, key as i64)).unwrap());
        }
        kv.compact(&heap).unwrap();
        for key in 0..4u64 {
            assert!(apply(&kv, put(0, key + 9, key, -(key as i64))).unwrap());
        }
        let reads = || pmem.stats().snapshot().reads;
        let r0 = reads();
        assert_eq!(kv.gens_oldest_first().unwrap().len(), 2);
        assert_eq!(
            reads() - r0,
            10,
            "the walk: root cell 3, the active generation's magic and capacity 2, \
             its prev 1, the retired generation's header 3 and its prev 1"
        );
        let r0 = reads();
        let snapshot = kv.snapshot().unwrap();
        let records = snapshot.iter().map(Vec::len).sum::<usize>() as u64;
        assert_eq!(
            records,
            8 + 8 + 4,
            "generation 0's puts, the carries, the overwrites"
        );
        assert_eq!(
            reads() - r0,
            10 + 2 * BUCKETS + records,
            "one walk, a head per bucket per generation, a read per record"
        );
    }

    #[test]
    fn pipelined_early_publish_variant_is_flagged_at_the_head_cas() {
        use pstack_nvram::PsanViolationKind;
        let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 8, 64, KvVariant::EarlyPublish).unwrap();
        kv.apply_batch(&[KvBatchOp::Put {
            pid: 0,
            seq: 1,
            key: 7,
            value: 70,
        }])
        .unwrap();
        let violations = pmem.psan_violations();
        assert!(
            violations
                .iter()
                .any(|v| matches!(v.kind, PsanViolationKind::EarlyPublish { .. })),
            "an omitted record flight must trip PSan: {violations:?}"
        );
    }

    #[test]
    fn buffered_region_yields_a_batched_store() {
        let (pmem, _, kv) = fixture(8, 64);
        assert!(apply(&kv, put(0, 1, 7, 70)).unwrap());
        assert!(apply(&kv, cas(0, 2, 7, 70, 71)).unwrap());
        assert_eq!(kv.get(7).unwrap(), Some(71));
        // Every one-op batch is a group commit of one — three flights —
        // and its record, tail and head are all durable before it
        // returns.
        assert_eq!(pmem.stats().snapshot().async_flushes, 2 * 3);
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.get(7).unwrap(), Some(71));
        assert_eq!(kv2.log_reserved().unwrap(), 2);
        assert!(pmem.psan_violations().is_empty());
    }

    #[test]
    fn batch_sees_its_own_staged_effects() {
        let (pmem, _, kv) = fixture(4, 64);
        let out = kv
            .apply_batch(&[
                KvBatchOp::Put {
                    pid: 0,
                    seq: 1,
                    key: 1,
                    value: 10,
                },
                KvBatchOp::Cas {
                    pid: 0,
                    seq: 2,
                    key: 1,
                    expected: 10,
                    new: 11,
                },
                KvBatchOp::Delete {
                    pid: 0,
                    seq: 3,
                    key: 1,
                },
                KvBatchOp::Put {
                    pid: 0,
                    seq: 4,
                    key: 1,
                    value: 12,
                },
                KvBatchOp::Cas {
                    pid: 0,
                    seq: 5,
                    key: 9,
                    expected: 0,
                    new: 1,
                },
                KvBatchOp::Delete {
                    pid: 0,
                    seq: 6,
                    key: 9,
                },
            ])
            .unwrap();
        assert_eq!(
            out,
            vec![
                KvApplied::Applied,
                KvApplied::Applied,
                KvApplied::Applied,
                KvApplied::Applied,
                KvApplied::PrecondFailed,
                KvApplied::PrecondFailed,
            ]
        );
        assert_eq!(kv.get(1).unwrap(), Some(12));
        assert_eq!(kv.get(9).unwrap(), None);
        assert_eq!(
            pmem.stats().snapshot().async_flushes,
            3,
            "one commit for the batch"
        );
    }

    #[test]
    fn empty_and_no_effect_batches_skip_the_flush_protocol() {
        let (pmem, _, kv) = fixture(4, 64);
        apply(&kv, put(0, 1, 5, 50)).unwrap();
        let before = pmem.stats().snapshot();
        assert!(kv.apply_batch(&[]).unwrap().is_empty());
        let out = kv
            .apply_batch(&[KvBatchOp::Delete {
                pid: 0,
                seq: 2,
                key: 99,
            }])
            .unwrap();
        assert_eq!(out, vec![KvApplied::PrecondFailed]);
        let delta = pmem.stats().snapshot() - before;
        assert_eq!(
            (delta.persists, delta.async_flushes),
            (0, 0),
            "nothing staged, nothing persisted"
        );
    }

    #[test]
    fn group_commit_coalesces_persists() {
        // The batching headline: k mutations in one batch cost far
        // fewer persist round-trips than k singleton commits.
        let (batched_pmem, _, batched) = fixture(4, 64);
        let (per_op_pmem, _, per_op) = fixture(4, 64);
        let ops: Vec<KvBatchOp> = (0..16)
            .map(|i| KvBatchOp::Put {
                pid: 0,
                seq: i + 1,
                key: i,
                value: i as i64,
            })
            .collect();

        let before = batched_pmem.stats().snapshot();
        assert!(batched
            .apply_batch(&ops)
            .unwrap()
            .iter()
            .all(|o| o.took_effect()));
        let batched_delta = batched_pmem.stats().snapshot() - before;

        let before = per_op_pmem.stats().snapshot();
        for &op in &ops {
            assert!(per_op.apply_batch(&[op]).unwrap()[0].took_effect());
        }
        let per_op_delta = per_op_pmem.stats().snapshot() - before;

        assert_eq!(batched.contents().unwrap(), per_op.contents().unwrap());
        assert!(
            batched_delta.persists * 3 <= per_op_delta.persists,
            "batched {} vs per-op {} persist round-trips",
            batched_delta.persists,
            per_op_delta.persists,
        );
        assert!(
            batched_delta.coalesced_lines > 0,
            "record persists must coalesce: {batched_delta:?}"
        );
    }

    #[test]
    fn log_full_mid_batch_reports_per_op() {
        let (_, _, kv) = fixture(2, 2);
        let ops: Vec<KvBatchOp> = (0..4)
            .map(|i| KvBatchOp::Put {
                pid: 0,
                seq: i + 1,
                key: i,
                value: 1,
            })
            .collect();
        let out = kv.apply_batch(&ops).unwrap();
        assert_eq!(
            out,
            vec![
                KvApplied::Applied,
                KvApplied::Applied,
                KvApplied::LogFull,
                KvApplied::LogFull,
            ]
        );
        assert_eq!(kv.contents().unwrap().len(), 2);
    }

    #[test]
    fn batch_crash_points_leave_no_lost_or_torn_heads() {
        // The group-commit publish path, exhaustively: crash at every
        // persistence event inside a batch window. After recovery the
        // published state must be per-bucket all-or-nothing (no torn
        // heads), and the recovery duals must complete every op exactly
        // once.
        let ops = [
            KvBatchOp::Put {
                pid: 1,
                seq: 1,
                key: 0,
                value: 10,
            },
            KvBatchOp::Put {
                pid: 1,
                seq: 2,
                key: 2,
                value: 20,
            },
            // Same bucket pressure: nbuckets = 2, so keys collide and
            // chain within the batch.
            KvBatchOp::Put {
                pid: 1,
                seq: 3,
                key: 4,
                value: 40,
            },
            KvBatchOp::Cas {
                pid: 1,
                seq: 4,
                key: 0,
                expected: 10,
                new: 11,
            },
            KvBatchOp::Delete {
                pid: 1,
                seq: 5,
                key: 2,
            },
        ];
        let probe = || {
            let pmem = PMemBuilder::new().len(1 << 16).psan(true).build_in_memory();
            let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
            let kv = PKvStore::format(pmem.clone(), &heap, 2, 16, KvVariant::Nsrl).unwrap();
            (pmem, kv)
        };
        let (pmem, kv) = probe();
        let e0 = pmem.events();
        let out = kv.apply_batch(&ops).unwrap();
        assert!(out.iter().all(|o| o.took_effect()));
        let total = pmem.events() - e0;
        let want = kv.contents().unwrap();
        assert!(total > 8, "the batch window spans many flush boundaries");

        for k in 0..total {
            let (pmem, kv) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k));
            let err = kv.apply_batch(&ops).unwrap_err();
            assert!(err.is_crash(), "crash at event {k}");
            let pmem2 = pmem.reopen().unwrap();
            let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();

            // No torn state: every published record decodes, every
            // chain walks, and published tags are unique.
            let mut tags = std::collections::HashSet::new();
            for chain in kv2.snapshot().unwrap() {
                for rec in chain {
                    assert!(tags.insert((rec.pid, rec.seq)), "crash at {k}: dup tag");
                }
            }
            // Per-bucket all-or-nothing: a bucket publishes either none
            // or all of its batch records (one head flip per bucket).
            for bucket in 0..2 {
                let batch_recs = kv2
                    .chain(bucket)
                    .unwrap()
                    .iter()
                    .filter(|r| r.pid == 1)
                    .count();
                let full = ops.iter().filter(|op| mix(op.key()) % 2 == bucket).count();
                assert!(
                    batch_recs == 0 || batch_recs == full,
                    "crash at {k}: bucket {bucket} published {batch_recs}/{full} — torn batch"
                );
            }

            // Recovery duals complete the batch exactly once.
            assert!(recover(&kv2, put(1, 1, 0, 10)).unwrap());
            assert!(recover(&kv2, put(1, 2, 2, 20)).unwrap());
            assert!(recover(&kv2, put(1, 3, 4, 40)).unwrap());
            assert!(recover(&kv2, cas(1, 4, 0, 10, 11)).unwrap());
            assert!(recover(&kv2, del(1, 5, 2)).unwrap());
            assert_eq!(kv2.contents().unwrap(), want, "crash at event {k}");
            let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
            assert_eq!(published, ops.len(), "crash at {k}: duplicate application");
            let violations = pmem2.psan_violations();
            assert!(
                violations.is_empty(),
                "crash at {k}: PSan flagged the correct protocol: {violations:?}"
            );
        }
    }

    #[test]
    fn pipelined_crash_points_keep_exactly_the_completed_flight_prefix() {
        // The sweep above, counted against the flush queue: crash at
        // every persistence event inside a batch window, so kills land
        // with zero, one, and two flights in the device queue —
        // before the first issue, between the record and tail issues,
        // between issue and await, and after the publish CAS. Whatever
        // the cut, recovery must see exactly the completed-flight
        // prefix durable: decodable records, unique tags, per-bucket
        // all-or-nothing heads, and recovery duals that finish the
        // batch exactly once.
        let ops = [
            KvBatchOp::Put {
                pid: 1,
                seq: 1,
                key: 0,
                value: 10,
            },
            KvBatchOp::Put {
                pid: 1,
                seq: 2,
                key: 2,
                value: 20,
            },
            KvBatchOp::Put {
                pid: 1,
                seq: 3,
                key: 4,
                value: 40,
            },
            KvBatchOp::Cas {
                pid: 1,
                seq: 4,
                key: 0,
                expected: 10,
                new: 11,
            },
            KvBatchOp::Delete {
                pid: 1,
                seq: 5,
                key: 2,
            },
        ];
        let probe = || {
            let pmem = PMemBuilder::new().len(1 << 16).psan(true).build_in_memory();
            let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
            let kv = PKvStore::format(pmem.clone(), &heap, 2, 16, KvVariant::Nsrl).unwrap();
            (pmem, kv)
        };

        // Golden run: the batch stages two overlapping flights (records
        // and log tail), both still queued when `begin` returns.
        let (pmem, kv) = probe();
        let e0 = pmem.events();
        let pending = kv.apply_batch_begin(&ops).unwrap();
        let staged_events = pmem.events() - e0;
        assert_eq!(pmem.inflight_tickets(), 2, "records + tail in flight");
        assert!(pending.commit().unwrap().iter().all(|o| o.took_effect()));
        let total = pmem.events() - e0;
        let want = kv.contents().unwrap();
        assert!(total > staged_events, "publish consumes events too");

        let mut inflight_kills = 0usize;
        for k in 0..total {
            let (pmem, kv) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k));
            let err = kv.apply_batch(&ops).unwrap_err();
            assert!(err.is_crash(), "crash at event {k}");
            // Countdowns landing before the staging point cut the
            // window while flights are still queued on the device.
            if k < staged_events {
                inflight_kills += 1;
            }
            let pmem2 = pmem.reopen().unwrap();
            let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();

            let mut tags = std::collections::HashSet::new();
            for chain in kv2.snapshot().unwrap() {
                for rec in chain {
                    assert!(tags.insert((rec.pid, rec.seq)), "crash at {k}: dup tag");
                }
            }
            for bucket in 0..2 {
                let batch_recs = kv2
                    .chain(bucket)
                    .unwrap()
                    .iter()
                    .filter(|r| r.pid == 1)
                    .count();
                let full = ops.iter().filter(|op| mix(op.key()) % 2 == bucket).count();
                assert!(
                    batch_recs == 0 || batch_recs == full,
                    "crash at {k}: bucket {bucket} published {batch_recs}/{full} — torn batch"
                );
            }

            assert!(recover(&kv2, put(1, 1, 0, 10)).unwrap());
            assert!(recover(&kv2, put(1, 2, 2, 20)).unwrap());
            assert!(recover(&kv2, put(1, 3, 4, 40)).unwrap());
            assert!(recover(&kv2, cas(1, 4, 0, 10, 11)).unwrap());
            assert!(recover(&kv2, del(1, 5, 2)).unwrap());
            assert_eq!(kv2.contents().unwrap(), want, "crash at event {k}");
            let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
            assert_eq!(published, ops.len(), "crash at {k}: duplicate application");
            let violations = pmem2.psan_violations();
            assert!(
                violations.is_empty(),
                "crash at {k}: PSan flagged the correct protocol: {violations:?}"
            );
        }
        assert!(
            inflight_kills > 2,
            "the sweep never cut the window with flights in flight"
        );

        // One more input: a two-shard `KvBatch`, both shards moving
        // through the commit's levels together (every heads flight
        // issued before the first is awaited). Power fails at every
        // event of each region, every dirty line lost or every one kept.
        // Per shard, each bucket is all-or-nothing; nothing orders one
        // shard against the other.
        use crate::shard::ShardedKvStore;
        use pstack_nvram::PsanViolationKind;
        let mut ops: Vec<KvBatchOp> = (0..6u64)
            .map(|key| KvBatchOp::Put {
                pid: 1,
                seq: key + 1,
                key,
                value: key as i64 * 10,
            })
            .collect();
        ops.push(KvBatchOp::Cas {
            pid: 1,
            seq: 7,
            key: 1,
            expected: 10,
            new: 11,
        });
        ops.push(KvBatchOp::Delete {
            pid: 1,
            seq: 8,
            key: 2,
        });
        let probe = || {
            let stripe = PMemBuilder::new().len(1 << 16).psan(true).build_striped(2);
            let kv = ShardedKvStore::format(stripe.regions(), 2, 16, KvVariant::Nsrl).unwrap();
            (stripe, kv)
        };
        let commit = |kv: &ShardedKvStore| {
            let mut batch = kv.batch();
            ops.iter().for_each(|&op| batch.push(op));
            batch.commit()
        };
        let recover =
            |kv: &ShardedKvStore, op: KvBatchOp| recover(kv.shard(kv.shard_of(op.key())), op);

        let (stripe, kv) = probe();
        let e0 = stripe.events_per_region();
        assert!(commit(&kv).unwrap().iter().all(|o| o.took_effect()));
        let spent: Vec<u64> = stripe
            .events_per_region()
            .iter()
            .zip(&e0)
            .map(|(now, then)| now - then)
            .collect();
        assert!(spent.iter().all(|&n| n > 0), "both shards take part");
        let want = kv.contents().unwrap();

        for (region, &total) in spent.iter().enumerate() {
            for k in 0..total {
                for prob in [0.0, 1.0] {
                    let at = format!("shard {region} event {k}, survivors {prob}");
                    let (stripe, kv) = probe();
                    let plan = FailPlan::after_events(k).with_survivors(0, prob);
                    stripe.region(region).arm_failpoint(plan);
                    assert!(commit(&kv).unwrap_err().is_crash(), "{at}");
                    stripe.crash_all(0, prob);
                    let stripe2 = stripe.reopen_all().unwrap();
                    let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();

                    for s in 0..2 {
                        for bucket in 0..2 {
                            let batch_recs = kv2
                                .shard(s)
                                .chain(bucket)
                                .unwrap()
                                .iter()
                                .filter(|r| r.pid == 1)
                                .count();
                            let full = ops
                                .iter()
                                .filter(|op| {
                                    kv2.shard_of(op.key()) == s && mix(op.key()) % 2 == bucket
                                })
                                .count();
                            assert!(
                                batch_recs == 0 || batch_recs == full,
                                "{at}: shard {s} bucket {bucket} published {batch_recs}/{full}"
                            );
                        }
                    }

                    for &op in &ops {
                        assert!(recover(&kv2, op).unwrap(), "{at}: {op:?}");
                    }
                    assert_eq!(kv2.contents().unwrap(), want, "{at}");
                    let published: usize = kv2
                        .snapshot_sharded()
                        .unwrap()
                        .iter()
                        .flatten()
                        .map(Vec::len)
                        .sum();
                    assert_eq!(published, ops.len(), "{at}: duplicate application");
                    // Kept lines that were never durable are read as
                    // ghosts (the emulator's generosity, not an order
                    // violation); no order violation either way.
                    let violations: Vec<_> = stripe2
                        .psan_violations()
                        .into_iter()
                        .filter(|v| prob == 0.0 || !matches!(v.kind, PsanViolationKind::GhostRead))
                        .collect();
                    assert!(violations.is_empty(), "{at}: {violations:?}");
                }
            }
        }
    }

    #[test]
    fn independently_opened_handles_serialize_group_commits() {
        // The batch lock is region-scoped, not handle-scoped: a second
        // handle from PKvStore::open (not a clone) must serialize with
        // the first, or concurrent commits would race the publish CAS.
        let (pmem, _, kv) = fixture(4, 4096);
        let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        let per = 256u64;
        std::thread::scope(|s| {
            for (w, handle) in [kv.clone(), kv2].into_iter().enumerate() {
                s.spawn(move || {
                    let w = w as u64;
                    let ops: Vec<KvBatchOp> = (0..per)
                        .map(|i| KvBatchOp::Put {
                            pid: w,
                            seq: i + 1,
                            key: w * per + i,
                            value: i as i64,
                        })
                        .collect();
                    for chunk in ops.chunks(16) {
                        assert!(handle
                            .apply_batch(chunk)
                            .unwrap()
                            .iter()
                            .all(|o| o.took_effect()));
                    }
                });
            }
        });
        assert_eq!(kv.contents().unwrap().len(), 2 * per as usize);
        assert_eq!(kv.log_reserved().unwrap(), 2 * per);
    }

    #[test]
    fn recover_batch_completes_exactly_once_and_is_idempotent() {
        let (_, _, kv) = fixture(4, 64);
        assert!(apply(&kv, put(1, 1, 10, 100)).unwrap());
        let ops = [
            // Linearized before the "crash": evidence skips it.
            KvBatchOp::Put {
                pid: 1,
                seq: 1,
                key: 10,
                value: 100,
            },
            // Never ran: re-executed through the group commit.
            KvBatchOp::Put {
                pid: 1,
                seq: 2,
                key: 11,
                value: 110,
            },
            // No evidence and no key: re-executes to a clean no-effect.
            KvBatchOp::Delete {
                pid: 1,
                seq: 3,
                key: 99,
            },
        ];
        for round in 0..2 {
            let out = kv.recover_batch(&ops).unwrap();
            assert_eq!(
                out,
                vec![
                    KvApplied::Applied,
                    KvApplied::Applied,
                    KvApplied::PrecondFailed,
                ],
                "recovery round {round}"
            );
            let published: usize = kv.snapshot().unwrap().iter().map(Vec::len).sum();
            assert_eq!(published, 2, "recovery round {round}: no duplicates");
        }
        assert_eq!(kv.get(11).unwrap(), Some(110));
    }

    #[test]
    fn two_concurrent_replays_of_one_op_take_one_effect() {
        // Two frames naming one pending slot, recovered in parallel: the
        // second replay scans in the exclusive section the first one's
        // group commit holds, so it finds the first's evidence — it
        // does not scan first, miss, and then apply a second time. The
        // second replays the op alone, then behind an op that never ran.
        let op = put(3, 7, 12, 120);
        let seconds: [&(dyn Fn(&PKvStore) -> bool + Sync); 2] =
            [&|kv| recover(kv, op).unwrap(), &|kv| {
                kv.recover_batch(&[put(3, 8, 13, 130), op]).unwrap() == [KvApplied::Applied; 2]
            }];
        for (input, second) in seconds.into_iter().enumerate() {
            let (_, _, kv) = fixture(4, 64);
            let first = kv.recover_batch_begin(&[op]).unwrap();
            std::thread::scope(|s| {
                let second = s.spawn(|| second(&kv));
                // Time for the second replay to reach the gate. Its
                // outcome does not hang on it: an ungated scan would
                // have run — and missed — in this pause.
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert_eq!(first.commit().unwrap(), vec![KvApplied::Applied]);
                assert!(second.join().unwrap(), "input {input}");
            });
            let effects = kv.snapshot().unwrap().into_iter().flatten();
            let effects = effects.filter(|r| (r.pid, r.seq) == (3, 7)).count();
            assert_eq!(effects, 1, "input {input}: one effect for two replays");
        }
    }

    #[test]
    fn recover_batch_noscan_double_applies() {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 18).unwrap();
        let kv = PKvStore::format(pmem, &heap, 4, 32, KvVariant::NoScan).unwrap();
        assert!(apply(&kv, put(0, 1, 1, 10)).unwrap());
        let out = kv
            .recover_batch(&[KvBatchOp::Put {
                pid: 0,
                seq: 1,
                key: 1,
                value: 10,
            }])
            .unwrap();
        assert_eq!(out, vec![KvApplied::Applied]);
        let published: usize = kv.snapshot().unwrap().iter().map(Vec::len).sum();
        assert_eq!(published, 2, "no-scan batched recovery must re-execute");
    }

    #[test]
    fn durable_get_survives_a_power_failure_a_plain_get_does_not() {
        // The read rule and its negative control. A reader races a
        // group commit stopped between its head CAS and its head
        // persist; the power fails right after it answers.
        // `get_durable` persisted the dirty head first, so its answer
        // survives; a plain `get` handed out a value the crash takes
        // back.
        for durable in [true, false] {
            let (pmem, _heap, kv) = fixture(16, 64);
            apply(&kv, put(1, 1, 7, 10)).unwrap();
            let put = KvBatchOp::Put {
                pid: 1,
                seq: 2,
                key: 7,
                value: 20,
            };
            let quiesce = kv.pmem.quiesce();
            let gen = kv.active_gen().unwrap();
            let staged = kv.stage_batch(&gen, &[put]).unwrap();
            let (lo, hi) = staged.slots.unwrap();
            pmem.flush(POffset::new(lo), (hi - lo + RECORD_STRIDE) as usize)
                .unwrap();
            pmem.flush(POffset::new(gen.base + GEN_OFF_LOG_TAIL), 8)
                .unwrap();
            for (&bucket, &new_head) in &staged.staged_heads {
                let expected = staged.pre_heads[&bucket];
                assert!(pmem
                    .compare_exchange(
                        POffset::new(bucket),
                        &expected.to_le_bytes(),
                        &new_head.to_le_bytes()
                    )
                    .unwrap());
            }

            let before = pmem.stats().snapshot();
            let answered = if durable {
                kv.get_durable(7).unwrap()
            } else {
                kv.get(7).unwrap()
            };
            assert_eq!(answered, Some(20), "both readers see the published head");
            let d = pmem.stats().snapshot() - before;
            assert_eq!(d.persists, u64::from(durable), "only the durable read pays");
            drop(quiesce);

            pmem.crash_now(3, 0.0);
            let kv2 = PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
            let survived = kv2.get(7).unwrap();
            if durable {
                assert_eq!(survived, answered, "a durable read's answer survives");
            } else {
                assert_eq!(survived, Some(10), "negative control: the answer is lost");
            }
            assert!(pmem.psan_violations().is_empty());
        }

        // On a quiescent store the durable read is free: no persist, no
        // line, no event, not even a redundant-persist count.
        let (pmem, _heap, kv) = fixture(16, 64);
        kv.apply_batch(&[KvBatchOp::Put {
            pid: 1,
            seq: 1,
            key: 7,
            value: 10,
        }])
        .unwrap();
        let (e0, before) = (pmem.events(), pmem.stats().snapshot());
        assert_eq!(kv.get_durable(7).unwrap(), Some(10));
        assert_eq!(kv.get_durable(8).unwrap(), None);
        let d = pmem.stats().snapshot() - before;
        assert_eq!(
            (
                d.persists,
                d.lines_persisted,
                d.flush_calls,
                d.redundant_persists
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(pmem.events(), e0);
    }

    #[test]
    fn open_round_trips_and_rejects_garbage() {
        let (pmem, heap, kv) = fixture(8, 32);
        apply(&kv, put(1, 1, 42, -7)).unwrap();
        let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.nbuckets(), 8);
        assert_eq!(kv2.log_capacity().unwrap(), 32);
        assert_eq!(kv2.get(42).unwrap(), Some(-7));
        let junk = heap.alloc_zeroed(128).unwrap();
        assert!(matches!(
            PKvStore::open(pmem, junk, KvVariant::Nsrl),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn contents_and_chains_reflect_history() {
        let (_, _, kv) = fixture(4, 64);
        apply(&kv, put(0, 1, 10, 1)).unwrap();
        apply(&kv, put(0, 2, 11, 2)).unwrap();
        apply(&kv, put(0, 3, 10, 3)).unwrap();
        apply(&kv, del(0, 4, 11)).unwrap();
        let contents = kv.contents().unwrap();
        assert_eq!(contents.get(&10), Some(&3));
        assert_eq!(contents.get(&11), None);
        let total: usize = kv.snapshot().unwrap().iter().map(Vec::len).sum();
        assert_eq!(total, 4, "every published mutation appears exactly once");
        // The delete record carries the removed value.
        let del = kv
            .snapshot()
            .unwrap()
            .into_iter()
            .flatten()
            .find(|r| r.is_delete)
            .unwrap();
        assert_eq!(del.key, 11);
        assert_eq!(del.value, 2);
    }

    #[test]
    fn state_survives_crash_and_reopen() {
        let (pmem, _, kv) = fixture(8, 64);
        apply(&kv, put(0, 1, 7, 70)).unwrap();
        apply(&kv, put(0, 2, 8, 80)).unwrap();
        apply(&kv, del(0, 3, 8)).unwrap();
        pmem.crash_now(0, 0.0); // every op was durable as it returned
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.get(7).unwrap(), Some(70));
        assert_eq!(kv2.get(8).unwrap(), None);
    }

    #[test]
    fn recovery_sees_linearized_ops() {
        let (_, _, kv) = fixture(8, 64);
        assert!(apply(&kv, put(3, 9, 1, 11)).unwrap());
        assert!(recover(&kv, put(3, 9, 1, 11)).unwrap());
        assert_eq!(kv.log_reserved().unwrap(), 1, "no second application");
        assert!(apply(&kv, cas(2, 10, 1, 11, 12)).unwrap());
        assert!(recover(&kv, cas(2, 10, 1, 11, 12)).unwrap());
        assert!(apply(&kv, del(1, 11, 1)).unwrap());
        assert!(recover(&kv, del(1, 11, 1)).unwrap());
        assert_eq!(kv.log_reserved().unwrap(), 3);
        assert_eq!(kv.get(1).unwrap(), None);
    }

    #[test]
    fn recovery_reexecutes_unlinearized_ops() {
        let (_, _, kv) = fixture(8, 64);
        assert!(recover(&kv, put(0, 1, 5, 55)).unwrap());
        assert_eq!(kv.get(5).unwrap(), Some(55));
        assert!(recover(&kv, del(0, 2, 5)).unwrap());
        assert_eq!(kv.get(5).unwrap(), None);
        assert!(!recover(&kv, cas(0, 3, 5, 55, 56)).unwrap());
    }

    #[test]
    fn noscan_variant_double_applies() {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 18).unwrap();
        let kv = PKvStore::format(pmem, &heap, 4, 32, KvVariant::NoScan).unwrap();
        assert!(apply(&kv, put(0, 1, 1, 10)).unwrap());
        assert!(recover(&kv, put(0, 1, 1, 10)).unwrap());
        let records: Vec<VersionRecord> = kv.snapshot().unwrap().into_iter().flatten().collect();
        assert_eq!(records.len(), 2, "double application must be visible");
        assert_eq!(records[0].seq, records[1].seq);
    }

    #[test]
    fn crash_point_enumeration_put_recovers_exactly_once() {
        // A one-op put — a group commit of one — cut at every
        // persistence event: reserve CAS, record write, the record and
        // tail flights, head CAS, the heads flight. Wherever
        // the crash lands, the evidence scan answers exactly-once and
        // PSan stays silent.
        let probe = || fixture(4, 16);
        let (pmem, _, kv) = probe();
        let e0 = pmem.events();
        assert!(apply(&kv, put(0, 1, 7, 77)).unwrap());
        let total = pmem.events() - e0;
        assert!(total >= 5, "reserve + record + head CAS + flights");

        for k in 0..total {
            let (pmem, _, kv) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k));
            let err = apply(&kv, put(0, 1, 7, 77)).unwrap_err();
            assert!(err.is_crash());
            let pmem2 = pmem.reopen().unwrap();
            let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
            assert!(
                recover(&kv2, put(0, 1, 7, 77)).unwrap(),
                "crash at event {k}"
            );
            assert_eq!(kv2.get(7).unwrap(), Some(77), "crash at event {k}");
            let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
            assert_eq!(published, 1, "crash at event {k}: exactly one record");
            assert!(pmem2.psan_violations().is_empty(), "crash at event {k}");
        }
    }

    #[test]
    fn crash_point_enumeration_delete_recovers_exactly_once() {
        let probe = || {
            let (pmem, heap, kv) = fixture(4, 16);
            apply(&kv, put(0, 1, 7, 77)).unwrap();
            (pmem, heap, kv)
        };
        let (pmem, _, kv) = probe();
        let e0 = pmem.events();
        assert!(apply(&kv, del(1, 2, 7)).unwrap());
        let total = pmem.events() - e0;

        for k in 0..total {
            let (pmem, _, kv) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k));
            let err = apply(&kv, del(1, 2, 7)).unwrap_err();
            assert!(err.is_crash());
            let pmem2 = pmem.reopen().unwrap();
            let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
            assert!(recover(&kv2, del(1, 2, 7)).unwrap(), "crash at event {k}");
            assert_eq!(kv2.get(7).unwrap(), None, "crash at event {k}");
            let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
            assert_eq!(published, 2, "crash at event {k}: put + delete records");
        }
    }

    #[test]
    fn crash_point_enumeration_cas_recovers_exactly_once() {
        let probe = || {
            let (pmem, heap, kv) = fixture(4, 16);
            apply(&kv, put(0, 1, 7, 77)).unwrap();
            (pmem, heap, kv)
        };
        let (pmem, _, kv) = probe();
        let e0 = pmem.events();
        assert!(apply(&kv, cas(1, 2, 7, 77, 78)).unwrap());
        let total = pmem.events() - e0;

        for k in 0..total {
            let (pmem, _, kv) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k));
            let err = apply(&kv, cas(1, 2, 7, 77, 78)).unwrap_err();
            assert!(err.is_crash());
            let pmem2 = pmem.reopen().unwrap();
            let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
            assert!(
                recover(&kv2, cas(1, 2, 7, 77, 78)).unwrap(),
                "crash at event {k}"
            );
            assert_eq!(kv2.get(7).unwrap(), Some(78), "crash at event {k}");
            let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
            assert_eq!(published, 2, "crash at event {k}: no double application");
        }
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        // Four writers on one shard, their group commits of one
        // serialized by the region's gate: nothing lost, PSan clean.
        let (pmem, _, kv) = fixture(16, 1024);
        let writers = 4u64;
        let per = 64u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let kv = kv.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let key = w * per + i;
                        assert!(apply(&kv, put(w, i + 1, key, key as i64)).unwrap());
                    }
                });
            }
        });
        let contents = kv.contents().unwrap();
        assert_eq!(contents.len(), (writers * per) as usize);
        for (k, v) in contents {
            assert_eq!(k as i64, v);
        }
        assert!(pmem.psan_violations().is_empty());
        // Everything published is already durable: a crash now loses
        // nothing.
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.contents().unwrap().len(), (writers * per) as usize);
    }

    #[test]
    fn concurrent_cas_on_one_key_applies_each_transition_once() {
        // Four threads increment one key via cas-retry loops; the final
        // value counts every success exactly once.
        let (pmem, _, kv) = fixture(4, 4096);
        apply(&kv, put(0, 1, 0, 0)).unwrap();
        let per = 50i64;
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let kv = kv.clone();
                s.spawn(move || {
                    let mut seq = 1_000 * (w + 1);
                    for _ in 0..per {
                        loop {
                            seq += 1;
                            let cur = kv.get(0).unwrap().unwrap();
                            if apply(&kv, cas(w, seq, 0, cur, cur + 1)).unwrap() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(kv.get(0).unwrap(), Some(4 * per));
        assert!(pmem.psan_violations().is_empty());
    }

    #[test]
    fn compaction_quiesces_lock_free_mutators() {
        // The machine-checked exclusive section: compactions race four
        // writer threads on one shard. A compact() and every put hold
        // the region's gate in turn, so the generation never moves
        // under a publish and nothing is lost.
        let pmem = PMemBuilder::new().len(1 << 20).psan(true).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 20).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 8, 512, KvVariant::Nsrl).unwrap();
        let writers = 4u64;
        let per = 40u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let kv = kv.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let key = w * per + i;
                        assert!(apply(&kv, put(w, i + 1, key, key as i64)).unwrap());
                    }
                });
            }
            let kv = kv.clone();
            let heap = heap.clone();
            s.spawn(move || {
                for _ in 0..5 {
                    kv.compact(&heap).unwrap();
                    std::thread::yield_now();
                }
            });
        });
        let contents = kv.contents().unwrap();
        assert_eq!(contents.len(), (writers * per) as usize);
        for (k, v) in contents {
            assert_eq!(k as i64, v);
        }
        assert!(kv.generation().unwrap() >= 5);
        assert!(pmem.psan_violations().is_empty());
    }

    #[test]
    fn early_publish_variant_flags_on_the_lock_free_path() {
        // Negative control: skip the record flight before the head CAS
        // and PSan must flag the publication — proof the
        // durable-before-publish check covers a lone put (a group
        // commit of one), attributed to the group commit.
        let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 4, 32, KvVariant::EarlyPublish).unwrap();
        assert!(apply(&kv, put(0, 1, 7, 77)).unwrap());
        let violations = pmem.psan_violations();
        assert!(
            violations
                .iter()
                .any(|v| matches!(v.kind, pstack_nvram::PsanViolationKind::EarlyPublish { .. })),
            "expected an EarlyPublish violation, got {violations:?}"
        );
        assert_eq!(violations[0].op_label, "kv.apply_batch");
    }

    #[test]
    fn retired_generations_are_guarded_against_free() {
        // Regression: `heap.free` on a retired generation block used to
        // be a silent correctness bug only caught later by the witness
        // walk. Compaction now registers the retired extent; the free
        // fails typed, immediately.
        let (pmem, heap, kv) = fixture(4, 32);
        apply(&kv, put(0, 1, 7, 77)).unwrap();
        assert!(heap.retired_extents().is_empty());
        kv.compact(&heap).unwrap();
        let retired = heap.retired_extents();
        assert_eq!(retired.len(), 1, "compact registers the old generation");
        let (start, _) = retired[0];
        assert!(matches!(
            heap.free(POffset::new(start)),
            Err(pstack_heap::HeapError::RetiredExtent { .. })
        ));

        // The registry is volatile: after a crash, recover_compact (or
        // register_retired_generations) re-arms it over the reopened
        // heap before any client could free retained evidence.
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let heap2 = PHeap::open(pmem2.clone(), POffset::new(0)).unwrap();
        assert!(
            heap2.retired_extents().is_empty(),
            "volatile, like the free list"
        );
        let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
        assert!(kv2.recover_compact(&heap2, 0).unwrap());
        assert_eq!(heap2.retired_extents(), retired);
        assert!(matches!(
            heap2.free(POffset::new(start)),
            Err(pstack_heap::HeapError::RetiredExtent { .. })
        ));
        // And the explicit helper covers plain reopens too (idempotent
        // over the recover_compact registration above).
        assert_eq!(kv2.generations().unwrap().len(), 2);
        kv2.register_retired_generations(&heap2).unwrap();
        assert_eq!(heap2.retired_extents(), retired);
    }

    #[test]
    fn required_len_covers_layout() {
        // Root block + generation 0: gen header + buckets (rounded so
        // the log starts 64-aligned) + the log itself.
        let need = PKvStore::required_len(16, 8);
        assert_eq!(need as u64, 128 + round64(64 + 16 * 8) + 8 * 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chain_bounds_are_enforced() {
        let (_, _, kv) = fixture(2, 8);
        let _ = kv.chain(2);
    }

    // ---- compaction: the generational log ------------------------------

    /// A mixed workload leaving 3 live keys out of 8 mutations.
    fn seed_history(kv: &PKvStore) {
        apply(kv, put(0, 1, 1, 10)).unwrap();
        apply(kv, put(0, 2, 2, 20)).unwrap();
        apply(kv, put(0, 3, 1, 11)).unwrap(); // supersedes seq 1
        apply(kv, put(0, 4, 3, 30)).unwrap();
        apply(kv, del(0, 5, 2)).unwrap(); // kills key 2
        apply(kv, cas(0, 6, 3, 30, 31)).unwrap();
        apply(kv, put(0, 7, 4, 40)).unwrap();
        apply(kv, del(0, 8, 4)).unwrap();
    }

    #[test]
    fn compaction_preserves_contents_and_frees_headroom() {
        let (pmem, heap, kv) = fixture(4, 16);
        seed_history(&kv);
        let want = kv.contents().unwrap();
        assert_eq!(kv.log_reserved().unwrap(), 8);
        assert_eq!(kv.generation().unwrap(), 0);

        let before = pmem.stats().snapshot();
        let stats = kv.compact(&heap).unwrap();
        let delta = pmem.stats().snapshot() - before;
        assert_eq!(stats.from_gen, 0);
        assert_eq!(stats.to_gen, 1);
        assert_eq!(stats.carried, 2, "keys 1 and 3 are live");
        assert_eq!(
            stats.dropped, 6,
            "superseded, deleted and delete records drop"
        );
        assert_eq!(kv.generation().unwrap(), 1);
        assert_eq!(kv.contents().unwrap(), want);
        assert_eq!(kv.log_reserved().unwrap(), 2, "headroom reclaimed");
        // The FliT lens: the rewrite pays O(live) persists — one
        // coalesced round-trip for the whole block, two for the root
        // cell, one retirement mark, plus the heap allocator's fixed
        // block-header persists. Crucially *not* a function of the
        // 8-record history.
        assert!(
            delta.persists <= 8,
            "compaction cost {} persist round-trips",
            delta.persists
        );

        // Survives a crash + reopen into the new generation.
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.generation().unwrap(), 1);
        assert_eq!(kv2.contents().unwrap(), want);

        // The full chain witness still spans both generations, with
        // the carries flagged and generation-stamped.
        let recs: Vec<VersionRecord> = kv2.snapshot().unwrap().into_iter().flatten().collect();
        assert_eq!(recs.iter().filter(|r| !r.compacted).count(), 8);
        let carries: Vec<&VersionRecord> = recs.iter().filter(|r| r.compacted).collect();
        assert_eq!(carries.len(), 2);
        for c in carries {
            assert_eq!(c.gen, 1);
            assert!(!c.is_delete, "deletes are never carried");
            assert_eq!(want.get(&c.key), Some(&c.value));
        }
        let gens = kv2.generations().unwrap();
        assert_eq!(gens.len(), 2);
        assert!(gens[0].retired && !gens[1].retired);
        assert_eq!(gens[1].carried, 2);
    }

    #[test]
    fn store_outlives_its_original_log_capacity() {
        // The acceptance headline: a store formatted with log_cap 8
        // accepts far more than 8 lifetime mutations once the driver
        // compacts on low headroom.
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 20).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 4, 8, KvVariant::Nsrl).unwrap();
        let mut applied = 0u64;
        for seq in 1..=200u64 {
            if kv.log_reserved().unwrap() + 1 >= kv.log_capacity().unwrap() {
                kv.compact(&heap).unwrap();
            }
            let key = seq % 6;
            assert!(
                apply(&kv, put(0, seq, key, seq as i64)).unwrap(),
                "put {seq} rejected — compaction failed to free headroom"
            );
            applied += 1;
        }
        assert_eq!(applied, 200);
        assert!(applied > 8, "strictly more than the original capacity");
        assert!(kv.generation().unwrap() > 1, "several swaps happened");
        // Every key holds its newest value; history is intact across
        // all generations (200 real mutations published).
        let contents = kv.contents().unwrap();
        for key in 0..6u64 {
            let newest = (1..=200u64).filter(|s| s % 6 == key).max().unwrap();
            assert_eq!(contents.get(&key), Some(&(newest as i64)));
        }
        let real: usize = kv
            .snapshot()
            .unwrap()
            .iter()
            .flatten()
            .filter(|r| !r.compacted)
            .count();
        assert_eq!(real, 200, "witness spans every generation");
    }

    #[test]
    fn carried_records_count_as_recovery_evidence() {
        // An operation that published before a compaction must not be
        // re-executed by its recovery dual afterwards — whether its
        // record survives as a carry (live) or only in the retired log.
        let (_, heap, kv) = fixture(4, 16);
        seed_history(&kv);
        kv.compact(&heap).unwrap();
        let reserved = kv.log_reserved().unwrap();
        // seq 3 is live (carried); seq 1 is superseded (retired log
        // only); seq 5 is a delete (retired log only).
        assert!(recover(&kv, put(0, 3, 1, 11)).unwrap());
        assert!(recover(&kv, put(0, 1, 1, 10)).unwrap());
        assert!(recover(&kv, del(0, 5, 2)).unwrap());
        assert_eq!(
            kv.log_reserved().unwrap(),
            reserved,
            "evidence scans must find pre-compaction records and not re-execute"
        );
        assert_eq!(kv.get(1).unwrap(), Some(11), "state untouched");
    }

    #[test]
    fn compact_capacity_validation_and_growth() {
        let (_, heap, kv) = fixture(4, 16);
        for seq in 1..=10u64 {
            apply(&kv, put(0, seq, seq, seq as i64)).unwrap(); // 10 live keys
        }
        assert!(matches!(
            kv.compact_with_capacity(&heap, Some(5)),
            Err(PError::InvalidConfig(_))
        ));
        // Default growth: live × 2 when the live set outgrew cap/2.
        let stats = kv.compact(&heap).unwrap();
        assert_eq!(stats.carried, 10);
        assert_eq!(stats.new_capacity, 20);
        assert_eq!(stats.headroom(), 10);
        assert_eq!(kv.log_capacity().unwrap(), 20);
        // Explicit capacity is honored exactly.
        let stats = kv.compact_with_capacity(&heap, Some(64)).unwrap();
        assert_eq!(stats.new_capacity, 64);
        assert_eq!(kv.generation().unwrap(), 2);
    }

    #[test]
    fn recover_compact_resumes_or_safely_abandons() {
        let (_, heap, kv) = fixture(4, 16);
        seed_history(&kv);
        let want = kv.contents().unwrap();
        // Nothing committed: re-executes (evidence says gen unchanged).
        assert!(!kv.recover_compact(&heap, 0).unwrap());
        assert_eq!(kv.generation().unwrap(), 1);
        assert_eq!(kv.contents().unwrap(), want);
        // Already committed: evidence scan answers without a new swap.
        assert!(kv.recover_compact(&heap, 0).unwrap());
        assert_eq!(kv.generation().unwrap(), 1, "no duplicate swap");
        // A future from_gen is a caller bug.
        assert!(matches!(
            kv.recover_compact(&heap, 7),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn group_commits_keep_working_after_a_swap() {
        // The batched hot path across a generation boundary: group
        // commits before and after a compaction, each its three flights
        // (the compaction issues none).
        let (pmem, heap, kv) = fixture(4, 16);
        let flights = || pmem.stats().snapshot().async_flushes;
        let ops: Vec<KvBatchOp> = (0..8)
            .map(|i| KvBatchOp::Put {
                pid: 0,
                seq: i + 1,
                key: i % 4,
                value: i as i64,
            })
            .collect();
        assert!(kv
            .apply_batch(&ops)
            .unwrap()
            .iter()
            .all(|o| o.took_effect()));
        assert_eq!(flights(), 3);
        kv.compact(&heap).unwrap();
        let ops2: Vec<KvBatchOp> = (0..8)
            .map(|i| KvBatchOp::Put {
                pid: 0,
                seq: 100 + i,
                key: i % 4,
                value: -(i as i64),
            })
            .collect();
        assert!(kv
            .apply_batch(&ops2)
            .unwrap()
            .iter()
            .all(|o| o.took_effect()));
        assert_eq!(flights(), 6, "one more group commit, in the new generation");
        assert_eq!(kv.contents().unwrap().len(), 4);
        // And the whole thing is durable.
        pmem.crash_now(0, 0.0);
        let kv2 = PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
        for i in 4..8u64 {
            assert_eq!(kv2.get(i % 4).unwrap(), Some(-(i as i64)));
        }
    }

    #[test]
    fn compaction_crash_points_buffered() {
        // A crash at every persistence event inside `compact` (the
        // rewrite, the root swap, the retirement mark), and, from each
        // crash state, at every persistence event inside the recovery
        // dual.
        let probe = || {
            let (pmem, heap, kv) = fixture(4, 16);
            seed_history(&kv);
            (pmem, heap, kv)
        };
        let (pmem, heap, kv) = probe();
        let want = kv.contents().unwrap();
        let e0 = pmem.events();
        kv.compact(&heap).unwrap();
        let total = pmem.events() - e0;
        assert!(
            total >= 3,
            "rewrite + swap + retirement span several events (got {total})"
        );

        for k in 0..total {
            // Phase 1: crash the compaction after k events; the store
            // must reopen consistent in the old or the new generation.
            let (pmem, heap, kv) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k));
            let err = kv.compact(&heap).unwrap_err();
            assert!(err.is_crash(), "crash at event {k}");
            let pmem2 = pmem.reopen().unwrap();
            let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
            let gen = kv2.generation().unwrap();
            assert!(gen <= 1, "crash at {k} left generation {gen}");
            assert_eq!(kv2.contents().unwrap(), want, "crash at {k}: contents torn");
            assert!(
                pmem2.psan_violations().is_empty(),
                "crash at {k}: PSan flagged the correct protocol"
            );

            // Phase 2: enumerate crashes inside the recovery dual. The
            // first j at or past recovery's event footprint completes.
            for j in 0.. {
                let (pmem, heap, kv) = probe();
                pmem.arm_failpoint(FailPlan::after_events(k));
                assert!(kv.compact(&heap).unwrap_err().is_crash());
                let pmem = pmem.reopen().unwrap();
                let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                let heap = PHeap::open(pmem.clone(), POffset::new(0)).unwrap();
                pmem.arm_failpoint(FailPlan::after_events(j));
                match kv.recover_compact(&heap, 0) {
                    Ok(_committed_before) => {
                        pmem.disarm_failpoint();
                        assert_eq!(kv.generation().unwrap(), 1);
                        assert_eq!(kv.contents().unwrap(), want, "crash {k}, recovery step {j}");
                        let gens = kv.generations().unwrap();
                        assert!(gens[0].retired, "retirement finished by recovery");
                        // Idempotent: a second recovery changes nothing.
                        assert!(kv.recover_compact(&heap, 0).unwrap());
                        assert_eq!(kv.generation().unwrap(), 1);
                        assert!(
                            pmem.psan_violations().is_empty(),
                            "crash {k}, step {j}: PSan flagged recovery"
                        );
                        break;
                    }
                    Err(e) => {
                        assert!(e.is_crash(), "crash {k}, step {j}: {e}");
                        let pmem = pmem.reopen().unwrap();
                        let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                        let heap = PHeap::open(pmem, POffset::new(0)).unwrap();
                        // A clean pass from the doubly-crashed state
                        // must still converge.
                        kv.recover_compact(&heap, 0).unwrap();
                        assert_eq!(kv.generation().unwrap(), 1);
                        assert_eq!(
                            kv.contents().unwrap(),
                            want,
                            "crash {k}, step {j}: post-recovery state"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_compactions_chain_generations() {
        let (_, heap, kv) = fixture(4, 16);
        let mut seq = 0u64;
        for round in 0..4u64 {
            for key in 0..3u64 {
                seq += 1;
                apply(&kv, put(0, seq, key, (round * 10 + key) as i64)).unwrap();
            }
            kv.compact(&heap).unwrap();
            assert_eq!(kv.generation().unwrap(), round + 1);
        }
        let gens = kv.generations().unwrap();
        assert_eq!(gens.len(), 5);
        assert!(gens.iter().take(4).all(|g| g.retired));
        assert!(!gens[4].retired);
        assert_eq!(gens[4].carried, 3);
        // All 12 real mutations still in the witness; evidence scans
        // reach the oldest generation.
        let real: usize = kv
            .snapshot()
            .unwrap()
            .iter()
            .flatten()
            .filter(|r| !r.compacted)
            .count();
        assert_eq!(real, 12);
        assert!(recover(&kv, put(0, 1, 0, 0)).unwrap());
        assert_eq!(
            kv.snapshot()
                .unwrap()
                .iter()
                .flatten()
                .filter(|r| !r.compacted)
                .count(),
            12,
            "gen-0 evidence found, nothing re-executed"
        );
    }

    // ---- PSan: the persist-order sanitizer ------------------------------

    #[test]
    fn full_lifecycle_is_psan_clean_on_both_commit_modes() {
        // The unit-scope zero-violation gate: one-op batches, a group
        // commit, a compaction and a crash/recover cycle must leave the
        // sanitizer silent.
        let (pmem, heap, kv) = fixture(4, 16);
        seed_history(&kv);
        kv.apply_batch(&[
            KvBatchOp::Put {
                pid: 2,
                seq: 1,
                key: 5,
                value: 50,
            },
            KvBatchOp::Cas {
                pid: 2,
                seq: 2,
                key: 5,
                expected: 50,
                new: 51,
            },
        ])
        .unwrap();
        kv.compact(&heap).unwrap();
        apply(&kv, put(2, 3, 6, 60)).unwrap();
        assert!(pmem.psan_violations().is_empty());
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        assert!(recover(&kv2, put(2, 3, 6, 60)).unwrap());
        assert_eq!(kv2.get(5).unwrap(), Some(51));
        let violations = pmem2.psan_violations();
        assert!(
            violations.is_empty(),
            "PSan flagged the correct protocol: {violations:?}"
        );
    }

    #[test]
    fn psan_flags_the_early_publish_variant_at_the_head_cas() {
        use pstack_nvram::PsanViolationKind;
        let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 4, 32, KvVariant::EarlyPublish).unwrap();
        assert!(pmem.psan_violations().is_empty(), "format itself is clean");
        kv.apply_batch(&[KvBatchOp::Put {
            pid: 0,
            seq: 1,
            key: 7,
            value: 70,
        }])
        .unwrap();
        let v = pmem.psan_violations();
        let hit = v
            .iter()
            .find(|x| matches!(x.kind, PsanViolationKind::EarlyPublish { .. }))
            .unwrap_or_else(|| panic!("expected an early-publish violation: {v:?}"));
        // Attribution: the op label names the publishing call site, and
        // the flagged span covers the published (still-volatile) record.
        assert_eq!(hit.op_label, "kv.apply_batch");
        let PsanViolationKind::EarlyPublish { published } = hit.kind else {
            unreachable!()
        };
        assert!(
            hit.offset <= published && published < hit.offset + hit.len as u64 + RECORD_STRIDE,
            "violation span {:#x}+{} should cover the published record {published:#x}",
            hit.offset,
            hit.len,
        );
    }

    #[test]
    fn psan_flags_the_no_persist_before_swap_variant_at_the_root_swap() {
        use pstack_nvram::PsanViolationKind;
        let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
        let kv =
            PKvStore::format(pmem.clone(), &heap, 4, 16, KvVariant::NoPersistBeforeSwap).unwrap();
        for seq in 1..=4u64 {
            apply(&kv, put(0, seq, seq, seq as i64)).unwrap();
        }
        assert!(
            pmem.psan_violations().is_empty(),
            "ordinary mutations are clean under this variant"
        );
        kv.compact(&heap).unwrap();
        let v = pmem.psan_violations();
        let hit = v
            .iter()
            .find(|x| matches!(x.kind, PsanViolationKind::UnorderedCommit))
            .unwrap_or_else(|| panic!("expected an unordered-commit violation: {v:?}"));
        assert_eq!(hit.op_label, "kv.compact");
        // The flagged line lies inside the committed-but-volatile new
        // generation block, past the heap's gen-0 allocations.
        assert!(
            hit.offset >= PKvStore::required_len(4, 16) as u64,
            "violation at {:#x} should fall in the new generation block",
            hit.offset
        );
    }
}
