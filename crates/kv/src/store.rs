//! The persistent hash-indexed key-value store, with a **generational**
//! version log.
//!
//! See the crate-level documentation for the design rationale. The
//! store is rooted at a small fixed block whose generation pointer (a
//! [`RootCell`]) names the active generation; each generation is a
//! self-contained bucket-array + version-log block. The active
//! generation and its bucket heads are also kept in DRAM, in the
//! region's volatile index, which every reader of it uses. The store is
//! split by concern:
//!
//! - `layout` — the root and generation blocks, the record codec and
//!   its stamp, the generation header's commit words, and the two walks
//!   every reader shares: the generations newest first and one chain's
//!   records newest first;
//! - `index` — the volatile index every reader of the active
//!   generation takes it and its heads from, shared by the region's
//!   handles and rebuilt by `open`;
//! - `commit` — the group commit, the one way to write
//!   ([`PKvStore::apply_batch`], [`KvPendingBatch`]), and its persist
//!   order;
//! - `recovery` — the log replay [`PKvStore::open`] runs, the evidence
//!   scan ([`PKvStore::recover_batch`]) and the check that a served
//!   answer's batch was published;
//! - `compact` — the generational swap ([`PKvStore::compact`],
//!   [`PKvStore::recover_compact`]).
//!
//! [`RootCell`]: pstack_nvram::RootCell

use std::sync::Arc;

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{Level, MemError, PMem, POffset, RootCell};

mod commit;
mod compact;
mod index;
mod layout;
mod recovery;

pub use commit::KvPendingBatch;
use index::KvIndex;
use layout::{
    checked_block_len, gen_block_len, gen_prefix_len, write_header, Gen, LogHeader, KV_MAGIC,
    KV_MAGIC_V2, OFF_GEN_CELL, OFF_MAGIC, OFF_NBUCKETS, ROOT_LEN,
};
pub(crate) use layout::{mix, MAX_SERVED_SLOTS};
use recovery::Boot;
pub(crate) use recovery::ClaimCheck;

/// Which recovery procedure the store runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvVariant {
    /// Correct NSRL recovery: scan the key's published chain for the
    /// interrupted operation's tag before re-executing.
    #[default]
    Nsrl,
    /// Injected bug mirroring §5.2's matrix removal, in `test` and
    /// `fault-seeds` builds only: recovery skips the evidence scans and
    /// always re-executes — a reboot cannot tell a published answer
    /// from one whose batch was lost, so it re-runs every answer
    /// recorded before it, and operations that already linearized are
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
}

/// A crash-recoverable hash-indexed map from `u64` keys to `i64`
/// values. Cheap to clone; all clones share the same store, and every
/// handle on the region's boot — clones and independent opens — the
/// same volatile index (`store/index.rs`). See `store/layout.rs` for
/// the persistent layout and the crate docs for the recovery argument.
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
    /// The region's index of this store: the active generation and its
    /// heads.
    index: Arc<KvIndex>,
    /// What the reboot that opened this handle found (`None` after
    /// `format`).
    boot: Option<Boot>,
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
    /// capacity, or one past 2³² (the header packs slot and bucket
    /// indexes in 32 bits); heap/NVRAM errors otherwise.
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
        if nbuckets >= 1 << 32 || log_cap >= 1 << 32 {
            return Err(PError::InvalidConfig(format!(
                "KV store of {nbuckets} buckets and {log_cap} log slots: \
                 each must stay below 2^32"
            )));
        }
        // Two allocations, each awaiting its interior headers; their
        // switches, the root and generation 0 then share one level,
        // durable before the cell (formatted below, self-persisting)
        // names them: four round-trips in all.
        let mut level = Level::default();
        let base = heap.alloc_aligned_in(ROOT_LEN as usize, 64, &mut level)?;
        pmem.fill(base, 0, ROOT_LEN as usize)?;
        pmem.write_u64(base + OFF_NBUCKETS, nbuckets)?;
        pmem.write_u64(base + OFF_MAGIC, KV_MAGIC)?;
        let gen0 = Self::format_generation(&pmem, heap, &mut level, nbuckets, log_cap, 0, 0)?;
        write_header(&pmem, gen0, &LogHeader::settled(0, 0))?;
        level.issue(&pmem, base, ROOT_LEN as usize)?;
        level.issue(&pmem, POffset::new(gen0), gen_prefix_len(nbuckets) as usize)?;
        level.await_all()?;
        let cell = RootCell::format(pmem.clone(), base + OFF_GEN_CELL, 0, gen0)?;
        Self::register_publish_range(&pmem, gen0, nbuckets);
        let gen = Gen {
            base: gen0,
            number: 0,
            log_cap,
        };
        let index = pmem.volatile(base.get(), KvIndex::empty);
        index.replace(Self::read_active(&pmem, gen, nbuckets)?);
        Ok(PKvStore {
            pmem,
            base,
            cell,
            nbuckets,
            variant,
            index,
            boot: None,
        })
    }

    /// Re-attaches to a store previously created at `base` (recovery
    /// boot). The heads the last commits left dirty come back: the log
    /// is replayed from the header's `C`, and the rebuilt heads ride
    /// the next commit. Then the region's volatile index is built from
    /// the replayed image — the root cell's generation and one read of
    /// its bucket array — in the same exclusive section, and every
    /// handle on the region reads from it. The epoch advances, in one
    /// persist, only when a cut batch can have left records of it past
    /// the tail
    /// (`store/recovery.rs` argues it); a boot with nothing there
    /// persists nothing. A served window's batch at the header's `L` is
    /// checked against the shard's request table, which only
    /// [`ShardedKvStore::open`](crate::ShardedKvStore::open) can ask.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] when the newest batch is a served
    /// window's; [`PError::CorruptStack`] on a bad magic word (root or active
    /// generation), an image of the version-2 format (no stamped log),
    /// or a propagated crash.
    pub fn open(pmem: PMem, base: POffset, variant: KvVariant) -> Result<Self, PError> {
        Self::open_with(pmem, base, variant, None)
    }

    /// [`PKvStore::open`], the newest batch's served records checked
    /// against `claims`.
    pub(crate) fn open_with(
        pmem: PMem,
        base: POffset,
        variant: KvVariant,
        claims: Option<ClaimCheck<'_>>,
    ) -> Result<Self, PError> {
        let magic = pmem.read_u64(base + OFF_MAGIC)?;
        if magic == KV_MAGIC_V2 {
            return Err(PError::CorruptStack(format!(
                "KV store at {base} is a version-2 image (PSKVSTO2); this build reads \
                 version 3 (PSKVSTO3) only"
            )));
        }
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
        // The root cell, the replay and the index build share one
        // exclusive section: no compaction or commit of another handle
        // on the region can land between them.
        let gate = pmem.clone();
        let _quiesce = gate.quiesce();
        let mut store = PKvStore {
            index: pmem.volatile(base.get(), KvIndex::empty),
            pmem,
            base,
            cell,
            nbuckets,
            variant,
            boot: None,
        };
        let gen = store.root_gen()?; // validates the active generation's magic

        // The counts come back from NVRAM: bound them before any
        // arithmetic on them.
        let end =
            checked_block_len(nbuckets, gen.log_cap).and_then(|len| gen.base.checked_add(len));
        let fits = end.is_some_and(|end| end <= store.pmem.len() as u64);
        if nbuckets == 0 || !fits {
            return Err(PError::CorruptStack(format!(
                "KV store at {base}: {nbuckets} buckets and a {}-slot log overrun the region",
                gen.log_cap
            )));
        }
        Self::register_publish_range(&store.pmem, gen.base, nbuckets);
        store.boot = Some(store.replay_log(gen, claims)?);
        store
            .index
            .replace(Self::read_active(&store.pmem, gen, nbuckets)?);
        Ok(store)
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

    /// Log slots reserved so far in the **active generation**
    /// (published records, carry-overs and crash orphans).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn log_reserved(&self) -> Result<u64, PError> {
        Ok(self.read_header(&self.active_gen()?)?.tail)
    }

    /// Walks a chain from `head` for `key`: the newest record decides.
    /// (Carry-overs are copies of live PUTs, so they decide like PUTs.)
    fn lookup_from(&self, head: u64, key: u64, gen_number: u64) -> Result<Option<i64>, PError> {
        for hop in self.records_from(head, gen_number) {
            let (_, rec) = hop?;
            if rec.key == key {
                return Ok(if rec.is_delete { None } else { Some(rec.value) });
            }
        }
        Ok(None)
    }

    /// Group-commits a batch of mutations, in order, and reports each
    /// op's outcome. Ops see the staged effects of earlier ops in the
    /// same batch (a `cas` after a `put` of its expected value
    /// succeeds).
    ///
    /// This is the hot path the sharding layer amortizes persists
    /// with, and it is exactly
    /// [`PKvStore::apply_batch_begin`] followed at once by
    /// [`KvPendingBatch::commit`]: every record, stamped, and the
    /// generation header become durable in one level of coalesced
    /// flights, beside the heads the previous commit flipped, and each
    /// touched bucket's head is published once on that level's receipt
    /// and left for the next commit to persist — at most 3 persists
    /// (2 + ⌈dirty heads/lines⌉ in general), every one a flight, and
    /// one round-trip of waiting for the whole batch instead of ≥ 2 per
    /// mutation. A crash at any point leaves the batch whole or absent
    /// (a reopen replays the stamped log into the heads), so recovery
    /// remains the per-key evidence scan.
    ///
    /// It is the one way to write the store: a lone mutation is a batch
    /// of one, at the same persists and one round-trip.
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
    /// // Records ‖ header: two flights, one round-trip. The heads ride
    /// // the next commit (a third flight beside its records).
    /// assert_eq!((pmem.stats().snapshot() - before).async_flushes, 2);
    /// # Ok(())
    /// # }
    /// # use pstack_kv::KvApplied::Applied;
    /// ```
    pub fn apply_batch(&self, ops: &[KvBatchOp]) -> Result<Vec<KvApplied>, PError> {
        self.apply_batch_begin(ops)?.commit()
    }

    /// Reads the current value of `key`: its bucket's head from the
    /// region's volatile index, then the chain's records from NVRAM,
    /// newest first, until one is `key`'s — no other NVRAM read.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors; [`MemError::Crashed`] on a crashed
    /// region, also for a key whose bucket is empty.
    pub fn get(&self, key: u64) -> Result<Option<i64>, PError> {
        let active = self.active()?;
        self.lookup_from(active.head(self.bucket_of(key)), key, active.gen.number)
    }

    /// [`PKvStore::get`] whose answer is **durably linearizable**: the
    /// value returned survives a power failure right after the call,
    /// so it may be handed to a client. It persists nothing, and reads
    /// the head from DRAM: the index holds a head only once a group
    /// commit's publish stored it there, on the receipt of the awaited
    /// level that made its batch's records and header durable, and a
    /// reboot replays that batch from the stamped log into the image's
    /// heads — whether they persisted or not (`store/recovery.rs`) —
    /// before `open` builds the next boot's index from them. So every
    /// head the index shows, a reboot shows too. Only the destination —
    /// the records — needs to be durable (NVTraverse), and the log makes
    /// it so. A crashed region answers nothing: the index is read only
    /// while the region is alive.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors; [`MemError::Crashed`] on a crashed
    /// region.
    pub fn get_durable(&self, key: u64) -> Result<Option<i64>, PError> {
        self.get(key)
    }
}

#[cfg(test)]
mod tests;
