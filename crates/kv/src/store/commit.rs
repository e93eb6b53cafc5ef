//! The group commit: staging, [`KvPendingBatch`] and its level.
//!
//! # Persist order
//!
//! The store runs on a buffered region — caches in front of NVRAM, as
//! on real hardware, the one kind of region there is — and orders its
//! own persists through one routine, the group commit.
//! [`PKvStore::apply_batch`] enters the region's exclusive section,
//! stages a whole batch in volatile memory — its preconditions resolved
//! against the staged chains, its slots counted from the header's tail
//! (the section makes them its own: no per-record reserve) — writes the
//! records, each stamped, and the generation header once, and issues
//! one level ([`PKvStore::apply_batch_begin`]): records ‖ header ‖ the
//! checkpoint of the heads the shard's previous commit flipped.
//! [`KvPendingBatch::commit`] awaits that level once — across every
//! shard of a [`KvBatch`](crate::KvBatch) — flips each touched bucket's
//! head on its receipt (the image's by CAS, then the region's volatile
//! index's, which readers take it from), and returns: **one
//! round-trip**. The new heads stay dirty; the header names them, and
//! the shard's next commit or a compaction persists them. Until then the log is the truth: a crash
//! loses at most heads, and `PKvStore::open` rebuilds them by replaying
//! the stamped batches from the header's `C` (`store/recovery.rs`).
//! Records are durable strictly before any head that can reach them, so
//! a crash at *any* point leaves each shard's batch whole or absent —
//! never a torn head — and recovery detects a completed-but-unacked
//! operation purely from the `(pid, seq)` evidence in the log.
//!
//! A served window's group commit has the same shape. Its records also
//! name the request-table slot each executed and that slot's claim
//! ([`PKvStore::begin_served`]), and the window issues the level
//! itself, beside its `CALL` and its slots' lines — each descriptor
//! with its answer — so a window waits one round-trip too: `CALL` ‖
//! slots ‖ records ‖ header ‖ the previous commit's heads. A reboot
//! publishes the newest batch only if its slots hold their claims, and
//! an answer counts only if its batch was published
//! ([`KvPendingBatch::answer_ref`], `PKvStore::answer_published`).
//!
//! There is one mutation API: a write is a [`KvBatchOp`] in a group
//! commit (a lone write a batch of one), and its recovery dual is
//! [`PKvStore::recover_batch`]. (Shard-level parallelism comes from
//! striping stores across regions, see
//! [`ShardedKvStore`](crate::ShardedKvStore).)

use std::collections::BTreeMap;
use std::sync::Arc;

use pstack_core::PError;
use pstack_nvram::{op_label, Durable, Level, POffset, QuiesceGuard};

use super::index::Active;
use super::layout::{
    decode_record, encode_record, header_range, heads_range, serve, stamp, stamp_word,
    write_header, Gen, LogHeader, RecordBytes, KIND_DEL, KIND_PUT, LONG_BATCH, RECORD_STRIDE,
};
#[cfg(any(test, feature = "fault-seeds"))]
use super::KvVariant;
use super::{KvApplied, KvBatchOp, PKvStore};

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

impl KvBatchOp {
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

/// What staging a group commit produced: the records (volatile, slot by
/// slot from `first`), per touched bucket (by index) the pre-batch head
/// and the staged head to publish, and the `[lo, hi]` slot span by
/// offset (`None` when nothing staged).
pub(super) struct StagedBatch {
    pub(super) outcomes: Vec<KvApplied>,
    pre_heads: BTreeMap<u64, u64>,
    staged_heads: BTreeMap<u64, u64>,
    records: Vec<RecordBytes>,
    first: u64,
    pub(super) slots: Option<(u64, u64)>,
}

impl StagedBatch {
    /// The batch's last slot index.
    fn last(&self) -> u64 {
        self.first + self.records.len() as u64 - 1
    }
}

/// A group commit staged by [`PKvStore::apply_batch_begin`] (or
/// `PKvStore::begin_served`), whose records, generation header and
/// checkpoint form one dependence level. Holds the region quiesced until
/// committed or dropped; nothing is visible until the level is awaited
/// and the heads flip on its receipt ([`KvPendingBatch::commit`], or a
/// window's `KvPendingBatch::publish`). Its heads then persist with the
/// shard's next commit. Dropped before its publish, a batch voids its
/// slots.
#[must_use = "a pending batch publishes nothing until committed"]
pub struct KvPendingBatch<'a> {
    store: &'a PKvStore,
    _quiesce: QuiesceGuard<'a>,
    /// The active generation, which the exclusive section keeps active
    /// until the batch drops.
    active: Arc<Active>,
    pub(super) staged: StagedBatch,
    /// Records ‖ header ‖ checkpoint, for a bare commit: the level its
    /// heads depend on. A window issues them into its own level.
    level: Level,
    /// A batch not yet published: the header it found, which a drop
    /// restores past the voided slots.
    restore: Option<LogHeader>,
}

impl KvPendingBatch<'_> {
    /// `true` when the batch staged at least one record, i.e. commit
    /// has persists in flight and heads to publish.
    #[must_use]
    pub fn is_staged(&self) -> bool {
        self.staged.slots.is_some()
    }

    /// Awaits the batch's level and publishes it. Outcomes are reported
    /// in submission order. The heads stay dirty: they persist with the
    /// shard's next commit, and a crash before then loses nothing —
    /// `PKvStore::open` replays the batch's stamped records.
    ///
    /// # Errors
    ///
    /// A propagated crash (complete the batch with
    /// [`PKvStore::recover_batch`] after restart).
    pub fn commit(mut self) -> Result<Vec<KvApplied>, PError> {
        let _label = op_label("kv.apply_batch");
        let durable = std::mem::take(&mut self.level).await_all()?;
        self.publish(&durable)?;
        Ok(std::mem::take(&mut self.staged.outcomes))
    }

    /// Issues the batch's flights into its own level, which
    /// [`KvPendingBatch::commit`] awaits.
    pub(super) fn issue_own(&mut self) -> Result<(), PError> {
        let mut level = std::mem::take(&mut self.level);
        self.issue(&mut level)?;
        self.level = level;
        Ok(())
    }

    /// Every op's outcome, in submission order.
    pub(crate) fn outcomes(&self) -> &[KvApplied] {
        &self.staged.outcomes
    }

    /// What each answer of a served batch records: its first slot and
    /// that record's stamp word (`None` when it staged no record). A
    /// reboot counts the answer only if that slot is below the tail and
    /// still carries that stamp (`PKvStore::answer_published`).
    pub(crate) fn answer_ref(&self) -> Option<(u32, u64)> {
        let rec = self.staged.records.first()?;
        Some((self.staged.first as u32, stamp_word(rec)))
    }

    /// Issues the batch's flights into `level`: records ‖ header ‖ the
    /// heads the shard's previous commit left dirty. Their round-trips
    /// overlap in the device queue. `KvVariant::EarlyPublish` forges the
    /// record flight's receipt instead — PSan's negative control: the
    /// head CAS then publishes still-volatile records, which the
    /// sanitizer flags.
    pub(crate) fn issue(&mut self, level: &mut Level) -> Result<(), PError> {
        let Some((lo, hi)) = self.staged.slots else {
            return Ok(());
        };
        let pmem = &self.store.pmem;
        let span = (hi - lo + RECORD_STRIDE) as usize;
        #[cfg(any(test, feature = "fault-seeds"))]
        let forged = self.store.forges(KvVariant::EarlyPublish, level, lo, span);
        #[cfg(not(any(test, feature = "fault-seeds")))]
        let forged = false;
        if !forged {
            level.issue(pmem, POffset::new(lo), span)?;
        }
        let base = self.active.gen.base;
        let (off, len) = header_range(base);
        level.issue(pmem, off, len)?;
        if let Some(dirty) = self.restore.and_then(|found| found.dirty) {
            let (off, len) = heads_range(base, dirty);
            level.issue(pmem, off, len)?;
        }
        Ok(())
    }

    /// The publish, on `durable`, the receipt of the awaited level that
    /// carried the batch: flips each touched bucket's head once, to the
    /// newest staged record (intermediate staged heads are never
    /// published, so per bucket the batch is all-or-nothing) — the
    /// image's by CAS, then the index's, which readers see. Under PSan
    /// the receipt's ranges on this region must be durable now.
    pub(crate) fn publish(&mut self, durable: &Durable) -> Result<(), PError> {
        // The level landed: a reopen would replay the batch, so a drop
        // from here on must not void it.
        self.restore = None;
        let pmem = &self.store.pmem;
        if let Some((lo, hi)) = self.staged.slots {
            durable.check(pmem, POffset::new(lo), (hi - lo + RECORD_STRIDE) as usize);
            let (off, len) = header_range(self.active.gen.base);
            durable.check(pmem, off, len);
            durable.psan_check(pmem);
        }
        for (&bucket, &new_head) in &self.staged.staged_heads {
            let expected = self.staged.pre_heads[&bucket];
            if !pmem.compare_exchange(
                self.store.bucket_off_at(&self.active.gen, bucket),
                &expected.to_le_bytes(),
                &new_head.to_le_bytes(),
            )? {
                return Err(PError::CorruptStack(
                    "bucket head moved under a group commit — every mutation must \
                     run in the region's exclusive section"
                        .into(),
                ));
            }
            self.active.set_head(bucket, new_head);
        }
        Ok(())
    }

    /// The first and last bucket the batch touched.
    fn touched(&self) -> Option<(u64, u64)> {
        let heads = &self.staged.staged_heads;
        Some((*heads.keys().next()?, *heads.keys().next_back()?))
    }

    /// A batch dropped before its publish: its records are rewritten as
    /// stamped voids (kind 0), which replay skips whole, and the header
    /// goes back to what the batch found, with the tail past the voided
    /// slots. Both are issued as a flight that nothing awaits: any later
    /// commit's await completes it first.
    fn void(&mut self) -> Result<(), PError> {
        let Some(mut header) = self.restore.take() else {
            return Ok(());
        };
        let (store, gen) = (self.store, self.active.gen);
        let (first, last) = (self.staged.first, self.staged.last());
        for (i, rec) in self.staged.records.iter_mut().enumerate() {
            let off = store.record_off(&gen, first + i as u64);
            rec[0] = 0;
            stamp(rec, off, gen.number, (first, last), header.epoch);
            store.write_slot(off, rec)?;
        }
        header.tail = last + 1;
        write_header(&store.pmem, gen.base, &header)?;
        let (lo, hi) = self.staged.slots.expect("a staged batch");
        store
            .pmem
            .flush_async(POffset::new(lo), (hi - lo + RECORD_STRIDE) as usize)?;
        let (off, len) = header_range(gen.base);
        store.pmem.flush_async(off, len)?;
        Ok(())
    }
}

impl Drop for KvPendingBatch<'_> {
    fn drop(&mut self) {
        // On a crashed region the void's writes fail: the reboot then
        // replays the batch only if its whole level landed, as it would
        // a commit cut right after its await.
        let _ = self.void();
    }
}

impl PKvStore {
    /// Resolves a mutation's precondition against the chain at `head`,
    /// reading the batch's own staged records from `staged`: `None`
    /// means the precondition failed, `Some(v)` the value the record
    /// must carry (a delete records the value it removed).
    fn resolve_value(
        &self,
        gen: &Gen,
        staged: &StagedBatch,
        head: u64,
        key: u64,
        value: i64,
        precond: &Precond,
    ) -> Result<Option<i64>, PError> {
        let current = || self.lookup_staged(gen, staged, head, key);
        match precond {
            Precond::None => Ok(Some(value)),
            Precond::Exists => current(),
            Precond::ValueIs(expected) => Ok((current()? == Some(*expected)).then_some(value)),
        }
    }

    /// `key`'s value along the chain at `head`: the batch's staged
    /// records (every one at or above its first slot) from `staged`,
    /// the rest from the log.
    fn lookup_staged(
        &self,
        gen: &Gen,
        staged: &StagedBatch,
        mut head: u64,
        key: u64,
    ) -> Result<Option<i64>, PError> {
        let first = self.record_off(gen, staged.first);
        while head >= first {
            let rec = &staged.records[((head - first) / RECORD_STRIDE) as usize];
            let (kind, k, value, _, next) = decode_record(rec);
            if k == key {
                return Ok((kind != KIND_DEL).then_some(value));
            }
            head = next;
        }
        self.lookup_from(head, key, gen.number)
    }

    /// The staging step of a group commit: resolve preconditions
    /// against the staged chain state and build the records in
    /// volatile memory, in slots from `tail` on. Reserving is counting:
    /// the caller holds the region quiesced, so the slots are its own,
    /// and the tail is written once, in the header the level persists.
    /// The pre-batch heads are `active`'s. A served batch marks each
    /// op's record with its `(slot, claim)`.
    fn stage_batch(
        &self,
        active: &Active,
        ops: &[KvBatchOp],
        served: Option<&[(u32, u32)]>,
        tail: u64,
    ) -> Result<StagedBatch, PError> {
        let gen = &active.gen;
        let mut staged = StagedBatch {
            outcomes: vec![KvApplied::PrecondFailed; ops.len()],
            pre_heads: BTreeMap::new(),
            staged_heads: BTreeMap::new(),
            records: Vec::new(),
            first: tail,
            slots: None,
        };
        for (i, op) in ops.iter().enumerate() {
            let (pid, seq, key, kind, value, precond) = op.parts();
            let bucket = self.bucket_of(key);
            let head = match staged.staged_heads.get(&bucket) {
                Some(&h) => h,
                None => {
                    let h = active.head(bucket);
                    staged.pre_heads.insert(bucket, h);
                    h
                }
            };
            let Some(value) = self.resolve_value(gen, &staged, head, key, value, &precond)? else {
                continue;
            };
            let idx = tail + staged.records.len() as u64;
            if idx >= gen.log_cap {
                staged.outcomes[i] = KvApplied::LogFull;
                continue;
            }
            let mut rec = encode_record(kind, key, value, (pid, seq), head);
            if let Some(&(slot, claim)) = served.and_then(|served| served.get(i)) {
                serve(&mut rec, slot, claim);
            }
            staged.records.push(rec);
            staged
                .staged_heads
                .insert(bucket, self.record_off(gen, idx));
            staged.outcomes[i] = KvApplied::Applied;
        }
        if !staged.records.is_empty() {
            staged.slots = Some((
                self.record_off(gen, staged.first),
                self.record_off(gen, staged.last()),
            ));
        }
        Ok(staged)
    }

    /// Stages a bare group commit and **issues** its level — records ‖
    /// generation header ‖ the checkpoint of the heads the shard's
    /// previous commit left dirty — without publishing. The flights ride
    /// the device queue concurrently, so draining them costs about one
    /// round-trip — and while they are in flight the caller is free to
    /// build other work (another shard's batch) before making this one
    /// visible with [`KvPendingBatch::commit`].
    ///
    /// The returned handle holds the region's exclusive section
    /// ([`PMem::quiesce`](pstack_nvram::PMem::quiesce)) — region-scoped,
    /// not handle-scoped: any
    /// handle opened on this region, clone or independent `open`,
    /// enters it for every mutation, and so does `compact`; so the
    /// generation loaded here cannot be swapped and no bucket head can
    /// move under the batch. Dropping the handle without committing
    /// abandons the staged records as voided orphans — invisible to
    /// lookups, scans and recovery alike.
    ///
    /// # Errors
    ///
    /// A propagated crash (complete the batch with
    /// [`PKvStore::recover_batch`] after restart).
    pub fn apply_batch_begin(&self, ops: &[KvBatchOp]) -> Result<KvPendingBatch<'_>, PError> {
        let _label = op_label("kv.apply_batch");
        let mut pending = self.begin_quiesced(self.pmem.quiesce(), ops, None)?;
        pending.issue_own()?;
        Ok(pending)
    }

    /// A served window's group commit, staged and written but not
    /// issued: op `i` executes request-table slot `served[i].0` under
    /// claim `served[i].1`, which its record names. The window issues
    /// the level ([`KvPendingBatch::issue`]) beside its slots' lines,
    /// awaits it and publishes ([`KvPendingBatch::publish`]). With
    /// `recovery`, the ops run through [`PKvStore::recover_batch`]'s
    /// evidence scans first.
    pub(crate) fn begin_served(
        &self,
        ops: &[KvBatchOp],
        served: &[(u32, u32)],
        recovery: bool,
    ) -> Result<KvPendingBatch<'_>, PError> {
        if recovery {
            return self.recover_batch_begin(ops, Some(served));
        }
        let _label = op_label("kv.apply_batch");
        self.begin_quiesced(self.pmem.quiesce(), ops, Some(served))
    }

    /// Stages and writes a group commit, with the region already
    /// quiesced by `quiesce` — which the pending batch keeps until it
    /// commits — and issues nothing.
    ///
    /// The header is read once and written once. A batch of more than
    /// [`LONG_BATCH`] records sets the header's long bit first, in one
    /// persist, unless a durable header already has it, so that `open`
    /// advances the epoch before any slot it may have reached is reused.
    pub(super) fn begin_quiesced<'a>(
        &'a self,
        quiesce: QuiesceGuard<'a>,
        ops: &[KvBatchOp],
        served: Option<&[(u32, u32)]>,
    ) -> Result<KvPendingBatch<'a>, PError> {
        let active = self.active()?;
        let gen = active.gen;
        let mut header = self.read_header(&gen)?;
        let staged = self.stage_batch(&active, ops, served, header.tail)?;
        let mut pending = KvPendingBatch {
            store: self,
            _quiesce: quiesce,
            active,
            staged,
            level: Level::default(),
            restore: None,
        };
        let Some((lo, _)) = pending.staged.slots else {
            return Ok(pending);
        };
        let long = pending.staged.records.len() as u64 > LONG_BATCH;
        if long && !header.long {
            header.long = true;
            write_header(&self.pmem, gen.base, &header)?;
            let (off, len) = header_range(gen.base);
            self.pmem.flush(off, len)?;
        }
        let (first, last) = (pending.staged.first, pending.staged.last());
        for (i, rec) in pending.staged.records.iter_mut().enumerate() {
            let off = lo + i as u64 * RECORD_STRIDE;
            stamp(rec, off, gen.number, (first, last), header.epoch);
            self.write_slot(off, rec)?;
        }
        // C moves to the previous batch's L, whose heads this level
        // persists — unless a reboot rebuilt heads below it (the keep
        // bit), which this level persists too: then C stays.
        let replay_from = match header.dirty {
            Some(_) if header.keep => header.replay_from,
            Some(_) => header.last_batch,
            None => first,
        };
        let next = LogHeader {
            tail: last + 1,
            replay_from,
            last_batch: first,
            keep: false,
            long,
            dirty: pending.touched(),
            ..header
        };
        write_header(&self.pmem, gen.base, &next)?;
        pending.restore = Some(header);
        Ok(pending)
    }

    /// The persist-order seeds' one move: when this store is `seed`, puts
    /// `[off, off + len)` in `level`'s receipt with no flight behind it
    /// ([`Level::forge`]) and returns `true`.
    #[cfg(any(test, feature = "fault-seeds"))]
    pub(super) fn forges(&self, seed: KvVariant, level: &mut Level, off: u64, len: usize) -> bool {
        let forged = self.variant == seed;
        if forged {
            level.forge(&self.pmem, POffset::new(off), len);
        }
        forged
    }
}
