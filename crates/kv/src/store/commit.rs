//! The group commit: staging, [`KvPendingBatch`] and its levels.
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

use std::collections::BTreeMap;

use pstack_core::PError;
use pstack_nvram::{op_label, Durable, Level, POffset, QuiesceGuard};

use super::layout::{Gen, GEN_OFF_LOG_TAIL, KIND_DEL, KIND_PUT, RECORD_STRIDE};
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

/// What staging a group commit produced: records written (volatile), per
/// touched bucket the durable pre-batch head and the staged head to
/// publish, the `[lo, hi]` slot span (`None` when nothing staged) and
/// the log tail that reserved it.
pub(super) struct StagedBatch {
    pub(super) outcomes: Vec<KvApplied>,
    pub(super) pre_heads: BTreeMap<u64, u64>,
    pub(super) staged_heads: BTreeMap<u64, u64>,
    pub(super) slots: Option<(u64, u64)>,
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
    pub(super) staged: StagedBatch,
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

impl PKvStore {
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

    /// The staging step of a group commit: resolve preconditions
    /// against the staged chain state, reserve slots, write records (volatile). The
    /// caller holds the region quiesced.
    pub(super) fn stage_batch(&self, gen: &Gen, ops: &[KvBatchOp]) -> Result<StagedBatch, PError> {
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
    /// ([`PMem::quiesce`](pstack_nvram::PMem::quiesce)) — region-scoped,
    /// not handle-scoped: any
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
    pub(super) fn begin_quiesced<'a>(
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
    pub(super) fn forges(&self, seed: KvVariant, level: &mut Level, off: u64, len: usize) -> bool {
        let forged = self.variant == seed;
        if forged {
            level.forge(&self.pmem, POffset::new(off), len);
        }
        forged
    }
}
