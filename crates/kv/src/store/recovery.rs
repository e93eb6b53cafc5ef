//! Recovery: the log replay that rebuilds the heads commits left dirty
//! (`PKvStore::replay_log`, run by `PKvStore::open`), the evidence scan
//! of NSRL recovery — an interrupted operation linearized iff some
//! published record carries its `(pid, seq)` tag
//! ([`PKvStore::recover_batch`]) — and the check that a served answer's
//! batch was published (`PKvStore::answer_published`).
//!
//! # The replay
//!
//! A group commit — bare, or a served window's — persists its records
//! and the generation header in one level and flips its heads on that
//! level's receipt; the heads persist with the shard's next commit. So
//! after a power failure the durable heads may lag the log, and the log
//! is the truth: every head a record below the header's `C` needs is
//! durable, and `[C, tail)` holds whole batches, each a run of records
//! stamped with one batch word and one epoch (`store/layout.rs`). The
//! replay reads them in one access, walks them in order and points each
//! record's bucket at it — a record's `next` is the head it replaced
//! when it was staged, so the chains need no rewriting. A voided batch
//! — one dropped before its publish — is skipped whole.
//!
//! Every batch before the header's `L` was awaited whole before the
//! next commit began, so the replay asks it only to be whole. The batch
//! at `L` is the newest, and the only one a cut can have caught: its
//! level may have landed in part. So it replays only if
//!
//! - it is whole, every slot stamped with the epoch of the header that
//!   names it (a reusing batch whose header landed and whose records
//!   did not shows the lost batch's older stamps), and
//! - every request-table slot its served records name holds that
//!   record's claim, answered, or a later one. A served record names the
//!   claim its execution took, which only the slot's answer line
//!   records; that line flies beside the records — the descriptor, with
//!   its answer — and a cut can land the records and the header without
//!   it. Publishing that batch would let the client's retry run `Fresh`
//!   (a second effect), or leave a preloaded slot pending over its own
//!   record, for `pending_tasks` to run again. "Or a later one",
//!   because a slot whose answer was shown may since have been recycled
//!   — by an ack, or by its client's next request — and that later line
//!   may have landed while the header after it did not; to void the
//!   batch then would take back a shown effect.
//!
//! A batch at `L` that fails is voided: the tail goes back to `L` and
//! the epoch advances, in one awaited persist, before the shard admits
//! anything — its slots are then free, and its stamps can never again
//! validate. (A batch before `L` that is not whole can only be a corrupt
//! image; the replay stops there the same way.)
//!
//! # What a reboot persists
//!
//! The heads it rebuilds ride the shard's next commit: they are written
//! back in volatile memory and the header's dirty span grows to cover
//! them (also in volatile memory). If the reboot rebuilt any, it sets
//! the header's keep bit, so the next commit — whose level persists
//! them — leaves `C` where it is; the commit after that moves it. A cut
//! before then replays the same batches again. Any of these volatile
//! writes may land early: each says what the durable image already
//! implies.
//!
//! The slots past the tail are reused, and a record a cut batch left in
//! one must never validate as part of the batch that reuses it. Each
//! stamp covers its batch's first and last slot and its epoch, so a
//! later batch in the same slots differs from it in its epoch or its
//! extent — provided the epoch has advanced since. So the epoch
//! advances, in one persist of the header (with the rebuilt heads
//! beside it), exactly when a cut batch can have left stamped records of
//! the current epoch past the durable tail: when the replay stopped
//! short of the tail, when the long bit says a batch longer than
//! `LONG_BATCH` may have been cut, or when one read of the `LONG_BATCH`
//! slots past the tail finds a record stamped in the current epoch. A
//! batch begins at the durable tail and holds at most `LONG_BATCH`
//! records unless the long bit is durable, so that read sees every slot
//! a cut batch can have written; a boot with nothing there persists
//! nothing at all. `L` then moves to the tail, where no batch of the new
//! epoch is yet.

use pstack_core::PError;
use pstack_nvram::{op_label, Level};

use super::layout::{
    header_range, heads_range, served, stamp_word, stamped, write_header, Gen, LogHeader,
    RecordBytes, KIND_DEL, KIND_PUT, LONG_BATCH,
};
use super::{KvApplied, KvBatchOp, KvPendingBatch, PKvStore, VersionRecord};

/// Asks a shard's request table whether every `(slot, claim)` given
/// holds that claim, answered, or a later one: what the replay requires of the
/// newest batch's served records (`ShardedKvStore::open` passes the
/// table its shard root names).
pub(crate) type ClaimCheck<'a> = &'a dyn Fn(&[(u32, u32)]) -> Result<bool, PError>;

/// What a reboot found: the active generation and its tail once the
/// replay was done. An answer recorded before the reboot counts only
/// against this tail (`PKvStore::answer_published`).
#[derive(Debug, Clone, Copy)]
pub(super) struct Boot {
    gen: Gen,
    tail: u64,
}

/// One whole batch of the log, as the replay reads it.
struct LoggedBatch {
    /// `(slot offset, key)` of every record, in slot order.
    records: Vec<(u64, u64)>,
    /// The `(slot, claim)` of every served record.
    served: Vec<(u32, u32)>,
    /// Dropped before its publish: skipped whole.
    void: bool,
    /// The slot index past its last record.
    end: u64,
}

impl PKvStore {
    /// Replays the log of `gen`, the active generation, from `C` (see the module
    /// doc): the heads it rebuilds ride the next commit, and the epoch
    /// advances, in one awaited level, only when a cut batch can have
    /// left records of it past the tail. `claims` checks the newest
    /// batch's served records against their request table; without it
    /// a served batch at `L` is refused, never guessed at. The caller
    /// holds the region's exclusive section. The replay reads and writes
    /// the image's heads: the index is built from them after it.
    pub(super) fn replay_log(
        &self,
        gen: Gen,
        claims: Option<ClaimCheck<'_>>,
    ) -> Result<Boot, PError> {
        let header = self.read_header(&gen)?;
        let dirty_fits = header
            .dirty
            .map_or(true, |(lo, hi)| lo <= hi && hi < self.nbuckets);
        if header.tail > gen.log_cap
            || header.replay_from > header.tail
            || !(header.replay_from..=header.tail).contains(&header.last_batch)
            || !dirty_fits
        {
            return Err(PError::CorruptStack(format!(
                "KV generation {} header {header:?} names slots or buckets it does not have",
                gen.number
            )));
        }
        let last = header.last_batch;
        let log = self.read_slots(&gen, header.replay_from, header.tail - header.replay_from)?;
        let mut at = header.replay_from;
        let mut rebuilt: Option<(u64, u64)> = None;
        while at < header.tail {
            // The batch at L is the newest and carries the header's
            // epoch; each before it was awaited whole before the next
            // began, and none spans L.
            let epoch = (at == last).then_some(header.epoch);
            let batch =
                match self.logged_batch(&gen, &log, header.replay_from, at, header.tail, epoch) {
                    Some(batch) if at >= last || batch.end <= last => batch,
                    _ => break,
                };
            // The newest batch's served records need their slots' claims.
            let served = at == last && !batch.void && !batch.served.is_empty();
            if served {
                let claims = claims.ok_or_else(|| {
                    PError::InvalidConfig(
                        "the newest batch is a served window's: open its shard with \
                         ShardedKvStore::open, which checks its request table"
                            .into(),
                    )
                })?;
                if !claims(&batch.served)? {
                    break;
                }
            }
            if !batch.void {
                for (off, key) in batch.records {
                    let bucket = self.bucket_of(key);
                    let head = self.bucket_off_at(&gen, bucket);
                    if self.pmem.read_u64(head)? != off {
                        self.pmem.write_u64(head, off)?;
                        rebuilt = Some(rebuilt.map_or((bucket, bucket), |(lo, hi)| {
                            (lo.min(bucket), hi.max(bucket))
                        }));
                    }
                }
            }
            at = batch.end;
        }
        let advance =
            at < header.tail || header.long || self.stamped_past(&gen, at, header.epoch)?;
        if advance {
            // A cut level leaves `C` where it was, so the next boot
            // replays the same batches; `L` moves to the tail, where no
            // batch of the new epoch is yet.
            let next = LogHeader {
                tail: at,
                last_batch: at,
                epoch: header.next_epoch(),
                keep: false,
                long: false,
                dirty: None,
                ..header
            };
            write_header(&self.pmem, gen.base, &next)?;
            let mut level = Level::default();
            let (off, len) = header_range(gen.base);
            level.issue(&self.pmem, off, len)?;
            if let Some(span) = rebuilt {
                let (off, len) = heads_range(gen.base, span);
                level.issue(&self.pmem, off, len)?;
            }
            level.await_all()?;
        } else if let Some((lo, hi)) = rebuilt {
            // The rebuilt heads ride the next commit, which keeps C.
            let dirty = header
                .dirty
                .map_or((lo, hi), |(dlo, dhi)| (dlo.min(lo), dhi.max(hi)));
            let next = LogHeader {
                keep: true,
                dirty: Some(dirty),
                ..header
            };
            write_header(&self.pmem, gen.base, &next)?;
        }
        Ok(Boot { gen, tail: at })
    }

    /// `true` when one of the [`LONG_BATCH`] slots from `tail` holds a
    /// record stamped in `epoch`: a cut batch's, which a later batch of
    /// that epoch in the same slots could be taken for. One read.
    fn stamped_past(&self, gen: &Gen, tail: u64, epoch: u32) -> Result<bool, PError> {
        let n = LONG_BATCH.min(gen.log_cap - tail);
        let past = self.read_slots(gen, tail, n)?;
        Ok(past.iter().zip(tail..).any(|(rec, idx)| {
            stamped(rec, self.record_off(gen, idx), gen.number).is_some_and(|(_, e)| e == epoch)
        }))
    }

    /// The batch whose first slot is `at`, if it is whole below `tail`:
    /// every slot from its first to its last stamped with that extent
    /// and one epoch — `epoch`, when given — each record a put, a
    /// delete or a void; one void makes the whole batch void. `log`
    /// holds the slots from index `from`.
    fn logged_batch(
        &self,
        gen: &Gen,
        log: &[RecordBytes],
        from: u64,
        at: u64,
        tail: u64,
        epoch: Option<u32>,
    ) -> Option<LoggedBatch> {
        let mut batch = LoggedBatch {
            records: Vec::new(),
            served: Vec::new(),
            void: false,
            end: at,
        };
        let mut want = epoch;
        for idx in at..tail {
            let off = self.record_off(gen, idx);
            let rec = &log[(idx - from) as usize];
            let ((first, last), epoch) = stamped(rec, off, gen.number)?;
            if first != at || last < idx || last >= tail || *want.get_or_insert(epoch) != epoch {
                return None;
            }
            match rec[0] {
                KIND_PUT | KIND_DEL => {}
                // A drop voids every slot of its batch; a batch with
                // some voided was cut mid-drop, and never published.
                0 => batch.void = true,
                _ => return None,
            }
            batch.records.push((
                off,
                u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
            ));
            batch.served.extend(served(rec));
            if idx == last {
                batch.end = idx + 1;
                return Some(batch);
            }
        }
        None
    }

    /// `true` when a served answer recorded before this boot reports a
    /// published batch: the batch's first slot `first` lies below the
    /// tail the boot found and still carries `stamp`, the stamp word the
    /// answer recorded of it, and the batch it begins is whole and not
    /// voided, as the replay judges it — in the generation the boot
    /// found active, or in one retired before it, below that
    /// generation's tail. One read of the first record for an answer of
    /// the boot's generation, and one more of the batch's others.
    ///
    /// A shown answer passes: its level was awaited, so its batch was
    /// whole below the durable tail, and the replay keeps it (module
    /// doc). An answer whose level was cut fails, for good: its batch
    /// was voided — the tail went back below it and its epoch can no
    /// longer validate — or its header never landed, so its first slot
    /// is at or past the tail, and any batch that reuses that slot
    /// writes another stamp. A store opened by `format` has no boot:
    /// every answer is this run's, and passes. Under the `NoScan` seed
    /// the check is skipped and fails.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] for a slot past every generation's log
    /// (the answer's words are read back from a reboot's image);
    /// propagated NVRAM errors.
    pub(crate) fn answer_published(&self, first: u32, stamp: u64) -> Result<bool, PError> {
        if !self.variant.scans_evidence() {
            return Ok(false);
        }
        let Some(boot) = self.boot else {
            return Ok(true);
        };
        let first = u64::from(first);
        let mut in_a_log = false;
        let mut carries = |gen: &Gen, tail: u64| -> Result<bool, PError> {
            in_a_log |= first < gen.log_cap;
            if first >= tail {
                return Ok(false);
            }
            let off = self.record_off(gen, first);
            let head = self.read_slot(off)?;
            let last = match stamped(&head, off, gen.number) {
                Some(((_, last), _)) if stamp_word(&head) == stamp && last < tail => last,
                _ => return Ok(false),
            };
            // The rest of the batch, as the replay judged it: whole and
            // not voided by a drop.
            let log = match last - first {
                0 => vec![head],
                n => self.read_slots(gen, first, n + 1)?,
            };
            let batch = self.logged_batch(gen, &log, first, first, tail, None);
            Ok(batch.is_some_and(|batch| !batch.void))
        };
        if carries(&boot.gen, boot.tail)? {
            return Ok(true);
        }
        let mut prev = self.prev_gen(boot.gen.base, boot.gen.number)?;
        while let Some(gen) = prev {
            if carries(&gen, self.read_header(&gen)?.tail)? {
                return Ok(true);
            }
            prev = self.prev_gen(gen.base, gen.number)?;
        }
        if !in_a_log {
            return Err(PError::CorruptStack(format!(
                "an answer names log slot {first}, past every generation's log"
            )));
        }
        Ok(false)
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
        let bucket = self.bucket_of(key);
        for gen in self.gens() {
            let gen = gen?;
            for hop in self.records_from(self.head_in(&gen, bucket)?, gen.number) {
                let (_, rec) = hop?;
                if rec.pid == pid && rec.seq == seq {
                    return Ok(Some(rec));
                }
            }
        }
        Ok(None)
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
        let mut pending = self.recover_batch_begin(ops, None)?;
        pending.issue_own()?;
        pending.commit()
    }

    /// [`PKvStore::recover_batch`] up to its group commit: the evidence
    /// scans, then the remainder staged and written
    /// (`PKvStore::begin_quiesced`), a served batch's records naming
    /// `served[i]` for op `i`; nothing issued. The pending batch reports
    /// every op's outcome, evidenced ones `Applied`.
    pub(super) fn recover_batch_begin(
        &self,
        ops: &[KvBatchOp],
        served: Option<&[(u32, u32)]>,
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
        let mut rest_served = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let (pid, seq) = op.tag();
            if self.variant.scans_evidence() && self.find_tag(op.key(), pid, seq)?.is_some() {
                outcomes[i] = KvApplied::Applied;
            } else {
                rest.push(op);
                rest_idx.push(i);
                rest_served.extend(served.map(|served| served[i]));
            }
        }
        let served = served.map(|_| rest_served.as_slice());
        let mut pending = self.begin_quiesced(quiesce, &rest, served)?;
        for (i, &outcome) in rest_idx.into_iter().zip(&pending.staged.outcomes) {
            outcomes[i] = outcome;
        }
        pending.staged.outcomes = outcomes;
        Ok(pending)
    }
}
