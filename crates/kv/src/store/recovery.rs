//! Recovery: the log replay that rebuilds the heads bare commits left
//! dirty (`PKvStore::replay_log`, run by `PKvStore::open`), and the
//! evidence scans of NSRL recovery — an interrupted operation
//! linearized iff some published record carries its `(pid, seq)` tag
//! ([`PKvStore::recover_batch`]), and a served answer's batch committed
//! iff the heads reach its record span (`PKvStore::span_published`).
//!
//! # The replay
//!
//! A bare group commit persists its records and the generation header
//! in one level and flips its heads on that level's receipt; the heads
//! persist with the shard's next commit. So after a power failure the
//! durable heads may lag the log, and the log is the truth: every head
//! a record below the header's `C` needs is durable, and `[C, tail)`
//! holds whole batches, each a run of records stamped with one batch
//! word and one epoch (`store/layout.rs`). The replay walks them in
//! order and points each record's bucket at it — a record's `next` is
//! the head it replaced when it was staged, so the chains need no
//! rewriting. It stops at the first batch that is not whole (its level
//! was cut: nothing of it was published, and its commit never
//! returned) and sets the tail there, so a bare batch is whole or
//! absent per shard. A voided batch — one dropped before its publish —
//! is skipped whole.
//!
//! The slots past the new tail are reused, and a record a cut batch
//! left in one must never validate as part of the batch that reuses
//! it. Each stamp covers its batch's first and last slot, and the
//! replay advances the epoch, so a later batch in the same slots
//! differs in its epoch if not in its extent. The batch at the
//! header's `L` is the newest, and the header that names it carries
//! the epoch it was stamped in: the replay holds it to that epoch, so
//! a reusing batch whose header landed and whose records did not shows
//! the lost batch's older stamps, and the replay stops there. Every
//! batch before `L` was awaited whole before the next commit began,
//! and the slots below the durable tail are never rewritten, so the
//! replay asks it only to be whole. The replay then persists, in one
//! level, the heads it rebuilt and the header — `C` kept, the tail and
//! `L` where it stopped, the next epoch: a cut of that level replays
//! the same batches again, and no batch of the new epoch is at `L`
//! until the next commit writes one. It does so whenever the header's
//! bare bit is set — a window clears that bit, so a served shard
//! reboots persisting nothing. A window's records carry no stamp: they
//! are never replayed, because the header that a window persists with
//! them moves `C` past them, and its descriptor may be lost.

use pstack_core::PError;
use pstack_nvram::{op_label, Level};

use super::commit::Heads;
use super::layout::{
    header_range, heads_range, stamped, write_header, Gen, LogHeader, KIND_DEL, KIND_PUT,
    RECORD_STRIDE,
};
use super::{KvApplied, KvBatchOp, KvPendingBatch, PKvStore, VersionRecord};

/// One whole batch of the log, as the replay reads it.
struct LoggedBatch {
    /// `(slot offset, key)` of every record, in slot order.
    records: Vec<(u64, u64)>,
    /// Dropped before its publish: skipped whole.
    void: bool,
    /// The slot index past its last record.
    end: u64,
}

impl PKvStore {
    /// Replays the active generation's log from `C` (see the module
    /// doc) when the header's bare bit is set, then persists, in one
    /// level, the heads it rebuilt and the header: `C` kept, the tail
    /// and `L` where the replay stopped, and the next epoch. A settled
    /// shard (bit clear) reads the header and persists nothing. Runs in
    /// the region's exclusive section.
    pub(super) fn replay_log(&self) -> Result<(), PError> {
        let _quiesce = self.pmem.quiesce();
        let gen = self.active_gen()?;
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
        if !header.bare {
            return Ok(());
        }
        let last = header.last_batch;
        let mut at = header.replay_from;
        let mut rebuilt: Option<(u64, u64)> = None;
        while at < header.tail {
            // The batch at L is the newest and carries the header's
            // epoch; each before it was awaited whole before the next
            // began, and none spans L.
            let epoch = (at == last).then_some(header.epoch);
            let batch = match self.logged_batch(&gen, at, header.tail, epoch)? {
                Some(batch) if at >= last || batch.end <= last => batch,
                _ => break,
            };
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
        // A cut level leaves `C` where it was, so the next boot replays
        // the same batches; `L` moves to the tail, where no batch of the
        // new epoch is yet.
        let next = LogHeader {
            tail: at,
            last_batch: at,
            epoch: header.next_epoch(),
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
        Ok(())
    }

    /// The batch whose first slot is `at`, if it is whole below `tail`:
    /// every slot from its first to its last stamped with that extent
    /// and one epoch — `epoch`, when given — each record a put, a
    /// delete or a void; one void makes the whole batch void.
    fn logged_batch(
        &self,
        gen: &Gen,
        at: u64,
        tail: u64,
        epoch: Option<u32>,
    ) -> Result<Option<LoggedBatch>, PError> {
        let mut records = Vec::new();
        let mut void = false;
        let mut want = epoch;
        let mut idx = at;
        loop {
            let off = self.record_off(gen, idx);
            let rec = self.read_slot(off)?;
            let Some((batch, epoch)) = stamped(&rec, off, gen.number) else {
                return Ok(None);
            };
            let (first, last) = batch;
            if first != at || last < idx || last >= tail || *want.get_or_insert(epoch) != epoch {
                return Ok(None);
            }
            match rec[0] {
                KIND_PUT | KIND_DEL => {}
                // A drop voids every slot of its batch; a batch with
                // some voided was cut mid-drop, and never published.
                0 => void = true,
                _ => return Ok(None),
            }
            records.push((
                off,
                u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
            ));
            if idx == last {
                break;
            }
            idx += 1;
        }
        Ok(Some(LoggedBatch {
            records,
            void,
            end: idx + 1,
        }))
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
        for gen in self.gens() {
            let gen = gen?;
            let head = self.pmem.read_u64(self.bucket_off(&gen, key))?;
            for hop in self.records_from(head, gen.number) {
                let (_, rec) = hop?;
                if rec.pid == pid && rec.seq == seq {
                    return Ok(Some(rec));
                }
            }
        }
        Ok(None)
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
    /// NVRAM. A retired generation's heads are the durable heads a
    /// compaction read: it runs in the exclusive section a batch keeps
    /// until its heads are awaited, and no generation block is ever
    /// freed, so a span names one generation for good.
    ///
    /// A span is read back from a request table after a crash, so it is
    /// checked before it is trusted: it must be ordered, on the slot
    /// grid and inside one generation's log. Otherwise a reversed span
    /// would name no record and read as reachable, and the replay would
    /// trust its answer.
    ///
    /// Under the `NoScan` seed the scan is skipped and finds nothing:
    /// `false`.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] for a span that is not an ordered run
    /// of one generation's log slots; propagated NVRAM errors.
    pub(crate) fn span_published(&self, (first, last): (u64, u64)) -> Result<bool, PError> {
        if !self.variant.scans_evidence() {
            return Ok(false);
        }
        let malformed = |what: &str| {
            PError::CorruptStack(format!("record span [{first:#x}, {last:#x}] {what}"))
        };
        let gen = self
            .gens()
            .find(|gen| {
                gen.as_ref()
                    .map_or(true, |gen| self.log_range(gen).contains(&first))
            })
            .transpose()?
            .ok_or_else(|| malformed("lies in no generation's log"))?;
        let log = self.log_range(&gen);
        if last < first
            || !log.contains(&last)
            || (first - log.start) % RECORD_STRIDE != 0
            || (last - first) % RECORD_STRIDE != 0
        {
            return Err(malformed(
                "is not an ordered run of one generation's log slots",
            ));
        }
        for off in (first..=last).step_by(RECORD_STRIDE as usize) {
            let (rec, _) = self.read_record(off, gen.number)?;
            let head = self.pmem.read_u64(self.bucket_off(&gen, rec.key))?;
            if !self.records_from(head, gen.number).reaches(off)? {
                return Ok(false);
            }
        }
        Ok(true)
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
        self.recover_batch_begin(ops, Heads::NextCommit)?.commit()
    }

    /// [`PKvStore::recover_batch`] up to its group commit: the evidence
    /// scans, then the remainder begun ([`PKvStore::begin`]), its heads
    /// persisting as `heads` says.
    /// The pending batch reports every op's outcome, evidenced ones
    /// `Applied`.
    pub(crate) fn recover_batch_begin(
        &self,
        ops: &[KvBatchOp],
        heads: Heads,
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
        let mut pending = self.begin_quiesced(quiesce, &rest, heads)?;
        for (i, &outcome) in rest_idx.into_iter().zip(&pending.staged.outcomes) {
            outcomes[i] = outcome;
        }
        pending.staged.outcomes = outcomes;
        Ok(pending)
    }
}
