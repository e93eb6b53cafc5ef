//! The evidence scans of NSRL recovery: an interrupted operation
//! linearized iff some published record carries its `(pid, seq)` tag
//! ([`PKvStore::recover_batch`]), and a served answer's batch committed
//! iff the heads reach its record span (`PKvStore::span_published`).

use pstack_core::PError;
use pstack_nvram::op_label;

use super::layout::RECORD_STRIDE;
use super::{KvApplied, KvBatchOp, KvPendingBatch, PKvStore, VersionRecord};

impl PKvStore {
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
}
