//! The served window: [`KvServeFunction::execute_window`] runs one batch
//! window's group commits as one level, and a reboot tells an answer
//! whose batch never published from one that was shown.

use pstack_core::{PContext, PError};
use pstack_nvram::{op_label, Level};

use super::{KvServeFunction, KvTaskAnswer, KvTaskOp, KvTaskResult, ShardWindow};
use crate::reqtable::{split_id, KvRequestTable};
use crate::store::KvBatchOp;

/// One shard's slots still to execute in a window, `(slot, req_id)`,
/// beside their ops and each slot's claim.
type ToExecute = (Vec<(u32, u64)>, Vec<KvBatchOp>, Vec<(u32, u32)>);

impl KvServeFunction {
    /// Executes one batch window — every shard it names — as **one**
    /// level, every flight of it sharing one round-trip because nothing
    /// orders them (no shard's persist is ordered against another's):
    ///
    /// `CALL` ‖ per shard: its slots' lines ‖ records ‖ header ‖ the
    /// heads its previous commit flipped.
    ///
    /// Per shard, the slots are read — answered slots skipped, their
    /// answers re-collected — and the rest staged as a group commit
    /// ([`PKvStore::apply_batch`](crate::PKvStore::apply_batch), or the
    /// evidence-scanning
    /// [`PKvStore::recover_batch`](crate::PKvStore::recover_batch) for a
    /// shard marked `recovery`) whose records name each slot and its
    /// claim. Only then, once nothing but a power failure can fail,
    /// every slot's answer is written ([`KvRequestTable::answer`]: the
    /// slot's one line, its descriptor with its answer) and the level
    /// issued; the window's `frame` ([`PContext::frame_durable`]) and
    /// the level are awaited, each shard's heads flip on the receipt,
    /// and the `(req_id, answer)` pairs are returned for acking. The
    /// heads persist with the shard's next commit; a reboot replays the
    /// stamped log into them. So a window waits one round-trip however
    /// many shards it names; its `RET` is retired into the next window's
    /// `CALL` (a replay of a completed window is safe: see
    /// `pstack_core::invoke`). `frame` is the context whose root frame
    /// the window runs in; a caller running no frame passes `None`.
    ///
    /// # The replay's check
    ///
    /// A cut can land any part of the level, and a reboot keeps two
    /// rules (`store/recovery.rs`, `reqtable.rs`):
    ///
    /// - **A record is never published without its descriptor.** Each
    ///   record names its slot and a claim its execution took, which
    ///   only the slot's answer line records, and a reboot publishes
    ///   the newest batch only if every slot it names holds that claim,
    ///   answered, or a later one; otherwise it voids the batch before
    ///   the shard admits anything. Every earlier batch was awaited
    ///   whole, slots included. So a slot left pending — a preloaded
    ///   one too — has published nothing.
    /// - **An answer is shown only if its batch is published.** An
    ///   answer records its batch's first slot and that record's stamp
    ///   word, and one recorded before the boot counts only if that
    ///   slot is below the tail the boot found and still carries that
    ///   stamp; otherwise it was never shown, and it is taken back
    ///   before anything re-executes its slot. A shown answer passes:
    ///   its level was awaited. A no-effect answer — a cas that failed,
    ///   a delete of an absent key, a `LogFull` — records its batch too,
    ///   so it goes with a batch that did not publish: it was computed
    ///   against that batch's staged state. A batch that staged nothing
    ///   records nothing and always counts: it read only heads that
    ///   awaited levels flipped, which a reboot replays.
    ///
    /// Two frames replaying one slot still give one effect: only the
    /// group commit's exclusive section runs the evidence scan and the
    /// re-execution, and each replay writes and awaits its answers
    /// before it leaves the section: the second to enter finds the
    /// first's record, or re-executes a no-effect op whose answer no one
    /// has seen.
    ///
    /// A window never carries a read — the server answers those at
    /// admission and a harness answers its own, both through
    /// [`ShardedKvStore::get_durable`](crate::ShardedKvStore::get_durable), the one read path — so a `Get`
    /// descriptor here is a caller's error, not a second way to read.
    ///
    /// # Errors
    ///
    /// A window [`KvServeFunction::window_args`] could not carry (a
    /// shard out of range, named twice or out of order, a slot out of
    /// range) or a get descriptor ([`PError::Task`]); propagated
    /// store/NVRAM errors.
    pub fn execute_window(
        &self,
        window: &[ShardWindow],
        executor: u32,
        frame: Option<&mut PContext<'_>>,
    ) -> Result<Vec<(u64, KvTaskAnswer)>, PError> {
        self.check(window)?;
        let _label = op_label(if window.iter().any(|part| part.recovery) {
            "server.window.recover"
        } else {
            "server.window"
        });
        let mut ready: Vec<(u64, KvTaskAnswer)> = Vec::new();
        // Per shard with ops to execute: its table, its staged
        // (slot, req_id)s and its group commit, staged in the window's
        // (ascending) shard order.
        let mut parts = Vec::with_capacity(window.len());
        let mut batches = Vec::new();
        for part in window {
            let table = &self.tables[part.shard as usize];
            let (staged, ops, served) = self.read_slots(table, part, &mut ready)?;
            if ops.is_empty() {
                continue;
            }
            let pstore = self.store.shard(part.shard as usize);
            batches.push(pstore.begin_served(&ops, &served, part.recovery)?);
            parts.push((table, staged, ops));
        }
        // CALL ‖ slots ‖ records ‖ header ‖ heads: the answers, then each
        // commit's flights, into one level.
        let mut level = Level::default();
        for ((table, staged, ops), batch) in parts.iter().zip(&mut batches) {
            let mut entries = Vec::with_capacity(ops.len());
            for ((&(slot, req_id), op), &outcome) in staged.iter().zip(ops).zip(batch.outcomes()) {
                let result = match op {
                    KvBatchOp::Put { .. } => KvTaskResult::Stored(outcome.took_effect()),
                    KvBatchOp::Delete { .. } => KvTaskResult::Deleted(outcome.took_effect()),
                    KvBatchOp::Cas { .. } => KvTaskResult::Swapped(outcome.took_effect()),
                };
                entries.push((slot, executor, result));
                ready.push((req_id, KvTaskAnswer { executor, result }));
            }
            table.answer(&entries, batch.answer_ref(), &mut level)?;
            batch.issue(&mut level)?;
        }
        if let Some(ctx) = frame {
            ctx.frame_durable()?;
        }
        // Awaited with every shard's exclusive section still held: no
        // later commit or compaction on a shard runs before its batch is
        // durable, and a second replay of a slot (two frames naming it,
        // recovered in parallel) writes its answer after this one's.
        {
            let _label = op_label("kv.apply_batch");
            let durable = level.await_all()?;
            for batch in &mut batches {
                batch.publish(&durable)?;
            }
        }
        drop(batches);
        Ok(ready)
    }

    /// Reads one shard's part of a window: the `(slot, req_id)`, the
    /// op and the `(slot, claim)` of every slot still to execute — a
    /// fresh claim for the execution
    /// ([`KvRequestTable::execution_claim`]); an
    /// answered slot's answer goes to `ready` instead, if it counts
    /// ([`KvRequestTable::result`] takes back one recorded before the
    /// boot whose batch never published, and the slot runs again).
    fn read_slots(
        &self,
        table: &KvRequestTable,
        part: &ShardWindow,
        ready: &mut Vec<(u64, KvTaskAnswer)>,
    ) -> Result<ToExecute, PError> {
        let mut staged = Vec::new();
        let mut ops = Vec::new();
        let mut served = Vec::new();
        for &slot in &part.slots {
            let req_id = table.req_id(slot)?;
            if req_id == 0 {
                // A replayed frame whose descriptor never became durable
                // (the window's level met the power failure): nothing
                // ran on its behalf and nothing may — the client's retry
                // is fresh.
                continue;
            }
            if let Some(answer) = table.result(slot)? {
                ready.push((req_id, answer)); // published: replay only
                continue;
            }
            let (pid, seq) = (u64::from(split_id(req_id).0), req_id);
            staged.push((slot, req_id));
            served.push((slot, table.execution_claim(slot)));
            ops.push(match table.op(slot)? {
                KvTaskOp::Get { .. } => {
                    return Err(PError::Task(format!(
                        "slot {slot} of shard {} holds a get: reads are answered at admission",
                        part.shard
                    )));
                }
                KvTaskOp::Put { key, value } => KvBatchOp::Put {
                    pid,
                    seq,
                    key,
                    value,
                },
                KvTaskOp::Delete { key } => KvBatchOp::Delete { pid, seq, key },
                KvTaskOp::Cas { key, expected, new } => KvBatchOp::Cas {
                    pid,
                    seq,
                    key,
                    expected,
                    new,
                },
            });
        }
        Ok((staged, ops, served))
    }
}
