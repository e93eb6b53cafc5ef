//! The served window: [`KvServeFunction::execute_window`] runs one batch
//! window's group commits as the window's levels, and its replay voids
//! an answer whose batch never committed.

use pstack_core::{PContext, PError};
use pstack_nvram::{op_label, Level};

use super::{KvServeFunction, KvTaskAnswer, KvTaskOp, KvTaskResult, ShardWindow};
use crate::reqtable::{split_id, KvRequestTable};
use crate::store::{Heads, KvBatchOp};

/// One shard's slots still to execute in a window, `(slot, req_id)`,
/// beside their ops.
type ToExecute = (Vec<(u32, u64)>, Vec<KvBatchOp>);

impl KvServeFunction {
    /// Executes one batch window — every shard it names — as the
    /// window's levels (each arrow an await, `‖` flights that share a
    /// round-trip because nothing orders them; no shard's persist is
    /// ordered against another's):
    ///
    /// 1. `CALL` ‖ descriptors ‖ records ‖ header: per shard, the slots
    ///    read, answered slots skipped (their answers are re-collected;
    ///    a replay voids some, below) and the rest begun as a group
    ///    commit whose heads go into the window's next level
    ///    ([`PKvStore::apply_batch`](crate::PKvStore::apply_batch), or
    ///    the evidence-scanning
    ///    [`PKvStore::recover_batch`](crate::PKvStore::recover_batch)
    ///    for a shard marked `recovery`) — its header moves the log's
    ///    replay point past the window's records, which are never
    ///    replayed, so a shard whose heads bare commits left dirty
    ///    checkpoints them first, in one awaited level (once, after a
    ///    preload); then the window's `frame`
    ///    ([`PContext::frame_durable`]) and every shard's descriptors
    ///    ([`KvRequestTable::persist_slots_if_dirty`]) awaited: nothing
    ///    is published before a replay can find the frame, or on behalf
    ///    of a descriptor that is not durable. Until then the records are
    ///    unpublished log slots — a crash leaves them orphans and the
    ///    requests pending (`pstack_core::invoke` argues it);
    /// 2. → heads ‖ answers, every shard's in one level: each commit's
    ///    heads — its commit point — and beside them its answers
    ///    ([`KvRequestTable::answer`], each recording the commit's
    ///    record span), awaited before any `(req_id, answer)` pair is
    ///    returned for acking: an answer is shown only once its effect
    ///    is durable.
    ///
    /// So a window blocks on the same round-trips — `CALL` ‖
    /// descriptors ‖ records ‖ header → heads ‖ answers — however many
    /// shards it names; its `RET` is retired into the next window's
    /// `CALL` (a replay of a completed window is safe: see
    /// `pstack_core::invoke`). `frame` is the context whose root frame
    /// the window runs in; a caller running no frame passes `None`.
    ///
    /// # The replay's check
    ///
    /// An answer line may reach NVRAM before the heads it reports: they
    /// share a level. The invariant is therefore not "a durable answer
    /// implies its effect" but "an answer is shown only after its
    /// effect is durable", and a replayed part (`recovery`) enforces
    /// it: an answered slot whose recorded span the heads do not
    /// wholly reach (`PKvStore::span_published`) is
    /// *voided* — executed as if pending, so the evidence scan keeps
    /// the records whose heads did land and re-executes the rest. Why
    /// that is sound:
    ///
    /// - **A voided answer was never shown.** Answers are returned,
    ///   and so shown, only once the last level is awaited, and an
    ///   awaited level leaves every head of the batch durable — the
    ///   span then is reachable, and stays so: records are never
    ///   unlinked, and a compaction retires a generation with its heads
    ///   as they were. An unreached span means that level was cut.
    /// - **Answers of an earlier, settled batch are never voided.** A
    ///   shown answer's span is reachable by the rule above, and so is
    ///   that of every answer its client acked, which the replay checks
    ///   like any other: it does not read the slot's ack mark, which
    ///   may not have landed. And at most one batch per shard is
    ///   unsettled at a power failure: a shard's exclusive section is
    ///   held until its last level is awaited, so no later commit and
    ///   no compaction runs over heads that are not durable.
    /// - **A no-effect answer goes with its batch.** A cas that failed,
    ///   a delete of an absent key, a `LogFull` — they stage no record,
    ///   but they share their batch's span, so they are voided with the
    ///   rest of an unsettled batch: they were computed against its
    ///   staged state. Their re-execution may answer otherwise (a
    ///   `LogFull` where the lost run found room, say), which is
    ///   sound because the voided answer was never shown. A batch that
    ///   staged nothing records no span and is never voided: it read
    ///   only heads that earlier, settled batches made durable, or that
    ///   bare commits flipped over a stamped log a reopen replays.
    /// - **Two frames replaying one slot still give one effect.** A
    ///   replay that reads the slot after the other rewrote it finds a
    ///   reachable span and only re-collects; one that read it before
    ///   stages it too. Either way only the group commit's exclusive
    ///   section runs the evidence scan and the re-execution, and each
    ///   replay writes and awaits its answers before it leaves the
    ///   section: the second to enter finds the first's record, or
    ///   re-executes a no-effect op whose answer no one has seen.
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
    /// range) or a get descriptor ([`PError::Task`]); in a replayed
    /// part, an answer whose recorded span is not an ordered
    /// run of one generation's log slots ([`PError::CorruptStack`]); or
    /// propagated store/NVRAM errors.
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
        // CALL ‖ descriptors ‖ records ‖ header. Per shard with ops to
        // execute: its table, its staged (slot, req_id)s and its group
        // commit, the ops' order. Shards are begun in the window's
        // (ascending) order.
        let mut parts = Vec::with_capacity(window.len());
        let mut batches = Vec::new();
        for part in window {
            let table = &self.tables[part.shard as usize];
            let (staged, ops) = self.read_slots(table, part, &mut ready)?;
            if ops.is_empty() {
                continue;
            }
            let pstore = self.store.shard(part.shard as usize);
            batches.push(if part.recovery {
                pstore.recover_batch_begin(&ops, Heads::CallerLevel)?
            } else {
                pstore.begin(&ops, Heads::CallerLevel)?
            });
            parts.push((table, staged, ops));
        }
        // What the heads depend on beyond their records: the frame, which
        // a replay must find, and the descriptors — nothing is published
        // on behalf of one that is not durable. Both awaits are
        // idempotent, and free once done.
        if let Some(ctx) = frame {
            ctx.frame_durable()?;
        }
        for part in window {
            self.tables[part.shard as usize].persist_slots_if_dirty(&part.slots)?;
        }
        // → heads ‖ answers: every shard's heads, then its answers, into
        // one level.
        let mut level = Level::default();
        {
            let _label = op_label("kv.apply_batch");
            for batch in &mut batches {
                batch.publish(&mut level)?;
            }
        }
        for ((table, staged, ops), batch) in parts.iter().zip(&batches) {
            let (span, records, outcomes) = batch.published();
            let mut entries = Vec::with_capacity(ops.len());
            for ((&(slot, req_id), op), outcome) in staged.iter().zip(ops).zip(outcomes) {
                let result = match op {
                    KvBatchOp::Put { .. } => KvTaskResult::Stored(outcome.took_effect()),
                    KvBatchOp::Delete { .. } => KvTaskResult::Deleted(outcome.took_effect()),
                    KvBatchOp::Cas { .. } => KvTaskResult::Swapped(outcome.took_effect()),
                };
                entries.push((slot, executor, result));
                ready.push((req_id, KvTaskAnswer { executor, result }));
            }
            table.answer(&entries, span, records, &mut level)?;
        }
        // Awaited with every shard's exclusive section still held: no
        // later commit or compaction on a shard runs over heads that
        // are not durable, and a second replay of a slot (two frames
        // naming it, recovered in parallel) writes its answer after
        // this one's.
        let durable = level.await_all()?;
        for batch in &mut batches {
            batch.committed(&durable);
        }
        drop(batches);
        Ok(ready)
    }

    /// Reads one shard's part of a window: the `(slot, req_id)` and the
    /// op of every slot still to execute; an answered slot's answer goes
    /// to `ready` instead — unless the part is a replay and the answer
    /// is unsettled ([`KvServeFunction::unsettled`]), which voids it.
    fn read_slots(
        &self,
        table: &KvRequestTable,
        part: &ShardWindow,
        ready: &mut Vec<(u64, KvTaskAnswer)>,
    ) -> Result<ToExecute, PError> {
        let mut staged = Vec::new();
        let mut ops = Vec::new();
        for &slot in &part.slots {
            let req_id = table.req_id(slot)?;
            if req_id == 0 {
                // A replayed frame whose descriptor never became durable
                // (the drain's persist met the power failure): nothing
                // ran on its behalf and nothing may — the client's retry
                // is fresh.
                continue;
            }
            if let Some(answer) = table.result(slot)? {
                if !(part.recovery && self.unsettled(table, part.shard, slot)?) {
                    ready.push((req_id, answer)); // durable and settled: replay only
                    continue;
                }
            }
            let (pid, seq) = (u64::from(split_id(req_id).0), req_id);
            staged.push((slot, req_id));
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
        Ok((staged, ops))
    }

    /// `true` when answered slot `slot` of `shard` may report a batch
    /// whose heads are not all durable — its recorded span not wholly
    /// reachable — so a replay must void it (see
    /// [`KvServeFunction::execute_window`]).
    fn unsettled(&self, table: &KvRequestTable, shard: u32, slot: u32) -> Result<bool, PError> {
        let Some(span) = table.answer_span(slot)? else {
            return Ok(false);
        };
        Ok(!self.store.shard(shard as usize).span_published(span)?)
    }
}
