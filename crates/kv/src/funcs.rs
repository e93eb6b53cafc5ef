//! KV workload descriptors and the recoverable functions gluing the
//! store to the persistent-stack runtime — the KV analogue of the §5.2
//! machinery (`TaskTable` + `CasTaskFunction` / `QueueTaskFunction`).
//!
//! There is **one** executor of KV descriptors, [`KvServeFunction`]:
//! a batch window over slots of any number of shards'
//! [`KvRequestTable`]s, one [`ShardWindow`] per shard. The server drains
//! each round into one such window; a static workload
//! (a campaign, a bench, a property test) is a request table preloaded
//! with every mutation up front ([`KvServeFunction::preload`]) and
//! re-enqueued window by window after every restart
//! ([`KvServeFunction::pending_tasks`]) — the §5.2 loop. Reads are never
//! descriptors: the one read path is [`ShardedKvStore::get_durable`].

use std::sync::Arc;

use pstack_core::{FunctionRegistry, PContext, PError, RecoverableFunction, RetBytes, Task};
use pstack_nvram::{op_label, Level, PMem};
use pstack_verify::{KvAnswer, KvOp, KvOpKind};

use crate::reqtable::{split_id, KvRequestTable, ReqSubmit};
use crate::shard::ShardedKvStore;
use crate::store::{KvBatchOp, KvVariant};

/// Function id under which [`KvServeFunction`] is registered.
pub const KV_SERVE_FUNC_ID: u64 = 0x0FFB;

/// Function id under which [`KvCompactFunction`] is registered.
pub const KV_COMPACT_FUNC_ID: u64 = 0x0FFC;

/// One KV operation descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvTaskOp {
    /// Store `value` under `key`.
    Put {
        /// The key.
        key: u64,
        /// The value to store.
        value: i64,
    },
    /// Read `key`'s current value.
    Get {
        /// The key.
        key: u64,
    },
    /// Remove `key`.
    Delete {
        /// The key.
        key: u64,
    },
    /// Replace `key`'s value with `new` iff it equals `expected`.
    Cas {
        /// The key.
        key: u64,
        /// The value the key must currently hold.
        expected: i64,
        /// The replacement value.
        new: i64,
    },
}
impl KvTaskOp {
    /// The key the operation targets (what the shard router hashes).
    #[must_use]
    pub fn key(&self) -> u64 {
        match *self {
            KvTaskOp::Put { key, .. }
            | KvTaskOp::Get { key }
            | KvTaskOp::Delete { key }
            | KvTaskOp::Cas { key, .. } => key,
        }
    }

    /// The operation as the verifier sees it: tagged `(pid, seq)` and
    /// paired with the answer it was given.
    #[must_use]
    pub fn observed(self, pid: u64, seq: u64, result: KvTaskResult) -> KvOp {
        let (kind, value, expected) = match self {
            KvTaskOp::Put { value, .. } => (KvOpKind::Put, value, 0),
            KvTaskOp::Get { .. } => (KvOpKind::Get, 0, 0),
            KvTaskOp::Delete { .. } => (KvOpKind::Delete, 0, 0),
            KvTaskOp::Cas { expected, new, .. } => (KvOpKind::Cas, new, expected),
        };
        let answer = match result {
            KvTaskResult::Stored(ok) => KvAnswer::Stored(ok),
            KvTaskResult::Got(v) => KvAnswer::Got(v),
            KvTaskResult::Deleted(ok) => KvAnswer::Deleted(ok),
            KvTaskResult::Swapped(ok) => KvAnswer::Swapped(ok),
        };
        KvOp {
            pid,
            seq,
            kind,
            key: self.key(),
            value,
            expected,
            answer,
        }
    }
}

/// A completed descriptor's answer, with the worker that executed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvTaskAnswer {
    /// Worker (process) id that completed the operation — together with
    /// the descriptor index this is the operation's `(pid, seq)` tag.
    pub executor: u32,
    /// The operation's result.
    pub result: KvTaskResult,
}

/// The result payload of a completed KV descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvTaskResult {
    /// Put answer: stored, or rejected because the store's lifetime
    /// version-log capacity was exhausted.
    Stored(bool),
    /// Get answer.
    Got(Option<i64>),
    /// Delete answer: `true` if the key was present.
    Deleted(bool),
    /// Cas answer: `true` if the expected value matched.
    Swapped(bool),
}

/// One shard's share of a batch window: slots of the shard's request
/// table, and whether they run through the evidence-scanning recovery
/// dual ([`PKvStore::recover_batch`](crate::PKvStore::recover_batch)).
/// A window names each shard at most once, in ascending shard order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardWindow {
    /// The shard.
    pub shard: u32,
    /// `true` if any of the slots *might* have executed before (a
    /// retried pending request): the shard's part then runs
    /// [`PKvStore::recover_batch`](crate::PKvStore::recover_batch)
    /// instead of [`PKvStore::apply_batch`](crate::PKvStore::apply_batch).
    pub recovery: bool,
    /// Slots of the shard's request table, in execution order.
    pub slots: Vec<u32>,
}

/// Appends `v` as an unsigned LEB128 varint: 7 bits a byte, low bits
/// first, the top bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one [`put_varint`] from the front of `bytes`, advancing it.
/// A `u32` takes at most five bytes; a varint that runs past the end,
/// runs longer or overflows is a typed error.
fn take_varint(bytes: &mut &[u8]) -> Result<u32, PError> {
    let mut v = 0u32;
    for i in 0..5 {
        let (&b, rest) = bytes
            .split_first()
            .ok_or_else(|| PError::Task("serve window arguments end inside a varint".into()))?;
        *bytes = rest;
        let bits = u32::from(b & 0x7F);
        if i == 4 && bits > 0x0F {
            return Err(PError::Task("serve window varint overflows 32 bits".into()));
        }
        v |= bits << (7 * i);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(PError::Task(
        "serve window varint runs past five bytes".into(),
    ))
}

/// One shard's slots still to execute in a window, `(slot, req_id)`,
/// beside their ops.
type ToExecute = (Vec<(u32, u64)>, Vec<KvBatchOp>);

/// The one executor of KV descriptors: the sharded store plus one
/// request table per shard. Registered as the recoverable function
/// executing batch windows ([`KV_SERVE_FUNC_ID`]): the server's
/// `ServerCore` drains admitted requests into its windows, and every
/// static workload drives it through [`KvServeFunction::preload`] +
/// [`KvServeFunction::pending_tasks`]. It owns the serving layout:
/// [`KvServeFunction::format`] / `preload` record each table's base in
/// its shard's root, [`KvServeFunction::open`] re-attaches from there.
#[derive(Clone)]
pub struct KvServeFunction {
    store: ShardedKvStore,
    tables: Vec<KvRequestTable>,
}

impl KvServeFunction {
    /// Bundles a sharded store with one request table per shard.
    ///
    /// # Panics
    ///
    /// Panics if the table count differs from the store's shard count.
    #[must_use]
    pub fn new(store: ShardedKvStore, tables: Vec<KvRequestTable>) -> Self {
        assert_eq!(store.nshards(), tables.len(), "one request table per shard");
        KvServeFunction { store, tables }
    }

    /// Formats one request table per shard in the shard's own region —
    /// `capacity(shard)` slots — and persists its base in the shard
    /// root: the one routine behind [`KvServeFunction::format`] and
    /// [`KvServeFunction::preload`].
    fn format_tables(
        store: &ShardedKvStore,
        capacity: impl Fn(usize) -> Result<u32, PError>,
    ) -> Result<Vec<KvRequestTable>, PError> {
        (0..store.nshards())
            .map(|shard| {
                let heap = store.heap(shard);
                let table = KvRequestTable::format(heap.pmem().clone(), heap, capacity(shard)?)?;
                store.persist_table_root(shard, table.base())?;
                Ok(table)
            })
            .collect()
    }

    /// A server's durable half: `store` plus one empty
    /// `capacity`-slot request table per shard, each findable again by
    /// [`KvServeFunction::open`].
    ///
    /// # Errors
    ///
    /// Heap, table or NVRAM errors.
    pub fn format(store: ShardedKvStore, capacity: u32) -> Result<Self, PError> {
        let tables = Self::format_tables(&store, |_| Ok(capacity))?;
        Ok(KvServeFunction::new(store, tables))
    }

    /// Re-attaches store and request tables to (re)opened `regions`,
    /// each table from the base its shard root records — the reopen-time
    /// attach of every boot.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad shard root, a root that names
    /// no table, or a table header that overruns its region; NVRAM
    /// errors (a root pointing outside the region among them).
    pub fn open(regions: &[PMem], variant: KvVariant) -> Result<Self, PError> {
        let store = ShardedKvStore::open(regions, variant)?;
        let tables = (0..regions.len())
            .map(|s| KvRequestTable::open(regions[s].clone(), store.table_root(s)?))
            .collect::<Result<_, _>>()?;
        Ok(KvServeFunction::new(store, tables))
    }

    /// The registry of one boot: this executor under
    /// [`KV_SERVE_FUNC_ID`].
    ///
    /// # Errors
    ///
    /// Never for a fresh registry; the signature is `register`'s.
    pub fn registry(&self) -> Result<FunctionRegistry, PError> {
        let mut registry = FunctionRegistry::new();
        registry.register(KV_SERVE_FUNC_ID, self.clone().into_arc())?;
        Ok(registry)
    }

    /// A static workload as a **preloaded request table**: formats one
    /// table per shard in the shard's own region (sized to the shard's
    /// share of `ops`; an idle shard gets a one-slot table), submits
    /// every mutation under request id `((shard + 1) << 32) | (idx + 1)`
    /// — so its store tag `(pid, seq) = (shard + 1, id)` is globally
    /// unique and stable across replays and workers — and makes each
    /// table's descriptors durable with one
    /// [`KvRequestTable::persist_slots`]. `ops` holds mutations only: a
    /// window refuses a get descriptor.
    ///
    /// # Errors
    ///
    /// Heap, table or NVRAM errors.
    pub fn preload(store: ShardedKvStore, ops: &[KvTaskOp]) -> Result<Self, PError> {
        let mut per_shard = vec![Vec::new(); store.nshards()];
        for &op in ops {
            per_shard[store.shard_of(op.key())].push(op);
        }
        let tables = Self::format_tables(&store, |shard| {
            u32::try_from(per_shard[shard].len().max(1))
                .map_err(|_| PError::InvalidConfig("preloaded workload overflows a table".into()))
        })?;
        for (shard, (table, shard_ops)) in tables.iter().zip(&per_shard).enumerate() {
            let mut slots = Vec::with_capacity(shard_ops.len());
            for (idx, &op) in shard_ops.iter().enumerate() {
                let req_id = ((shard as u64 + 1) << 32) | (idx as u64 + 1);
                let ReqSubmit::Fresh(slot) = table.submit(req_id, op)? else {
                    return Err(PError::Task(format!(
                        "shard {shard}'s fresh table refused descriptor {idx}"
                    )));
                };
                slots.push(slot);
            }
            table.persist_slots(&slots)?;
        }
        Ok(KvServeFunction::new(store, tables))
    }

    /// Wraps into the `Arc<dyn RecoverableFunction>` shape the registry
    /// wants.
    #[must_use]
    pub fn into_arc(self) -> Arc<dyn RecoverableFunction> {
        Arc::new(self)
    }

    /// The sharded store being served.
    #[must_use]
    pub fn store(&self) -> &ShardedKvStore {
        &self.store
    }

    /// The per-shard request tables.
    #[must_use]
    pub fn tables(&self) -> &[KvRequestTable] {
        &self.tables
    }

    /// Encodes a batch window as task arguments — the bytes its stack
    /// frame carries, so they are kept small: per shard, in the given
    /// order, a header varint `shard << 1 | recovery`, a varint slot
    /// count, then each slot as a varint (unsigned LEB128). Slot
    /// numbers recycle from a free list, so they stay small and a slot,
    /// like a header or a count under 64, takes one byte: a round of a
    /// few slots on each of four shards fits the 18 bytes a frame can
    /// carry and still share the caller's line (`CALL` then costs one
    /// persist, not two).
    #[must_use]
    pub fn window_args(window: &[ShardWindow]) -> Vec<u8> {
        let mut b = Vec::new();
        for part in window {
            put_varint(&mut b, part.shard << 1 | u32::from(part.recovery));
            put_varint(&mut b, part.slots.len() as u32);
            for &slot in &part.slots {
                put_varint(&mut b, slot);
            }
        }
        b
    }

    /// Decodes [`KvServeFunction::window_args`] and checks the window
    /// against this executor's tables ([`KvServeFunction::check`]). A
    /// frame's arguments are read back after a crash, so every way they
    /// can be wrong is a typed error.
    fn parse_args(&self, args: &[u8]) -> Result<Vec<ShardWindow>, PError> {
        let mut bytes = args;
        let mut window = Vec::new();
        while !bytes.is_empty() {
            let header = take_varint(&mut bytes)?;
            let count = take_varint(&mut bytes)? as usize;
            // Every slot takes at least a byte: bound the count by what
            // is left before allocating for it.
            if count > bytes.len() {
                return Err(PError::Task(format!(
                    "serve window names {count} slots but {} bytes are left",
                    bytes.len()
                )));
            }
            let slots = (0..count)
                .map(|_| take_varint(&mut bytes))
                .collect::<Result<_, _>>()?;
            window.push(ShardWindow {
                shard: header >> 1,
                recovery: header & 1 != 0,
                slots,
            });
        }
        self.check(&window)?;
        Ok(window)
    }

    /// A window names shards in range, each at most once and in
    /// ascending order, and slots inside their shard's table. The order
    /// is what lets windows run side by side: a shard's group commit
    /// holds the shard's gate until it commits, so a window naming a
    /// shard twice would wait on itself, and two windows taking gates in
    /// different orders could wait on each other.
    fn check(&self, window: &[ShardWindow]) -> Result<(), PError> {
        let mut last = None;
        for part in window {
            let table = self.tables.get(part.shard as usize).ok_or_else(|| {
                PError::Task(format!(
                    "shard {} out of range ({} shards)",
                    part.shard,
                    self.tables.len()
                ))
            })?;
            if last.is_some_and(|last| part.shard <= last) {
                return Err(PError::Task(format!(
                    "shard {} named twice or out of ascending order",
                    part.shard
                )));
            }
            last = Some(part.shard);
            if let Some(slot) = part.slots.iter().find(|&&s| s >= table.capacity()) {
                return Err(PError::Task(format!(
                    "slot {slot} out of range for shard {}'s {}-slot table",
                    part.shard,
                    table.capacity()
                )));
            }
        }
        Ok(())
    }

    /// The re-enqueue step of the §5.2 loop: task *k* is one window
    /// naming every shard's *k*-th chunk of at most `batch` still-pending
    /// slots, in slot order (`batch` 1 makes windows of one slot a
    /// shard). Call it once the stack's own recovery has completed: an
    /// interrupted window's frame is replayed by its recover dual, so
    /// whatever is still pending afterwards never started and its window
    /// runs as a first execution.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn pending_tasks(&self, batch: usize) -> Result<Vec<Task>, PError> {
        let batch = batch.max(1);
        let pending = self
            .tables
            .iter()
            .map(KvRequestTable::pending_slots)
            .collect::<Result<Vec<_>, _>>()?;
        let windows = pending.iter().map(|p| p.len().div_ceil(batch)).max();
        let window = |k: usize| -> Vec<ShardWindow> {
            let chunks = pending.iter().enumerate().filter_map(|(shard, slots)| {
                let chunk = slots.chunks(batch).nth(k)?;
                Some(ShardWindow {
                    shard: shard as u32,
                    recovery: false,
                    slots: chunk.to_vec(),
                })
            });
            chunks.collect()
        };
        Ok((0..windows.unwrap_or(0))
            .map(|k| Task::new(KV_SERVE_FUNC_ID, Self::window_args(&window(k))))
            .collect())
    }

    /// The quiescent execution's mutations as the verifier wants them:
    /// every descriptor in the tables with its durable answer, tagged as
    /// the window tagged its record (`(client, req_id)`). Reads are not
    /// in the tables — a harness appends the gets it answered itself
    /// and checks the lot with [`ShardedKvStore::check`].
    ///
    /// # Errors
    ///
    /// [`PError::Task`] if a descriptor is still pending; propagated
    /// NVRAM errors.
    pub fn ops(&self) -> Result<Vec<KvOp>, PError> {
        let mut ops = Vec::new();
        for (shard, table) in self.tables.iter().enumerate() {
            for slot in 0..table.capacity() {
                let req_id = table.req_id(slot)?;
                if req_id == 0 {
                    continue;
                }
                let answer = table.result(slot)?.ok_or_else(|| {
                    PError::Task(format!("shard {shard} slot {slot} is still pending"))
                })?;
                let pid = u64::from(split_id(req_id).0);
                ops.push(table.op(slot)?.observed(pid, req_id, answer.result));
            }
        }
        Ok(ops)
    }

    /// Executes one batch window — every shard it names — as the
    /// window's levels (each arrow an await, `‖` flights that share a
    /// round-trip because nothing orders them; no shard's persist is
    /// ordered against another's):
    ///
    /// 1. `CALL` ‖ descriptors ‖ records ‖ tail: per shard, the slots
    ///    read, answered slots skipped (their answers are re-collected;
    ///    a replay voids some, below) and the rest begun as a group
    ///    commit
    ///    ([`PKvStore::apply_batch`](crate::PKvStore::apply_batch), or
    ///    the evidence-scanning
    ///    [`PKvStore::recover_batch`](crate::PKvStore::recover_batch)
    ///    for a shard marked `recovery`); then the window's `frame`
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
    /// descriptors ‖ records ‖ tail → heads ‖ answers — however many
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
    /// it: an answered slot that is not acked and whose recorded span
    /// the heads do not wholly reach (`PKvStore::span_published`) is
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
    /// - **Acked slots and answers of an earlier, settled batch are
    ///   never voided.** An ack follows a shown answer, and a window
    ///   answers only slots that are pending or voided, so an acked
    ///   slot's answer is settled and is trusted without reading its
    ///   span. A settled batch's span is reachable by the rule above.
    ///   And at most one batch per shard is unsettled at a power
    ///   failure: a shard's exclusive section is held until its last
    ///   level is awaited, so no later commit and no compaction runs
    ///   over heads that are not durable.
    /// - **A no-effect answer goes with its batch.** A cas that failed,
    ///   a delete of an absent key, a `LogFull` — they stage no record,
    ///   but they share their batch's span, so they are voided with the
    ///   rest of an unsettled batch: they were computed against its
    ///   staged state. Their re-execution may answer otherwise (a
    ///   `LogFull` where the lost run found room, say), which is
    ///   sound because the voided answer was never shown. A batch that
    ///   staged nothing records no span and is never voided: it read
    ///   only heads that earlier, settled batches had made durable.
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
    /// [`ShardedKvStore::get_durable`], the one read path — so a `Get`
    /// descriptor here is a caller's error, not a second way to read.
    ///
    /// # Errors
    ///
    /// A window [`KvServeFunction::window_args`] could not carry (a
    /// shard out of range, named twice or out of order, a slot out of
    /// range) or a get descriptor ([`PError::Task`]), or propagated
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
        // CALL ‖ descriptors ‖ records ‖ tail. Per shard with ops to
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
                pstore.recover_batch_begin(&ops)?
            } else {
                pstore.apply_batch_begin(&ops)?
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
    /// whose heads are not all durable — not acked, and its recorded
    /// span not wholly reachable — so a replay must void it (see
    /// [`KvServeFunction::execute_window`]).
    fn unsettled(&self, table: &KvRequestTable, shard: u32, slot: u32) -> Result<bool, PError> {
        if table.acked(slot)? {
            return Ok(false);
        }
        let Some(span) = table.answer_span(slot)? else {
            return Ok(false);
        };
        Ok(!self.store.shard(shard as usize).span_published(span)?)
    }
}

/// A window's product is the durable answers in its request table, so
/// the frame returns unit: nothing reads a return value, and a unit
/// return spares the frame the separate value persist. Its body begins
/// under its own `CALL`, which it awaits right before the heads.
impl RecoverableFunction for KvServeFunction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let window = self.parse_args(args)?;
        let executor = ctx.pid as u32;
        self.execute_window(&window, executor, Some(ctx))?;
        Ok(None)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let mut window = self.parse_args(args)?;
        // A replayed frame might have executed before the crash: every
        // shard through the evidence-scanning dual.
        for part in &mut window {
            part.recovery = true;
        }
        let executor = ctx.pid as u32;
        self.execute_window(&window, executor, Some(ctx))?;
        Ok(None)
    }

    fn awaits_own_frame(&self) -> bool {
        true
    }
}

/// Compaction as a **recoverable operation** on the persistent stack:
/// a registered function whose frame survives the crash and whose
/// recovery dual is an evidence scan over the shard's root cell.
///
/// Arguments name `(shard, from_gen)` — the shard to compact and the
/// generation the requester observed. `call` runs
/// [`ShardedKvStore::compact_shard`] when the shard still sits at
/// `from_gen` (and answers without effect when another compaction
/// already moved it — compaction requests are idempotent maintenance,
/// not linearizable mutations). `recover` consults the evidence: if the
/// root cell moved past `from_gen`, the interrupted compaction's swap
/// committed, so recovery only finishes the idempotent retirement mark;
/// otherwise the half-built generation block is an unreachable orphan
/// and the compaction re-executes safely. Either way a crash *anywhere*
/// inside the rewrite, at the swap, or during post-swap cleanup resumes
/// or safely abandons — never double-commits — which the crash-point
/// enumeration test below walks boundary by boundary.
///
/// The answer encodes `[9, outcome, gen as le bytes..]` where `outcome`
/// is 1 if this execution (re-)ran the rewrite and 0 if evidence
/// short-circuited it, and `gen` is the shard's generation afterwards.
#[derive(Clone)]
pub struct KvCompactFunction {
    store: ShardedKvStore,
}

impl KvCompactFunction {
    /// Wraps a sharded store (single stores ride as a 1-shard stripe).
    #[must_use]
    pub fn new(store: ShardedKvStore) -> Self {
        KvCompactFunction { store }
    }

    /// Convenience: wraps into the `Arc<dyn RecoverableFunction>` shape
    /// the registry wants.
    #[must_use]
    pub fn into_arc(self) -> Arc<dyn RecoverableFunction> {
        Arc::new(self)
    }

    /// Encodes a compaction request for shard `shard` observed at
    /// generation `from_gen` as task arguments.
    #[must_use]
    pub fn args_for(shard: u32, from_gen: u64) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[..4].copy_from_slice(&shard.to_le_bytes());
        b[4..].copy_from_slice(&from_gen.to_le_bytes());
        b
    }

    fn parse_args(args: &[u8]) -> Result<(usize, u64), PError> {
        let bytes: [u8; 12] = args.try_into().map_err(|_| {
            PError::Task("compaction task arguments must hold (shard: u32, from_gen: u64)".into())
        })?;
        let shard = u32::from_le_bytes(bytes[..4].try_into().expect("slice length")) as usize;
        let from_gen = u64::from_le_bytes(bytes[4..].try_into().expect("slice length"));
        Ok((shard, from_gen))
    }

    fn answer(ran: bool, gen: u64) -> Option<RetBytes> {
        let mut b = [0u8; 8];
        b[0] = 9; // compaction marker, distinct from the op answers
        b[1] = u8::from(ran);
        b[2..8].copy_from_slice(&gen.to_le_bytes()[..6]);
        Some(b)
    }

    fn dispatch(&self, args: &[u8], recovery: bool) -> Result<Option<RetBytes>, PError> {
        let _label = op_label("kv_task.compact");
        let (shard, from_gen) = Self::parse_args(args)?;
        if shard >= self.store.nshards() {
            return Err(PError::Task(format!(
                "compaction shard {shard} out of range ({} shards)",
                self.store.nshards()
            )));
        }
        let gen = self.store.shard(shard).generation()?;
        let ran = if gen < from_gen {
            // No compaction from a generation the shard never reached
            // ever started: the call answered without effect, and so
            // does its replay.
            false
        } else if recovery {
            // The evidence scan decides: resume (finish retirement) or
            // safely abandon-and-redo.
            !self.store.recover_compact_shard(shard, from_gen)?
        } else if gen == from_gen {
            self.store.compact_shard(shard)?;
            true
        } else {
            false // another compaction already moved the shard
        };
        Ok(Self::answer(ran, self.store.shard(shard).generation()?))
    }
}

impl RecoverableFunction for KvCompactFunction {
    fn call(&self, _ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        self.dispatch(args, false)
    }

    fn recover(&self, _ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        self.dispatch(args, true)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_of;
    use crate::store::KvVariant;
    use pstack_core::{FixedStack, FunctionRegistry, PersistentStack};
    use pstack_heap::PHeap;
    use pstack_nvram::{FailPlan, PMem, PMemBuilder, PMemStripe, POffset};

    const HEAP_OFF: u64 = 8192;
    const STACK_LEN: usize = 4096;
    const REGION_LEN: usize = 1 << 18;

    /// A bare table holding `ops` (gets included — the table can hold
    /// any kind; it is the window that refuses to execute a read).
    fn table_of(ops: &[KvTaskOp]) -> (PMem, KvRequestTable) {
        let pmem = PMemBuilder::new().len(REGION_LEN).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), REGION_LEN as u64).unwrap();
        let table = KvRequestTable::format(pmem.clone(), &heap, ops.len() as u32).unwrap();
        for (i, &op) in ops.iter().enumerate() {
            assert_eq!(
                table.submit(i as u64 + 1, op).unwrap(),
                ReqSubmit::Fresh(i as u32)
            );
        }
        (pmem, table)
    }

    /// Store, preloaded table and stack all in one buffered region: the
    /// store a one-shard stripe, the stack a block of the shard's heap.
    /// Returns the region, its heap, the executor and the stack's base.
    fn fixture(ops: &[KvTaskOp]) -> (PMem, PHeap, KvServeFunction, POffset) {
        let pmem = PMemBuilder::new().len(REGION_LEN).build_in_memory();
        let regions = std::slice::from_ref(&pmem);
        let store = ShardedKvStore::format(regions, 8, 64, KvVariant::Nsrl).unwrap();
        let heap = store.heap(0).clone();
        let stack = heap.alloc_aligned(STACK_LEN, 64).unwrap();
        (
            pmem,
            heap,
            KvServeFunction::preload(store, ops).unwrap(),
            stack,
        )
    }

    /// A stripe with one preloaded table per shard, plus the (buffered)
    /// control region the persistent stack lives in: a window's `CALL`
    /// is a flight there, as on a served system.
    fn sharded_fixture(
        ops: &[KvTaskOp],
        nshards: usize,
    ) -> (PMemStripe, PMem, PHeap, KvServeFunction) {
        let stripe = PMemBuilder::new().len(REGION_LEN).build_striped(nshards);
        let store = ShardedKvStore::format(stripe.regions(), 8, 128, KvVariant::Nsrl).unwrap();
        let exec = KvServeFunction::preload(store, ops).unwrap();
        let main = PMemBuilder::new().len(REGION_LEN).build_in_memory();
        let heap = PHeap::format(
            main.clone(),
            POffset::new(HEAP_OFF),
            REGION_LEN as u64 - HEAP_OFF,
        )
        .unwrap();
        (stripe, main, heap, exec)
    }

    /// The recovery boot of [`sharded_fixture`]: everything re-attached
    /// over the reopened regions.
    fn reopen_sharded(stripe: &PMemStripe, main: &PMem) -> (PMem, PHeap, KvServeFunction) {
        let stripe2 = stripe.reopen_all().unwrap();
        let main2 = main.reopen().unwrap();
        let exec2 = KvServeFunction::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
        let heap2 = PHeap::open(main2.clone(), POffset::new(HEAP_OFF)).unwrap();
        (main2, heap2, exec2)
    }

    /// Checked on a [`reopen_sharded`] boot before anything replays:
    /// a durable head reaching a record of the window `args` implies
    /// the window's frame and its descriptors are durable — the window
    /// awaits both before it publishes. Returns whether the frame
    /// survived the cut.
    fn published_only_over_a_durable_frame(
        main: &PMem,
        exec: &KvServeFunction,
        args: &[u8],
        at: &str,
    ) -> bool {
        let stack = FixedStack::open(main.clone(), POffset::new(0), 4096).unwrap();
        let frame = stack.depth() == 1;
        if frame {
            let record = stack.frame_record(1).unwrap();
            assert_eq!(
                (record.func_id, &record.args[..]),
                (KV_SERVE_FUNC_ID, args),
                "{at}"
            );
        }
        let chains = exec.store().snapshot_sharded().unwrap();
        for part in exec.parse_args(args).unwrap() {
            let (shard, table) = (part.shard as usize, &exec.tables()[part.shard as usize]);
            for slot in part.slots {
                // Preloaded: slot `i` of shard `s` is request `i + 1` of
                // client `s + 1`.
                let req_id = ((shard as u64 + 1) << 32) | (u64::from(slot) + 1);
                if chains[shard].iter().flatten().any(|r| r.seq == req_id) {
                    assert!(
                        frame,
                        "{at}: shard {shard} slot {slot} published, frame lost"
                    );
                    assert_eq!(table.req_id(slot).unwrap(), req_id, "{at}: descriptor lost");
                }
            }
        }
        frame
    }

    #[test]
    fn open_answers_a_hostile_image_with_a_typed_error() {
        use crate::shard::ROOT_OFF_TABLE;
        let word = POffset::new(ROOT_OFF_TABLE);
        // (what is wrong with shard 1, tables formatted?, how it got so)
        type Spoil = fn(&PMem, POffset);
        let images: [(&str, bool, Spoil); 4] = [
            ("nothing", true, |_, _| {}),
            ("store formatted, tables never written", false, |_, _| {}),
            ("root points outside the region", true, |r, word| {
                r.write_u64(word, REGION_LEN as u64 + 64).unwrap();
            }),
            ("capacity overruns the region", true, |r, word| {
                let base = r.read_u64(word).unwrap();
                let slots = REGION_LEN as u64 / 64;
                r.write_u64(POffset::new(base + 8), slots).unwrap();
            }),
        ];
        for (what, tables, spoil) in images {
            let stripe = PMemBuilder::new().len(REGION_LEN).build_striped(2);
            let store = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
            if tables {
                KvServeFunction::format(store, 4).unwrap();
            }
            spoil(stripe.region(1), word);
            let reads = stripe.region(1).stats().snapshot().reads;
            match KvServeFunction::open(stripe.regions(), KvVariant::Nsrl) {
                Ok(exec) => assert_eq!((what, exec.tables()[1].capacity()), ("nothing", 4)),
                Err(e) => {
                    assert!(matches!(e, PError::CorruptStack(_) | PError::Mem(_)));
                    assert!(!e.is_crash() && what != "nothing", "{what}: {e}");
                    // Refused at the header: no slot of it was scanned.
                    let scanned = stripe.region(1).stats().snapshot().reads - reads;
                    assert!(scanned < 64, "{what}: {scanned} reads");
                }
            }
        }
    }

    fn registry_of(f: Arc<dyn RecoverableFunction>, id: u64) -> FunctionRegistry {
        let mut registry = FunctionRegistry::new();
        registry.register(id, f).unwrap();
        registry
    }

    /// Runs `body` with a context over a stack at offset 0 of `main`
    /// (freshly formatted, or re-attached after a crash).
    fn on_stack<R>(
        main: &PMem,
        heap: &PHeap,
        registry: &FunctionRegistry,
        fresh: bool,
        body: impl FnOnce(&mut PContext<'_>) -> R,
    ) -> R {
        on_stack_at(main, POffset::new(0), heap, registry, fresh, body)
    }

    /// [`on_stack`] with the stack at `base`.
    fn on_stack_at<R>(
        main: &PMem,
        base: POffset,
        heap: &PHeap,
        registry: &FunctionRegistry,
        fresh: bool,
        body: impl FnOnce(&mut PContext<'_>) -> R,
    ) -> R {
        let mut stack = if fresh {
            FixedStack::format(main.clone(), base, STACK_LEN as u64).unwrap()
        } else {
            FixedStack::open(main.clone(), base, STACK_LEN as u64).unwrap()
        };
        let mut ctx = PContext::new(
            main.clone(),
            heap.clone(),
            registry,
            &mut stack,
            0,
            POffset::new(64),
        );
        body(&mut ctx)
    }

    /// Answers one slot as a window does: a flight of its last level,
    /// then the level awaited. Nothing is committed first, so the
    /// records receipt is empty and there is no span.
    fn answer(table: &KvRequestTable, slot: u32, executor: u32, result: KvTaskResult) {
        let records = Level::default().await_all().unwrap();
        let mut level = Level::default();
        table
            .answer(&[(slot, executor, result)], None, &records, &mut level)
            .unwrap();
        level.await_all().unwrap();
    }

    /// A window of `slots` on shard `shard` alone, as task arguments.
    fn on_shard(shard: usize, slots: &[u32]) -> Vec<u8> {
        KvServeFunction::window_args(&[ShardWindow {
            shard: shard as u32,
            recovery: false,
            slots: slots.to_vec(),
        }])
    }

    /// The whole of each of `shards`' tables as one window.
    fn whole_tables(exec: &KvServeFunction, shards: &[usize]) -> Vec<u8> {
        let window: Vec<ShardWindow> = shards
            .iter()
            .map(|&shard| ShardWindow {
                shard: shard as u32,
                recovery: false,
                slots: (0..exec.tables()[shard].capacity()).collect(),
            })
            .collect();
        KvServeFunction::window_args(&window)
    }

    /// The whole of shard `shard`'s table as one window.
    fn whole_table(exec: &KvServeFunction, shard: usize) -> Vec<u8> {
        whole_tables(exec, &[shard])
    }

    fn results_of(table: &KvRequestTable) -> Vec<Option<KvTaskResult>> {
        (0..table.capacity())
            .map(|slot| table.result(slot).unwrap().map(|a| a.result))
            .collect()
    }

    fn puts(keys: std::ops::Range<u64>, value_of: impl Fn(u64) -> i64) -> Vec<KvTaskOp> {
        keys.map(|key| KvTaskOp::Put {
            key,
            value: value_of(key),
        })
        .collect()
    }

    #[test]
    fn table_round_trips_ops_and_answers() {
        let ops = [
            KvTaskOp::Put { key: 1, value: -5 },
            KvTaskOp::Get { key: 1 },
            KvTaskOp::Delete { key: 1 },
            KvTaskOp::Cas {
                key: 2,
                expected: i64::MIN,
                new: i64::MAX,
            },
        ];
        let (pmem, table) = table_of(&ops);
        assert_eq!(table.capacity(), 4);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(table.op(i as u32).unwrap(), *op);
        }
        assert_eq!(table.pending_slots().unwrap(), vec![0, 1, 2, 3]);

        answer(&table, 0, 2, KvTaskResult::Stored(true));
        answer(&table, 1, 3, KvTaskResult::Got(Some(-5)));
        answer(&table, 2, 1, KvTaskResult::Deleted(true));
        assert_eq!(table.pending_slots().unwrap(), vec![3]);
        assert_eq!(
            table.result(1).unwrap(),
            Some(KvTaskAnswer {
                executor: 3,
                result: KvTaskResult::Got(Some(-5))
            })
        );
        // Reopen sees the same state.
        let t2 = KvRequestTable::open(pmem, table.base()).unwrap();
        assert_eq!(t2.pending_slots().unwrap(), vec![3]);
        assert_eq!(
            t2.result(2).unwrap().unwrap().result,
            KvTaskResult::Deleted(true)
        );
    }

    #[test]
    fn got_none_and_false_answers_round_trip() {
        let ops = [
            KvTaskOp::Get { key: 9 },
            KvTaskOp::Cas {
                key: 9,
                expected: 0,
                new: 1,
            },
        ];
        let (_, table) = table_of(&ops);
        answer(&table, 0, 0, KvTaskResult::Got(None));
        answer(&table, 1, 0, KvTaskResult::Swapped(false));
        assert_eq!(
            results_of(&table),
            vec![
                Some(KvTaskResult::Got(None)),
                Some(KvTaskResult::Swapped(false))
            ]
        );
    }

    #[test]
    fn task_function_runs_and_replays_answers() {
        let ops = [
            KvTaskOp::Put { key: 7, value: 70 },
            KvTaskOp::Cas {
                key: 7,
                expected: 70,
                new: 71,
            },
            KvTaskOp::Delete { key: 7 },
        ];
        let (pmem, heap, exec, stack) = fixture(&ops);
        let registry = exec.registry().unwrap();
        let one = |slot: u32| on_shard(0, &[slot]);
        on_stack_at(&pmem, stack, &heap, &registry, true, |ctx| {
            // A single op is a window of one.
            ctx.call(KV_SERVE_FUNC_ID, &one(0)).unwrap();
            ctx.call(KV_SERVE_FUNC_ID, &one(1)).unwrap();
            // The harness's own read, between windows.
            assert_eq!(exec.store().get_durable(7).unwrap(), Some(71));
            ctx.call(KV_SERVE_FUNC_ID, &one(2)).unwrap();
            assert_eq!(
                results_of(&exec.tables()[0]),
                vec![
                    Some(KvTaskResult::Stored(true)),
                    Some(KvTaskResult::Swapped(true)),
                    Some(KvTaskResult::Deleted(true)),
                ]
            );
            // Re-running a completed descriptor replays the answer
            // without touching the store.
            let before = exec.store().log_reserved_per_shard().unwrap();
            ctx.call(KV_SERVE_FUNC_ID, &one(0)).unwrap();
            assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
        });
    }

    #[test]
    fn sharded_task_function_runs_and_replays_per_shard() {
        let ops = puts(0..12, |key| key as i64 * 10);
        let (_stripe, main, heap, exec) = sharded_fixture(&ops, 2);
        let registry = exec.registry().unwrap();
        on_stack(&main, &heap, &registry, true, |ctx| {
            for task in exec.pending_tasks(1).unwrap() {
                ctx.call(KV_SERVE_FUNC_ID, &task.args).unwrap();
            }
            assert_eq!(exec.store().contents().unwrap().len(), 12);
            // Answers landed in each shard's own table, in that shard's
            // own region; records landed only in the key's home shard.
            for (s, table) in exec.tables().iter().enumerate() {
                assert!(table.pending_slots().unwrap().is_empty(), "shard {s}");
                assert!(results_of(table)
                    .iter()
                    .all(|r| *r == Some(KvTaskResult::Stored(true))));
            }
            // Replaying a completed descriptor re-reads the answer
            // without consuming a new log slot anywhere.
            let before = exec.store().log_reserved_per_shard().unwrap();
            ctx.call(KV_SERVE_FUNC_ID, &on_shard(0, &[0])).unwrap();
            assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
        });
    }

    #[test]
    fn sharded_tags_are_globally_unique() {
        // Preloaded request ids — the store tags — differ across shards
        // and across descriptors, and name their shard as the client.
        let (_stripe, _main, _heap, exec) = sharded_fixture(&puts(0..16, |_| 1), 4);
        let mut ids = std::collections::HashSet::new();
        for (s, table) in exec.tables().iter().enumerate() {
            for slot in table.pending_slots().unwrap() {
                let id = table.req_id(slot).unwrap();
                assert_eq!(split_id(id), (s as u32 + 1, slot + 1));
                assert!(ids.insert(id), "request id {id:#x} reused");
            }
        }
        assert_eq!(ids.len(), 16);

        // A window naming every shard round-trips through its frame's
        // bytes, one byte per header, count and (small) slot.
        let window: Vec<ShardWindow> = exec
            .tables()
            .iter()
            .enumerate()
            .map(|(s, table)| ShardWindow {
                shard: s as u32,
                recovery: s == 2,
                slots: table.pending_slots().unwrap(),
            })
            .collect();
        let args = KvServeFunction::window_args(&window);
        assert_eq!(args.len(), 2 * 4 + 16);
        assert_eq!(exec.parse_args(&args).unwrap(), window);
        assert_eq!(exec.parse_args(&[]).unwrap(), vec![], "an empty window");
    }

    /// A two-shard executor over eight preloaded puts: what the hostile
    /// window arguments below are parsed against.
    fn two_shards() -> KvServeFunction {
        sharded_fixture(&puts(0..8, |_| 1), 2).3
    }

    fn task_error(outcome: Result<impl std::fmt::Debug, PError>) -> String {
        match outcome {
            Err(PError::Task(why)) => why,
            other => panic!("expected a task error, got {other:?}"),
        }
    }

    #[test]
    fn window_args_cut_short_are_a_task_error() {
        let exec = two_shards();
        let cuts: [&[u8]; 4] = [
            &[0x02],                               // a header, no count
            &[0x00, 0x03, 0, 1],                   // three slots named, two carried
            &[0x00, 0x01, 0x80],                   // a slot varint cut mid-way
            &[0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], // 2^32 - 1 slots, no bytes
        ];
        for cut in cuts {
            task_error(exec.parse_args(cut));
        }
    }

    #[test]
    fn window_args_with_an_overlong_varint_are_a_task_error() {
        // Five bytes carry any u32 ...
        for v in [0, 127, 128, 16_383, 16_384, 1 << 28, u32::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut rest = b.as_slice();
            assert_eq!(take_varint(&mut rest).unwrap(), v);
            assert!(rest.is_empty());
        }
        // ... and a sixth byte, or a fifth past 32 bits, is refused.
        let exec = two_shards();
        let six = [0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        let wide = [0xFF, 0xFF, 0xFF, 0xFF, 0x1F];
        let varints: [&[u8]; 2] = [&six, &wide];
        for varint in varints {
            task_error(exec.parse_args(varint)); // as a header
            let slot = [&[0x00, 0x01][..], varint].concat();
            task_error(exec.parse_args(&slot)); // as a slot
        }
    }

    #[test]
    fn window_args_naming_a_shard_out_of_range_are_a_task_error() {
        let exec = two_shards();
        for shard in [2, u32::MAX >> 1] {
            let args = on_shard(shard as usize, &[0]);
            let why = task_error(exec.parse_args(&args));
            assert!(why.contains("out of range"), "{why}");
        }
    }

    #[test]
    fn window_args_naming_a_slot_out_of_range_are_a_task_error() {
        let exec = two_shards();
        let capacity = exec.tables()[1].capacity();
        let why = task_error(exec.parse_args(&on_shard(1, &[0, capacity])));
        assert!(why.contains(&format!("slot {capacity}")), "{why}");
    }

    #[test]
    fn window_args_naming_a_shard_twice_are_a_task_error_not_a_deadlock() {
        // A shard's group commit holds its gate until committed:
        // a second begin on the same shard from the same thread would
        // wait forever. The window is refused before anything begins —
        // parsed or handed to the executor directly — and so is one out
        // of ascending order.
        let (_stripe, main, heap, exec) = sharded_fixture(&puts(0..8, |_| 1), 2);
        let part = |shard: u32, slot: u32| ShardWindow {
            shard,
            recovery: false,
            slots: vec![slot],
        };
        for window in [vec![part(1, 0), part(1, 1)], vec![part(1, 0), part(0, 0)]] {
            let args = KvServeFunction::window_args(&window);
            task_error(exec.parse_args(&args));
            task_error(exec.execute_window(&window, 0, None));
            let registry = exec.registry().unwrap();
            on_stack(&main, &heap, &registry, true, |ctx| {
                assert!(ctx.call(KV_SERVE_FUNC_ID, &args).is_err());
            });
        }
        let untouched = exec
            .tables()
            .iter()
            .map(|t| t.pending_slots().unwrap().len());
        assert_eq!(untouched.sum::<usize>(), 8, "nothing executed");
    }

    #[test]
    fn batch_window_group_commits_and_answers_in_one_pass() {
        let ops = puts(0..16, |key| key as i64 + 1);
        let (stripe, main, heap, exec) = sharded_fixture(&ops, 2);
        let registry = exec.registry().unwrap();
        let flights = |shard: usize| stripe.region(shard).stats().snapshot().async_flushes;
        let before = [flights(0), flights(1)];
        on_stack(&main, &heap, &registry, true, |ctx| {
            // One window covering both shards' whole tables.
            let ret = ctx.call(KV_SERVE_FUNC_ID, &whole_tables(&exec, &[0, 1]));
            assert_eq!(
                ret.unwrap(),
                None,
                "a window's product is its durable answers"
            );
            for (s, table) in exec.tables().iter().enumerate() {
                assert!(table.pending_slots().unwrap().is_empty(), "shard {s}");
            }
            assert_eq!(exec.store().contents().unwrap().len(), 16);
            assert_eq!(exec.store().get_durable(3).unwrap(), Some(4));
            // Exactly one group commit per shard — records ‖ tail →
            // heads, then the answers: four flights a shard — the
            // batches rode the one persistent-stack task.
            assert_eq!([flights(0) - before[0], flights(1) - before[1]], [4, 4]);
            // A replayed window is a no-op: answers are durable.
            let before = exec.store().log_reserved_per_shard().unwrap();
            ctx.call(KV_SERVE_FUNC_ID, &whole_table(&exec, 0)).unwrap();
            assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
        });
    }

    /// Crashes `window` of shard `shard` at every event of the shard's
    /// region, reboots the whole system, checks that nothing was
    /// published over a lost frame, replays the window through the
    /// recover dual, and hands each recovered system to `check`.
    fn sweep_window_crash_points(
        ops: &[KvTaskOp],
        shard: usize,
        check: impl Fn(u64, &KvServeFunction),
    ) {
        let run = |k: Option<u64>| {
            let (stripe, main, heap, exec) = sharded_fixture(ops, 2);
            let args = whole_table(&exec, shard);
            let registry = exec.registry().unwrap();
            let e0 = stripe.region(shard).events();
            if let Some(k) = k {
                stripe
                    .region(shard)
                    .arm_failpoint(FailPlan::after_events(k));
            }
            let outcome = on_stack(&main, &heap, &registry, true, |ctx| {
                ctx.call(KV_SERVE_FUNC_ID, &args)
            });
            let events = stripe.region(shard).events() - e0;
            (stripe, main, args, outcome, events)
        };
        let (.., outcome, total) = run(None);
        outcome.unwrap();
        assert!(total >= 2, "store op + answer persist in the shard region");

        let mut begun_over_a_lost_frame = 0;
        for k in 0..total {
            let (stripe, main, args, outcome, _) = run(Some(k));
            assert!(outcome.unwrap_err().is_crash(), "crash at shard event {k}");
            // Whole-system failure, then the recovery boot.
            stripe.crash_all(7, 0.0);
            main.crash_now(7, 0.0);
            let (main2, heap2, exec2) = reopen_sharded(&stripe, &main);
            let at = format!("crash at shard event {k}");
            if !published_only_over_a_durable_frame(&main2, &exec2, &args, &at) {
                begun_over_a_lost_frame += 1;
            }
            let registry2 = FunctionRegistry::new();
            on_stack(&main2, &heap2, &registry2, false, |ctx| {
                exec2.recover(ctx, &args).unwrap();
            });
            check(k, &exec2);
        }
        assert!(
            begun_over_a_lost_frame > 0,
            "no cut met the window begun under its CALL's flight"
        );
    }

    #[test]
    fn batch_window_crash_points_recover_exactly_once() {
        // Enumerate every shard-region crash point inside one batch
        // window; the recover dual (evidence scan + recover_batch) must
        // complete each op exactly once from every intermediate state.
        let shard = 0usize;
        sweep_window_crash_points(&puts(0..12, |key| key as i64 + 50), shard, |k, exec| {
            let table = &exec.tables()[shard];
            assert!(table.pending_slots().unwrap().is_empty(), "crash at {k}");
            let published: usize = exec.store().snapshot_sharded().unwrap()[shard]
                .iter()
                .map(Vec::len)
                .sum();
            assert_eq!(
                published,
                table.capacity() as usize,
                "crash at {k}: exactly one record per put"
            );
        });
    }

    /// One shape of the answers-in-flight sweep: what the tables hold,
    /// the windows run to completion before the one under test (shard
    /// 0's slots, and which of them are then acked), the window under
    /// test — whole tables of `shards` — the region whose events are
    /// cut, and the survivor sets each cut is tried under.
    struct InFlight<'a> {
        ops: Vec<KvTaskOp>,
        before: &'a [(&'a [u32], &'a [u32])],
        shards: &'a [usize],
        region: usize,
        survivors: &'a [(u64, f64)],
    }

    /// Whether `result` reports an effect — a record tagged with its
    /// request.
    fn took_effect(result: KvTaskResult) -> bool {
        match result {
            KvTaskResult::Stored(ok) | KvTaskResult::Deleted(ok) | KvTaskResult::Swapped(ok) => ok,
            KvTaskResult::Got(_) => false,
        }
    }

    /// `n` distinct keys that shard 0 of two owns.
    fn keys_on_shard_0(n: usize) -> Vec<u64> {
        (0..).filter(|&k| shard_of(k, 2) == 0).take(n).collect()
    }

    #[test]
    fn window_crash_points_with_answers_in_flight_never_answer_without_the_effect() {
        // The window's last level: heads ‖ answers, in every shard the
        // window names. Cut the power at every event of the window in a
        // region, with none, some or all of the dirty lines kept: an
        // answer line may land without its heads — that state is
        // reachable by design, and was never shown — and the replay
        // must void it. After the replay every slot is answered exactly
        // once over its effect; an answer that reached NVRAM over a lost
        // head is answered afresh; an acked answer, or one a settled
        // window gave, is left alone.
        type Survivors = [(u64, f64)];
        let none_all: &Survivors = &[(0, 0.0), (0, 1.0)];
        // The lottery is seeded per line, so each seed fixes which of
        // the heads' and the answers' lines a cut keeps.
        let every_lottery: Vec<(u64, f64)> = none_all
            .iter()
            .copied()
            .chain((1..=8).map(|seed| (seed, 0.5)))
            .collect();
        let keys = keys_on_shard_0(3);
        // Shard 0's slot 0 a delete of an absent key — a no-effect
        // answer no replay may re-run: slot 2, in the window under test,
        // puts the key — beside slot 1, a put that gives its batch a
        // span.
        let settled_ops = vec![
            KvTaskOp::Delete { key: keys[0] },
            KvTaskOp::Put {
                key: keys[1],
                value: 1,
            },
            KvTaskOp::Put {
                key: keys[0],
                value: 2,
            },
        ];
        let shapes = [
            // One shard under every lottery, and a window over both
            // shards failing in each of its regions.
            InFlight {
                ops: puts(0..12, |key| key as i64 + 3),
                before: &[],
                shards: &[0],
                region: 0,
                survivors: &every_lottery,
            },
            InFlight {
                ops: puts(0..12, |key| key as i64 + 3),
                before: &[],
                shards: &[0, 1],
                region: 0,
                survivors: none_all,
            },
            InFlight {
                ops: puts(0..12, |key| key as i64 + 3),
                before: &[],
                shards: &[0, 1],
                region: 1,
                survivors: none_all,
            },
            // A put, then a cas on its key that fails against it: the
            // no-effect answer goes with its batch.
            InFlight {
                ops: vec![
                    KvTaskOp::Put {
                        key: keys[2],
                        value: 5,
                    },
                    KvTaskOp::Cas {
                        key: keys[2],
                        expected: 7,
                        new: 9,
                    },
                ],
                before: &[],
                shards: &[0],
                region: 0,
                survivors: &every_lottery,
            },
            // Slot 0 answered by a settled window and acked: the window
            // under test names it again (a completed window's frame
            // replayed after its client acked).
            InFlight {
                ops: settled_ops.clone(),
                before: &[(&[0, 1], &[0])],
                shards: &[0],
                region: 0,
                survivors: &every_lottery,
            },
            // The same, not acked: a retry named the slot while its
            // first window executed.
            InFlight {
                ops: settled_ops,
                before: &[(&[0, 1], &[])],
                shards: &[0],
                region: 0,
                survivors: &every_lottery,
            },
        ];
        // Cuts that reopened a slot pending over its durable record
        // (heads kept, the answer's line lost).
        let mut pending_over_its_record = 0usize;
        for shape in &shapes {
            // Cuts that left an answer line durable over a lost head.
            let mut answered_over_a_lost_head = 0usize;
            let run = |plan: Option<FailPlan>| {
                let (stripe, main, heap, exec) = sharded_fixture(&shape.ops, 2);
                let mut acks = Level::default();
                for &(slots, acked) in shape.before {
                    let window = [ShardWindow {
                        shard: 0,
                        recovery: false,
                        slots: slots.to_vec(),
                    }];
                    exec.execute_window(&window, 0, None).unwrap();
                    for &slot in acked {
                        let table = &exec.tables()[0];
                        assert!(table.ack(table.req_id(slot).unwrap(), &mut acks).unwrap());
                    }
                }
                acks.await_all().unwrap();
                // Slots the window under test must leave as they are.
                let table = &exec.tables()[0];
                let settled: Vec<_> = (shape.before.iter().flat_map(|&(slots, _)| slots))
                    .map(|&slot| {
                        let answer = table.result(slot).unwrap();
                        (slot, answer, table.answer_span(slot).unwrap())
                    })
                    .collect();
                let args = whole_tables(&exec, shape.shards);
                let registry = exec.registry().unwrap();
                let e0 = stripe.region(shape.region).events();
                if let Some(plan) = plan {
                    stripe.region(shape.region).arm_failpoint(plan);
                }
                let outcome = on_stack(&main, &heap, &registry, true, |ctx| {
                    ctx.call(KV_SERVE_FUNC_ID, &args)
                });
                let events = stripe.region(shape.region).events() - e0;
                (stripe, main, args, settled, outcome, events)
            };
            let (.., outcome, total) = run(None);
            outcome.unwrap();
            for k in 0..total {
                for &(seed, prob) in shape.survivors {
                    let at = format!(
                        "window {:?} over {:?}, region {} event {k}, survivors {prob} (seed {seed})",
                        shape.shards, shape.ops[0], shape.region
                    );
                    let plan = FailPlan::after_events(k).with_survivors(seed, prob);
                    let (stripe, main, args, settled, outcome, _) = run(Some(plan));
                    assert!(outcome.unwrap_err().is_crash(), "{at}");
                    stripe.crash_all(seed, prob);
                    main.crash_now(seed, prob);
                    let (main2, heap2, exec2) = reopen_sharded(&stripe, &main);
                    if shape.before.is_empty() {
                        // (An earlier window published without a frame.)
                        published_only_over_a_durable_frame(&main2, &exec2, &args, &at);
                    }
                    let store = exec2.store();
                    let records = |shard: usize, req_id: u64| {
                        let chains = store.snapshot_sharded().unwrap().swap_remove(shard);
                        chains.iter().flatten().filter(|r| r.seq == req_id).count()
                    };
                    let fresh = |shard: usize, slot: u32| {
                        settled.iter().all(|&(s, ..)| shard != 0 || s != slot)
                    };
                    // Per shard, the window's answers before the replay,
                    // with their spans, when a put of its batch has no
                    // record: an answer line reached NVRAM, so the
                    // records did and the heads were flipped — some of
                    // them were lost.
                    let mut voidable = Vec::new();
                    for &shard in shape.shards {
                        let table = &exec2.tables()[shard];
                        let mut answered = Vec::new();
                        let mut lost_head = false;
                        for slot in (0..table.capacity()).filter(|&slot| fresh(shard, slot)) {
                            let n = records(shard, table.req_id(slot).unwrap());
                            assert!(n <= 1, "{at}");
                            lost_head |=
                                matches!(table.op(slot).unwrap(), KvTaskOp::Put { .. }) && n == 0;
                            match table.result(slot).unwrap() {
                                None => pending_over_its_record += usize::from(n == 1),
                                Some(_) => {
                                    answered.push((shard, slot, table.answer_span(slot).unwrap()))
                                }
                            }
                        }
                        if lost_head {
                            voidable.extend(answered);
                        }
                    }
                    answered_over_a_lost_head += usize::from(!voidable.is_empty());

                    let registry2 = FunctionRegistry::new();
                    on_stack(&main2, &heap2, &registry2, false, |ctx| {
                        exec2.recover(ctx, &args).unwrap();
                    });
                    for &shard in shape.shards {
                        let table = &exec2.tables()[shard];
                        assert!(table.pending_slots().unwrap().is_empty(), "{at}");
                        for slot in (0..table.capacity()).filter(|&slot| fresh(shard, slot)) {
                            let req_id = table.req_id(slot).unwrap();
                            let answer = table.result(slot).unwrap().unwrap();
                            let n = records(shard, req_id);
                            assert_eq!(
                                took_effect(answer.result),
                                n == 1,
                                "{at}: shard {shard} slot {slot} answered {answer:?} over {n} records"
                            );
                            if let KvTaskOp::Put { .. } = table.op(slot).unwrap() {
                                assert_eq!(
                                    n, 1,
                                    "{at}: shard {shard} slot {slot}: answered without its effect"
                                );
                            }
                        }
                    }
                    // A voided answer is answered afresh: its span was
                    // the lost batch's, and the replay's batch staged
                    // elsewhere, or nothing.
                    for (shard, slot, span) in voidable {
                        let table = &exec2.tables()[shard];
                        assert_ne!(
                            table.answer_span(slot).unwrap(),
                            span,
                            "{at}: slot {slot} not voided"
                        );
                    }
                    // A settled answer, acked or not, is neither voided
                    // nor re-run: slot 0's delete would now find its key.
                    for &(slot, answer, span) in &settled {
                        let table = &exec2.tables()[0];
                        let now = (
                            table.result(slot).unwrap(),
                            table.answer_span(slot).unwrap(),
                        );
                        assert_eq!(now, (answer, span), "{at}: settled slot {slot} re-run");
                        let n = records(0, table.req_id(slot).unwrap());
                        assert_eq!(took_effect(answer.unwrap().result), n == 1, "{at}");
                    }
                }
            }
            // Only a lottery keeps one line of a level and not another.
            if shape
                .survivors
                .iter()
                .any(|&(_, prob)| prob > 0.0 && prob < 1.0)
            {
                assert!(
                    answered_over_a_lost_head > 0,
                    "window over {:?}: no cut kept an answer line over a lost head",
                    shape.ops[0]
                );
            }
        }
        assert!(
            pending_over_its_record > 0,
            "no cut fell between the heads' flight and the answers'"
        );
    }

    /// A buffered two-shard stripe whose shard 0 holds some live keys —
    /// the compaction tests' starting point.
    fn compaction_fixture(
        keys: u64,
        value_of: impl Fn(u64) -> i64,
    ) -> (PMemStripe, PMem, PHeap, ShardedKvStore) {
        let (stripe, main, heap, exec) = sharded_fixture(&[], 2);
        let store = exec.store().clone();
        for (i, key) in (0..keys).filter(|&k| shard_of(k, 2) == 0).enumerate() {
            let op = KvBatchOp::Put {
                pid: 0,
                seq: i as u64 + 1,
                key,
                value: value_of(key),
            };
            store.shard(0).apply_batch(&[op]).unwrap();
        }
        (stripe, main, heap, store)
    }

    #[test]
    fn compaction_task_runs_and_is_idempotent() {
        // Compaction as a persistent-stack task: the call path swaps the
        // generation; a stale request (from_gen already superseded) is a
        // no-op answer, not a second swap.
        let (_stripe, main, heap, store) = compaction_fixture(8, |key| key as i64);
        let registry = registry_of(
            KvCompactFunction::new(store.clone()).into_arc(),
            KV_COMPACT_FUNC_ID,
        );
        on_stack(&main, &heap, &registry, true, |ctx| {
            let want = store.contents().unwrap();
            let ret = ctx
                .call(KV_COMPACT_FUNC_ID, &KvCompactFunction::args_for(0, 0))
                .unwrap()
                .unwrap();
            assert_eq!(ret[0], 9, "compaction answers carry the marker");
            assert_eq!(ret[1], 1, "this execution ran the rewrite");
            assert_eq!(store.generations().unwrap(), vec![1, 0]);
            assert_eq!(store.contents().unwrap(), want);
            // Stale request: evidence short-circuits, no second swap.
            let ret = ctx
                .call(KV_COMPACT_FUNC_ID, &KvCompactFunction::args_for(0, 0))
                .unwrap()
                .unwrap();
            assert_eq!(ret[1], 0, "stale compaction request must not re-run");
            assert_eq!(store.generations().unwrap(), vec![1, 0]);
            // A request from a generation the shard never reached
            // answers without effect — and so does its recover dual,
            // which replays it should its retired pop be lost.
            let future = KvCompactFunction::args_for(0, 7);
            let ret = ctx.call(KV_COMPACT_FUNC_ID, &future).unwrap().unwrap();
            assert_eq!(ret[1], 0);
            let compact = KvCompactFunction::new(store.clone());
            assert_eq!(compact.recover(ctx, &future).unwrap().unwrap(), ret);
            assert_eq!(store.generations().unwrap(), vec![1, 0]);
            // Out-of-range shard is a task error, not a panic.
            assert!(ctx
                .call(KV_COMPACT_FUNC_ID, &KvCompactFunction::args_for(9, 0))
                .is_err());
        });
    }

    #[test]
    fn compaction_task_crash_points_resume_or_safely_abandon() {
        // Crash the compaction task at every persistence event of the
        // shard's region (inside the rewrite, at the root swap, during
        // retirement); the frame's recovery dual must leave the shard at
        // exactly generation 1 — resumed or redone, never double-swapped
        // — with contents intact.
        let shard = 0usize;
        let args = KvCompactFunction::args_for(shard as u32, 0);
        let run = |k: Option<u64>| {
            let (stripe, main, heap, store) = compaction_fixture(16, |key| key as i64 + 5);
            let want = store.contents().unwrap();
            let registry = registry_of(
                KvCompactFunction::new(store.clone()).into_arc(),
                KV_COMPACT_FUNC_ID,
            );
            let e0 = stripe.region(shard).events();
            if let Some(k) = k {
                stripe
                    .region(shard)
                    .arm_failpoint(FailPlan::after_events(k));
            }
            let outcome = on_stack(&main, &heap, &registry, true, |ctx| {
                ctx.call(KV_COMPACT_FUNC_ID, &args)
            });
            let events = stripe.region(shard).events() - e0;
            (stripe, main, want, outcome, events)
        };
        // Clean run: the shard region's event footprint of one task.
        let (.., outcome, total) = run(None);
        outcome.unwrap();
        assert!(total >= 3, "rewrite + swap + retirement in the region");

        for k in 0..total {
            let (stripe, main, want, outcome, _) = run(Some(k));
            assert!(outcome.unwrap_err().is_crash(), "crash at shard event {k}");
            // Whole-system failure, then the recovery dual.
            stripe.crash_all(3, 0.0);
            main.crash_now(3, 0.0);
            let stripe2 = stripe.reopen_all().unwrap();
            let main2 = main.reopen().unwrap();
            let store2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
            let f2 = KvCompactFunction::new(store2.clone());
            let heap2 = PHeap::open(main2.clone(), POffset::new(HEAP_OFF)).unwrap();
            let registry2 = FunctionRegistry::new();
            on_stack(&main2, &heap2, &registry2, false, |ctx| {
                let ret = f2.recover(ctx, &args).unwrap().unwrap();
                assert_eq!(ret[0], 9);
                assert_eq!(
                    store2.shard(shard).generation().unwrap(),
                    1,
                    "crash at {k}: resumed or redone, never double-swapped"
                );
                assert_eq!(store2.contents().unwrap(), want, "crash at {k}");
                let gens = store2.shard(shard).generations().unwrap();
                assert!(gens[0].retired, "crash at {k}: retirement finished");
                // A second recovery pass is a no-op.
                let ret = f2.recover(ctx, &args).unwrap().unwrap();
                assert_eq!(ret[1], 0, "crash at {k}: recovery is idempotent");
            });
        }
    }

    #[test]
    fn pending_tasks_cover_exactly_the_pending_descriptors() {
        let (_stripe, _main, _heap, exec) = sharded_fixture(&puts(0..10, |_| 1), 2);
        let tables = exec.tables();
        // Complete a descriptor by hand to make the pending sets sparse.
        answer(&tables[0], 0, 0, KvTaskResult::Stored(true));
        let pending_of = |s: usize| tables[s].pending_slots().unwrap();
        assert_ne!(pending_of(0).len(), pending_of(1).len());

        // Task k names every shard's k-th chunk of at most `batch`
        // pending slots (batch <= 1: one slot a shard), as a first
        // execution: every pending slot in exactly one task, and as
        // many tasks as the fullest shard has chunks.
        for batch in [0, 1, 3] {
            let chunk = batch.max(1);
            let tasks = exec.pending_tasks(batch).unwrap();
            let most = pending_of(0).len().max(pending_of(1).len());
            assert_eq!(tasks.len(), most.div_ceil(chunk), "batch {batch}");
            let mut covered = [Vec::new(), Vec::new()];
            for (k, task) in tasks.iter().enumerate() {
                assert_eq!(task.func_id, KV_SERVE_FUNC_ID);
                for part in exec.parse_args(&task.args).unwrap() {
                    let s = part.shard as usize;
                    let want = pending_of(s).chunks(chunk).nth(k).unwrap().to_vec();
                    assert_eq!((part.recovery, &part.slots), (false, &want), "task {k}");
                    covered[s].extend(part.slots);
                }
            }
            for (s, covered) in covered.iter().enumerate() {
                assert_eq!(*covered, pending_of(s), "batch {batch} shard {s}");
            }
        }
        // A drained table contributes nothing.
        for (s, table) in tables.iter().enumerate() {
            for slot in pending_of(s) {
                answer(table, slot, 0, KvTaskResult::Stored(true));
            }
        }
        assert!(exec.pending_tasks(3).unwrap().is_empty());
    }

    #[test]
    fn sharded_crash_between_store_op_and_mark_done_recovers_once() {
        // The §5.2 window, per shard: the shard's head CAS landed but
        // the answer in the shard's table never persisted. Recovery
        // must find the chain evidence inside that shard alone.
        let shard = shard_of(3, 2);
        sweep_window_crash_points(&[KvTaskOp::Put { key: 3, value: 33 }], shard, |k, exec| {
            assert_eq!(exec.store().get(3).unwrap(), Some(33), "crash at {k}");
            let published: usize = exec
                .store()
                .snapshot_sharded()
                .unwrap()
                .iter()
                .flatten()
                .map(Vec::len)
                .sum();
            assert_eq!(published, 1, "crash at {k}: exactly one record");
            assert_eq!(
                results_of(&exec.tables()[shard]),
                vec![Some(KvTaskResult::Stored(true))]
            );
        });
    }

    #[test]
    fn crash_between_store_op_and_mark_done_recovers_exactly_once() {
        // The critical §5.2-style window: the head CAS landed but the
        // answer never persisted. Recovery must find the chain evidence
        // and not double-apply. Stack, store and table share one region
        // here, so the sweep also crosses the frame's own persists.
        let args = on_shard(0, &[0]);
        let run = |k: Option<u64>| {
            let (pmem, heap, exec, stack) = fixture(&[KvTaskOp::Put { key: 3, value: 33 }]);
            let registry = exec.registry().unwrap();
            // The stack is formatted before the kill is armed: the sweep
            // covers the call, not the fixture.
            let (outcome, events) = on_stack_at(&pmem, stack, &heap, &registry, true, |ctx| {
                let e0 = pmem.events();
                if let Some(k) = k {
                    pmem.arm_failpoint(FailPlan::after_events(k));
                }
                let outcome = ctx.call(KV_SERVE_FUNC_ID, &args);
                (outcome, pmem.events() - e0)
            });
            (pmem, stack, outcome, events)
        };
        // Count events for a clean run to know the crash range.
        let (.., outcome, total) = run(None);
        outcome.unwrap();

        for k in 0..total {
            let (pmem, stack, outcome, _) = run(Some(k));
            assert!(outcome.unwrap_err().is_crash(), "crash at event {k}");
            let pmem2 = pmem.reopen().unwrap();
            let exec2 =
                KvServeFunction::open(std::slice::from_ref(&pmem2), KvVariant::Nsrl).unwrap();
            let registry2 = exec2.registry().unwrap();
            let heap2 = exec2.store().heap(0);
            on_stack_at(&pmem2, stack, heap2, &registry2, false, |ctx| {
                pstack_core::recover_stack(ctx).unwrap();
            });
            let (store2, t2) = (exec2.store().shard(0), &exec2.tables()[0]);
            // Whether or not the operation linearized before the crash,
            // the key holds the value at most once in the published log;
            // if the descriptor is marked done, exactly once.
            let published: usize = store2.snapshot().unwrap().iter().map(Vec::len).sum();
            assert!(published <= 1, "crash at event {k}: duplicate record");
            if let Some(ans) = t2.result(0).unwrap() {
                assert_eq!(ans.result, KvTaskResult::Stored(true));
                assert_eq!(published, 1, "crash at event {k}: answer without record");
                assert_eq!(store2.get(3).unwrap(), Some(33));
            }
        }
    }
}
