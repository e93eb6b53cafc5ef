//! KV workload descriptors and the recoverable functions gluing the
//! store to the persistent-stack runtime — the KV side of the §5.2
//! machinery, over the same descriptor-table format as the §5 tasks
//! ([`pstack_core::table`]).
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
//!
//! This file holds the serving layout, the task functions and the §5.2
//! loop's re-enqueue; the window itself — its levels and its replay's
//! check — is in `funcs/window.rs` ([`KvServeFunction::execute_window`]).

use std::sync::Arc;

use pstack_core::{FunctionRegistry, PContext, PError, RecoverableFunction, RetBytes, Task};
use pstack_nvram::{op_label, PMem};
use pstack_verify::{KvAnswer, KvOp, KvOpKind};

use crate::reqtable::{split_id, KvRequestTable, ReqSubmit};
use crate::shard::ShardedKvStore;
use crate::store::KvVariant;

mod window;

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
    /// Bundles a sharded store with one request table per shard, and
    /// gives each table its shard's store, which checks the answers the
    /// table found at its `open` when they are first read.
    ///
    /// # Panics
    ///
    /// Panics if the table count differs from the store's shard count.
    #[must_use]
    pub fn new(store: ShardedKvStore, tables: Vec<KvRequestTable>) -> Self {
        assert_eq!(store.nshards(), tables.len(), "one request table per shard");
        for (shard, table) in tables.iter().enumerate() {
            table.attach(store.shard(shard));
        }
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
    /// ascending order, and slots inside their shard's table, each at
    /// most once. The order is what lets windows run side by side: a
    /// shard's group commit holds the shard's gate until it commits, so
    /// a window naming a shard twice would wait on itself, and two
    /// windows taking gates in different orders could wait on each
    /// other. A slot named twice would be staged twice, its descriptor
    /// applied twice under one tag.
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
            let mut slots = part.slots.clone();
            slots.sort_unstable();
            if let Some(pair) = slots.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(PError::Task(format!(
                    "slot {} named twice in shard {}'s part",
                    pair[0], part.shard
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
/// committed, so recovery only re-registers the retired generations with
/// the heap; otherwise the half-built generation block is an unreachable
/// orphan and the compaction re-executes safely. Either way a crash
/// *anywhere* inside the rewrite or at the swap resumes or safely
/// abandons — never double-commits — which the crash-point enumeration
/// test walks boundary by boundary.
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
            // The evidence scan decides: resume (the swap committed) or
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
mod tests;
