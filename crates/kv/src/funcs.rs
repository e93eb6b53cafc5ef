//! KV workload descriptors and the recoverable functions gluing the
//! store to the persistent-stack runtime — the KV analogue of the §5.2
//! CAS machinery (`TaskTable` + `CasTaskFunction`) and of the queue's
//! `QueueOpTable` + `QueueTaskFunction`.
//!
//! There is **one** executor of KV descriptors, [`KvServeFunction`]:
//! a batch window over the slots of a shard's [`KvRequestTable`]. The
//! server drains admitted requests into such windows; a static workload
//! (a campaign, a bench, a property test) is a request table preloaded
//! with every mutation up front ([`KvServeFunction::preload`]) and
//! re-enqueued window by window after every restart
//! ([`KvServeFunction::pending_tasks`]) — the §5.2 loop. Reads are never
//! descriptors: the one read path is [`ShardedKvStore::get_durable`].

use std::sync::Arc;

use pstack_core::{FunctionRegistry, PContext, PError, RecoverableFunction, RetBytes, Task};
use pstack_nvram::{op_label, PMem};
use pstack_verify::{KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvWitnessRecord};

use crate::reqtable::{split_id, KvRequestTable, ReqSubmit};
use crate::shard::ShardedKvStore;
use crate::store::{KvApplied, KvBatchOp, KvVariant, PKvStore};

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
    mutators: usize,
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
        KvServeFunction {
            store,
            tables,
            mutators: 1,
        }
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

    /// Sets how many concurrent mutator threads a non-recovery window
    /// drives (default 1, the quiesced group commit). With more, the
    /// window's mutations run through the lock-free detectable
    /// publication path instead: each thread reserves, persists and
    /// publishes its records independently, overlapping their persist
    /// round-trips. Recovery windows are unaffected — replays stay on
    /// the evidence-scanning [`PKvStore::recover_batch`] dual.
    ///
    /// Answers still linearize (each op takes effect exactly once at
    /// its head-CAS), but ops on the *same key* in one window may
    /// interleave in any real-time order rather than slot order.
    #[must_use]
    pub fn with_mutators(mut self, mutators: usize) -> Self {
        self.mutators = mutators.max(1);
        self
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

    /// Encodes a batch window as task arguments:
    /// `[shard u32][recovery u8][count u32][slot u32 × count]`.
    #[must_use]
    pub fn window_args(shard: u32, recovery: bool, slots: &[u32]) -> Vec<u8> {
        let mut b = Vec::with_capacity(9 + slots.len() * 4);
        b.extend_from_slice(&shard.to_le_bytes());
        b.push(u8::from(recovery));
        b.extend_from_slice(&(slots.len() as u32).to_le_bytes());
        for &slot in slots {
            b.extend_from_slice(&slot.to_le_bytes());
        }
        b
    }

    fn parse_args(args: &[u8]) -> Result<(u32, bool, Vec<u32>), PError> {
        if args.len() < 9 {
            return Err(PError::Task(
                "serve window arguments need (shard, recovery, count)".into(),
            ));
        }
        let shard = u32::from_le_bytes(args[..4].try_into().expect("slice length"));
        let recovery = args[4] != 0;
        let count = u32::from_le_bytes(args[5..9].try_into().expect("slice length")) as usize;
        if args.len() != 9 + count * 4 {
            return Err(PError::Task(format!(
                "serve window names {count} slots but carries {} bytes",
                args.len()
            )));
        }
        let slots = args[9..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("slice length")))
            .collect();
        Ok((shard, recovery, slots))
    }

    /// The re-enqueue step of the §5.2 loop: one [`Task`] per window of
    /// at most `batch` still-pending slots, shard by shard in slot
    /// order (a single op is a window of one). Call it once the stack's
    /// own recovery has completed: an interrupted window's frame is
    /// replayed by its recover dual, so whatever is still pending
    /// afterwards never started and its window runs as a first
    /// execution.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn pending_tasks(&self, batch: usize) -> Result<Vec<Task>, PError> {
        let mut tasks = Vec::new();
        for (shard, table) in self.tables.iter().enumerate() {
            for slots in table.pending_slots()?.chunks(batch.max(1)) {
                tasks.push(Task::new(
                    KV_SERVE_FUNC_ID,
                    Self::window_args(shard as u32, false, slots),
                ));
            }
        }
        Ok(tasks)
    }

    /// The quiescent execution as the sharded verifier wants it: every
    /// descriptor in the tables with its durable answer, tagged as the
    /// window tagged its record (`(client, req_id)`), plus each shard's
    /// chain witness. Reads are not in the tables — a harness appends
    /// the gets it answered itself.
    ///
    /// # Errors
    ///
    /// [`PError::Task`] if a descriptor is still pending; propagated
    /// NVRAM errors.
    pub fn history(&self) -> Result<KvShardedHistory, PError> {
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
        let shards = self
            .store
            .snapshot_sharded()?
            .into_iter()
            .map(|chains| {
                chains
                    .into_iter()
                    .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                    .collect()
            })
            .collect();
        Ok(KvShardedHistory { ops, shards })
    }

    /// Executes one batch window: answered slots are skipped (their
    /// answers are simply re-collected), mutations group-commit through
    /// the shard's
    /// [`PKvStore::apply_batch`] — or its evidence-scanning
    /// [`PKvStore::recover_batch`] dual when `recovery` — and all
    /// answers persist with one coalesced
    /// [`KvRequestTable::mark_done_batch`] *before* any `(req_id,
    /// answer)` pair is returned for acking: answers are durable before
    /// they are visible. A window never carries a read — the server
    /// answers those at admission and a harness answers its own, both
    /// through [`ShardedKvStore::get_durable`], the one read path — so a
    /// `Get` descriptor here is a caller's error, not a second way to
    /// read.
    ///
    /// # Errors
    ///
    /// Shard out of range or a get descriptor ([`PError::Task`]), or
    /// propagated store/NVRAM errors.
    pub fn execute_window(
        &self,
        shard: u32,
        slots: &[u32],
        recovery: bool,
        executor: u32,
    ) -> Result<Vec<(u64, KvTaskAnswer)>, PError> {
        let _label = op_label(if recovery {
            "server.window.recover"
        } else {
            "server.window"
        });
        let table = self.tables.get(shard as usize).ok_or_else(|| {
            PError::Task(format!(
                "shard {shard} out of range ({} shards)",
                self.tables.len()
            ))
        })?;
        let mut ready: Vec<(u64, KvTaskAnswer)> = Vec::new();
        let mut staged: Vec<(u32, u64)> = Vec::new();
        let mut ops: Vec<KvBatchOp> = Vec::new();
        for &slot in slots {
            let req_id = table.req_id(slot)?;
            if req_id == 0 {
                // A replayed frame whose descriptor never became durable
                // (the drain's persist met the power failure): nothing
                // ran on its behalf and nothing may — the client's retry
                // is fresh.
                continue;
            }
            if let Some(answer) = table.result(slot)? {
                ready.push((req_id, answer)); // already durable: replay only
                continue;
            }
            let (pid, seq) = (u64::from(split_id(req_id).0), req_id);
            staged.push((slot, req_id));
            ops.push(match table.op(slot)? {
                KvTaskOp::Get { .. } => {
                    return Err(PError::Task(format!(
                        "slot {slot} of shard {shard} holds a get: reads are answered at admission"
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
        let pstore = self.store.shard(shard as usize);
        let outcomes = if ops.is_empty() {
            Vec::new()
        } else if recovery {
            pstore.recover_batch(&ops)?
        } else if self.mutators > 1 {
            Self::apply_concurrent(pstore, &ops, self.mutators)?
        } else {
            pstore.apply_batch(&ops)?
        };
        let mut answers = Vec::with_capacity(ops.len());
        for ((&(slot, req_id), op), outcome) in staged.iter().zip(&ops).zip(outcomes) {
            let result = match op {
                KvBatchOp::Put { .. } => KvTaskResult::Stored(outcome.took_effect()),
                KvBatchOp::Delete { .. } => KvTaskResult::Deleted(outcome.took_effect()),
                KvBatchOp::Cas { .. } => KvTaskResult::Swapped(outcome.took_effect()),
            };
            answers.push((slot, executor, result));
            ready.push((req_id, KvTaskAnswer { executor, result }));
        }
        table.mark_done_batch(&answers)?;
        Ok(ready)
    }

    /// Applies a window's mutations with `mutators` concurrent
    /// threads, each publishing its share lock-free. Outcomes come
    /// back in op order; a crash in any thread surfaces as the first
    /// error (the whole window then replays through recovery).
    fn apply_concurrent(
        store: &PKvStore,
        ops: &[KvBatchOp],
        mutators: usize,
    ) -> Result<Vec<KvApplied>, PError> {
        let shares: Vec<Result<Vec<(usize, KvApplied)>, PError>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..mutators.min(ops.len()))
                .map(|m| {
                    sc.spawn(move || {
                        let _label = op_label("server.window.mutator");
                        (m..ops.len())
                            .step_by(mutators)
                            .map(|i| Ok((i, store.publish_one(ops[i])?)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("window mutator panicked"))
                .collect()
        });
        let mut outcomes = vec![KvApplied::PrecondFailed; ops.len()];
        for share in shares {
            for (i, outcome) in share? {
                outcomes[i] = outcome;
            }
        }
        Ok(outcomes)
    }
}

/// A window's product is the durable answers in its request table, so
/// the frame returns unit: nothing reads a return value, and a unit
/// return spares the frame the separate value persist.
impl RecoverableFunction for KvServeFunction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let (shard, recovery, slots) = Self::parse_args(args)?;
        self.execute_window(shard, &slots, recovery, ctx.pid as u32)?;
        Ok(None)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let (shard, _, slots) = Self::parse_args(args)?;
        // A replayed frame might have executed before the crash: always
        // the evidence-scanning duals.
        self.execute_window(shard, &slots, true, ctx.pid as u32)?;
        Ok(None)
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
        let ran = if recovery {
            // The evidence scan decides: resume (finish retirement) or
            // safely abandon-and-redo.
            !self.store.recover_compact_shard(shard, from_gen)?
        } else if self.store.shard(shard).generation()? == from_gen {
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
    use pstack_core::{FixedStack, FunctionRegistry};
    use pstack_heap::PHeap;
    use pstack_nvram::{FailPlan, PMem, PMemBuilder, PMemStripe, POffset};

    const HEAP_OFF: u64 = 8192;
    const REGION_LEN: usize = 1 << 18;

    fn eager_region() -> PMem {
        PMemBuilder::new()
            .len(REGION_LEN)
            .eager_flush(true)
            .build_in_memory()
    }

    /// A bare table holding `ops` (gets included — the table can hold
    /// any kind; it is the window that refuses to execute a read).
    fn table_of(ops: &[KvTaskOp]) -> (PMem, KvRequestTable) {
        let pmem = eager_region();
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

    /// The PR 2 shape: stack, heap, store and preloaded table all in
    /// one eager region, the store riding as a one-shard stripe.
    fn fixture(ops: &[KvTaskOp]) -> (PMem, PHeap, KvServeFunction) {
        let pmem = eager_region();
        let heap = PHeap::format(
            pmem.clone(),
            POffset::new(HEAP_OFF),
            REGION_LEN as u64 - HEAP_OFF,
        )
        .unwrap();
        let store = PKvStore::format(pmem.clone(), &heap, 8, 64, KvVariant::Nsrl).unwrap();
        let store = ShardedKvStore::from_parts(vec![store], vec![heap.clone()]).unwrap();
        (pmem, heap, KvServeFunction::preload(store, ops).unwrap())
    }

    /// A stripe with one preloaded table per shard, plus the (eager)
    /// control region the persistent stack lives in.
    fn sharded_fixture(
        ops: &[KvTaskOp],
        nshards: usize,
        eager: bool,
    ) -> (PMemStripe, PMem, PHeap, KvServeFunction) {
        let stripe = PMemBuilder::new()
            .len(REGION_LEN)
            .eager_flush(eager)
            .build_striped(nshards);
        let store = ShardedKvStore::format(stripe.regions(), 8, 128, KvVariant::Nsrl).unwrap();
        let exec = KvServeFunction::preload(store, ops).unwrap();
        let main = eager_region();
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
        let mut stack = if fresh {
            FixedStack::format(main.clone(), POffset::new(0), 4096).unwrap()
        } else {
            FixedStack::open(main.clone(), POffset::new(0), 4096).unwrap()
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

    /// The whole of shard `shard`'s table as one window.
    fn whole_table(exec: &KvServeFunction, shard: usize) -> Vec<u8> {
        let slots: Vec<u32> = (0..exec.tables()[shard].capacity()).collect();
        KvServeFunction::window_args(shard as u32, false, &slots)
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

        table.mark_done(0, 2, KvTaskResult::Stored(true)).unwrap();
        table.mark_done(1, 3, KvTaskResult::Got(Some(-5))).unwrap();
        table.mark_done(2, 1, KvTaskResult::Deleted(true)).unwrap();
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
        table.mark_done(0, 0, KvTaskResult::Got(None)).unwrap();
        table.mark_done(1, 0, KvTaskResult::Swapped(false)).unwrap();
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
        let (pmem, heap, exec) = fixture(&ops);
        let registry = exec.registry().unwrap();
        let one = |slot: u32| KvServeFunction::window_args(0, false, &[slot]);
        on_stack(&pmem, &heap, &registry, true, |ctx| {
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
        let (_stripe, main, heap, exec) = sharded_fixture(&ops, 2, true);
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
            ctx.call(
                KV_SERVE_FUNC_ID,
                &KvServeFunction::window_args(0, false, &[0]),
            )
            .unwrap();
            assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
        });
    }

    #[test]
    fn sharded_tags_are_globally_unique() {
        // Preloaded request ids — the store tags — differ across shards
        // and across descriptors, and name their shard as the client.
        let (_stripe, _main, _heap, exec) = sharded_fixture(&puts(0..16, |_| 1), 4, false);
        let mut ids = std::collections::HashSet::new();
        for (s, table) in exec.tables().iter().enumerate() {
            for slot in table.pending_slots().unwrap() {
                let id = table.req_id(slot).unwrap();
                assert_eq!(split_id(id), (s as u32 + 1, slot + 1));
                assert!(ids.insert(id), "request id {id:#x} reused");
            }
        }
        assert_eq!(ids.len(), 16);

        let args = KvServeFunction::window_args(2, true, &[5, 6, 7, 8]);
        assert_eq!(
            KvServeFunction::parse_args(&args).unwrap(),
            (2, true, vec![5, 6, 7, 8])
        );
        let args = KvServeFunction::window_args(3, false, &[]);
        assert_eq!(
            KvServeFunction::parse_args(&args).unwrap(),
            (3, false, vec![])
        );
        // Truncated or over-long argument blocks are errors.
        assert!(KvServeFunction::parse_args(&[0; 4]).is_err());
        assert!(KvServeFunction::parse_args(&args[..8]).is_err());
        let mut long = KvServeFunction::window_args(0, false, &[1]);
        long.push(0);
        assert!(KvServeFunction::parse_args(&long).is_err());
    }

    #[test]
    fn batch_window_group_commits_and_answers_in_one_pass() {
        let ops = puts(0..16, |key| key as i64 + 1);
        let (_stripe, main, heap, exec) = sharded_fixture(&ops, 2, false);
        let registry = exec.registry().unwrap();
        on_stack(&main, &heap, &registry, true, |ctx| {
            // One window per shard covering the whole table.
            for (s, table) in exec.tables().iter().enumerate() {
                let ret = ctx.call(KV_SERVE_FUNC_ID, &whole_table(&exec, s)).unwrap();
                assert_eq!(ret, None, "a window's product is its durable answers");
                assert!(table.pending_slots().unwrap().is_empty(), "shard {s}");
            }
            assert_eq!(exec.store().contents().unwrap().len(), 16);
            assert_eq!(exec.store().get_durable(3).unwrap(), Some(4));
            // Exactly one group commit per shard — the batch rode the
            // persistent-stack task.
            assert_eq!(exec.store().flush_epochs().unwrap(), vec![1, 1]);
            // A replayed window is a no-op: answers are durable.
            let before = exec.store().log_reserved_per_shard().unwrap();
            ctx.call(KV_SERVE_FUNC_ID, &whole_table(&exec, 0)).unwrap();
            assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
        });
    }

    #[test]
    fn multi_mutator_window_publishes_lock_free() {
        // The same window contract as the group commit — every
        // descriptor answered, every put landed exactly once — but
        // driven by four concurrent mutators per shard through the
        // lock-free publication path (no group-commit epoch at all).
        let ops = puts(0..24, |key| key as i64 + 1);
        let (_stripe, main, heap, exec) = sharded_fixture(&ops, 2, false);
        let exec = exec.with_mutators(4);
        let registry = exec.registry().unwrap();
        on_stack(&main, &heap, &registry, true, |ctx| {
            for (s, table) in exec.tables().iter().enumerate() {
                ctx.call(KV_SERVE_FUNC_ID, &whole_table(&exec, s)).unwrap();
                assert!(table.pending_slots().unwrap().is_empty(), "shard {s}");
            }
            assert_eq!(exec.store().contents().unwrap().len(), 24);
            assert_eq!(
                exec.store().flush_epochs().unwrap(),
                vec![0, 0],
                "published per-op, not by group commit"
            );
            // Replays stay idempotent: answers are durable.
            let before = exec.store().log_reserved_per_shard().unwrap();
            ctx.call(KV_SERVE_FUNC_ID, &whole_table(&exec, 0)).unwrap();
            assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
        });
    }

    /// Crashes `window` of shard `shard` at every event of the shard's
    /// region, reboots the whole system, replays the window through the
    /// recover dual, and hands each recovered system to `check`.
    fn sweep_window_crash_points(
        ops: &[KvTaskOp],
        eager: bool,
        shard: usize,
        check: impl Fn(u64, &KvServeFunction),
    ) {
        let run = |k: Option<u64>| {
            let (stripe, main, heap, exec) = sharded_fixture(ops, 2, eager);
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

        for k in 0..total {
            let (stripe, main, args, outcome, _) = run(Some(k));
            assert!(outcome.unwrap_err().is_crash(), "crash at shard event {k}");
            // Whole-system failure, then the recovery boot.
            stripe.crash_all(7, 0.0);
            main.crash_now(7, 0.0);
            let (main2, heap2, exec2) = reopen_sharded(&stripe, &main);
            let registry2 = FunctionRegistry::new();
            on_stack(&main2, &heap2, &registry2, false, |ctx| {
                exec2.recover(ctx, &args).unwrap();
            });
            check(k, &exec2);
        }
    }

    #[test]
    fn batch_window_crash_points_recover_exactly_once() {
        // Enumerate every shard-region crash point inside one batch
        // window; the recover dual (evidence scan + recover_batch) must
        // complete each op exactly once from every intermediate state.
        let shard = 0usize;
        sweep_window_crash_points(
            &puts(0..12, |key| key as i64 + 50),
            false,
            shard,
            |k, exec| {
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
            },
        );
    }

    /// A buffered two-shard stripe whose shard 0 holds some live keys —
    /// the compaction tests' starting point.
    fn compaction_fixture(
        keys: u64,
        value_of: impl Fn(u64) -> i64,
    ) -> (PMemStripe, PMem, PHeap, ShardedKvStore) {
        let (stripe, main, heap, exec) = sharded_fixture(&[], 2, false);
        let store = exec.store().clone();
        for (i, key) in (0..keys).filter(|&k| shard_of(k, 2) == 0).enumerate() {
            store.put(0, i as u64 + 1, key, value_of(key)).unwrap();
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
        let (_stripe, _main, _heap, exec) = sharded_fixture(&puts(0..10, |_| 1), 2, false);
        let tables = exec.tables();
        // Complete a descriptor by hand to make the pending sets sparse.
        tables[0]
            .mark_done(0, 0, KvTaskResult::Stored(true))
            .unwrap();
        let pending_of = |s: usize| tables[s].pending_slots().unwrap();
        let slots_of = |task: &Task| KvServeFunction::parse_args(&task.args).unwrap();

        // batch <= 1: one window of one per pending descriptor.
        for batch in [0, 1] {
            let singles = exec.pending_tasks(batch).unwrap();
            assert_eq!(singles.len(), pending_of(0).len() + pending_of(1).len());
            assert!(singles.iter().all(|t| slots_of(t).2.len() == 1));
        }

        // Windows: chunks of ≤ 3 pending descriptors, first executions,
        // each shard's windows covering exactly its pending slots.
        let windows = exec.pending_tasks(3).unwrap();
        assert!(windows.iter().all(|t| t.func_id == KV_SERVE_FUNC_ID));
        for s in 0..2 {
            let shard_windows: Vec<_> = windows
                .iter()
                .map(slots_of)
                .filter(|w| w.0 as usize == s)
                .collect();
            assert_eq!(shard_windows.len(), pending_of(s).len().div_ceil(3));
            assert!(shard_windows.iter().all(|w| !w.1 && w.2.len() <= 3));
            let covered: Vec<u32> = shard_windows.into_iter().flat_map(|w| w.2).collect();
            assert_eq!(covered, pending_of(s));
        }
        // A drained table contributes nothing.
        for (s, table) in tables.iter().enumerate() {
            for slot in pending_of(s) {
                table
                    .mark_done(slot, 0, KvTaskResult::Stored(true))
                    .unwrap();
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
        sweep_window_crash_points(
            &[KvTaskOp::Put { key: 3, value: 33 }],
            true,
            shard,
            |k, exec| {
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
            },
        );
    }

    #[test]
    fn crash_between_store_op_and_mark_done_recovers_exactly_once() {
        // The critical §5.2-style window: the head CAS landed but the
        // answer never persisted. Recovery must find the chain evidence
        // and not double-apply. Stack, store and table share one region
        // here, so the sweep also crosses the frame's own persists.
        let args = KvServeFunction::window_args(0, false, &[0]);
        let run = |k: Option<u64>| {
            let (pmem, heap, exec) = fixture(&[KvTaskOp::Put { key: 3, value: 33 }]);
            let registry = exec.registry().unwrap();
            // The stack is formatted before the kill is armed: the sweep
            // covers the call, not the fixture.
            let (outcome, events) = on_stack(&pmem, &heap, &registry, true, |ctx| {
                let e0 = pmem.events();
                if let Some(k) = k {
                    pmem.arm_failpoint(FailPlan::after_events(k));
                }
                let outcome = ctx.call(KV_SERVE_FUNC_ID, &args);
                (outcome, pmem.events() - e0)
            });
            (pmem, exec, outcome, events)
        };
        // Count events for a clean run to know the crash range.
        let (.., outcome, total) = run(None);
        outcome.unwrap();

        for k in 0..total {
            let (pmem, exec, outcome, _) = run(Some(k));
            assert!(outcome.unwrap_err().is_crash(), "crash at event {k}");
            let pmem2 = pmem.reopen().unwrap();
            let heap2 = PHeap::open(pmem2.clone(), POffset::new(HEAP_OFF)).unwrap();
            let store2 =
                PKvStore::open(pmem2.clone(), exec.store().shard(0).base(), KvVariant::Nsrl)
                    .unwrap();
            let t2 = KvRequestTable::open(pmem2.clone(), exec.tables()[0].base()).unwrap();
            let sharded2 =
                ShardedKvStore::from_parts(vec![store2.clone()], vec![heap2.clone()]).unwrap();
            let exec2 = KvServeFunction::new(sharded2, vec![t2.clone()]);
            let registry2 = exec2.registry().unwrap();
            on_stack(&pmem2, &heap2, &registry2, false, |ctx| {
                pstack_core::recover_stack(ctx).unwrap();
            });
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
