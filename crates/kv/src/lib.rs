//! `pstack-kv` — a recoverable key-value store on the persistent-stack
//! runtime.
//!
//! The ROADMAP's north star asks for a real workload on top of the
//! micro-primitives (CAS, counter, queue); a durable KV store is the
//! canonical end-to-end application of this literature (it is the
//! evaluation vehicle of both FliT and NVTraverse). This crate provides
//! one in the NSRL style of `pstack-recoverable`:
//!
//! * [`PKvStore`] — a persistent hash-indexed map from `u64` keys to
//!   `i64` values, laid out in the `PMem` region via `PHeap`, with
//!   `put`/`get`/`delete`/`cas` operations and their recovery duals;
//!   [`ShardedKvStore`] stripes the key space across `N` of them, one
//!   independent region (one version log, one recovery scan) per shard
//!   behind the [`shard_of`] router, with [`KvBatch`] group commits;
//! * [`KvRequestTable`] — the one durable table of operation
//!   descriptors and answers, per shard, keyed by request id. A server
//!   fills it as requests arrive; a §5.2-style experiment preloads it
//!   with its whole workload ([`KvServeFunction::preload`]) and
//!   re-enqueues what is still pending after every restart
//!   ([`KvServeFunction::pending_tasks`]);
//! * [`KvServeFunction`] — the one recoverable function that executes
//!   descriptors: a batch window of a shard's slots as one
//!   persistent-stack task (group commit, or the evidence-scanning
//!   dual on replay, then one line-atomic answer persist), so KV
//!   traffic runs through `run_tasks` and survives crashes via the
//!   persistent stack. Reads are never descriptors —
//!   [`ShardedKvStore::get_durable`] is the one read path;
//! * [`KvCompactFunction`] — a shard's compaction as a recoverable
//!   task, resumed or safely abandoned from the root cell's evidence.
//!
//! # Scaling: sharding and group commit
//!
//! Two §5-adjacent results justify the scaling layer. FliT shows that
//! most persistence overhead is redundant flushes on the hot path;
//! NVTraverse shows only the *destination* stores (here: records a
//! published head can reach, the head itself, and the log tail) need
//! eager persistence. Accordingly, a store on a **buffered** region
//! batches mutations ([`PKvStore::apply_batch`]): all records and the
//! log tail become durable in one coalesced persist, the touched
//! bucket heads are published once each and persisted together, and a
//! persistent flush epoch closes the batch. A crash at any flush
//! boundary leaves each bucket entirely pre- or post-batch — never a
//! torn head — so the evidence-scan recovery argument is unchanged,
//! and the per-mutation persist count drops by the batch factor.
//! Sharding multiplies this by core count: different shards are
//! different regions, so their critical sections never serialize.
//!
//! # Design: a hash index over an append-only version log
//!
//! Updating a value *in place* destroys the evidence recovery needs —
//! exactly the problem §5's recoverable CAS solves with its helping
//! matrix `R`. The store sidesteps it the same way the recoverable
//! queue does: **effects are never overwritten**. The store is a bucket
//! array of chain heads plus a bounded log of immutable version
//! records:
//!
//! ```text
//! bucket[h(k)] ──▶ record ──next──▶ record ──next──▶ … ──▶ ∅
//!                  (newest)                (oldest)
//! ```
//!
//! A mutation reserves a log slot (CAS on the persistent tail counter),
//! writes the full record — `(kind, key, value, pid, seq, next)` fits
//! in 48 bytes of a 64-byte-aligned slot, so it persists atomically —
//! and then *publishes* it with a single 8-byte CAS on the bucket head.
//! The record is unreachable until that CAS, so a crash can only leave
//! an invisible orphan, never a torn or half-visible update. The bucket
//! chain order **is** the linearization order of the key's mutations,
//! which is what makes the execution verifiable (`pstack-verify`'s
//! `check_kv`) and recovery a scan: an interrupted operation linearized
//! iff some published record carries its `(pid, seq)` tag.
//! [`KvVariant::NoScan`] removes that scan — the analogue of the paper
//! removing the matrix `R` — and the verifier catches the resulting
//! double applications.
//!
//! The store runs on either kind of region. On an `eager_flush` region
//! — §5's cache-less NVRAM, where every write is durable the moment it
//! completes — each mutation publishes on its own. On a **buffered**
//! region the store orders its own persists: per-op mutations run
//! reserve → persist → publish lock-free, group commits batch them as
//! above, and this is the mode the server and `BENCHMARK.json` build.

mod funcs;
mod reqtable;
mod shard;
mod store;

pub use funcs::{
    KvCompactFunction, KvServeFunction, KvTaskAnswer, KvTaskOp, KvTaskResult, KV_COMPACT_FUNC_ID,
    KV_SERVE_FUNC_ID,
};
pub use reqtable::{KvRequestTable, ReqSubmit};
pub use shard::{shard_of, KvBatch, ShardedKvStore};
pub use store::{
    CompactionStats, GenerationInfo, KvApplied, KvBatchOp, KvPendingBatch, KvVariant, PKvStore,
    VersionRecord,
};
