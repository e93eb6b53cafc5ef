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
//!   `get` reads and one mutation API: a put, delete or cas is a
//!   [`KvBatchOp`] in a group commit ([`PKvStore::apply_batch`]), and
//!   its recovery dual is [`PKvStore::recover_batch`];
//!   [`ShardedKvStore`] stripes the key space across `N` of them, one
//!   independent region (one version log, one recovery scan) per shard
//!   behind the [`shard_of`] router, with [`KvBatch`] group commits;
//! * [`KvRequestTable`] — the durable table of operation descriptors
//!   and answers, per shard, keyed by request id: `pstack-core`'s one
//!   descriptor-table format ([`pstack_core::table`]) plus the KV codec
//!   and admission (ids, recycling, marks, stale retransmissions). A
//!   server
//!   fills it as requests arrive; a §5.2-style experiment preloads it
//!   with its whole workload ([`KvServeFunction::preload`]) and
//!   re-enqueues what is still pending after every restart
//!   ([`KvServeFunction::pending_tasks`]);
//! * [`KvServeFunction`] — the one recoverable function that executes
//!   descriptors: a batch window naming any number of shards' slots as
//!   one persistent-stack task (a group commit per shard, or the
//!   evidence-scanning dual on replay, every shard's slots — each
//!   descriptor with its answer — records and header in the window's
//!   one level, one round-trip), so KV
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
//! NVTraverse shows only the *destination* stores need ordered
//! persistence — here the records a published head can reach, and the
//! log's header; a bucket head is traversal state, which the log can
//! rebuild. Accordingly, the store batches mutations
//! ([`PKvStore::apply_batch`]): every record of a batch, stamped, and
//! the generation header become durable in one level, beside the heads
//! the shard's previous commit flipped; then the batch's touched heads
//! are published once each and left dirty for the next commit, or a
//! reopen's replay of the stamped log, to persist. A batch waits one
//! round-trip however many shards commit together, a served window's
//! too. A crash at any point leaves each shard's
//! batch whole or absent — never a torn head — so the evidence-scan
//! recovery argument is unchanged, and the per-mutation persist count
//! drops by the batch factor.
//! Sharding multiplies this by core count: different shards are
//! different regions, so their critical sections never serialize.
//!
//! # Reads: the volatile index
//!
//! The same rule keeps reads off NVRAM: traversal state that recovery
//! can rebuild need not be read back from persistent memory. Each store
//! region keeps, in DRAM, the active generation's descriptor and one
//! head per bucket — shared by every handle on the region, like its
//! exclusive section, and gone when the region reboots. `format` and
//! [`PKvStore::open`] build it, `open` after its replay of the stamped
//! log, with one read of the bucket array; a group commit stores each
//! head it publishes there beside the head's NVRAM CAS, on the same
//! receipt; a compaction replaces it right after its root swap. So a
//! get reads NVRAM only for the records of its chain (none for an empty
//! bucket), and a crashed region answers nothing. What is durable is
//! unchanged: records and headers, the heads a later commit persists
//! — which `open` replays into and which a retired generation keeps as
//! evidence — and the root cell. Retired generations and the replay
//! read the image.
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
//! A mutation takes the next log slot (a batch counts its slots from
//! the header's tail and writes the tail once), writes the full record
//! — `(kind, key, value, pid, seq, next)` and its stamp fill one
//! 64-byte-aligned slot, so it persists atomically — and then
//! *publishes* it with a single 8-byte CAS on the bucket head, once the
//! record is durable. A crash before then leaves an orphan, which a
//! reopen replays into its chain only if its whole batch landed: never
//! a torn or half-visible update. The bucket
//! chain order **is** the linearization order of the key's mutations,
//! which is what makes the execution verifiable
//! ([`ShardedKvStore::check`], over `pstack-verify`'s
//! `check_kv_sharded_gen`) and recovery a scan: an interrupted
//! operation linearized iff some published record carries its
//! `(pid, seq)` tag.
//! The `KvVariant::NoScan` seed (`test` and `fault-seeds` builds only)
//! removes that scan — the analogue of the paper removing the matrix
//! `R` — and the verifier catches the resulting double applications.
//!
//! The store runs on **buffered** regions — caches in front of NVRAM,
//! as on real hardware — and orders its own persists through one
//! routine, the group commit (records ‖ header, the heads riding the
//! next commit); a lone mutation is a batch of one. It is the only kind of
//! region there is: the `pstack-recoverable` objects run on the same
//! regions, under their own persist-store / persist-load rule.

mod funcs;
mod reqtable;
mod shard;
mod store;

pub use funcs::{
    KvCompactFunction, KvServeFunction, KvTaskAnswer, KvTaskOp, KvTaskResult, ShardWindow,
    KV_COMPACT_FUNC_ID, KV_SERVE_FUNC_ID,
};
pub use reqtable::{KvRequestTable, ReqSubmit};
pub use shard::{shard_of, KvBatch, ShardedKvStore};
pub use store::{
    CompactionStats, GenerationInfo, KvApplied, KvBatchOp, KvPendingBatch, KvVariant, PKvStore,
    VersionRecord,
};
