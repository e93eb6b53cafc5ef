//! The serving core: admission → staged descriptor → drain persist →
//! batch window → durable answer → ack, with every step crash-safe and
//! **only the persists exactly-once needs**.
//!
//! # Exactly-once, in two layers
//!
//! A retried request must take effect at most once while its ack is
//! delivered at least once. Two durable mechanisms compose to give
//! that:
//!
//! 1. **The request table** ([`KvRequestTable`], one per shard): a
//!    mutation's descriptor is durable *before the window that names
//!    its slot is handed out*, so a retry of an answered request
//!    replays the durable answer and a retry of a pending request
//!    re-enters execution without a second slot.
//! 2. **The store's evidence scan**: version records are tagged
//!    `(pid = client_id, seq = req_id)` — a tag stable across retries
//!    and across executing workers. Any execution that *might* be a
//!    re-execution (a retried pending slot, or a window replayed by
//!    stack recovery) runs through the store's `recover_*` duals, which
//!    scan for the tag first and take **no new effect** if the first
//!    execution's record was already published. The table is the fast
//!    path; the evidence scan is the authority.
//!
//! The rule that makes layer 2 sufficient: a window is executed via
//! [`PKvStore::apply_batch`] only the *first* time its requests are
//! drained in the boot that admitted them. Every other path — client
//! retries, post-reboot re-admission, persistent-stack frame replay —
//! goes through [`PKvStore::recover_batch`]. Running a never-executed
//! request through the recovery dual is safe (no evidence → executes
//! normally), so the recovery path is a safe superset and a window
//! containing any retried entry simply runs entirely as recovery.
//!
//! # Who persists what, and when
//!
//! One device round-trip per ordered persist is the whole cost model,
//! so the served path pays exactly these:
//!
//! | request | persist | where | round-trips |
//! |---|---|---|---|
//! | `get` | — | answered at admission from the shard's head | **0** on a quiescent shard |
//! | mutation | descriptor | [`ServerCore::drain_tasks`] / [`ServerCore::pump_direct`], one coalesced flight per drained window, all shards overlapped | 1 per **drain** |
//! | | window frame | the persistent stack: `CALL` (frame + slot clear + marker flip) and `RET` (unit return + pop flip), one line-atomic persist each | 2 per window (3 past two slots, when the frame outgrows the dummy frame's line) |
//! | | group commit | records, log tail, heads, epoch | 4 per window |
//! | | answer | [`KvRequestTable::mark_done_batch`], payload + flag in one line-atomic persist | 1 per window |
//! | | ack | [`ServerCore::ack`] | 1 per ack |
//!
//! A lone put therefore costs 9 persists end to end; a full window
//! divides everything but the ack by its occupancy.
//!
//! **Reads are idempotent, so their exactly-once identity buys
//! nothing.** [`ServerCore::submit`] of a `Get` claims no slot, enters
//! no window and no stack frame: it answers
//! [`Submission::Answered`] on the spot from
//! [`ShardedKvStore::get_durable`]. The answer must be *durably*
//! linearizable — it must not be taken back by a power failure — so
//! the read persists the bucket-head line **iff** a racing mutation has
//! left it dirty or staged in an un-awaited flight (FliT's rule; only
//! the traversal's destination needs ordering, NVTraverse's). Records
//! are durable before any head CAS on every commit path, so persisting
//! a head early is always safe. The later `Ack` of a get finds no slot
//! and is confirmed without a persist, like any unknown-id ack.
//!
//! **Descriptors are staged at `submit` and persisted at the drain.**
//! Nothing is promised to a client at [`Submission::Queued`], so
//! nothing is lost by a crash before the drain: the staged slot reverts
//! to its old, recyclable occupant and the client's retry is `Fresh`.
//! What must never happen is a window executing over a non-durable
//! descriptor (its effect could outlive the descriptor, and the retry
//! would then execute as fresh — a second effect), so the drain awaits
//! every flight before handing any window out. A flight that fails is
//! its region's power failure: that window's first access trips the
//! whole system, in the run that follows the drain, and its replay
//! skips the slots whose descriptors were lost.
//!
//! # Admission control
//!
//! Volatile [`AdmissionQueue`]s (one per shard) sit between the
//! transports and the batch windows. A request is answered
//! [`Submission::Overloaded`] — never silently dropped — when its
//! shard's queue is at capacity **or** its shard's request table has no
//! recyclable slot. A queue-full shed happens **before** any slot is
//! claimed (after the volatile dedup lookup, so a known id still gets
//! its answer): it writes nothing and pins nothing. Queues are volatile
//! on purpose: a power failure empties them, and the clients' retry
//! loops re-drive every lost request through the dedup path above.
//!
//! [`KvRequestTable`]: pstack_kv::KvRequestTable
//! [`KvRequestTable::mark_done_batch`]: pstack_kv::KvRequestTable::mark_done_batch
//! [`PKvStore::apply_batch`]: pstack_kv::PKvStore::apply_batch
//! [`PKvStore::recover_batch`]: pstack_kv::PKvStore::recover_batch
//! [`ShardedKvStore::get_durable`]: pstack_kv::ShardedKvStore::get_durable

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use pstack_core::{Admission, AdmissionQueue, PError, Task};
use pstack_kv::{
    KvServeFunction, KvTaskAnswer, KvTaskOp, KvTaskResult, ReqSubmit, KV_SERVE_FUNC_ID,
};
use pstack_nvram::op_label;

use crate::proto::{kind_of, Request, RequestBody, Response};

/// The `executor` reported for a read answered at admission: no runtime
/// worker ran it.
pub const ADMISSION_EXECUTOR: u32 = u32::MAX;

/// Outcome of admitting one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// Respond `Done` immediately: either the durable answer already
    /// exists (first execution completed — this was a retry), or the
    /// request is a **read answered at admission** (durably
    /// linearizable, `executor` = [`ADMISSION_EXECUTOR`]).
    Answered(KvTaskAnswer),
    /// The request sits in its shard's queue; the answer arrives after
    /// the next batch window executes.
    Queued,
    /// Shed: the shard's queue or request table is full. Respond
    /// `Overloaded`; the client backs off and retries.
    Overloaded,
    /// Shed: the id was already acked and its slot recycled — a buggy
    /// client broke the retry contract. Respond `Stale`; re-admitting
    /// would re-execute an effect that already ran exactly once.
    Stale,
}

/// One drained batch window, in [`KvServeFunction::execute_windows`]'s
/// shape: `(shard, recovery, slots)`.
type Window = (u32, bool, Vec<u32>);

/// One queued request, with the execution mode it must use.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    req_id: u64,
    slot: u32,
    /// `true` if this entry *might* have executed before (a retry of a
    /// pending slot) — it and its whole window must run through the
    /// evidence-scanning recovery duals.
    recovery: bool,
}

#[derive(Debug)]
struct ShardQueue {
    queue: AdmissionQueue<WindowEntry>,
    /// Request ids currently sitting in `queue` — dedupes retry
    /// re-enqueues so one request never occupies two queue slots.
    queued: Mutex<HashSet<u64>>,
}

/// The serving front end: per-shard admission queues over the durable
/// [`KvServeFunction`]. Rebuilt from the reopened store/tables after
/// every reboot (all its own state is volatile by design).
#[derive(Clone)]
pub struct ServerCore {
    exec: KvServeFunction,
    shards: Arc<Vec<ShardQueue>>,
    batch: usize,
}

impl ServerCore {
    /// Builds a server over `exec` with per-shard admission queues of
    /// `queue_capacity` and batch windows of at most `batch` requests.
    ///
    /// # Panics
    ///
    /// Panics on zero `queue_capacity` or `batch`.
    #[must_use]
    pub fn new(exec: KvServeFunction, queue_capacity: usize, batch: usize) -> Self {
        assert!(batch > 0, "batch windows need at least one slot");
        let shards = (0..exec.store().nshards())
            .map(|_| ShardQueue {
                queue: AdmissionQueue::new(queue_capacity),
                queued: Mutex::new(HashSet::new()),
            })
            .collect();
        ServerCore {
            exec,
            shards: Arc::new(shards),
            batch,
        }
    }

    /// The durable half (store + tables) this server fronts.
    #[must_use]
    pub fn exec(&self) -> &KvServeFunction {
        &self.exec
    }

    /// Total requests shed across all shards (queue-full + table-full).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.shed()).sum()
    }

    /// Total requests admitted into queues across all shards.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.admitted()).sum()
    }

    /// Admits one operation request.
    ///
    /// A `Get` is answered here and now ([`Submission::Answered`]) from
    /// the shard's head: no slot, no window, no stack frame, and no
    /// persist unless a racing mutation left the head line un-persisted
    /// ([`pstack_kv::ShardedKvStore::get_durable`]). A mutation's descriptor is
    /// **staged** in its shard's table when this returns
    /// [`Submission::Queued`]; the drain that hands its window out
    /// persists it first. A full queue sheds an unknown id before any
    /// slot is claimed — a shed writes nothing.
    ///
    /// # Errors
    ///
    /// Propagated table/NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if a queue lock is poisoned.
    pub fn submit(&self, req_id: u64, op: KvTaskOp) -> Result<Submission, PError> {
        let _label = op_label("server.submit");
        if let KvTaskOp::Get { key } = op {
            return Ok(Submission::Answered(KvTaskAnswer {
                executor: ADMISSION_EXECUTOR,
                result: KvTaskResult::Got(self.exec.store().get_durable(key)?),
            }));
        }
        let shard = self.exec.store().shard_of(op.key());
        let table = &self.exec.tables()[shard];
        let sq = &self.shards[shard];
        // Held across the whole admission: the full-queue check, the
        // slot claim and the offer are one step per shard (a drain only
        // ever frees queue room, so the check cannot go stale).
        let mut queued = sq.queued.lock().expect("queued set poisoned");
        if !table.contains(req_id) && sq.queue.shed_if_full() {
            return Ok(Submission::Overloaded); // shed before claim
        }
        let (slot, recovery) = match table.submit(req_id, op)? {
            ReqSubmit::Known {
                answer: Some(a), ..
            } => return Ok(Submission::Answered(a)),
            // A retry of a still-pending request: re-enter execution,
            // but only ever through the recovery duals — its first
            // execution may be in flight or already published.
            ReqSubmit::Known { slot, answer: None } => (slot, true),
            ReqSubmit::Fresh(slot) => (slot, false),
            ReqSubmit::Full => return Ok(Submission::Overloaded),
            ReqSubmit::Stale => return Ok(Submission::Stale),
        };
        if queued.contains(&req_id) {
            return Ok(Submission::Queued); // already awaiting a window
        }
        match sq.queue.offer(WindowEntry {
            req_id,
            slot,
            recovery,
        }) {
            Admission::Admitted { .. } => {
                queued.insert(req_id);
                Ok(Submission::Queued)
            }
            // Only a retry of a pending slot gets here (a fresh id was
            // shed above, before its claim): the slot stays pending and
            // the next retry re-offers it once the queue has drained.
            Admission::Shed => Ok(Submission::Overloaded),
        }
    }

    /// Records a client ack, searching every shard's table (the
    /// request → shard route is volatile and may be gone). Unknown ids
    /// — e.g. an ack retransmitted after its slot was recycled — are
    /// fine: acks are idempotent and always safe to confirm.
    ///
    /// # Errors
    ///
    /// Propagated table/NVRAM errors.
    pub fn ack(&self, req_id: u64) -> Result<bool, PError> {
        let _label = op_label("server.ack");
        for table in self.exec.tables() {
            if table.ack(req_id)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Drains each shard's queue into at most one batch window and
    /// **persists the drained descriptors**: one coalesced asynchronous
    /// flight per window over its slot lines, issued for all shards
    /// back to back and all awaited before any window is handed out —
    /// about one device round-trip per drain, whatever the number of
    /// requests. Returns the `(shard, recovery, slots)` windows plus
    /// the request ids they will answer; the caller decides how to
    /// execute them (directly, or as runtime tasks).
    ///
    /// The invariant: *a descriptor is durable before the window that
    /// names its slot executes*. A persist that fails is its region's
    /// power failure. Its window is handed out all the same: the
    /// window's first access to the dead region trips the whole system,
    /// so the failure surfaces no later than the run that follows the
    /// drain (a dropped window would leave its clients waiting until
    /// some other request happened upon the dead region). The frame of
    /// such a window is durable over descriptors that are not, and
    /// recovery replays it: [`KvServeFunction::execute_window`] skips a
    /// slot that holds no request, and a recycled slot shows its old
    /// occupant's answer and is only re-collected — a replay never
    /// executes on behalf of a descriptor that was lost. The clients'
    /// retries then find no descriptor and are `Fresh`. The first
    /// failure is returned alongside for [`ServerCore::pump_direct`],
    /// which executes nothing after it.
    ///
    /// # Panics
    ///
    /// Panics if a queue lock is poisoned.
    fn drain(&self) -> (Vec<Window>, Vec<u64>, Option<PError>) {
        let _label = op_label("server.drain");
        let mut windows = Vec::new();
        let mut req_ids = Vec::new();
        for (shard, sq) in self.shards.iter().enumerate() {
            let entries = sq.queue.drain_window(self.batch);
            if entries.is_empty() {
                continue;
            }
            let mut queued = sq.queued.lock().expect("queued set poisoned");
            for e in &entries {
                queued.remove(&e.req_id);
            }
            let recovery = entries.iter().any(|e| e.recovery);
            let slots: Vec<u32> = entries.iter().map(|e| e.slot).collect();
            req_ids.extend(entries.iter().map(|e| e.req_id));
            windows.push((shard as u32, recovery, slots));
        }
        // Every slot a window names, retried entries' too: a line that
        // is already durable costs nothing, and the invariant then needs
        // no argument about who persisted what before.
        let table_of = |shard: u32| &self.exec.tables()[shard as usize];
        let issued: Vec<_> = windows
            .into_iter()
            .map(|window| {
                let flight = table_of(window.0).persist_slots_issue(&window.2);
                (window, flight)
            })
            .collect();
        let mut failed = None;
        let windows = issued
            .into_iter()
            .map(|(window, flight)| {
                let table = table_of(window.0);
                if let Err(e) = flight.and_then(|ticket| table.persist_slots_await(&ticket)) {
                    failed.get_or_insert(e);
                }
                window
            })
            .collect();
        (windows, req_ids, failed)
    }

    /// Drains the queues into persistent-stack tasks (one batch window
    /// per non-idle shard) for `StripedRuntime::run_tasks`, plus the
    /// request ids the drained entries asked about. Every task's
    /// descriptors are durable when this returns, or their region is
    /// dead and the task trips the system at its first access — a power
    /// failure met while persisting shows as a crashed run. After the
    /// run, collect the durable answers for the ids with
    /// [`ServerCore::answers_for`] (a crashed run simply leaves some
    /// pending — their clients retry).
    #[must_use]
    pub fn drain_tasks(&self) -> (Vec<Task>, Vec<u64>) {
        let (windows, req_ids, _) = self.drain();
        let tasks = windows
            .iter()
            .map(|(shard, recovery, slots)| {
                Task::new(
                    KV_SERVE_FUNC_ID,
                    KvServeFunction::window_args(*shard, *recovery, slots),
                )
            })
            .collect();
        (tasks, req_ids)
    }

    /// The durable answers currently on record for `req_ids` (`None`
    /// entries are still pending — e.g. their window crashed).
    ///
    /// # Errors
    ///
    /// Propagated table/NVRAM errors.
    pub fn answers_for(&self, req_ids: &[u64]) -> Result<Vec<(u64, Option<KvTaskAnswer>)>, PError> {
        let mut out = Vec::with_capacity(req_ids.len());
        for &req_id in req_ids {
            let mut found = None;
            for table in self.exec.tables() {
                if let Some((_, answer)) = table.lookup(req_id)? {
                    found = answer;
                    break;
                }
            }
            out.push((req_id, found));
        }
        Ok(out)
    }

    /// Executes one round of batch windows directly (no runtime): the
    /// transport servers' pump. Returns the newly durable `(req_id,
    /// answer)` pairs, ready to send.
    ///
    /// # Errors
    ///
    /// Propagated store/table/NVRAM errors.
    pub fn pump_direct(&self, executor: u32) -> Result<Vec<(u64, KvTaskAnswer)>, PError> {
        let (windows, _, failed) = self.drain();
        if let Some(power_failure) = failed {
            return Err(power_failure);
        }
        // One call for the whole round: the shards' flush flights
        // overlap across regions.
        self.exec.execute_windows(&windows, executor)
    }

    /// Fully serves one request synchronously: admit, pump until its
    /// answer is durable, respond. The blocking transports use this;
    /// the campaign drives admission and windows separately.
    ///
    /// # Errors
    ///
    /// Propagated store/table/NVRAM errors.
    pub fn handle_sync(&self, req: &Request, executor: u32) -> Result<Response, PError> {
        let req_id = req.req_id;
        match req.body {
            RequestBody::Ack => {
                self.ack(req_id)?;
                Ok(Response::AckOk { req_id })
            }
            RequestBody::Op(op) => match self.submit(req_id, op)? {
                Submission::Overloaded => Ok(Response::Overloaded { req_id }),
                Submission::Stale => Ok(Response::Stale { req_id }),
                Submission::Answered(answer) => Ok(Response::Done {
                    req_id,
                    kind: kind_of(op),
                    answer,
                }),
                Submission::Queued => {
                    loop {
                        let done = self.pump_direct(executor)?;
                        if let Some(&(_, answer)) = done.iter().find(|&&(id, _)| id == req_id) {
                            return Ok(Response::Done {
                                req_id,
                                kind: kind_of(op),
                                answer,
                            });
                        }
                        if done.is_empty() {
                            // Queues drained without answering us — the
                            // request is pending but unqueued (sheds
                            // raced us). Ask the client to come back.
                            return Ok(Response::Retry { req_id });
                        }
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_kv::{KvRequestTable, KvVariant, ShardedKvStore};
    use pstack_nvram::{PMem, PMemBuilder};
    use pstack_verify::KvSpec;

    use crate::proto::req_id_for;

    fn fixture(nshards: usize, table_cap: u32) -> (Vec<PMem>, KvServeFunction) {
        let regions: Vec<PMem> = (0..nshards)
            .map(|_| {
                PMemBuilder::new()
                    .len(1 << 21)
                    .eager_flush(true)
                    .build_in_memory()
            })
            .collect();
        let store = ShardedKvStore::format(&regions, 64, 4096, KvVariant::Nsrl).unwrap();
        let tables: Vec<KvRequestTable> = (0..nshards)
            .map(|s| KvRequestTable::format(regions[s].clone(), store.heap(s), table_cap).unwrap())
            .collect();
        (regions, KvServeFunction::new(store, tables))
    }

    #[test]
    fn serve_put_get_exactly_once_with_retries() {
        let (_regions, exec) = fixture(2, 16);
        let core = ServerCore::new(exec, 32, 8);

        let put = req_id_for(1, 1);
        assert_eq!(
            core.submit(put, KvTaskOp::Put { key: 10, value: 42 })
                .unwrap(),
            Submission::Queued
        );
        // A duplicate delivery before the window runs occupies no
        // second queue slot.
        assert_eq!(
            core.submit(put, KvTaskOp::Put { key: 10, value: 42 })
                .unwrap(),
            Submission::Queued
        );
        let done = core.pump_direct(9).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, put);
        assert_eq!(done[0].1.result, KvTaskResult::Stored(true));

        // A retry after completion replays the durable answer.
        let Submission::Answered(a) = core
            .submit(put, KvTaskOp::Put { key: 10, value: 42 })
            .unwrap()
        else {
            panic!("retry must dedup")
        };
        assert_eq!(a.result, KvTaskResult::Stored(true));

        // The effect happened exactly once: one version record for the
        // key, and a get through the served path observes it — answered
        // at admission, with no slot, no queue seat and no window.
        let get = req_id_for(1, 2);
        let live = core.exec().tables().iter().map(|t| t.live()).sum::<u64>();
        assert_eq!(
            core.submit(get, KvTaskOp::Get { key: 10 }).unwrap(),
            Submission::Answered(KvTaskAnswer {
                executor: ADMISSION_EXECUTOR,
                result: KvTaskResult::Got(Some(42)),
            })
        );
        assert_eq!(
            core.exec().tables().iter().map(|t| t.live()).sum::<u64>(),
            live,
            "a read claims no slot"
        );
        assert!(core.drain_tasks().0.is_empty(), "a read enters no window");
        assert!(core.ack(put).unwrap());
        assert!(!core.ack(get).unwrap(), "a read left no slot to mark");
        assert!(!core.ack(req_id_for(5, 5)).unwrap(), "unknown ids refuse");
        let mut spec = KvSpec::new();
        spec.put(10, 42);
        let served: std::collections::HashMap<u64, i64> = core
            .exec()
            .store()
            .contents()
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(served, *spec.contents());
    }

    #[test]
    fn retry_of_pending_slot_runs_recovery_dual_no_double_effect() {
        let (_regions, exec) = fixture(1, 16);
        let core = ServerCore::new(exec.clone(), 32, 8);
        let req = req_id_for(2, 1);
        core.submit(req, KvTaskOp::Put { key: 3, value: 1 })
            .unwrap();
        let done = core.pump_direct(1).unwrap();
        assert_eq!(done.len(), 1);

        // Simulate "executed but the client never heard": rebuild the
        // front end (volatile queues lost), client retries. The slot is
        // done, so the answer replays without touching the store.
        let core2 = ServerCore::new(exec.clone(), 32, 8);
        let Submission::Answered(a) = core2
            .submit(req, KvTaskOp::Put { key: 3, value: 1 })
            .unwrap()
        else {
            panic!("durable answer survives front-end loss")
        };
        assert_eq!(a.result, KvTaskResult::Stored(true));

        // Now the harder case: descriptor durable, execution never ran
        // (crash between admission and window). The retry re-enters as
        // a recovery entry and executes through the evidence scan.
        let req2 = req_id_for(2, 2);
        core2
            .submit(req2, KvTaskOp::Put { key: 4, value: 9 })
            .unwrap();
        let core3 = ServerCore::new(exec, 32, 8); // queues wiped again
        assert_eq!(
            core3
                .submit(req2, KvTaskOp::Put { key: 4, value: 9 })
                .unwrap(),
            Submission::Queued
        );
        let done = core3.pump_direct(1).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.result, KvTaskResult::Stored(true));
        // Exactly one record for key 4 despite two admissions.
        let snapshot = core3.exec().store().snapshot_sharded().unwrap();
        let records: usize = snapshot
            .iter()
            .flat_map(|buckets| buckets.iter())
            .flat_map(|chain| chain.iter())
            .filter(|r| r.key == 4)
            .count();
        assert_eq!(records, 1, "retry must not publish a second record");
    }

    #[test]
    fn overload_sheds_explicitly_and_recovers() {
        let (_regions, exec) = fixture(1, 64);
        let core = ServerCore::new(exec, 4, 4); // tiny queue
        let mut queued = 0u64;
        let mut shed = 0u64;
        for seq in 1..=32u32 {
            match core
                .submit(
                    req_id_for(3, seq),
                    KvTaskOp::Put {
                        key: u64::from(seq),
                        value: 0,
                    },
                )
                .unwrap()
            {
                Submission::Queued => queued += 1,
                Submission::Overloaded => shed += 1,
                Submission::Answered(_) | Submission::Stale => unreachable!("fresh ids"),
            }
        }
        assert_eq!(queued, 4, "queue admits exactly its capacity");
        assert_eq!(shed, 28, "every excess request sheds explicitly");
        assert_eq!(core.shed(), 28);
        // Shed before claim: a queue-full shed claimed no slot, so only
        // the four admitted requests hold one.
        assert_eq!(core.exec().tables()[0].live(), 4);
        assert!(!core.exec().tables()[0].contains(req_id_for(3, 5)));
        // After a pump the shed requests' retries are admitted.
        core.pump_direct(1).unwrap();
        assert_eq!(
            core.submit(req_id_for(3, 5), KvTaskOp::Put { key: 5, value: 0 })
                .unwrap(),
            Submission::Queued
        );
    }

    #[test]
    fn table_full_maps_to_overloaded() {
        let (_regions, exec) = fixture(1, 2); // two slots only
        let core = ServerCore::new(exec, 32, 8);
        core.submit(req_id_for(4, 1), KvTaskOp::Put { key: 1, value: 1 })
            .unwrap();
        core.submit(req_id_for(4, 2), KvTaskOp::Put { key: 2, value: 2 })
            .unwrap();
        assert_eq!(
            core.submit(req_id_for(4, 3), KvTaskOp::Put { key: 3, value: 3 })
                .unwrap(),
            Submission::Overloaded,
            "no recyclable slot → shed"
        );
        // Answer + ack one → a slot recycles → admission reopens.
        core.pump_direct(1).unwrap();
        assert!(core.ack(req_id_for(4, 1)).unwrap());
        assert_eq!(
            core.submit(req_id_for(4, 3), KvTaskOp::Put { key: 3, value: 3 })
                .unwrap(),
            Submission::Queued
        );
    }

    #[test]
    fn a_window_refuses_a_get_descriptor() {
        // Reads have one path — admission. A get descriptor can only
        // reach a window by a caller going around `ServerCore::submit`.
        let (_regions, exec) = fixture(1, 4);
        let ReqSubmit::Fresh(slot) = exec.tables()[0]
            .submit(req_id_for(8, 1), KvTaskOp::Get { key: 1 })
            .unwrap()
        else {
            panic!("fresh")
        };
        assert!(matches!(
            exec.execute_window(0, &[slot], false, 1),
            Err(PError::Task(_))
        ));
    }

    #[test]
    fn handle_sync_serves_the_wire_types() {
        let (_regions, exec) = fixture(2, 16);
        let core = ServerCore::new(exec, 32, 8);
        let op = KvTaskOp::Cas {
            key: 8,
            expected: 0,
            new: 5,
        };
        let req = Request {
            req_id: req_id_for(6, 1),
            body: RequestBody::Op(op),
        };
        let Response::Done { answer, .. } = core.handle_sync(&req, 2).unwrap() else {
            panic!("cas on missing key still answers Done")
        };
        assert_eq!(answer.result, KvTaskResult::Swapped(false));
        let ack = Request {
            req_id: req.req_id,
            body: RequestBody::Ack,
        };
        assert_eq!(
            core.handle_sync(&ack, 2).unwrap(),
            Response::AckOk { req_id: req.req_id }
        );
    }

    #[test]
    fn window_task_replay_is_idempotent() {
        // The recover() path of the registered function re-executes a
        // window that already ran: answers must replay, not re-apply.
        let (regions, exec) = fixture(1, 16);
        let core = ServerCore::new(exec.clone(), 32, 8);
        let req = req_id_for(7, 1);
        core.submit(req, KvTaskOp::Put { key: 2, value: 3 })
            .unwrap();
        let (tasks, ids) = core.drain_tasks();
        assert_eq!(tasks.len(), 1);
        assert_eq!(ids, vec![req]);

        // Execute the window twice through the function's own paths,
        // mimicking call-then-replay.
        let slot = exec.tables()[0].lookup(req).unwrap().unwrap().0;
        exec.execute_window(0, &[slot], false, 1).unwrap();
        let replay = exec.execute_window(0, &[slot], true, 2).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(
            replay[0].1.executor, 1,
            "replay returns the original answer"
        );
        let store = ShardedKvStore::open(&regions, KvVariant::Nsrl).unwrap();
        let snapshot = store.snapshot_sharded().unwrap();
        let records: usize = snapshot
            .iter()
            .flat_map(|b| b.iter())
            .flat_map(|c| c.iter())
            .count();
        assert_eq!(records, 1);
    }
}
