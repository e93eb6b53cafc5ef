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
//! | mutation | descriptor | the drain ([`serve_round`]; [`ServerCore::drain_tasks`] is the step on its own), one coalesced flight per drained window, all shards overlapped | 1 per **drain** |
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

use pstack_core::{Admission, AdmissionQueue, PError, StripedRuntime, Task};
use pstack_kv::{
    KvServeFunction, KvTaskAnswer, KvTaskOp, KvTaskResult, ReqSubmit, KV_SERVE_FUNC_ID,
};
use pstack_nvram::{op_label, MemError};

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

/// One queued request, with the execution mode it must use.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    req_id: u64,
    /// The op's wire kind, echoed in the `Done` its window produces.
    kind: u8,
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
            kind: kind_of(op),
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

    /// Admitted requests still waiting for a window.
    pub(crate) fn backlog(&self) -> usize {
        self.shards.iter().map(|s| s.queue.depth()).sum()
    }

    /// Drains each shard's queue into at most one batch window and
    /// **persists the drained descriptors**: one coalesced asynchronous
    /// flight per window over its slot lines, issued for all shards
    /// back to back and all awaited before any window is handed out —
    /// about one device round-trip per drain, whatever the number of
    /// requests. Returns one persistent-stack task per window plus the
    /// request id and the kind of every entry they will answer.
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
    /// retries then find no descriptor and are `Fresh`.
    ///
    /// # Panics
    ///
    /// Panics if a queue lock is poisoned.
    fn drain(&self) -> (Vec<Task>, Vec<u64>, Vec<u8>) {
        let _label = op_label("server.drain");
        let mut windows = Vec::new(); // (shard, recovery, slots)
        let (mut req_ids, mut kinds) = (Vec::new(), Vec::new());
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
            kinds.extend(entries.iter().map(|e| e.kind));
            windows.push((shard, recovery, slots));
        }
        // Every slot a window names, retried entries' too: a line that
        // is already durable costs nothing, and the invariant then needs
        // no argument about who persisted what before.
        let tables = self.exec.tables();
        let flights: Vec<_> = windows
            .iter()
            .map(|(shard, _, slots)| tables[*shard].persist_slots_issue(slots))
            .collect();
        for ((shard, ..), flight) in windows.iter().zip(flights) {
            // A failure shows in the run that follows (see above).
            let _ = flight.and_then(|ticket| tables[*shard].persist_slots_await(&ticket));
        }
        let tasks = windows
            .iter()
            .map(|(shard, recovery, slots)| {
                let args = KvServeFunction::window_args(*shard as u32, *recovery, slots);
                Task::new(KV_SERVE_FUNC_ID, args)
            })
            .collect();
        (tasks, req_ids, kinds)
    }

    /// The drain as a step of its own, for a caller that arms events or
    /// takes measurements between the steps of [`serve_round`]: the
    /// windows as tasks for `StripedRuntime::run_tasks`, plus the
    /// request ids the drained entries asked about. After the run,
    /// collect the durable answers for the ids with
    /// [`ServerCore::answers_for`] (a crashed run simply leaves some
    /// pending — their clients retry).
    #[must_use]
    pub fn drain_tasks(&self) -> (Vec<Task>, Vec<u64>) {
        let (tasks, req_ids, _) = self.drain();
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
}

/// One serving round, the program's own and its only one: admit
/// `requests` (submit or ack, each answered on the spot unless it takes
/// a seat in a window), drain, run the drained windows **on the
/// persistent stack** ([`StripedRuntime::run_tasks`] — cross-shard
/// flight overlap comes from its workers; nothing executes a window
/// without a frame), and collect their durable answers. The serving
/// campaign, the test fixtures and the unix-socket listener all call
/// it. Returns the responses to send — the
/// admission-time ones in request order, then one `Done` per drained
/// entry in execution order (entries admitted by an earlier round and
/// left over by its `batch` bound among them; `Retry` for an entry
/// whose window erred) — each `Done` echoing its op's kind from the
/// admission queue, not from a caller's map.
///
/// # Errors
///
/// A power failure, wherever the round met it — under a staged
/// descriptor or an ack on the admission path, inside a window, under
/// the answer lookup — is one outcome: a crash error
/// ([`PError::is_crash`]) returned with **every region down**, ready
/// for `reopen_all_with`. Any other error is propagated as it is.
pub fn serve_round(
    core: &ServerCore,
    rt: &StripedRuntime,
    requests: &[Request],
) -> Result<Vec<Response>, PError> {
    round(core, rt, requests).inspect_err(|e| {
        if e.is_crash() {
            rt.crash_all(0, 0.0);
        }
    })
}

/// [`serve_round`], up to what it does about a power failure.
fn round(
    core: &ServerCore,
    rt: &StripedRuntime,
    requests: &[Request],
) -> Result<Vec<Response>, PError> {
    let mut responses = Vec::with_capacity(requests.len());
    for &Request { req_id, body } in requests {
        let op = match body {
            RequestBody::Op(op) => op,
            RequestBody::Ack => {
                core.ack(req_id)?;
                responses.push(Response::AckOk { req_id });
                continue;
            }
        };
        let kind = kind_of(op);
        match core.submit(req_id, op)? {
            Submission::Queued => {}
            Submission::Overloaded => responses.push(Response::Overloaded { req_id }),
            Submission::Stale => responses.push(Response::Stale { req_id }),
            Submission::Answered(answer) => responses.push(Response::Done {
                req_id,
                kind,
                answer,
            }),
        }
    }
    let (tasks, ids, kinds) = core.drain();
    if tasks.is_empty() {
        return Ok(responses);
    }
    if rt.run_tasks(tasks).crashed {
        return Err(PError::Mem(MemError::Crashed));
    }
    let answers = core.answers_for(&ids)?.into_iter().zip(kinds);
    responses.extend(answers.map(|((req_id, answer), kind)| match answer {
        Some(answer) => Response::Done {
            req_id,
            kind,
            answer,
        },
        None => Response::Retry { req_id },
    }));
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_core::RuntimeConfig;
    use pstack_kv::{KvVariant, ShardedKvStore};
    use pstack_nvram::PMemBuilder;

    use crate::proto::req_id_for;

    /// Eager shard regions with a `table_cap`-slot table each, and the
    /// one-worker runtime whose persistent stack every window runs on.
    fn fixture(nshards: usize, table_cap: u32) -> (StripedRuntime, KvServeFunction) {
        let eager = || PMemBuilder::new().len(1 << 21).eager_flush(true);
        let stripe = eager().build_striped(nshards);
        let store = ShardedKvStore::format(stripe.regions(), 64, 4096, KvVariant::Nsrl).unwrap();
        let exec = KvServeFunction::format(store, table_cap).unwrap();
        let rt = StripedRuntime::format(
            eager().build_in_memory(),
            stripe,
            RuntimeConfig::new(1).stack_capacity(4096),
            &exec.registry().unwrap(),
        )
        .unwrap();
        (rt, exec)
    }

    fn op(req_id: u64, op: KvTaskOp) -> Request {
        let body = RequestBody::Op(op);
        Request { req_id, body }
    }

    /// The `(req_id, result)` of every `Done` a round produced.
    fn served(
        core: &ServerCore,
        rt: &StripedRuntime,
        reqs: &[Request],
    ) -> Vec<(u64, KvTaskResult)> {
        let done = |resp| match resp {
            Response::Done { req_id, answer, .. } => Some((req_id, answer.result)),
            _ => None,
        };
        let responses = serve_round(core, rt, reqs).unwrap();
        responses.into_iter().filter_map(done).collect()
    }

    fn records_of(store: &ShardedKvStore, key: u64) -> usize {
        let chains = store.snapshot_sharded().unwrap().into_iter().flatten();
        chains.flatten().filter(|r| r.key == key).count()
    }

    #[test]
    fn serve_put_get_exactly_once_with_retries() {
        let (rt, exec) = fixture(2, 16);
        let core = ServerCore::new(exec, 32, 8);

        // A duplicate delivery before the window runs occupies no
        // second queue slot: one window, one answer.
        let put = op(req_id_for(1, 1), KvTaskOp::Put { key: 10, value: 42 });
        assert_eq!(
            served(&core, &rt, &[put, put]),
            [(put.req_id, KvTaskResult::Stored(true))]
        );
        // A retry after completion replays the durable answer.
        assert_eq!(
            served(&core, &rt, &[put]),
            [(put.req_id, KvTaskResult::Stored(true))]
        );
        assert_eq!(core.admitted(), 1, "the retry took no queue seat");

        // The effect happened exactly once: one version record for the
        // key, and a get through the served path observes it — answered
        // at admission, with no slot, no queue seat and no window.
        let get = req_id_for(1, 2);
        let live = || core.exec().tables().iter().map(|t| t.live()).sum::<u64>();
        let before = live();
        assert_eq!(
            core.submit(get, KvTaskOp::Get { key: 10 }).unwrap(),
            Submission::Answered(KvTaskAnswer {
                executor: ADMISSION_EXECUTOR,
                result: KvTaskResult::Got(Some(42)),
            })
        );
        assert_eq!(live(), before, "a read claims no slot");
        assert!(core.drain_tasks().0.is_empty(), "a read enters no window");
        assert!(core.ack(put.req_id).unwrap());
        assert!(!core.ack(get).unwrap(), "a read left no slot to mark");
        assert!(!core.ack(req_id_for(5, 5)).unwrap(), "unknown ids refuse");
        let contents = core.exec().store().contents().unwrap();
        assert_eq!(contents.into_iter().collect::<Vec<_>>(), [(10, 42)]);
        assert_eq!(records_of(core.exec().store(), 10), 1);
    }

    #[test]
    fn retry_of_pending_slot_runs_recovery_dual_no_double_effect() {
        let (rt, exec) = fixture(1, 16);
        let core = ServerCore::new(exec.clone(), 32, 8);
        let req = op(req_id_for(2, 1), KvTaskOp::Put { key: 3, value: 1 });
        assert_eq!(served(&core, &rt, &[req]).len(), 1);

        // Simulate "executed but the client never heard": rebuild the
        // front end (volatile queues lost), client retries. The slot is
        // done, so the answer replays without touching the store.
        let core2 = ServerCore::new(exec.clone(), 32, 8);
        let Submission::Answered(a) = core2
            .submit(req.req_id, KvTaskOp::Put { key: 3, value: 1 })
            .unwrap()
        else {
            panic!("durable answer survives front-end loss")
        };
        assert_eq!(a.result, KvTaskResult::Stored(true));

        // Now the harder case: descriptor durable, execution never ran
        // (crash between admission and window). The retry re-enters as
        // a recovery entry and executes through the evidence scan.
        let put2 = KvTaskOp::Put { key: 4, value: 9 };
        let req2 = op(req_id_for(2, 2), put2);
        core2.submit(req2.req_id, put2).unwrap();
        let core3 = ServerCore::new(exec, 32, 8); // queues wiped again
        assert_eq!(
            served(&core3, &rt, &[req2]),
            [(req2.req_id, KvTaskResult::Stored(true))]
        );
        // Exactly one record for key 4 despite two admissions.
        assert_eq!(
            records_of(core3.exec().store(), 4),
            1,
            "retry must not publish a second record"
        );
    }

    #[test]
    fn a_drained_retry_echoes_its_kind_after_a_front_end_rebuild() {
        // The kind rides the admission-queue entry, so it is there for
        // every `Done` a window produces — also when the entry is a
        // retry admitted by a front end that never saw the first send,
        // and when it was admitted by an earlier round than the one
        // that drains it.
        let (rt, exec) = fixture(1, 16);
        let (cas, del) = (req_id_for(9, 1), req_id_for(9, 2));
        let cas_op = KvTaskOp::Cas {
            key: 8,
            expected: 0,
            new: 5,
        };
        let first = ServerCore::new(exec.clone(), 32, 1);
        assert_eq!(first.submit(cas, cas_op).unwrap(), Submission::Queued);

        let core = ServerCore::new(exec, 32, 1); // windows of one
        let reqs = [op(cas, cas_op), op(del, KvTaskOp::Delete { key: 8 })];
        let kinds = |responses: Vec<Response>| -> Vec<(u64, u8)> {
            let kind = |resp| match resp {
                Response::Done { req_id, kind, .. } => (req_id, kind),
                other => panic!("{other:?}"),
            };
            responses.into_iter().map(kind).collect()
        };
        assert_eq!(
            kinds(serve_round(&core, &rt, &reqs).unwrap()),
            [(cas, kind_of(cas_op))]
        );
        assert_eq!(
            kinds(serve_round(&core, &rt, &[]).unwrap()),
            [(del, kind_of(KvTaskOp::Delete { key: 8 }))],
            "left over by the batch bound, drained by a round that never saw its request"
        );
    }

    #[test]
    fn overload_sheds_explicitly_and_recovers() {
        let (rt, exec) = fixture(1, 64);
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
        // After a round the shed requests' retries are admitted.
        assert_eq!(served(&core, &rt, &[]).len(), 4);
        assert_eq!(
            core.submit(req_id_for(3, 5), KvTaskOp::Put { key: 5, value: 0 })
                .unwrap(),
            Submission::Queued
        );
    }

    #[test]
    fn table_full_maps_to_overloaded() {
        let (rt, exec) = fixture(1, 2); // two slots only
        let core = ServerCore::new(exec, 32, 8);
        let put = |seq: u32| {
            let (key, value) = (u64::from(seq), i64::from(seq));
            op(req_id_for(4, seq), KvTaskOp::Put { key, value })
        };
        // The third finds no recyclable slot and is shed; the two that
        // hold one run.
        let responses = serve_round(&core, &rt, &[put(1), put(2), put(3)]).unwrap();
        let req_id = req_id_for(4, 3);
        assert_eq!(responses[0], Response::Overloaded { req_id });
        assert_eq!(responses.len(), 3);
        // Answer + ack one → a slot recycles → admission reopens.
        assert!(core.ack(req_id_for(4, 1)).unwrap());
        assert_eq!(
            served(&core, &rt, &[put(3)]),
            [(req_id, KvTaskResult::Stored(true))]
        );
    }

    #[test]
    fn a_window_refuses_a_get_descriptor() {
        // Reads have one path — admission. A get descriptor can only
        // reach a window by a caller going around `ServerCore::submit`.
        let (_rt, exec) = fixture(1, 4);
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
    fn window_task_replay_is_idempotent() {
        // The recover() path of the registered function re-executes a
        // window that already ran: answers must replay, not re-apply.
        let (rt, exec) = fixture(1, 16);
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
        let store = ShardedKvStore::open(rt.stripe().regions(), KvVariant::Nsrl).unwrap();
        assert_eq!(records_of(&store, 2), 1);
    }
}
