//! Property tests for the serving layer: random retry schedules ×
//! random crash placements × random batch sizes, asserting the serving
//! contract — **at-most-once effects** (answers match the sequential
//! spec, published records carry no duplicate tags) with
//! **at-least-once acks** (every client finishes its full quota), and
//! overload strictly shedding as explicit `Overloaded` responses,
//! never a queue-full panic or a silent drop.
//!
//! Reads are answered at admission, so the driver carries a
//! [`KvSpec`] advanced in execution order and checks **every answer
//! at the instant it is produced**: a get against the spec as it
//! stands when the request is admitted — a point inside its
//! send→`Done` interval, however many times it is retransmitted — and
//! a mutation against the spec's own outcome when its window runs.
//!
//! The crash model here is the volatile one: the server process dies
//! (admission queues and front end are lost; the wire drops every
//! frame) while NVRAM survives. Re-admissions of pending
//! requests after the restart flow through the recovery path —
//! `recover_batch`'s evidence scan is what makes the retries
//! effect-free. The full power-failure model (regions crashing
//! mid-persist) is the chaos campaign's job.
//!
//! # Reproducing failures
//!
//! The proptest shim has no shrinking; every case is deterministic per
//! (test, case index). `PROPTEST_SHIM_SEED=<u64>` perturbs all case
//! seeds, `PROPTEST_CASES=<n>` sets cases per property.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use pstack_core::{RuntimeConfig, StripedRuntime};
use pstack_kv::{
    shard_of, KvRequestTable, KvTaskOp, KvTaskResult, KvVariant, ReqSubmit, ShardedKvStore,
};
use pstack_nvram::{PMemBuilder, StatsSnapshot};
use pstack_server::proto::{kind_of, req_id_for, RequestBody, Response};
use pstack_server::{
    serve_round, ChannelConn, ChannelHub, ClientConfig, ClientSim, Clock, KvServeFunction,
    ServerCore, Submission, VirtualClock,
};
use pstack_verify::{
    check_kv_sharded_gen, KvAnswer, KvOpKind, KvShardedHistory, KvSpec, KvWitnessRecord,
};

const REGION: usize = 1 << 21;
const LOG_CAP: u64 = 4096;
const SERVICE_TICK_NS: u64 = 100_000;
const REBOOT_PENALTY_NS: u64 = 2_000_000;

/// The serving fixture: durable state (store + per-shard request
/// tables, and the runtime whose persistent stack runs every window)
/// that survives the property's crash placements, while the
/// `ServerCore` front end is rebuilt per boot.
struct Fixture {
    rt: StripedRuntime,
    exec: KvServeFunction,
}

impl Fixture {
    /// `eager`: cache-less regions (every write durable) or buffered
    /// ones (staged descriptors, group commits, coalesced persists).
    fn new(nshards: usize, eager: bool) -> Self {
        let region = || PMemBuilder::new().len(REGION).eager_flush(eager);
        let stripe = region().build_striped(nshards);
        let store = ShardedKvStore::format(stripe.regions(), 16, LOG_CAP, KvVariant::Nsrl).unwrap();
        let exec = KvServeFunction::format(store, 64).unwrap();
        let rt = StripedRuntime::format(
            region().build_in_memory(),
            stripe,
            RuntimeConfig::new(1).stack_capacity(4 * 1024),
            &exec.registry().unwrap(),
        )
        .unwrap();
        Fixture { rt, exec }
    }

    fn store(&self) -> &ShardedKvStore {
        self.exec.store()
    }

    /// Σ regions' NVRAM counters, the control region's included.
    fn stats(&self) -> StatsSnapshot {
        self.rt.stripe().aggregate_stats() + self.rt.control().stats().snapshot()
    }

    fn core(&self, queue_capacity: usize, batch: usize) -> ServerCore {
        ServerCore::new(self.exec.clone(), queue_capacity, batch)
    }
}

/// Totals the driver accumulates across all boots of one case.
#[derive(Default)]
struct DriveTotals {
    admitted: u64,
    shed: u64,
    crashes: usize,
}

/// Drives the client population to completion against a fresh front
/// end per boot, crashing the server (volatile state + wire) at the
/// given iteration indices. Every iteration is one [`serve_round`], so
/// the batch grouping is exactly the admission queues' doing and every
/// window runs through a stack frame.
///
/// `spec` is the sequential model of the store as it stands (empty, or
/// the caller's preload). Every answer is checked against it the
/// moment the server produces it: a get when it is admitted, a
/// mutation when its window first executes — so each get's answer is
/// exact at a point inside its send→`Done` interval.
#[allow(clippy::too_many_arguments)]
fn drive(
    fixture: &Fixture,
    spec: &mut KvSpec,
    clients: &mut [ClientSim],
    conns: &[ChannelConn],
    hub: &ChannelHub,
    clock: &VirtualClock,
    queue_capacity: usize,
    batch: usize,
    crash_at: &[usize],
) -> Result<DriveTotals, TestCaseError> {
    let mut crash_at: Vec<usize> = crash_at.to_vec();
    crash_at.sort_unstable();
    crash_at.dedup();
    let mut crash_next = 0usize;

    let mut core = fixture.core(queue_capacity, batch);
    // req_id → op, to advance the spec when a mutation's `Done` shows.
    let mut sent: HashMap<u64, KvTaskOp> = HashMap::new();
    // Mutations whose window has run: a later `Done` for the id is a
    // replayed answer, not a second execution.
    let mut executed: HashSet<u64> = HashSet::new();
    let mut totals = DriveTotals::default();
    let mut iters = 0usize;

    loop {
        prop_assert!(iters < 10_000, "serving loop did not quiesce");
        let Some(wake) = clients.iter().filter_map(ClientSim::next_wake).min() else {
            break;
        };
        clock.advance_to(wake);

        // A crash placement: the process dies — queues, dedup map and
        // every in-flight frame are gone; the durable store and tables
        // survive; the clients see a reset and retry.
        if crash_next < crash_at.len() && iters >= crash_at[crash_next] {
            crash_next += 1;
            totals.crashes += 1;
            totals.admitted += core.admitted();
            totals.shed += core.shed();
            core = fixture.core(queue_capacity, batch);
            hub.reset();
            clock.advance(REBOOT_PENALTY_NS);
            let now = clock.now_ns();
            for c in clients.iter_mut() {
                c.on_crash(now);
            }
        }

        let now = clock.now_ns();
        for (c, conn) in clients.iter_mut().zip(conns) {
            if let Some(req) = c.poll(now) {
                if let RequestBody::Op(op) = req.body {
                    sent.insert(req.req_id, op);
                }
                conn.send(&req);
            }
        }
        let mut requests = Vec::new();
        while let Some(req) = hub.poll_request().unwrap() {
            requests.push(req);
        }

        // Admission-time responses come first, then the windows' in
        // execution order: a get is checked against the spec as it
        // stood when the round began, a mutation advances it.
        for resp in serve_round(&core, &fixture.rt, &requests).unwrap() {
            if let Response::Done {
                req_id,
                kind,
                answer,
            } = resp
            {
                let op = sent[&req_id];
                prop_assert_eq!(kind, kind_of(op), "kind echo of {:#x}", req_id);
                let expected = match op {
                    KvTaskOp::Get { key } => Some(KvTaskResult::Got(spec.get(key))),
                    _ if !executed.insert(req_id) => None,
                    KvTaskOp::Put { key, value } => {
                        Some(KvTaskResult::Stored(spec.put(key, value)))
                    }
                    KvTaskOp::Delete { key } => Some(KvTaskResult::Deleted(spec.delete(key))),
                    KvTaskOp::Cas { key, expected, new } => {
                        Some(KvTaskResult::Swapped(spec.cas(key, expected, new)))
                    }
                };
                if let Some(expected) = expected {
                    prop_assert_eq!(answer.result, expected, "request {:#x}", req_id);
                }
            }
            hub.respond(&resp);
        }

        clock.advance(SERVICE_TICK_NS);
        let now = clock.now_ns();
        for (c, conn) in clients.iter_mut().zip(conns) {
            while let Some(resp) = conn.try_recv().unwrap() {
                c.deliver(now, &resp);
            }
        }
        iters += 1;
    }

    totals.admitted += core.admitted();
    totals.shed += core.shed();
    Ok(totals)
}

/// `true` if the recorded answer says the operation mutated the store
/// (and therefore published exactly one version record).
fn is_effectful(answer: KvAnswer) -> bool {
    matches!(
        answer,
        KvAnswer::Stored(true) | KvAnswer::Deleted(true) | KvAnswer::Swapped(true)
    )
}

/// The published, non-compacted record tags of the quiescent store —
/// duplicate-free by assertion (a duplicate is a double-applied op).
fn published_tags(store: &ShardedKvStore) -> Result<HashSet<(u64, u64)>, TestCaseError> {
    let mut tags = HashSet::new();
    for shard in store.snapshot_sharded().unwrap() {
        for chain in shard {
            for rec in chain {
                let w = KvWitnessRecord::from(rec);
                if w.compacted {
                    continue;
                }
                prop_assert!(
                    tags.insert((w.pid, w.seq)),
                    "duplicate effect: tag ({}, {}) published twice",
                    w.pid,
                    w.seq
                );
            }
        }
    }
    Ok(tags)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One client, random retry schedule (timeout/backoff), random
    /// batch size, random crash placements: the completed run must
    /// answer exactly as the sequential spec, and the store must hold
    /// exactly one record per effectful op — at-most-once effects,
    /// at-least-once acks.
    #[test]
    fn single_client_exactly_once_across_crashes(
        n_ops in 4usize..24,
        batch in 1usize..6,
        timeout_ns in 300_000u64..3_000_000,
        backoff_base_ns in 100_000u64..1_000_000,
        seed in 0u64..1_000_000,
        crash_at in proptest::collection::vec(0usize..60, 0..4),
        eager in 0u8..2,
    ) {
        let fixture = Fixture::new(2, eager == 1);
        let clock = VirtualClock::new();
        let hub = ChannelHub::new();
        let mut clients = vec![ClientSim::new(ClientConfig {
            client_id: 1,
            n_ops,
            key_space: 8,
            timeout_ns,
            backoff_base_ns,
            seed,
            ..ClientConfig::default()
        })];
        let conns = vec![hub.connect(1)];

        let mut model = KvSpec::new();
        drive(&fixture, &mut model, &mut clients, &conns, &hub, &clock, 32, batch, &crash_at)?;

        // At-least-once acks: the loop only quiesces with every op done
        // *and* acked, and the quota is exactly n_ops.
        let stats = clients[0].stats();
        prop_assert_eq!(stats.completed, n_ops as u64);
        prop_assert!(stats.acks_sent >= stats.completed);

        // Answer exactness: a single client's completions are totally
        // ordered, so the observations must replay against the spec.
        let mut spec = KvSpec::new();
        let mut effectful = HashSet::new();
        for op in clients[0].observations() {
            let expected = match op.kind {
                KvOpKind::Put => KvAnswer::Stored(spec.put(op.key, op.value)),
                KvOpKind::Get => KvAnswer::Got(spec.get(op.key)),
                KvOpKind::Delete => KvAnswer::Deleted(spec.delete(op.key)),
                KvOpKind::Cas => KvAnswer::Swapped(spec.cas(op.key, op.expected, op.value)),
            };
            prop_assert_eq!(op.answer, expected, "tag ({}, {})", op.pid, op.seq);
            if is_effectful(op.answer) {
                effectful.insert((op.pid, op.seq));
            }
        }

        // At-most-once effects: the published tags are exactly the
        // effectful observations — no duplicates, nothing phantom,
        // nothing lost, however the retries and crashes interleaved.
        let tags = published_tags(fixture.store())?;
        prop_assert_eq!(tags, effectful);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Several clients over several shards, random batch sizes and
    /// queue capacities (down to 1, forcing overload sheds into the
    /// retry schedules), random crash placements: the client-observed
    /// history must pass the sharded exactly-once checker.
    #[test]
    fn concurrent_clients_linearize_across_crashes(
        clients_n in 2usize..5,
        n_ops in 4usize..12,
        batch in 1usize..6,
        queue_capacity in 1usize..16,
        seed in 0u64..1_000_000,
        crash_at in proptest::collection::vec(0usize..80, 0..4),
        eager in 0u8..2,
    ) {
        let nshards = 2;
        let fixture = Fixture::new(nshards, eager == 1);
        let clock = VirtualClock::new();
        let hub = ChannelHub::new();
        let mut clients: Vec<ClientSim> = (0..clients_n)
            .map(|i| ClientSim::new(ClientConfig {
                client_id: i as u32 + 1,
                n_ops,
                key_space: 8,
                seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..ClientConfig::default()
            }))
            .collect();
        let conns: Vec<ChannelConn> =
            (1..=clients_n as u32).map(|id| hub.connect(id)).collect();

        let mut model = KvSpec::new();
        let totals = drive(
            &fixture, &mut model, &mut clients, &conns, &hub, &clock, queue_capacity, batch,
            &crash_at,
        )?;

        for c in &clients {
            prop_assert_eq!(c.stats().completed, n_ops as u64);
        }
        // Sheds are explicit: every admission either queued or shed,
        // and the sheds surfaced to clients as Overloaded responses.
        if totals.shed > 0 {
            let overloads: u64 = clients.iter().map(|c| c.stats().overloads).sum();
            prop_assert!(overloads > 0, "{} sheds never surfaced", totals.shed);
        }

        let history = KvShardedHistory {
            ops: clients
                .iter()
                .flat_map(|c| c.observations().iter().cloned())
                .collect(),
            shards: fixture
                .store()
                .snapshot_sharded()
                .unwrap()
                .into_iter()
                .map(|chains| {
                    chains
                        .into_iter()
                        .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                        .collect()
                })
                .collect(),
        };
        let verdict = check_kv_sharded_gen(
            &history,
            |key| shard_of(key, nshards),
            &fixture.store().generations().unwrap(),
        );
        prop_assert!(verdict.is_linearizable(), "{:?}", verdict.violation());
        // The driver's model, advanced in execution order, is the store.
        let served: HashMap<u64, i64> = fixture.store().contents().unwrap().into_iter().collect();
        prop_assert_eq!(&served, model.contents());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Get-only streams persist nothing: whatever the retry schedule
    /// and wherever the front end dies, a population that only reads a
    /// quiescent (buffered) store costs no persist, no line, no flush
    /// call and no NVRAM write — no descriptor, no frame, no answer, no
    /// ack mark — and every answer is the preloaded value.
    #[test]
    fn get_only_streams_persist_nothing(
        clients_n in 1usize..5,
        n_ops in 4usize..16,
        timeout_ns in 300_000u64..3_000_000,
        seed in 0u64..1_000_000,
        crash_at in proptest::collection::vec(0usize..40, 0..4),
    ) {
        let nshards = 2;
        let fixture = Fixture::new(nshards, false);
        let mut model = KvSpec::new();
        for key in 0..8u64 {
            if key % 3 != 0 {
                let value = (seed % 97) as i64 - key as i64;
                prop_assert!(fixture.store().put(9, key + 1, key, value).unwrap());
                model.put(key, value);
            }
        }
        let clock = VirtualClock::new();
        let hub = ChannelHub::new();
        let mut clients: Vec<ClientSim> = (0..clients_n)
            .map(|i| ClientSim::new(ClientConfig {
                client_id: i as u32 + 1,
                n_ops,
                key_space: 8,
                mix: [0, 1, 0, 0],
                timeout_ns,
                seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..ClientConfig::default()
            }))
            .collect();
        let conns: Vec<ChannelConn> =
            (1..=clients_n as u32).map(|id| hub.connect(id)).collect();

        let before = fixture.stats();
        let totals = drive(
            &fixture, &mut model, &mut clients, &conns, &hub, &clock, 4, 4, &crash_at,
        )?;
        let d = fixture.stats() - before;
        prop_assert_eq!(
            (d.persists, d.lines_persisted, d.flush_calls, d.writes, d.cas_ops),
            (0, 0, 0, 0, 0)
        );
        prop_assert_eq!((totals.admitted, totals.shed), (0, 0), "reads take no queue seat");
        for c in &clients {
            prop_assert_eq!(c.stats().completed, n_ops as u64);
            prop_assert!(c.observations().iter().all(|op| op.kind == KvOpKind::Get));
        }
        prop_assert!(fixture.exec.tables().iter().all(|t| t.live() == 0), "nor a slot");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Overload discipline: flooding one shard with more fresh requests
    /// than the queue holds must produce exactly `capacity` admissions
    /// and `flood - capacity` explicit `Overloaded` answers — every
    /// submission accounted for, no panic, no silent drop — and the
    /// shed requests must still serve exactly once when re-driven.
    #[test]
    fn overload_sheds_explicitly_before_any_drop(
        queue_capacity in 1usize..4,
        flood in 8u32..40,
        batch in 1usize..6,
    ) {
        let fixture = Fixture::new(1, true);
        let core = fixture.core(queue_capacity, batch);

        let mut queued = Vec::new();
        let mut shed = Vec::new();
        for i in 1..=flood {
            let req_id = req_id_for(1, i);
            match core.submit(req_id, KvTaskOp::Put { key: u64::from(i), value: 1 }).unwrap() {
                Submission::Queued => queued.push(req_id),
                Submission::Overloaded => shed.push(req_id),
                Submission::Answered(_) => prop_assert!(false, "nothing pumped yet"),
                Submission::Stale => prop_assert!(false, "nothing acked yet"),
            }
        }
        prop_assert_eq!(queued.len(), queue_capacity.min(flood as usize));
        prop_assert_eq!(queued.len() + shed.len(), flood as usize);
        prop_assert_eq!(core.shed(), shed.len() as u64);
        // Shed before claim: only admitted requests hold a slot.
        prop_assert_eq!(fixture.exec.tables()[0].live(), queued.len() as u64);

        // Re-driving everything (shed first) to completion: each op
        // lands exactly once despite the duplicate submissions.
        let mut done = HashSet::new();
        for _ in 0..200usize {
            for &req_id in shed.iter().chain(&queued) {
                if done.contains(&req_id) {
                    continue;
                }
                let op = KvTaskOp::Put { key: u64::from(req_id as u32), value: 1 };
                match core.submit(req_id, op).unwrap() {
                    Submission::Answered(_) => {
                        done.insert(req_id);
                    }
                    Submission::Queued | Submission::Overloaded => {}
                    Submission::Stale => {
                        prop_assert!(false, "no acks in this property");
                    }
                }
            }
            if done.len() == flood as usize {
                break;
            }
            serve_round(&core, &fixture.rt, &[]).unwrap();
        }
        prop_assert_eq!(done.len(), flood as usize, "shed requests must eventually serve");

        let tags = published_tags(fixture.store())?;
        prop_assert_eq!(tags.len(), flood as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recycling × retransmission: three clients interleave advancing
    /// their sequence numbers (submit → execute → ack, recycling
    /// slots under churn) with buggy retransmissions of already-acked
    /// ids. The table must never re-admit an acked id as `Fresh` —
    /// every such retransmission is answered from surviving evidence
    /// (`Known`) or shed as `Stale` — and each admitted request
    /// executes exactly once, however small the table.
    #[test]
    fn recycled_retransmissions_are_never_readmitted(
        capacity in 1u32..6,
        steps in proptest::collection::vec(0u32..1_000_000, 20..120),
    ) {
        use std::collections::VecDeque;

        use pstack_heap::PHeap;
        use pstack_nvram::POffset;

        let pmem = PMemBuilder::new()
            .len(1 << 16)
            .eager_flush(true)
            .build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let table = KvRequestTable::format(pmem.clone(), &heap, capacity).unwrap();

        // Per-client model. Acks pop in submission order, so a
        // client's acked seqs are exactly the contiguous range
        // `1..=acked_max`.
        let mut next_seq = [1u32; 3];
        let mut unacked: [VecDeque<u32>; 3] = Default::default();
        let mut acked_max = [0u32; 3];
        let mut executed = HashSet::new();

        for v in steps {
            let c = (v % 3) as usize;
            let client = c as u32 + 1;
            let kind = (v / 3) % 8;
            if kind >= 6 && acked_max[c] > 0 {
                // Buggy retransmission of an acked (possibly recycled)
                // seq: shed or answered from evidence, never re-run.
                let seq = (v / 24) % acked_max[c] + 1;
                match table
                    .submit(req_id_for(client, seq), KvTaskOp::Get { key: u64::from(seq) })
                    .unwrap()
                {
                    ReqSubmit::Known { answer, .. } => {
                        prop_assert!(answer.is_some(), "acked slots hold durable answers");
                    }
                    ReqSubmit::Stale => {}
                    other => prop_assert!(false, "acked id re-admitted as {other:?}"),
                }
            } else if kind >= 4 && !unacked[c].is_empty() {
                let seq = unacked[c].pop_front().unwrap();
                prop_assert!(table.ack(req_id_for(client, seq)).unwrap());
                acked_max[c] = acked_max[c].max(seq);
            } else {
                let seq = next_seq[c];
                match table
                    .submit(req_id_for(client, seq), KvTaskOp::Get { key: u64::from(seq) })
                    .unwrap()
                {
                    ReqSubmit::Fresh(slot) => {
                        prop_assert!(
                            executed.insert((client, seq)),
                            "({client}, {seq}) executed twice"
                        );
                        table.mark_done(slot, 0, KvTaskResult::Got(None)).unwrap();
                        unacked[c].push_back(seq);
                        next_seq[c] += 1;
                    }
                    // Unacked answers pin their slots until the
                    // clients drain their ack queues.
                    ReqSubmit::Full => prop_assert_eq!(table.live(), u64::from(capacity)),
                    other => prop_assert!(false, "fresh id answered as {other:?}"),
                }
            }
        }

        // Exactly-once: every admitted id executed once, through
        // however many recycles the churn forced.
        let admitted: u32 = next_seq.iter().map(|&n| n - 1).sum();
        prop_assert_eq!(executed.len() as u32, admitted);
        prop_assert!(table.live_high_water() <= u64::from(capacity));
    }
}
