//! The system under test, as the benchmark sees it.
//!
//! **Every call into the program sits in this file**: building and
//! preloading the fixture, the serving round, the power-failure →
//! recovery path, direct group commits and compaction, the verifier,
//! and the counters read back. The workload drivers orchestrate these
//! and never name a program type beyond the ones re-exported here, so a
//! change to the program's API is a change to this file alone.
//!
//! The serving loop deserves a note. The program has no stack-driven
//! serve loop of its own: the unix-socket server uses
//! `ServerCore::pump_direct`, which bypasses the persistent stack, and
//! the loop that runs batch windows through `StripedRuntime::run_tasks`
//! exists only in `benches/server.rs::serve_to_completion` and
//! `server_campaign::serve_boot`. [`serve_round`] is that loop, one
//! round per call. When a later change moves it into `pstack-server`,
//! `serve_round` becomes one call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pstack_core::{FunctionRegistry, PError, RecoveryMode, RuntimeConfig, StripedRuntime};
use pstack_kv::{
    shard_of, KvApplied, KvBatchOp, KvRequestTable, KvTaskAnswer, KvTaskOp, KvTaskResult,
    KvVariant, PKvStore, ShardedKvStore,
};
use pstack_nvram::{FailPlan, PMem, PMemBuilder, PMemStripe, POffset, StatsSnapshot};
use pstack_server::proto::{kind_of, Request, RequestBody, Response};
use pstack_server::{
    ChannelConn, ChannelHub, ClientConfig, ClientSim, KvServeFunction, OpClass, ServerCore,
    Submission, KV_SERVE_FUNC_ID,
};
use pstack_verify::{
    check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvWitnessRecord,
};

use crate::rng::{derive, SplitMix64, StreamHash};
use crate::trace::Tracer;

/// Shard regions behind the store (the ROADMAP's tracked row).
pub const SHARDS: usize = 4;
/// Runtime workers: fixed at the build host's `nproc`, not detected, so
/// that a run means the same thing on every host.
pub const WORKERS: usize = 2;
/// Requests per batch window.
pub const BATCH: usize = 16;
/// Charged device round-trip of every region, control region included.
pub const FLUSH_LATENCY: Duration = Duration::from_millis(1);
/// Mutations per preload commit.
const PRELOAD_COMMIT: usize = 64;
/// `pid` tag of preloaded records.
const LOADER_PID: u64 = 0xFFFF_0001;
/// `pid` tag of the post-run per-op put probe.
const PROBE_PID: u64 = 0xFFFF_0002;
/// Where each shard region persists its request-table base: inside the
/// 64-byte shard root, past the store's own words (the campaigns use
/// the same slot).
const SERVE_TABLE_ROOT_OFF: u64 = 48;
/// Ops per client that enter the op-stream pin.
const PIN_PREFIX: u32 = 32;

/// What differs between fixtures.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Preloaded key space, `0..keys`.
    pub keys: u64,
    /// Version-log slots per shard and generation.
    pub log_cap: u64,
    /// Generations a shard's region must have room for.
    pub generations: u64,
    /// `Some((table slots, queue slots))` per shard for a served
    /// fixture; `None` builds the store alone (no tables, no runtime).
    pub serve: Option<(u32, usize)>,
    /// Charged round-trip; only the smoke test lowers it.
    pub latency: Duration,
}

impl Shape {
    fn nbuckets(&self) -> u64 {
        (self.keys / SHARDS as u64).max(4)
    }
}

/// The serving half of a fixture.
pub struct Served {
    rt: StripedRuntime,
    core: ServerCore,
}

/// One formatted, preloaded system.
pub struct Fixture {
    shape: Shape,
    control: Option<PMem>,
    stripe: PMemStripe,
    store: ShardedKvStore,
    served: Option<Served>,
    /// The loader's own observations, for the verifier.
    preload: Vec<KvOp>,
    /// Counters of regions already reopened (a reopen zeroes them).
    carried: RegionStats,
}

/// NVRAM counters, control region and stripe apart.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionStats {
    pub control: StatsSnapshot,
    pub stripe: StatsSnapshot,
}

impl RegionStats {
    pub fn both(&self) -> StatsSnapshot {
        self.control + self.stripe
    }
}

impl std::ops::Sub for RegionStats {
    type Output = RegionStats;
    fn sub(self, rhs: RegionStats) -> RegionStats {
        RegionStats {
            control: self.control - rhs.control,
            stripe: self.stripe - rhs.stripe,
        }
    }
}

/// Reads + writes + compare-exchanges: the CPU-work proxy that repeats.
pub fn accesses(s: &StatsSnapshot) -> u64 {
    s.reads + s.writes + s.cas_ops
}

fn region(len: usize, latency: Duration) -> PMemBuilder {
    PMemBuilder::new()
        .len(len)
        .flush_latency(latency)
        .psan(false)
}

/// The value the loader stores under `key`.
pub fn preload_value(seed: u64, key: u64) -> i64 {
    (derive(seed, key) % 2001) as i64 - 1000
}

impl Fixture {
    /// Formats stripe, store and (for a served shape) request tables
    /// and runtime, then preloads every key durably through
    /// cross-shard group commits. This whole function is `setup_s`.
    pub fn build(shape: Shape, seed: u64) -> Result<Fixture, PError> {
        let nbuckets = shape.nbuckets();
        let table_len = shape
            .serve
            .map_or(0, |(cap, _)| KvRequestTable::required_len(cap));
        let region_len = (PKvStore::required_len(nbuckets, shape.log_cap)
            * shape.generations as usize
            + table_len
            + (1 << 16))
            .next_power_of_two();
        let stripe = region(region_len, shape.latency).build_striped(SHARDS);
        let store =
            ShardedKvStore::format(stripe.regions(), nbuckets, shape.log_cap, KvVariant::Nsrl)?;

        let (control, served) = match shape.serve {
            None => (None, None),
            Some((table_cap, queue_cap)) => {
                let mut tables = Vec::with_capacity(SHARDS);
                for s in 0..SHARDS {
                    let table =
                        KvRequestTable::format(stripe.region(s).clone(), store.heap(s), table_cap)?;
                    let root = POffset::new(SERVE_TABLE_ROOT_OFF);
                    stripe.region(s).write_u64(root, table.base().get())?;
                    stripe.region(s).flush(root, 8)?;
                    tables.push(table);
                }
                let exec = KvServeFunction::new(store.clone(), tables);
                let control = region(1 << 20, shape.latency).build_in_memory();
                let rt = StripedRuntime::format(
                    control.clone(),
                    stripe.clone(),
                    RuntimeConfig::new(WORKERS).stack_capacity(8 * 1024),
                    &serve_registry(&exec)?,
                )?;
                let core = ServerCore::new(exec, queue_cap, BATCH);
                (Some(control), Some(Served { rt, core }))
            }
        };

        let mut preload = Vec::with_capacity(shape.keys as usize);
        let keys: Vec<u64> = (0..shape.keys).collect();
        for chunk in keys.chunks(PRELOAD_COMMIT) {
            let mut batch = store.batch();
            for &key in chunk {
                let value = preload_value(seed, key);
                batch.put(LOADER_PID, key + 1, key, value);
                preload.push(KvOp {
                    pid: LOADER_PID,
                    seq: key + 1,
                    kind: KvOpKind::Put,
                    key,
                    value,
                    expected: 0,
                    answer: KvAnswer::Stored(true),
                });
            }
            if !batch.commit()?.iter().all(|o| o.took_effect()) {
                return Err(PError::Task("preload put did not apply".into()));
            }
        }
        Ok(Fixture {
            shape,
            control,
            stripe,
            store,
            served,
            preload,
            carried: RegionStats::default(),
        })
    }

    /// Cumulative NVRAM counters across every boot of this fixture.
    pub fn stats(&self) -> RegionStats {
        RegionStats {
            control: self.carried.control
                + self
                    .control
                    .as_ref()
                    .map_or_else(StatsSnapshot::default, |c| c.stats().snapshot()),
            stripe: self.carried.stripe + self.stripe.aggregate_stats(),
        }
    }

    /// Arms a seeded power failure `countdown` persistence events from
    /// now in shard `target`'s region, or the control region for `None`.
    pub fn arm_power_failure(&self, target: Option<usize>, countdown: u64) {
        let plan = FailPlan::after_events(countdown);
        match (target, &self.control) {
            (Some(shard), _) => self.stripe.region(shard).arm_failpoint(plan),
            (None, Some(control)) => control.arm_failpoint(plan),
            (None, None) => {}
        }
    }

    /// Σ shards' live heap payload and retired-generation bytes.
    pub fn heap_bytes(&self) -> (u64, u64) {
        (0..SHARDS).fold((0, 0), |(used, retired), s| {
            let heap = self.store.heap(s);
            let gone: u64 = heap.retired_extents().iter().map(|&(_, len)| len).sum();
            (used + heap.stats().used_payload_bytes, retired + gone)
        })
    }

    /// Request-table occupancy: (max live high water, Σ recycled).
    pub fn reqtable_counters(&self) -> (u64, u64) {
        self.served.as_ref().map_or((0, 0), |s| {
            s.core.exec().tables().iter().fold((0, 0), |(hw, rec), t| {
                (hw.max(t.live_high_water()), rec + t.recycled())
            })
        })
    }

    /// Admission counters of the current boot: (admitted, shed).
    pub fn admission_counters(&self) -> (u64, u64) {
        self.served
            .as_ref()
            .map_or((0, 0), |s| (s.core.admitted(), s.core.shed()))
    }

    /// Σ shards' active generation numbers (= compactions survived).
    pub fn generations(&self) -> Result<u64, PError> {
        Ok(self.store.generations()?.iter().sum())
    }

    /// Share of its active log each shard still has free.
    pub fn log_headroom(&self) -> Result<Vec<f64>, PError> {
        let reserved = self.store.log_reserved_per_shard()?;
        let caps = self.store.log_capacities()?;
        Ok(reserved
            .iter()
            .zip(&caps)
            .map(|(&r, &c)| c.saturating_sub(r) as f64 / c as f64)
            .collect())
    }

    /// The preloaded key space, `0..keys`.
    pub fn keys(&self) -> u64 {
        self.shape.keys
    }

    /// Live keys and their values, by a full scan.
    pub fn contents(&self) -> Result<std::collections::BTreeMap<u64, i64>, PError> {
        self.store.contents()
    }
}

fn serve_registry(exec: &KvServeFunction) -> Result<FunctionRegistry, PError> {
    let mut registry = FunctionRegistry::new();
    registry.register(KV_SERVE_FUNC_ID, exec.clone().into_arc())?;
    Ok(registry)
}

// ---------------------------------------------------------------- clients

/// The simulated client population and its wire. Stepped by the single
/// driver thread, so the only threads of a served run are the driver
/// and the runtime's workers.
pub struct Clients {
    sims: Vec<ClientSim>,
    conns: Vec<ChannelConn>,
    hub: ChannelHub,
    epoch: Instant,
    /// `req_id → kind` of every op awaiting its `Done`, echoed in
    /// deferred `Done` responses.
    kinds: HashMap<u64, u8>,
    /// First transmissions so far: the run's `attempted`.
    pub first_transmissions: u64,
}

/// Relative weights of (put, get, delete, cas).
pub type Mix = [u32; 4];

fn client_sims(n: usize, mix: Mix, keys: u64, seed: u64) -> Vec<ClientSim> {
    (0..n)
        .map(|i| {
            ClientSim::new(ClientConfig {
                client_id: i as u32 + 1,
                // Never reached: the driver stops issuing at its own
                // op target and then drains what is in flight.
                n_ops: usize::MAX,
                key_space: keys,
                zipf_s: 0.99,
                value_range: 1_000,
                mix,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 1_000_000,
                backoff_cap_ns: 8_000_000,
                seed: derive(seed, 0xC11E_0000 + i as u64),
            })
        })
        .collect()
}

/// The op-stream pin of a client population: every client's first
/// [`PIN_PREFIX`] `(req_id, op)` pairs, folded in client order. Taken
/// from fresh clients answered on the spot, so it depends on
/// `ClientSim` and its RNG alone — exactly what must not change
/// silently under the benchmark.
pub fn client_stream_pin(n: usize, mix: Mix, keys: u64, seed: u64) -> u64 {
    let mut all = StreamHash::default();
    for mut c in client_sims(n, mix, keys, seed) {
        for _ in 0..PIN_PREFIX {
            let req = c.poll(0).expect("an idle client issues");
            let RequestBody::Op(op) = req.body else {
                unreachable!("an idle client issues an op");
            };
            hash_op(&mut all, req.req_id, op);
            let result = match op {
                KvTaskOp::Put { .. } => KvTaskResult::Stored(true),
                KvTaskOp::Get { .. } => KvTaskResult::Got(None),
                KvTaskOp::Delete { .. } => KvTaskResult::Deleted(false),
                KvTaskOp::Cas { .. } => KvTaskResult::Swapped(false),
            };
            let answer = KvTaskAnswer {
                executor: 0,
                result,
            };
            c.deliver(
                0,
                &Response::Done {
                    req_id: req.req_id,
                    kind: kind_of(op),
                    answer,
                },
            );
            let ack = c.poll(0).expect("a client acks its answer");
            c.deliver(0, &Response::AckOk { req_id: ack.req_id });
        }
    }
    all.value()
}

impl Clients {
    pub fn new(n: usize, mix: Mix, keys: u64, seed: u64) -> Clients {
        let hub = ChannelHub::new();
        let sims = client_sims(n, mix, keys, seed);
        let conns = (1..=n as u32).map(|id| hub.connect(id)).collect();
        Clients {
            sims,
            conns,
            hub,
            epoch: Instant::now(),
            kinds: HashMap::new(),
            first_transmissions: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Operations done **and** acked, over the population.
    pub fn completed(&self) -> u64 {
        self.sims.iter().map(|c| c.stats().completed).sum()
    }

    pub fn in_flight(&self) -> usize {
        self.sims
            .iter()
            .filter(|c| c.current_req_id().is_some())
            .count()
    }

    /// Completed-op latency samples recorded so far, per client — a
    /// mark to slice [`Clients::latencies_between`] with.
    pub fn latency_marks(&self) -> Vec<usize> {
        self.sims.iter().map(|c| c.latencies().len()).collect()
    }

    /// (is a write, first send → `Done` in ns) for ops that completed
    /// between two marks.
    pub fn latencies_between(&self, from: &[usize], to: &[usize]) -> Vec<(bool, u64)> {
        let mut out = Vec::new();
        for (c, (&a, &b)) in self.sims.iter().zip(from.iter().zip(to)) {
            out.extend(
                c.latencies()[a..b]
                    .iter()
                    .map(|&(class, ns)| (class != OpClass::Get, ns)),
            );
        }
        out
    }

    /// Retry-machinery counters over the population:
    /// (retransmits, overloads, stale signals).
    pub fn retry_counters(&self) -> (u64, u64, u64) {
        self.sims.iter().fold((0, 0, 0), |(r, o, s), c| {
            let st = c.stats();
            (r + st.retransmits, o + st.overloads, s + st.stale_signals)
        })
    }

    /// Frames the clients want on the wire at `now`. With `issue` off,
    /// idle clients stay idle: only retransmissions and acks flow.
    fn poll(&mut self, now: u64, issue: bool) -> Vec<(usize, Request)> {
        let mut frames = Vec::new();
        for (i, c) in self.sims.iter_mut().enumerate() {
            if !issue && c.current_req_id().is_none() {
                continue;
            }
            let Some(req) = c.poll(now) else { continue };
            if let RequestBody::Op(op) = req.body {
                // A retransmission finds its entry already there.
                if self.kinds.insert(req.req_id, kind_of(op)).is_none() {
                    self.first_transmissions += 1;
                }
            }
            frames.push((i, req));
        }
        frames
    }

    /// Earliest instant a client with a request in flight acts again.
    fn next_wake(&self) -> Option<u64> {
        self.sims
            .iter()
            .filter(|c| c.current_req_id().is_some())
            .filter_map(ClientSim::next_wake)
            .min()
    }

    /// The wire dies with the machine and every client sees a reset.
    fn power_failure(&mut self) {
        self.hub.reset();
        let now = self.now_ns();
        for c in &mut self.sims {
            c.on_crash(now);
        }
    }
}

fn hash_op(h: &mut StreamHash, req_id: u64, op: KvTaskOp) {
    h.word(req_id);
    match op {
        KvTaskOp::Put { key, value } => h.op(0, key, value, 0),
        KvTaskOp::Get { key } => h.op(1, key, 0, 0),
        KvTaskOp::Delete { key } => h.op(2, key, 0, 0),
        KvTaskOp::Cas { key, expected, new } => h.op(3, key, expected, new),
    }
}

// ----------------------------------------------------------- serving round

/// Always-on counts of the timed window; the traced pass adds the stat
/// deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounts {
    pub rounds: u64,
    /// Frames on the wire, both directions.
    pub frames: u64,
    pub submits: u64,
    pub acks: u64,
    /// Retries answered from the durable answer without executing.
    pub dedup_hits: u64,
    /// `run_tasks` calls, batch windows in them, requests in those.
    pub window_rounds: u64,
    pub windows: u64,
    pub window_reqs: u64,
    /// Stat deltas taken around calls (traced pass only).
    pub submit_persists: u64,
    pub ack_persists: u64,
    pub rt_control_persists: u64,
    pub rt_control_lines: u64,
    pub rt_stripe_persists: u64,
}

/// How one serving round ended.
pub enum Round {
    /// Served. `done_at` is the clients' clock when a `Done` was
    /// delivered this round, if one was.
    Served { done_at: Option<u64> },
    /// A power failure took the whole system down.
    PowerFailure,
}

/// One round of the stack-driven serve loop: clients transmit, the
/// server admits (durable descriptor per op, durable ack), batch
/// windows run through the persistent stack, answers are delivered.
/// `before_windows` runs right before a non-empty `run_tasks` — where
/// the crash workload arms its power failures.
pub fn serve_round(
    fx: &Fixture,
    cl: &mut Clients,
    issue: bool,
    counts: &mut ServeCounts,
    tr: &mut Tracer,
    before_windows: &mut dyn FnMut(&Fixture),
) -> Result<Round, PError> {
    let served = fx.served.as_ref().expect("a served fixture");
    let (core, rt) = (&served.core, &served.rt);
    let traced = tr.is_on();
    // A crash surfacing on the driver's own admission path is a power
    // failure like any other: take the rest of the system down.
    let direct_failure = |e: PError| -> Result<Round, PError> {
        if e.is_crash() {
            rt.crash_all(0, 0.0);
            Ok(Round::PowerFailure)
        } else {
            Err(e)
        }
    };
    let top = tr.begin_top();
    counts.rounds += 1;

    let now = cl.now_ns();
    let frames = tr.time("client.poll", || cl.poll(now, issue));
    tr.time("transport.send", || {
        for (i, req) in &frames {
            cl.conns[*i].send(req);
        }
    });
    let requests = tr.time("transport.poll_request", || {
        let mut v = Vec::with_capacity(frames.len());
        while let Some(req) = cl.hub.poll_request().expect("frames decode") {
            v.push(req);
        }
        v
    });

    let mut responses = Vec::with_capacity(requests.len());
    for req in &requests {
        let before = traced.then(|| fx.stripe.aggregate_stats().persists);
        let persists =
            |before: Option<u64>| before.map_or(0, |b| fx.stripe.aggregate_stats().persists - b);
        let req_id = req.req_id;
        match req.body {
            RequestBody::Ack => {
                counts.acks += 1;
                match tr.time_ids("server.ack", &[req_id], || core.ack(req_id)) {
                    Ok(_) => responses.push(Response::AckOk { req_id }),
                    Err(e) => return direct_failure(e),
                }
                counts.ack_persists += persists(before);
            }
            RequestBody::Op(op) => {
                counts.submits += 1;
                match tr.time_ids("server.submit", &[req_id], || core.submit(req_id, op)) {
                    Ok(Submission::Answered(answer)) => {
                        counts.dedup_hits += 1;
                        responses.push(Response::Done {
                            req_id,
                            kind: kind_of(op),
                            answer,
                        });
                    }
                    Ok(Submission::Overloaded) => {
                        responses.push(Response::Overloaded { req_id });
                    }
                    Ok(Submission::Stale) => {
                        responses.push(Response::Stale { req_id });
                    }
                    Ok(Submission::Queued) => {}
                    Err(e) => return direct_failure(e),
                }
                counts.submit_persists += persists(before);
            }
        }
    }
    tr.time("transport.respond", || {
        for resp in &responses {
            cl.hub.respond(resp);
        }
    });
    counts.frames += (frames.len() + responses.len()) as u64;

    let (tasks, ids) = tr.time("server.drain", || core.drain_tasks());
    if !tasks.is_empty() {
        before_windows(fx);
        counts.window_rounds += 1;
        counts.windows += tasks.len() as u64;
        counts.window_reqs += ids.len() as u64;
        let before = traced.then(|| fx.stats());
        let report = tr.time_ids("runtime.run_tasks", &ids, || rt.run_tasks(tasks));
        if let Some(before) = before {
            let d = fx.stats() - before;
            counts.rt_control_persists += d.control.persists;
            counts.rt_control_lines += d.control.lines_persisted;
            counts.rt_stripe_persists += d.stripe.persists;
        }
        if report.crashed {
            return Ok(Round::PowerFailure);
        }
        if report.task_errors != 0 {
            return Err(PError::Task("a batch window erred".into()));
        }
        let answers = match tr.time("server.answers_for", || core.answers_for(&ids)) {
            Ok(answers) => answers,
            Err(e) => return direct_failure(e),
        };
        counts.frames += answers.len() as u64;
        tr.time("transport.respond", || {
            for (req_id, answer) in answers {
                let resp = match answer {
                    Some(answer) => Response::Done {
                        req_id,
                        kind: cl.kinds.get(&req_id).copied().unwrap_or(0),
                        answer,
                    },
                    None => Response::Retry { req_id },
                };
                cl.hub.respond(&resp);
            }
        });
    }

    let delivered = tr.time("transport.try_recv", || {
        let mut v = Vec::new();
        for (i, conn) in cl.conns.iter().enumerate() {
            while let Some(resp) = conn.try_recv().expect("frames decode") {
                v.push((i, resp));
            }
        }
        v
    });
    let now = cl.now_ns();
    let mut done_at = None;
    tr.time("client.deliver", || {
        for (i, resp) in &delivered {
            if let Response::Done { req_id, .. } = resp {
                cl.kinds.remove(req_id);
                done_at = Some(now);
            }
            cl.sims[*i].deliver(now, resp);
        }
    });

    // Nothing moved: every client with a request out is backing off.
    // Sleep to the earliest wake instead of spinning on the clock.
    if frames.is_empty() && delivered.is_empty() {
        if let Some(wake) = cl.next_wake() {
            let wait = wake.saturating_sub(cl.now_ns()).min(10_000_000);
            tr.time("client.backoff", || {
                std::thread::sleep(Duration::from_nanos(wait));
            });
        }
    }
    tr.end_top(crate::trace::ROUND, top);
    Ok(Round::Served { done_at })
}

// ------------------------------------------------- power failure → recovery

/// What one reboot cost, measured from outside.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// Reopening every region and the runtime over them.
    pub reopen_ns: u64,
    /// Re-attaching store, request tables, serve function, front end.
    pub attach_ns: u64,
    /// The evidence-scan prelude plus persistent-stack frame replay.
    pub replay_ns: u64,
    /// Frames the persistent stacks replayed.
    pub frames: u64,
    /// NVRAM counters from reopen to `recover_with` returning.
    pub stats: RegionStats,
}

/// The whole-system restart: the wire resets and the clients back off,
/// every region reopens, store / tables / runtime re-attach, the
/// persistent stacks replay their interrupted frames behind a parallel
/// per-shard evidence scan, and a fresh front end takes over.
pub fn power_cycle(
    fx: &mut Fixture,
    cl: &mut Clients,
    tr: &mut Tracer,
) -> Result<Recovery, PError> {
    cl.power_failure();
    fx.carried = fx.stats();
    let old = fx.served.take().expect("a served fixture");

    let t_reopen = Instant::now();
    let mut attached: Option<(KvServeFunction, Duration)> = None;
    let rt = tr.time("recovery.reopen", || {
        old.rt.reopen_all_with(|_, stripe| {
            let t_attach = Instant::now();
            let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl)?;
            let mut tables = Vec::with_capacity(SHARDS);
            for s in 0..SHARDS {
                let root = POffset::new(SERVE_TABLE_ROOT_OFF);
                let base = stripe.region(s).read_u64(root)?;
                tables.push(KvRequestTable::open(
                    stripe.region(s).clone(),
                    POffset::new(base),
                )?);
            }
            let exec = KvServeFunction::new(store, tables);
            let registry = serve_registry(&exec)?;
            attached = Some((exec, t_attach.elapsed()));
            Ok(registry)
        })
    })?;
    let (exec, attach_in_reopen) = attached.expect("reopen ran the registry builder");
    let reopen_ns = (t_reopen.elapsed() - attach_in_reopen).as_nanos() as u64;

    let t_attach = Instant::now();
    let (_, queue_cap) = fx.shape.serve.expect("a served fixture");
    fx.stripe = rt.stripe().clone();
    fx.control = Some(rt.control().clone());
    fx.store = exec.store().clone();
    let prelude_store = fx.store.clone();
    let core = tr.time("recovery.attach", || {
        ServerCore::new(exec, queue_cap, BATCH)
    });
    let attach_ns = (attach_in_reopen + t_attach.elapsed()).as_nanos() as u64;

    let t_replay = Instant::now();
    let report = tr.time("recovery.replay", || {
        rt.recover_with(RecoveryMode::Parallel, |shard, _| {
            prelude_store.shard(shard).snapshot().map(|_| ())
        })
    })?;
    let replay_ns = t_replay.elapsed().as_nanos() as u64;

    fx.served = Some(Served { rt, core });
    Ok(Recovery {
        reopen_ns,
        attach_ns,
        replay_ns,
        frames: report.total_frames() as u64,
        stats: fx.stats() - fx.carried,
    })
}

// ------------------------------------------------------------- verification

/// Client-observed exactly-once: the clients' own observations (plus
/// the loader's) against the store's published chains.
pub fn verify_served(fx: &Fixture, cl: &Clients) -> Result<bool, PError> {
    let shards: Vec<Vec<Vec<KvWitnessRecord>>> = fx
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
    let ops = fx
        .preload
        .iter()
        .copied()
        .chain(
            cl.sims
                .iter()
                .flat_map(|c| c.observations().iter().copied()),
        )
        .collect();
    let history = KvShardedHistory { ops, shards };
    let verdict = check_kv_sharded_gen(
        &history,
        |key| shard_of(key, SHARDS),
        &fx.store.generations()?,
    );
    if !verdict.is_linearizable() {
        eprintln!("verdict: {verdict:?}");
    }
    Ok(verdict.is_linearizable())
}

/// Ops the clients observed a `Done` for (each at most once: a client
/// leaves `AwaitOp` on its first `Done`).
pub fn observed(cl: &Clients) -> u64 {
    cl.sims.iter().map(|c| c.observations().len() as u64).sum()
}

// ------------------------------------------------- direct commits, compaction

/// A mutation of the direct-commit workload (`pid` fixed, `seq` its
/// position in the stream).
pub type Mutation = KvBatchOp;

pub fn mutation_put(seq: u64, key: u64, value: i64) -> Mutation {
    KvBatchOp::Put {
        pid: 1,
        seq,
        key,
        value,
    }
}

pub fn mutation_delete(seq: u64, key: u64) -> Mutation {
    KvBatchOp::Delete { pid: 1, seq, key }
}

pub fn mutation_cas(seq: u64, key: u64, expected: i64, new: i64) -> Mutation {
    KvBatchOp::Cas {
        pid: 1,
        seq,
        key,
        expected,
        new,
    }
}

/// One cross-shard group commit; `true` per mutation that took effect.
pub fn commit(fx: &Fixture, ops: &[Mutation]) -> Result<Vec<bool>, PError> {
    let mut batch = fx.store.batch();
    for &op in ops {
        batch.push(op);
    }
    let outcomes = batch.commit()?;
    if outcomes.contains(&KvApplied::LogFull) {
        return Err(PError::Task(
            "version log full: compaction fell behind".into(),
        ));
    }
    Ok(outcomes.into_iter().map(KvApplied::took_effect).collect())
}

/// The shard that owns `key`.
pub fn home_shard(key: u64) -> usize {
    shard_of(key, SHARDS)
}

pub fn compact_shard(fx: &Fixture, shard: usize) -> Result<(), PError> {
    fx.store.compact_shard(shard).map(|_| ())
}

// ---------------------------------------------------------------- probes

/// Post-run probe: `n` zipf-free point reads; (µs, NVRAM reads) per get.
pub fn probe_gets(fx: &Fixture, n: u64) -> Result<(f64, f64), PError> {
    let before = fx.stats().stripe.reads;
    let t = Instant::now();
    for key in 0..n {
        std::hint::black_box(fx.store.get(key % fx.shape.keys)?);
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    let reads = fx.stats().stripe.reads - before;
    Ok((us / n as f64, reads as f64 / n as f64))
}

/// Post-run probe: `n` per-op (not batched) puts; (µs, persists) per put.
pub fn probe_puts(fx: &Fixture, n: u64, seed: u64) -> Result<(f64, f64), PError> {
    let mut rng = SplitMix64::new(derive(seed, 0x9809E));
    let before = fx.stats().stripe.persists;
    let t = Instant::now();
    for seq in 1..=n {
        let key = rng.below(fx.shape.keys);
        fx.store.put(PROBE_PID, seq, key, seq as i64)?;
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    let persists = fx.stats().stripe.persists - before;
    Ok((us / n as f64, persists as f64 / n as f64))
}

/// One one-line write + flush pair on `scratch`, timed.
fn round_trip(scratch: &PMem, i: u64) -> Duration {
    let off = POffset::new((i % 8) * 64);
    let t = Instant::now();
    scratch.write_u64(off, i + 1).expect("scratch write");
    scratch.flush(off, 8).expect("scratch flush");
    t.elapsed()
}

/// Observed device round-trip: `n` one-line write + flush pairs on a
/// scratch region with the charged latency. Median microseconds per
/// pair, so that one descheduled sleep does not colour the reading.
pub fn probe_rtt(n: u64, latency: Duration) -> f64 {
    let scratch = region(4096, latency).build_in_memory();
    let mut pairs: Vec<f64> = (0..n)
        .map(|i| round_trip(&scratch, i).as_secs_f64() * 1e6)
        .collect();
    crate::stats::median_f64(&mut pairs)
}

/// The device round-trip as this host delivers it, sampled for as long
/// as the benchmark runs: one thread that does nothing but write +
/// flush pairs on a scratch region charged like every other region. It
/// sleeps through all but a few microseconds of each pair.
///
/// The emulated device charges its latency with `thread::sleep`, and
/// how far a sleep overshoots is the host's business, not the
/// program's: ~9 % on a quiet host, drifting by several per cent within
/// minutes and by 15 % and more when a neighbour is busy. Every gated
/// timing is a sum of such sleeps, so the report states them **at the
/// charged latency**: multiplied by charged / observed, where observed
/// is this sampler's mean over the very window the timing was taken in.
pub struct RttSampler {
    shared: Arc<SamplerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
    charged: Duration,
}

struct SamplerShared {
    stop: AtomicBool,
    /// (Σ observed ns, pairs) so far.
    totals: Mutex<(u64, u64)>,
}

/// A reading of the sampler; two of them delimit a window.
#[derive(Debug, Clone, Copy)]
pub struct RttMark {
    sum_ns: u64,
    pairs: u64,
}

impl RttSampler {
    pub fn start(latency: Duration) -> RttSampler {
        let shared = Arc::new(SamplerShared {
            stop: AtomicBool::new(false),
            totals: Mutex::new((0, 0)),
        });
        let theirs = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let scratch = region(4096, latency).build_in_memory();
            let mut i = 0;
            while !theirs.stop.load(Ordering::Relaxed) {
                let ns = round_trip(&scratch, i).as_nanos() as u64;
                i += 1;
                let mut totals = theirs.totals.lock().expect("sampler totals");
                totals.0 += ns;
                totals.1 += 1;
            }
        });
        RttSampler {
            shared,
            thread: Some(thread),
            charged: latency,
        }
    }

    pub fn mark(&self) -> RttMark {
        let (sum_ns, pairs) = *self.shared.totals.lock().expect("sampler totals");
        RttMark { sum_ns, pairs }
    }

    /// Mean observed round-trip between two marks, in microseconds;
    /// the charged latency when the window held no whole pair.
    pub fn observed_us(&self, from: RttMark, to: RttMark) -> f64 {
        match to.pairs - from.pairs {
            0 => self.charged.as_secs_f64() * 1e6,
            n => (to.sum_ns - from.sum_ns) as f64 / n as f64 / 1e3,
        }
    }
}

impl Drop for RttSampler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
