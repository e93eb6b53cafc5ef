//! E19: the serving front end on the sharded hot path.
//!
//! What does exactly-once serving cost? The served path pays, on top
//! of each batch window's group commit, one coalesced descriptor
//! persist per drain (the dedup evidence), one answer persist per
//! window, one ack persist per op, and the admission/response
//! machinery; reads are answered at admission and persist nothing.
//! The bench runs the identical put workload two ways on
//! latency-emulated regions:
//!
//! * `server/served_vs_direct/direct_windows` — the `StripedRuntime`
//!   batch-window drive (E18's runtime side): the same windows of the
//!   same executor over a request table **preloaded** with every put
//!   (one descriptor persist per table, outside the measurement) — no
//!   wire, no admission, no descriptor persist per drain, no acks.
//! * `server/served_vs_direct/served_path` — closed-loop clients over
//!   the channel hub: request frames, per-shard admission, request
//!   descriptors made durable at the drain, runtime batch windows,
//!   durable answers, acks, slot recycling.
//!
//! Both sides run `KvServeFunction` windows, so the `Comparison` ratio
//! line the bench ends with is admission + acks — the exactly-once
//! premium — against the same windows preloaded. An instrumented
//! mixed-workload pass then prints the served path's SLO percentiles
//! (p50/p99/p999 per op class, wall-clock, the same shape the crash
//! campaign reports in virtual time).

use std::collections::HashMap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Comparison, Criterion, Throughput};
use pstack_core::{FunctionRegistry, RuntimeConfig, StripedRuntime};
use pstack_kv::{KvRequestTable, KvTaskOp, KvVariant, PKvStore, ShardedKvStore};
use pstack_nvram::PMemBuilder;
use pstack_server::proto::{RequestBody, Response};
use pstack_server::{
    ChannelConn, ChannelHub, ClientConfig, ClientSim, Clock, KvServeFunction, OpClass, ServerCore,
    Submission, SystemClock, KV_SERVE_FUNC_ID,
};

/// Emulated per-round-trip persist latency (E17's device model).
const LATENCY: Duration = Duration::from_micros(50);

const SHARDS: usize = 4;
const WORKERS: usize = 4;
const CLIENTS: usize = 4;
const OPS_PER_CLIENT: usize = 48;
const BATCH: usize = 16;
const TOTAL: u64 = (CLIENTS * OPS_PER_CLIENT) as u64;

fn build_stripe(log_cap: u64) -> pstack_nvram::PMemStripe {
    let region_len = (PKvStore::required_len(256, log_cap) + (1 << 17)).next_power_of_two();
    PMemBuilder::new()
        .len(region_len)
        .flush_latency(LATENCY)
        .build_striped(SHARDS)
}

/// The direct drive: E18's runtime batch windows over preloaded
/// request tables — the same windows with none of the serving layers.
fn build_direct() -> (StripedRuntime, Vec<pstack_core::Task>) {
    let log_cap = TOTAL / SHARDS as u64 * 3 + 64;
    let stripe = build_stripe(log_cap);
    let store = ShardedKvStore::format(stripe.regions(), 256, log_cap, KvVariant::Nsrl)
        .expect("store formats");
    let ops: Vec<KvTaskOp> = (0..TOTAL)
        .map(|key| KvTaskOp::Put {
            key,
            value: key as i64,
        })
        .collect();
    let exec = KvServeFunction::preload(store, &ops).expect("tables preload");
    let tasks = exec.pending_tasks(BATCH).expect("pending tasks");
    let mut registry = FunctionRegistry::new();
    registry
        .register(KV_SERVE_FUNC_ID, exec.into_arc())
        .expect("function registers");
    let control = PMemBuilder::new().len(1 << 20).build_in_memory();
    let rt = StripedRuntime::format(
        control,
        stripe,
        RuntimeConfig::new(WORKERS).stack_capacity(8 * 1024),
        &registry,
    )
    .expect("runtime formats");
    (rt, tasks)
}

struct Served {
    rt: StripedRuntime,
    core: ServerCore,
    hub: ChannelHub,
    conns: Vec<ChannelConn>,
    clients: Vec<ClientSim>,
}

/// The served fixture: store + per-shard request tables behind the
/// runtime-registered serve function, plus the closed-loop client
/// population on the channel hub.
fn build_served(mix: [u32; 4]) -> Served {
    let log_cap = TOTAL * 3 + 64;
    let stripe = build_stripe(log_cap);
    let store = ShardedKvStore::format(stripe.regions(), 256, log_cap, KvVariant::Nsrl)
        .expect("store formats");
    let tables: Vec<KvRequestTable> = (0..SHARDS)
        .map(|s| {
            KvRequestTable::format(stripe.region(s).clone(), store.heap(s), 64)
                .expect("table formats")
        })
        .collect();
    let exec = KvServeFunction::new(store, tables);
    let mut registry = FunctionRegistry::new();
    registry
        .register(KV_SERVE_FUNC_ID, exec.clone().into_arc())
        .expect("function registers");
    let control = PMemBuilder::new().len(1 << 20).build_in_memory();
    let rt = StripedRuntime::format(
        control,
        stripe,
        RuntimeConfig::new(WORKERS).stack_capacity(8 * 1024),
        &registry,
    )
    .expect("runtime formats");
    let core = ServerCore::new(exec, 128, BATCH);
    let hub = ChannelHub::new();
    let clients: Vec<ClientSim> = (0..CLIENTS)
        .map(|i| {
            ClientSim::new(ClientConfig {
                client_id: i as u32 + 1,
                n_ops: OPS_PER_CLIENT,
                key_space: 256,
                mix,
                // Generous timeout: there are no crashes here, so the
                // retry machinery must stay idle.
                timeout_ns: 1_000_000_000,
                seed: 0xE19 + i as u64,
                ..ClientConfig::default()
            })
        })
        .collect();
    let conns: Vec<ChannelConn> = (1..=CLIENTS as u32).map(|id| hub.connect(id)).collect();
    Served {
        rt,
        core,
        hub,
        conns,
        clients,
    }
}

/// Drives the client population to completion on the wall clock:
/// transmit, admit, run batch windows, deliver — the crash campaign's
/// loop without the crashes.
fn serve_to_completion(s: &mut Served) {
    let clock = SystemClock::new();
    let mut kinds: HashMap<u64, u8> = HashMap::new();
    while s.clients.iter().any(|c| !c.is_finished()) {
        let now = clock.now_ns();
        for (c, conn) in s.clients.iter_mut().zip(&s.conns) {
            if let Some(req) = c.poll(now) {
                if let RequestBody::Op(op) = req.body {
                    kinds.insert(req.req_id, pstack_server::proto::kind_of(op));
                }
                conn.send(&req);
            }
        }
        while let Some(req) = s.hub.poll_request().expect("frames decode") {
            let resp = match req.body {
                RequestBody::Ack => {
                    s.core.ack(req.req_id).expect("ack persists");
                    Some(Response::AckOk { req_id: req.req_id })
                }
                RequestBody::Op(op) => match s.core.submit(req.req_id, op).expect("admission") {
                    Submission::Answered(answer) => Some(Response::Done {
                        req_id: req.req_id,
                        kind: pstack_server::proto::kind_of(op),
                        answer,
                    }),
                    Submission::Overloaded => Some(Response::Overloaded { req_id: req.req_id }),
                    Submission::Stale => Some(Response::Stale { req_id: req.req_id }),
                    Submission::Queued => None,
                },
            };
            if let Some(resp) = resp {
                s.hub.respond(&resp);
            }
        }
        let (tasks, ids) = s.core.drain_tasks();
        if !tasks.is_empty() {
            let report = s.rt.run_tasks(tasks);
            assert!(!report.crashed && report.task_errors == 0);
            for (req_id, answer) in s.core.answers_for(&ids).expect("answers read") {
                let resp = match answer {
                    Some(answer) => Response::Done {
                        req_id,
                        kind: kinds.get(&req_id).copied().unwrap_or(0),
                        answer,
                    },
                    None => Response::Retry { req_id },
                };
                s.hub.respond(&resp);
            }
        }
        let now = clock.now_ns();
        for (c, conn) in s.clients.iter_mut().zip(&s.conns) {
            while let Some(resp) = conn.try_recv().expect("frames decode") {
                c.deliver(now, &resp);
            }
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn bench_served_vs_direct(c: &mut Criterion) {
    let mut g = c.benchmark_group("server/served_vs_direct");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    g.throughput(Throughput::Elements(TOTAL));

    let direct = g.bench_measured("direct_windows", |b| {
        b.iter_with_setup(build_direct, |(rt, tasks)| {
            let report = rt.run_tasks(tasks);
            assert!(!report.crashed && report.task_errors == 0);
        });
    });
    // All-put mix: the same mutation workload the direct drive stages.
    let served = g.bench_measured("served_path", |b| {
        b.iter_with_setup(
            || build_served([1, 0, 0, 0]),
            |mut s| serve_to_completion(&mut s),
        );
    });
    g.finish();

    let cmp = Comparison::new(
        "server/served_vs_direct",
        "StripedRuntime batch windows",
        direct,
    );
    cmp.versus("served path (descriptors + acks)", served);

    // Instrumented pass on the standard mixed workload: the served
    // path's wall-clock SLO, first send → Done, per op class.
    let mut s = build_served([4, 3, 2, 1]);
    serve_to_completion(&mut s);
    let mut by_class: HashMap<OpClass, Vec<u64>> = HashMap::new();
    for c in &s.clients {
        for &(class, ns) in c.latencies() {
            by_class.entry(class).or_default().push(ns);
        }
    }
    for class in OpClass::ALL {
        let Some(lat) = by_class.get_mut(&class) else {
            continue;
        };
        lat.sort_unstable();
        println!(
            "server/served_path/slo/{:<6}  n={:<4} p50={:>8.2}us p99={:>8.2}us p999={:>8.2}us",
            class.label(),
            lat.len(),
            percentile(lat, 0.5) as f64 / 1e3,
            percentile(lat, 0.99) as f64 / 1e3,
            percentile(lat, 0.999) as f64 / 1e3,
        );
    }
}

criterion_group!(benches, bench_served_vs_direct);
criterion_main!(benches);
