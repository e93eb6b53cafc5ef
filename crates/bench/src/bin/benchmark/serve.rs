//! The served workloads: closed-loop clients against the exactly-once
//! front end, batch windows on the persistent stack — and, for the
//! crash workload, a whole-system power failure every few dozen ops.

use std::time::Instant;

use crate::pass::{ms, per, Layers, Pass};
use crate::rng::{derive, SplitMix64};
use crate::stats::{median_f64, median_u64};
use crate::sut::{
    self, accesses, Clients, Fixture, Mix, Recovery, RegionStats, Round, RttMark, RttSampler,
    ServeCounts, BATCH, SHARDS,
};
use crate::trace::{Tracer, OUTAGE};

/// One served workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    pub clients: usize,
    pub mix: Mix,
    /// Completed ops before the timed window opens.
    pub warmup: u64,
    /// Completed ops the timed window lasts.
    pub measured: u64,
    /// `Some((every, count))`: a power failure each `every` completed
    /// ops of the timed window, `count` of them.
    pub crashes: Option<(u64, u64)>,
}

/// Where the timed window opened.
struct Mark {
    at: Instant,
    trace_ns: u64,
    stats: RegionStats,
    rtt: RttMark,
    latencies: Vec<usize>,
    completed: u64,
    retransmits: u64,
}

fn mark(fx: &Fixture, cl: &Clients, tr: &Tracer, rtt: &RttSampler) -> Mark {
    Mark {
        at: Instant::now(),
        trace_ns: tr.clock_ns(),
        stats: fx.stats(),
        rtt: rtt.mark(),
        latencies: cl.latency_marks(),
        completed: cl.completed(),
        retransmits: cl.retry_counters().0,
    }
}

/// One power failure, from the clients' chair.
struct Outage {
    recovery: Recovery,
    /// Failure observed → `recover_with` returned.
    down_ns: u64,
    /// Failure observed → first `Done` delivered to any client.
    first_answer_ns: Option<u64>,
    /// Recovered → that first `Done`.
    redrive_ns: Option<u64>,
    failed_at: u64,
    recovered_at: u64,
}

pub fn run(
    plan: &ServePlan,
    fx: &mut Fixture,
    seed: u64,
    tr: &mut Tracer,
    rtt: &RttSampler,
) -> Result<Pass, String> {
    let e = |e: pstack_core::PError| format!("serve: {e}");
    let mut cl = Clients::new(plan.clients, plan.mix, fx.keys(), seed);
    // Rounds outside the timed window count into `untimed`.
    let (mut counts, mut untimed) = (ServeCounts::default(), ServeCounts::default());
    let mut placement = SplitMix64::new(derive(seed, 0xC4A5));
    let (every, crash_count) = plan.crashes.unwrap_or((u64::MAX, 0));
    let target = plan.warmup + plan.measured;

    let mut open: Option<Mark> = None;
    let mut close: Option<Mark> = None;
    let mut outages: Vec<Outage> = Vec::new();
    let mut to_arm: Option<(Option<usize>, u64)> = None;
    let mut armed = false;

    loop {
        let completed = cl.completed();
        if open.is_none() && completed >= plan.warmup {
            open = Some(mark(fx, &cl, tr, rtt));
        }
        let crashes_left = (outages.len() as u64) < crash_count;
        if close.is_none() && completed >= target && !crashes_left {
            close = Some(mark(fx, &cl, tr, rtt));
        }
        if close.is_some() && cl.in_flight() == 0 {
            break;
        }
        // The i-th failure is due once i·every ops of the window are
        // done: in shard i mod 4, every 8th in the control region (the
        // persistent stacks), a few dozen persistence events after the
        // next batch window starts.
        if crashes_left && !armed && to_arm.is_none() {
            let i = outages.len() as u64;
            if completed >= plan.warmup + (i + 1) * every {
                let region = (i % 8 != 7).then_some((i % SHARDS as u64) as usize);
                to_arm = Some((region, placement.range(4, 40)));
            }
        }
        let timed = open.is_some() && close.is_none();
        let counts = if timed { &mut counts } else { &mut untimed };
        let round = sut::serve_round(fx, &mut cl, close.is_none(), counts, tr, &mut |fx| {
            if let Some((region, countdown)) = to_arm.take() {
                fx.arm_power_failure(region, countdown);
                armed = true;
            }
        })
        .map_err(e)?;
        match round {
            Round::Served { done_at } => {
                if let (Some(done), Some(last)) = (done_at, outages.last_mut()) {
                    if last.first_answer_ns.is_none() {
                        last.first_answer_ns = Some(done.saturating_sub(last.failed_at));
                        last.redrive_ns = Some(done.saturating_sub(last.recovered_at));
                    }
                }
            }
            Round::PowerFailure => {
                let failed_at = cl.now_ns();
                let top = tr.begin_top();
                let recovery = sut::power_cycle(fx, &mut cl, tr).map_err(e)?;
                tr.end_top(OUTAGE, top);
                let recovered_at = cl.now_ns();
                armed = false;
                outages.push(Outage {
                    recovery,
                    down_ns: recovered_at - failed_at,
                    first_answer_ns: None,
                    redrive_ns: None,
                    failed_at,
                    recovered_at,
                });
            }
        }
    }
    let open = open.ok_or("the run ended before its warm-up did")?;
    let close = close.expect("the loop only ends closed");

    // ---- the timed window, closed; everything below is untimed.
    let wall_s = close.at.duration_since(open.at).as_secs_f64();
    let ops = close.completed - open.completed;
    let stats = close.stats - open.stats;
    let lat = cl.latencies_between(&open.latencies, &close.latencies);
    let write_ns: Vec<u64> = lat.iter().filter(|l| l.0).map(|l| l.1).collect();
    let read_ns: Vec<u64> = lat.iter().filter(|l| !l.0).map(|l| l.1).collect();

    let live = fx.contents().map_err(e)?.len() as u64;
    let (used, retired) = fx.heap_bytes();
    let space_amp = used as f64 / (live.max(1) * 16) as f64;
    let headroom_min = fx
        .log_headroom()
        .map_err(e)?
        .into_iter()
        .fold(1.0, f64::min);

    let t_verify = Instant::now();
    let linearizable = sut::verify_served(fx, &cl).map_err(e)?;
    let verify_ms = ms(t_verify.elapsed().as_nanos() as u64);

    let attempted = cl.first_transmissions;
    let (_, overloads, stale) = cl.retry_counters();
    let lost = attempted - sut::observed(&cl).min(attempted) + (attempted - cl.completed());
    let failed = lost + overloads + stale;
    let crashes_ok = outages.len() as u64 == crash_count;
    let correct = linearizable && failed == 0 && crashes_ok;
    if !crashes_ok {
        eprintln!(
            "expected {crash_count} power failures, saw {}",
            outages.len()
        );
    }

    let mut layers = Layers::new();
    if tr.is_on() {
        let c = counts;
        let totals = tr.totals_since(open.trace_ns);
        let ns = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
        let wall_ns = wall_s * 1e9;
        let transport_ns = ns("transport.send")
            + ns("transport.poll_request")
            + ns("transport.respond")
            + ns("transport.try_recv");
        layers.insert("transport.us_per_op", per(transport_ns / 1e3, ops));
        layers.insert("transport.frames_per_op", per(c.frames as f64, ops));

        layers.insert(
            "server.submit_us",
            per(ns("server.submit") / 1e3, c.submits),
        );
        layers.insert(
            "server.submit_persists",
            per(c.submit_persists as f64, c.submits),
        );
        layers.insert("server.ack_us", per(ns("server.ack") / 1e3, c.acks));
        layers.insert("server.ack_persists", per(c.ack_persists as f64, c.acks));
        layers.insert(
            "server.admission_frac",
            (ns("server.submit") + ns("server.ack")) / wall_ns,
        );
        layers.insert("server.drain_us", per(ns("server.drain") / 1e3, c.rounds));
        layers.insert(
            "server.answers_for_us",
            per(ns("server.answers_for") / 1e3, c.window_rounds),
        );
        layers.insert(
            "server.windows_per_round",
            per(c.windows as f64, c.window_rounds),
        );
        layers.insert(
            "server.window_occupancy",
            per(c.window_reqs as f64, c.windows * BATCH as u64),
        );
        layers.insert("server.dedup_hits", c.dedup_hits as f64);
        let (admitted, shed) = fx.admission_counters();
        layers.insert("server.shed_frac", per(shed as f64, admitted + shed));

        let run_tasks_us = per(ns("runtime.run_tasks") / 1e3, c.window_rounds);
        layers.insert("runtime.run_tasks_us", run_tasks_us);
        layers.insert("runtime.run_tasks_frac", ns("runtime.run_tasks") / wall_ns);
        layers.insert(
            "runtime.control_persists_per_window",
            per(c.rt_control_persists as f64, c.windows),
        );
        layers.insert(
            "runtime.control_lines_per_window",
            per(c.rt_control_lines as f64, c.windows),
        );
        layers.insert(
            "runtime.stripe_persists_per_window",
            per(c.rt_stripe_persists as f64, c.windows),
        );
        layers.insert("client.write_p50_us", crate::pass::p_us(&write_ns, 0.50));
        layers.insert("client.read_p50_us", crate::pass::p_us(&read_ns, 0.50));
        layers.insert("client.read_p95_us", crate::pass::p_us(&read_ns, 0.95));
        layers.insert("client.backoff_frac", ns("client.backoff") / wall_ns);
        layers.insert("host.span_coverage", tr.round_coverage_since(open.trace_ns));

        let (high_water, recycled) = fx.reqtable_counters();
        layers.insert("reqtable.live_high_water", high_water as f64);
        layers.insert("reqtable.recycled", recycled as f64);
        layers.insert("kv.log_headroom_min", headroom_min);
        layers.insert("kv.generations", fx.generations().map_err(e)? as f64);
        layers.insert("heap.used_mb", used as f64 / 1e6);
        layers.insert("heap.retired_mb", retired as f64 / 1e6);

        if !outages.is_empty() {
            recovery_layers(&mut layers, &outages, &cl, &open);
        }
    }

    Ok(Pass {
        correct,
        attempted,
        failed: if correct { failed } else { attempted },
        ops,
        wall_s,
        rtt_us: rtt.observed_us(open.rtt, close.rtt),
        write_ns,
        read_ns,
        stats,
        space_amp,
        verify_ms,
        crashes: outages.len() as u64,
        layers,
    })
}

fn recovery_layers(layers: &mut Layers, outages: &[Outage], cl: &Clients, open: &Mark) {
    let n = outages.len() as u64;
    let med = |f: &dyn Fn(&Outage) -> u64| median_u64(&outages.iter().map(f).collect::<Vec<u64>>());
    let total_ns = |o: &Outage| o.recovery.reopen_ns + o.recovery.attach_ns + o.recovery.replay_ns;
    layers.insert("recovery.crashes", n as f64);
    layers.insert(
        "recovery.reopen_ms_p50",
        ms(med(&|o| o.recovery.reopen_ns) as u64),
    );
    layers.insert(
        "recovery.attach_ms_p50",
        ms(med(&|o| o.recovery.attach_ns) as u64),
    );
    layers.insert(
        "recovery.replay_ms_p50",
        ms(med(&|o| o.recovery.replay_ns) as u64),
    );
    layers.insert("recovery.total_ms_p50", ms(med(&total_ns) as u64));
    layers.insert(
        "recovery.total_ms_max",
        ms(outages.iter().map(total_ns).max().unwrap_or(0)),
    );
    layers.insert("recovery.down_ms_p50", ms(med(&|o| o.down_ns) as u64));
    let sum = |f: &dyn Fn(&Outage) -> u64| outages.iter().map(f).sum::<u64>() as f64;
    layers.insert(
        "recovery.persists_per_crash",
        per(sum(&|o| o.recovery.stats.both().persists), n),
    );
    layers.insert(
        "recovery.reads_per_crash",
        per(sum(&|o| o.recovery.stats.both().reads), n),
    );
    layers.insert(
        "recovery.frames_per_crash",
        per(sum(&|o| o.recovery.frames), n),
    );
    layers.insert(
        "recovery.accesses_per_crash",
        med(&|o| accesses(&o.recovery.stats.both())),
    );
    let mut first: Vec<f64> = outages
        .iter()
        .filter_map(|o| o.first_answer_ns)
        .map(|v| v as f64 / 1e6)
        .collect();
    layers.insert("recovery.first_answer_ms_p50", median_f64(&mut first));
    let mut redrive: Vec<f64> = outages
        .iter()
        .filter_map(|o| o.redrive_ns)
        .map(|v| v as f64 / 1e6)
        .collect();
    layers.insert("recovery.redrive_ms_p50", median_f64(&mut redrive));
    layers.insert(
        "recovery.retransmits_per_crash",
        per((cl.retry_counters().0 - open.retransmits) as f64, n),
    );
    // The log is never compacted, so the evidence scan reads more at
    // every failure: last quarter of the failures against the first.
    let q = (outages.len() / 4).max(1);
    let work = |o: &Outage| accesses(&o.recovery.stats.both());
    let head = median_u64(&outages[..q].iter().map(work).collect::<Vec<u64>>());
    let tail = median_u64(
        &outages[outages.len() - q..]
            .iter()
            .map(work)
            .collect::<Vec<u64>>(),
    );
    layers.insert(
        "recovery.scan_growth",
        if head > 0.0 { tail / head } else { 0.0 },
    );
}
