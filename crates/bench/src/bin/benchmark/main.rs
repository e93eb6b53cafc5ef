//! The repo's benchmark: a served, exactly-once, crash-safe `put`/`get`
//! on emulated 1 ms persistent hardware — one number per question a
//! user would ask, and a ledger of where the time and the persists go.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <n>]
//! ```
//!
//! builds the fixture, runs a fixed op count (sized so that the timed
//! window lasts about `--seconds` on the seed commit), checks
//! correctness, prints every metric by name with its unit, and ends
//! with one JSON line. See `README.md` beside this file for the
//! workloads, the metric definitions and how the layers interact.

mod host;
mod kvcommit;
mod metrics;
mod pass;
mod rng;
mod serve;
mod stats;
mod sut;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::HostProbe;
use kvcommit::KvPlan;
use metrics::{END_TO_END, PER_LAYER};
use pass::{mean_us, p_us, per, Pass};
use serve::ServePlan;
use sut::{accesses, Fixture, RttSampler, Shape, BATCH, FLUSH_LATENCY, SHARDS};
use trace::Tracer;

/// Keys preloaded into every fixture (zipf 0.99 over them).
const KEYS: u64 = 4096;
/// Completed ops before the timed window opens.
const WARMUP: u64 = 256;
/// The seed the op-stream pins below were taken at.
const DEFAULT_SEED: u64 = 1;
/// Fixtures built per run; `setup_s` is their median build time.
const SETUPS: usize = 3;
/// Write + flush pairs of the round-trip probe.
const RTT_SAMPLES: u64 = 100;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 20;
/// The directory of this package, from the root of the repository.
const HOME: &str = "crates/bench/src/bin/benchmark";

/// What a workload drives.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Closed-loop clients over the channel hub, batch windows on the
    /// persistent stack; with `crash_every`, a power failure each that
    /// many completed ops.
    Serve {
        clients: usize,
        mix: sut::Mix,
        table_cap: u32,
        queue_cap: usize,
        crash_every: Option<u64>,
    },
    /// Direct cross-shard group commits with compaction.
    KvCommit,
}

#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    why: &'static str,
    kind: Kind,
    /// Completed ops per second on the seed commit: sizes the fixed op
    /// count of a run from `--seconds`. A property of the benchmark,
    /// never re-tuned to a change under test.
    seed_rate: f64,
    /// Op-stream pin at `DEFAULT_SEED`.
    pin: u64,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_c4_rw50",
        why: "4 clients, 50% put: windows run nearly empty, so per-op admission and stack-frame persists do the work",
        kind: Kind::Serve {
            clients: 4,
            mix: [1, 1, 0, 0],
            table_cap: 64,
            queue_cap: 128,
            crash_every: None,
        },
        seed_rate: 146.0,
        pin: 0x3E19_7680_4E96_3CA1,
    },
    Workload {
        name: "serve_c64_r95",
        why: "64 clients, 95% get: windows fill, per-window costs amortise, serial admission and the read path dominate",
        kind: Kind::Serve {
            clients: 64,
            mix: [1, 19, 0, 0],
            table_cap: 256,
            queue_cap: 128,
            crash_every: None,
        },
        seed_rate: 348.0,
        pin: 0xDBCF_D9B1_44CC_ACBF,
    },
    Workload {
        name: "kv_commit_w100",
        why: "no server, no runtime: group commits of 16 mutations plus compaction; a server change must not move it",
        kind: Kind::KvCommit,
        seed_rate: 920.0,
        pin: 0xA032_4FA2_1CE7_45B4,
    },
    Workload {
        name: "crash_c4_rw50",
        why: "serve_c4_rw50 under a power failure every 16 ops: recovery, evidence scan and re-drive set the goodput",
        kind: Kind::Serve {
            clients: 4,
            mix: [1, 1, 0, 0],
            table_cap: 64,
            queue_cap: 128,
            crash_every: Some(16),
        },
        seed_rate: 140.0,
        pin: 0x3E19_7680_4E96_3CA1,
    },
];

/// A workload at a concrete size.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Serve(ServePlan),
    Kv(KvPlan),
}

fn plan_for(
    w: &Workload,
    keys: u64,
    warmup: u64,
    measured: u64,
    latency: Duration,
) -> (Shape, Plan) {
    let total = warmup + measured;
    match w.kind {
        Kind::Serve {
            clients,
            mix,
            table_cap,
            queue_cap,
            crash_every,
        } => {
            let crashes = crash_every.map(|every| (every, (measured / every).saturating_sub(1)));
            // The log is never compacted: room for the preload, every
            // op of the run, a staged batch of orphans per failure,
            // the post-run put probe and slack.
            let orphans = crashes.map_or(0, |(_, n)| n * 2 * (BATCH as u64 + 1));
            let shape = Shape {
                keys,
                log_cap: keys / SHARDS as u64 * 2 + total + clients as u64 + orphans + 512,
                generations: 1,
                serve: Some((table_cap, queue_cap)),
                latency,
            };
            let plan = ServePlan {
                clients,
                mix,
                warmup,
                measured,
                crashes,
            };
            (shape, Plan::Serve(plan))
        }
        Kind::KvCommit => {
            // A log twice the live set, and a compaction schedule that
            // brings a shard's turn round when about a quarter of its
            // log is left: several cycles per shard and run.
            let log_cap = keys / SHARDS as u64 * 2;
            let shape = Shape {
                keys,
                log_cap,
                generations: 4 + total * 8 / log_cap.max(1),
                serve: None,
                latency,
            };
            let plan = KvPlan {
                warmup,
                measured,
                compact_every: (log_cap / 50).max(1),
            };
            (shape, Plan::Kv(plan))
        }
    }
}

/// Hash of the head of the op stream `w` issues at `seed`: a pure
/// function of the traffic generators, not of the system's behaviour.
fn stream_pin(w: &Workload, keys: u64, seed: u64) -> u64 {
    match w.kind {
        Kind::Serve { clients, mix, .. } => sut::client_stream_pin(clients, mix, keys, seed),
        Kind::KvCommit => kvcommit::stream_pin(keys, seed),
    }
}

/// The full-size plan of a `--seconds` run.
fn sized(w: &Workload, seconds: u64) -> (Shape, Plan) {
    let measured = ((w.seed_rate * seconds as f64) as u64 / 64).max(4) * 64;
    plan_for(w, KEYS, WARMUP, measured, FLUSH_LATENCY)
}

fn run_pass(
    plan: &Plan,
    fx: &mut Fixture,
    seed: u64,
    tr: &mut Tracer,
    rtt: &RttSampler,
) -> Result<Pass, String> {
    match plan {
        Plan::Serve(p) => serve::run(p, fx, seed, tr, rtt),
        Plan::Kv(p) => kvcommit::run(p, fx, seed, tr, rtt),
    }
}

/// Everything one run measured.
struct Run {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
    samples: (usize, usize),
    /// Deciles 1–9 of the write latency, wall-clock milliseconds: the
    /// distribution steps by whole serving rounds, which is why its
    /// mean is gated and no quantile from its middle.
    write_deciles_ms: Vec<f64>,
    crashes: u64,
    disturbed: bool,
    header: String,
}

/// Builds a fixture; its build time in seconds at the charged device
/// latency (wall time × charged / observed, see [`RttSampler`]).
fn build_timed(shape: Shape, seed: u64, rtt: &RttSampler) -> Result<(Fixture, f64), String> {
    let (t, from) = (Instant::now(), rtt.mark());
    let fx = Fixture::build(shape, seed).map_err(|e| format!("setup: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let charged_us = shape.latency.as_secs_f64() * 1e6;
    Ok((fx, wall_s * charged_us / rtt.observed_us(from, rtt.mark())))
}

/// One run: host probe, `SETUPS` fixtures (the last one measured on),
/// the end-to-end pass with tracing off and, when `traced`, a second
/// pass over a fresh fixture with the span recorder on.
fn run_once(
    shape: Shape,
    plan: &Plan,
    seed: u64,
    traced: bool,
    spans_to: Option<PathBuf>,
) -> Result<Run, String> {
    let before = HostProbe::take();
    let rtt_before = sut::probe_rtt(RTT_SAMPLES, shape.latency);
    let sampler = RttSampler::start(shape.latency);
    let charged_us = shape.latency.as_secs_f64() * 1e6;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let (fx, s) = build_timed(shape, seed, &sampler)?;
        setups.push(s);
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("SETUPS > 0");
    let mut pass = run_pass(plan, &mut fx, seed, &mut Tracer::new(false), &sampler)?;
    drop(fx);

    let mut layers = BTreeMap::new();
    if traced {
        let (mut fx, _) = build_timed(shape, seed, &sampler)?;
        let mut tr = Tracer::new(true);
        let cpu_before = host::process_cpu_us();
        let t = run_pass(plan, &mut fx, seed, &mut tr, &sampler)?;
        let cpu_us = host::process_cpu_us() - cpu_before;
        layers.extend(t.layers.iter());
        let s = t.stats;
        let both = s.both();
        let n = t.ops;
        layers.insert(
            "nvram.control_persists_per_op",
            per(s.control.persists as f64, n),
        );
        layers.insert(
            "nvram.stripe_persists_per_op",
            per(s.stripe.persists as f64, n),
        );
        layers.insert(
            "nvram.lines_per_persist",
            per(both.lines_persisted as f64, both.persists),
        );
        layers.insert(
            "nvram.redundant_persists_per_op",
            per(both.redundant_persists as f64, n),
        );
        layers.insert(
            "nvram.async_flushes_per_op",
            per(both.async_flushes as f64, n),
        );
        layers.insert(
            "nvram.elided_lines_per_op",
            per(both.elided_lines as f64, n),
        );
        if both.async_latency_charged_ns > 0 {
            layers.insert(
                "nvram.overlap_frac",
                1.0 - both.async_latency_waited_ns as f64 / both.async_latency_charged_ns as f64,
            );
        }
        layers.insert("nvram.reads_per_op", per(both.reads as f64, n));
        layers.insert("nvram.writes_per_op", per(both.writes as f64, n));
        layers.insert("nvram.cas_per_op", per(both.cas_ops as f64, n));
        layers.insert(
            "nvram.bytes_written_per_op",
            per(both.bytes_written as f64, n),
        );
        layers.insert("verify.check_ms", t.verify_ms);
        layers.insert("host.cpu_us_per_op", per(cpu_us, t.attempted));
        layers.insert(
            "host.trace_overhead_frac",
            // Per-op time of each pass in observed round-trips, so a
            // host that slowed between the two does not read as overhead.
            (t.wall_s / t.rtt_us / t.ops.max(1) as f64)
                / (pass.wall_s / pass.rtt_us / pass.ops.max(1) as f64)
                - 1.0,
        );
        layers.insert("host.trace_spans", tr.spans().len() as f64);
        if let Some(us) = layers.get("runtime.run_tasks_us").copied() {
            layers.insert("runtime.rtts_per_round", us / t.rtt_us);
        }
        // Post-run probes of the store, after the verifier has read it.
        let e = |e: pstack_core::PError| format!("probe: {e}");
        let (get_us, get_reads) = sut::probe_gets(&fx, shape.keys).map_err(e)?;
        let (put_us, put_persists) = sut::probe_puts(&fx, 256.min(shape.keys), seed).map_err(e)?;
        layers.insert("kv.get_us", get_us);
        layers.insert("kv.get_reads", get_reads);
        layers.insert("kv.put_us", put_us);
        layers.insert("kv.put_persists", put_persists);
        if let Some(path) = spans_to {
            tr.write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        layers.insert("nvram.rtt_observed_us", t.rtt_us);
        // The traced pass is held to the same correctness.
        pass.correct &= t.correct;
        pass.failed += t.failed;
    }

    drop(sampler);
    let rtt_after = sut::probe_rtt(RTT_SAMPLES, shape.latency);
    let after = HostProbe::take();
    let disturbed = before.disturbed(&after);
    layers.insert("nvram.rtt_charged_us", charged_us);
    layers.insert("host.spin_ms", (before.spin_ms + after.spin_ms) / 2.0);
    layers.insert(
        "host.sleep_1ms_us",
        (before.sleep_1ms_us + after.sleep_1ms_us) / 2.0,
    );
    layers.insert("host.steal_frac", before.steal_frac(&after));

    let both = pass.stats.both();
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", stats::median_f64(&mut setups));
    // Timings at the charged device latency: the host's oversleep,
    // sampled over the same window, is taken out.
    let scale = charged_us / pass.rtt_us;
    e2e.insert("ops_per_s", pass.ops as f64 / (pass.wall_s * scale));
    e2e.insert("write_mean_us", mean_us(&pass.write_ns) * scale);
    e2e.insert("write_p95_us", p_us(&pass.write_ns, 0.95) * scale);
    e2e.insert("persists_per_op", per(both.persists as f64, pass.ops));
    e2e.insert("lines_per_op", per(both.lines_persisted as f64, pass.ops));
    e2e.insert(
        "nvram_accesses_per_op",
        per(accesses(&both) as f64, pass.ops),
    );
    e2e.insert("space_amp", pass.space_amp);
    e2e.insert("peak_rss_mb", host::peak_rss_mb());

    let header = format!(
        "device round-trip: charged {charged_us:.0} us, observed {:.1} us before / {:.1} us during / \
         {:.1} us after the timed window\n\
         timed window: {} ops in {:.3} s of wall time; timings below are at the charged latency \
         (wall x {scale:.4})\n\
         host: sleep(1ms) = {:.1} us before / {:.1} us after, spin {:.1} / {:.1} ms, steal {:.4}{}",
        rtt_before,
        pass.rtt_us,
        rtt_after,
        pass.ops,
        pass.wall_s,
        before.sleep_1ms_us,
        after.sleep_1ms_us,
        before.spin_ms,
        after.spin_ms,
        before.steal_frac(&after),
        if disturbed { "  ** disturbed **" } else { "" },
    );
    Ok(Run {
        e2e,
        layers,
        correct: pass.correct,
        attempted: pass.attempted,
        failed: pass.failed,
        samples: (pass.write_ns.len(), pass.read_ns.len()),
        write_deciles_ms: (1..=9)
            .map(|d| p_us(&pass.write_ns, f64::from(d) / 10.0) / 1e3)
            .collect(),
        crashes: pass.crashes,
        disturbed,
        header,
    })
}

fn print_report(w: &Workload, seed: u64, run: &Run, traced: bool) {
    println!("workload {}  seed {seed}  — {}", w.name, w.why);
    println!("{}", run.header);
    println!(
        "correct {}  attempted {}  failed {}  power failures {}  op-stream pin {:#018x}",
        run.correct,
        run.attempted,
        run.failed,
        run.crashes,
        stream_pin(w, KEYS, seed),
    );
    println!(
        "\n  {:<28} {:>14}  {:<6} {:<7} bound",
        "end-to-end", "value", "unit", "better"
    );
    for m in END_TO_END {
        let n = match m.name {
            "write_mean_us" | "write_p95_us" => format!("  n={}", run.samples.0),
            _ => String::new(),
        };
        println!(
            "  {:<28} {:>14.4}  {:<6} {:<7} {:.2}{n}",
            m.name,
            run.e2e[m.name],
            m.unit,
            if m.lower_is_better { "lower" } else { "higher" },
            m.bound
        );
    }
    let deciles: Vec<String> = run
        .write_deciles_ms
        .iter()
        .map(|ms| format!("{ms:.1}"))
        .collect();
    println!(
        "  write latency deciles 1-9, wall-clock ms: {}",
        deciles.join(" ")
    );
    if traced {
        println!("\n  {:<38} {:>14}  unit", "per-layer", "value");
        for &(name, unit) in PER_LAYER {
            match run.layers.get(name) {
                Some(v) => println!("  {name:<38} {v:>14.4}  {unit}"),
                None => println!("  {name:<38} {:>14}  {unit}", "n/a"),
            }
        }
        println!("  (client.read_* n={})", run.samples.1);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The last line of standard output: with tracing off every end-to-end
/// metric, with tracing on every per-layer metric (0 where the
/// workload does not exercise the layer).
fn json_line(run: &Run, traced: bool, e2e: &BTreeMap<&'static str, f64>) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = run.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(e2e[m.name]),
                    m.unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    )
}

/// `--repeat N`: the spread of every end-to-end metric over N fresh
/// runs, against its bound.
fn print_repeatability(runs: &[Run]) -> BTreeMap<&'static str, f64> {
    println!(
        "\n  {:<24} {:>12} {:>12} {:>12} {:>9} {:>11}  bound",
        "repeatability", "q1", "median", "q3", "iqr/med", "range/med"
    );
    let mut medians = BTreeMap::new();
    for m in END_TO_END {
        let v: Vec<f64> = runs.iter().map(|r| r.e2e[m.name]).collect();
        let (q1, med, q3) = stats::quartiles(&v);
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        println!(
            "  {:<24} {:>12.4} {:>12.4} {:>12.4} {:>9.4} {:>11.4}  {:.2}",
            m.name,
            q1,
            med,
            q3,
            (q3 - q1) / med,
            (hi - lo) / med,
            m.bound
        );
        medians.insert(m.name, med);
    }
    medians
}

/// `BENCHMARK.json`, generated from the tables the binary itself
/// reports by (`--emit-benchmark-json`), so the two cannot drift.
fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                if m.lower_is_better { "lower" } else { "higher" },
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            // Times and costs are better lower; the few ratios that
            // say how well a mechanism is used are better higher.
            let higher = matches!(
                name,
                "server.window_occupancy"
                    | "server.windows_per_round"
                    | "nvram.lines_per_persist"
                    | "nvram.elided_lines_per_op"
                    | "nvram.overlap_frac"
                    | "kv.log_headroom_min"
                    | "reqtable.recycled"
                    | "host.span_coverage"
            );
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                if higher { "higher" } else { "lower" }
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"{HOME}/Cargo.toml\", \"--\"],\n  \"paths\": [\"{HOME}\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)?.clamp(1, 60),
            "--trace" => a.trace = num(value()?)? != 0,
            "--repeat" => a.repeat = num(value()?)?.max(1) as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// `<target dir>/benchmark/<workload>.spans.jsonl`, beside the
/// profile directory the executable was built into.
fn spans_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let target = exe.parent()?.parent()?;
    Some(
        target
            .join("benchmark")
            .join(format!("{workload}.spans.jsonl")),
    )
}

fn real_main() -> Result<bool, String> {
    if std::env::args().nth(1).as_deref() == Some("--emit-benchmark-json") {
        print!("{}", benchmark_json());
        return Ok(true);
    }
    let args = parse_args()?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or(format!("--workload must be one of {names:?}"))?;
    // Whatever seed this run uses, the traffic generators must still
    // produce the pinned stream at the default one: a change to
    // `ClientSim` or to the program's RNG cannot change the traffic
    // silently.
    let pin = stream_pin(w, KEYS, DEFAULT_SEED);
    if pin != w.pin {
        return Err(format!(
            "op-stream pin mismatch on {}: seed {DEFAULT_SEED} hashes to {pin:#018x}, \
             pinned {:#018x} — the traffic changed",
            w.name, w.pin
        ));
    }
    let (shape, plan) = sized(w, args.seconds);

    let mut runs = Vec::with_capacity(args.repeat);
    for i in 0..args.repeat {
        let seed = args.seed + i as u64;
        let run = run_once(shape, &plan, seed, args.trace, spans_path(w.name))?;
        print_report(w, seed, &run, args.trace);
        runs.push(run);
    }
    let last = runs.last().expect("repeat >= 1");
    let e2e = if runs.len() > 1 {
        print_repeatability(&runs)
    } else {
        last.e2e.clone()
    };
    let all_correct = runs.iter().all(|r| r.correct);
    if runs.iter().any(|r| r.disturbed) {
        println!("note: the host's 1 ms sleep moved by more than 5 % across a run");
    }
    println!("{}", json_line(last, args.trace, &e2e));
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        // An incorrect run still reports: `correct: false` and every
        // attempted op failed is the result.
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
