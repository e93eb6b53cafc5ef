//! The smoke test: all four workloads at about a hundredth of their
//! size and a fiftieth of the device latency, correctness checks on.
//! It keeps the harness compiling against the program and honest about
//! which metrics each workload produces.

use super::*;

/// Runs `name` small, traced, and returns what it measured.
fn smoke(name: &str, measured: u64) -> Run {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("a known workload");
    let (shape, plan) = plan_for(w, 256, 32, measured, Duration::from_micros(20));
    let run = run_once(shape, &plan, 7, true, None).expect("the run completes");
    assert!(run.correct, "{name}: incorrect run");
    assert_eq!(run.failed, 0, "{name}: failed ops");
    assert!(run.attempted >= measured, "{name}: too few ops attempted");
    for m in END_TO_END {
        let v = run.e2e.get(m.name).copied();
        assert!(
            v.is_some_and(|v| v.is_finite() && v > 0.0),
            "{name}: end-to-end metric {} is {v:?}",
            m.name
        );
    }
    for layer in run.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == layer),
            "{name}: {layer} is not in the catalogue"
        );
    }
    // The JSON lines carry the whole catalogue, whatever the workload.
    let line = json_line(&run, true, &run.e2e);
    assert!(PER_LAYER
        .iter()
        .all(|(n, _)| line.contains(&format!("\"{n}\""))));
    let line = json_line(&run, false, &run.e2e);
    assert!(END_TO_END
        .iter()
        .all(|m| line.contains(&format!("\"{}\"", m.name))));
    run
}

fn has(run: &Run, prefix: &str) -> bool {
    run.layers.keys().any(|k| k.starts_with(prefix))
}

fn assert_layers(run: &Run, present: &[&str], absent: &[&str]) {
    for p in present {
        assert!(
            has(run, p),
            "expected {p}* metrics, got {:?}",
            run.layers.keys()
        );
    }
    for a in absent {
        assert!(!has(run, a), "{a}* metrics must be absent, not zero");
    }
}

#[test]
fn serve_workloads_measure_the_serving_layers_only() {
    for (name, measured) in [("serve_c4_rw50", 96), ("serve_c64_r95", 320)] {
        let run = smoke(name, measured);
        assert_layers(
            &run,
            &[
                "transport.",
                "server.",
                "runtime.",
                "client.",
                "reqtable.",
                "nvram.",
                "heap.",
                "kv.get_",
            ],
            &["recovery.", "kv.commit_", "kv.compact_"],
        );
        assert_eq!(run.crashes, 0);
    }
}

#[test]
fn kv_commit_measures_the_store_alone_and_compacts() {
    let run = smoke("kv_commit_w100", 640);
    assert_layers(
        &run,
        &["kv.commit_", "kv.compact_", "nvram.", "heap."],
        &[
            "transport.",
            "server.",
            "runtime.",
            "client.",
            "reqtable.",
            "recovery.",
        ],
    );
    assert!(
        run.layers["kv.compact_count"] >= 4.0,
        "every shard compacts"
    );
    assert_eq!(run.layers["nvram.control_persists_per_op"], 0.0);
}

#[test]
fn crash_workload_recovers_from_every_power_failure() {
    let run = smoke("crash_c4_rw50", 96);
    assert_layers(&run, &["server.", "runtime.", "recovery."], &["kv.commit_"]);
    assert_eq!(run.crashes, 96 / 16 - 1);
    assert_eq!(run.layers["recovery.crashes"], run.crashes as f64);
    assert!(PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("recovery."))
        .all(|(n, _)| run.layers.contains_key(n)));
}

#[test]
fn op_streams_match_their_pins() {
    for w in WORKLOADS {
        assert_eq!(
            stream_pin(w, KEYS, DEFAULT_SEED),
            w.pin,
            "{}: the traffic generators changed the op stream",
            w.name
        );
        assert_ne!(stream_pin(w, KEYS, DEFAULT_SEED + 1), w.pin);
    }
}

#[test]
fn benchmark_json_is_the_catalogue() {
    // The manifest dir is this package's own directory, or that of
    // `pstack-bench` when built as its bin; the file sits at the root.
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = loop {
        if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
            break text;
        }
        assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
    };
    assert_eq!(
        text,
        benchmark_json(),
        "regenerate with --emit-benchmark-json"
    );
}
