//! The metric catalogue: every name the benchmark prints, with its
//! unit. `BENCHMARK.json` lists the same names; the smoke test checks
//! the two against each other.

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen —
    /// also the repeatability bound of the benchmark itself.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

/// Every end-to-end metric is defined on every workload and is never 0.
/// The metrics that exist on one workload only (read latency, time to
/// first answer after a power failure, recovery work) are per-layer.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("ops_per_s", "1/s", false, 0.10),
    e2e("write_mean_us", "us", true, 0.10),
    e2e("write_p95_us", "us", true, 0.25),
    e2e("persists_per_op", "1/op", true, 0.08),
    e2e("lines_per_op", "1/op", true, 0.08),
    e2e("nvram_accesses_per_op", "1/op", true, 0.05),
    e2e("space_amp", "ratio", true, 0.05),
    e2e("peak_rss_mb", "MB", true, 0.15),
];

/// Per-layer metrics, `<module>.<metric>`, from the traced pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transport.us_per_op", "us"),
    ("transport.frames_per_op", "1/op"),
    ("server.submit_us", "us"),
    ("server.submit_persists", "count"),
    ("server.ack_us", "us"),
    ("server.ack_persists", "count"),
    ("server.admission_frac", "ratio"),
    ("server.drain_us", "us"),
    ("server.answers_for_us", "us"),
    ("server.windows_per_round", "count"),
    ("server.window_occupancy", "ratio"),
    ("server.dedup_hits", "count"),
    ("server.shed_frac", "ratio"),
    ("runtime.run_tasks_us", "us"),
    ("runtime.run_tasks_frac", "ratio"),
    ("runtime.rtts_per_round", "count"),
    ("runtime.control_persists_per_window", "count"),
    ("runtime.control_lines_per_window", "count"),
    ("runtime.stripe_persists_per_window", "count"),
    ("client.write_p50_us", "us"),
    ("client.read_p50_us", "us"),
    ("client.read_p95_us", "us"),
    ("client.backoff_frac", "ratio"),
    ("kv.commit_us", "us"),
    ("kv.commit_persists", "count"),
    ("kv.commit_rtts_per_shard", "count"),
    ("kv.commit_lines", "count"),
    ("kv.compact_ms", "ms"),
    ("kv.compact_persists", "count"),
    ("kv.compact_count", "count"),
    ("kv.compact_stall_frac", "ratio"),
    ("kv.generations", "count"),
    ("kv.log_headroom_min", "ratio"),
    ("kv.get_us", "us"),
    ("kv.get_reads", "count"),
    ("kv.put_us", "us"),
    ("kv.put_persists", "count"),
    ("reqtable.live_high_water", "count"),
    ("reqtable.recycled", "count"),
    ("nvram.control_persists_per_op", "1/op"),
    ("nvram.stripe_persists_per_op", "1/op"),
    ("nvram.lines_per_persist", "ratio"),
    ("nvram.redundant_persists_per_op", "1/op"),
    ("nvram.async_flushes_per_op", "1/op"),
    ("nvram.elided_lines_per_op", "1/op"),
    ("nvram.overlap_frac", "ratio"),
    ("nvram.reads_per_op", "1/op"),
    ("nvram.writes_per_op", "1/op"),
    ("nvram.cas_per_op", "1/op"),
    ("nvram.bytes_written_per_op", "B/op"),
    ("nvram.rtt_observed_us", "us"),
    ("nvram.rtt_charged_us", "us"),
    ("heap.used_mb", "MB"),
    ("heap.retired_mb", "MB"),
    ("recovery.crashes", "count"),
    ("recovery.first_answer_ms_p50", "ms"),
    ("recovery.accesses_per_crash", "count"),
    ("recovery.reopen_ms_p50", "ms"),
    ("recovery.attach_ms_p50", "ms"),
    ("recovery.replay_ms_p50", "ms"),
    ("recovery.total_ms_p50", "ms"),
    ("recovery.total_ms_max", "ms"),
    ("recovery.down_ms_p50", "ms"),
    ("recovery.persists_per_crash", "count"),
    ("recovery.reads_per_crash", "count"),
    ("recovery.frames_per_crash", "count"),
    ("recovery.redrive_ms_p50", "ms"),
    ("recovery.retransmits_per_crash", "count"),
    ("recovery.scan_growth", "ratio"),
    ("verify.check_ms", "ms"),
    ("host.spin_ms", "ms"),
    ("host.sleep_1ms_us", "us"),
    ("host.steal_frac", "ratio"),
    ("host.cpu_us_per_op", "us"),
    ("host.trace_overhead_frac", "ratio"),
    ("host.trace_spans", "count"),
    ("host.span_coverage", "ratio"),
];
