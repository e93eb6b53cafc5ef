//! Snapshot analysis: merging per-thread rings into per-op latency
//! histograms, persist-economy counters, and crash→recovery timelines.

use crate::hist::LatencyHistogram;
use crate::ring::{Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Events recorded by one ring (≈ one thread; rings are pooled, so a
/// slot may serve several short-lived threads back to back — each
/// closes its spans before handing the ring on, so per-ring nesting
/// stays well-formed).
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Registry slot index.
    pub ring: usize,
    /// Events in position (= time) order: a gapless run ending at the
    /// ring's head (`Ring::read_from`'s contract) — the span replay in
    /// [`TraceSnapshot::summary`] tolerates a missing prefix, but a
    /// hole would pair an enter with some later span's exit.
    pub events: Vec<Event>,
    /// Events lost to wraparound or torn reads in the window.
    pub dropped: u64,
}

/// Everything a [`crate::TraceSession`] recorded.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Interned label table; event label/region ids index into it.
    pub labels: Vec<String>,
    /// Per-ring event streams.
    pub threads: Vec<ThreadTrace>,
}

/// Latency distribution of one span label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStat {
    /// Span (op) label.
    pub label: String,
    /// Completed spans.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// 99.9th percentile latency.
    pub p999_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
}

/// Persist round-trips attributed to the innermost open span.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PersistEconomy {
    /// Attributing span label (`unlabeled` when none was open).
    pub label: String,
    /// Persist round-trips.
    pub persists: u64,
    /// Cache lines actually flushed.
    pub lines: u64,
    /// Lines beyond the first per round-trip — the coalescing win.
    pub coalesced: u64,
    /// Round-trips that found nothing dirty.
    pub redundant: u64,
}

/// One recovery phase aggregated within a timeline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPhaseStat {
    /// Phase label (e.g. `recovery.frame-replay`).
    pub label: String,
    /// Completed phase instances after this crash.
    pub count: u64,
    /// Summed wall-clock duration.
    pub total_ns: u64,
    /// Telemetry events (all threads) inside the phase windows.
    pub events: u64,
}

/// One crash incident and the recovery work that followed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashEntry {
    /// Timestamp of the first crash event of the incident.
    pub at_ns: u64,
    /// Attribution: `CrashSite` when the runtime recorded one
    /// (`shard-N` / `runtime`), else the first crashed region's label.
    pub site: String,
    /// Event-counter reading attached to the attribution.
    pub at_events: u64,
    /// Regions that went down in this incident.
    pub regions_down: u64,
    /// Recovery phases observed before the next incident.
    pub phases: Vec<RecoveryPhaseStat>,
}

/// Collector output: the three views the flight recorder promises.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Per-op latency distributions, ordered by span count descending.
    pub ops: Vec<OpStat>,
    /// Persist counters per attributing op, ordered by persists.
    pub persist_economy: Vec<PersistEconomy>,
    /// Crash incidents in time order, each with its recovery phases.
    pub timeline: Vec<CrashEntry>,
    /// Flush-epoch bumps observed.
    pub flush_epochs: u64,
    /// Bare fences observed.
    pub fences: u64,
    /// Total events collected.
    pub events: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
}

impl TraceSnapshot {
    fn label(&self, id: u32) -> String {
        self.labels
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("label#{id}"))
    }

    /// All events merged across threads in timestamp order.
    fn merged(&self) -> Vec<(u64, usize, EventKind)> {
        let mut all: Vec<(u64, usize, EventKind)> = self
            .threads
            .iter()
            .flat_map(|t| t.events.iter().map(move |e| (e.ts, t.ring, e.kind)))
            .collect();
        all.sort_by_key(|&(ts, ring, _)| (ts, ring));
        all
    }

    /// Builds the summary views from the raw rings.
    #[must_use]
    pub fn summary(&self) -> TelemetrySummary {
        let mut hists: BTreeMap<u32, LatencyHistogram> = BTreeMap::new();
        let mut economy: BTreeMap<u32, PersistEconomy> = BTreeMap::new();
        let mut flush_epochs = 0u64;
        let mut fences = 0u64;
        let mut events = 0u64;
        let mut dropped = 0u64;

        for t in &self.threads {
            events += t.events.len() as u64;
            dropped += t.dropped;
            // (label, enter-ts) span stack; replay is tolerant of
            // unmatched exits (session started mid-span).
            let mut stack: Vec<(u32, u64)> = Vec::new();
            for e in &t.events {
                match e.kind {
                    EventKind::SpanEnter { label } => stack.push((label, e.ts)),
                    EventKind::SpanExit { label } => {
                        if let Some(top) = stack.iter().rposition(|&(l, _)| l == label) {
                            let (_, enter) = stack[top];
                            stack.truncate(top);
                            hists
                                .entry(label)
                                .or_default()
                                .record(e.ts.saturating_sub(enter));
                        }
                    }
                    EventKind::Persist { lines, .. } => {
                        let owner = stack.last().map_or(0, |&(l, _)| l);
                        let pe = economy.entry(owner).or_default();
                        pe.persists += 1;
                        if lines == 0 {
                            pe.redundant += 1;
                        } else {
                            pe.lines += u64::from(lines);
                            pe.coalesced += u64::from(lines) - 1;
                        }
                    }
                    EventKind::FlushEpoch { .. } => flush_epochs += 1,
                    EventKind::Fence { .. } => fences += 1,
                    _ => {}
                }
            }
        }

        let mut ops: Vec<OpStat> = hists
            .into_iter()
            .map(|(label, h)| OpStat {
                label: self.label(label),
                count: h.count(),
                mean_ns: h.mean(),
                p50_ns: h.quantile(0.5),
                p99_ns: h.quantile(0.99),
                p999_ns: h.quantile(0.999),
                max_ns: h.max(),
            })
            .collect();
        ops.sort_by(|a, b| b.count.cmp(&a.count).then(a.label.cmp(&b.label)));

        let mut persist_economy: Vec<PersistEconomy> = economy
            .into_iter()
            .map(|(label, pe)| PersistEconomy {
                label: self.label(label),
                ..pe
            })
            .collect();
        persist_economy.sort_by(|a, b| b.persists.cmp(&a.persists).then(a.label.cmp(&b.label)));

        TelemetrySummary {
            ops,
            persist_economy,
            timeline: self.timeline(),
            flush_epochs,
            fences,
            events,
            dropped,
        }
    }

    /// Pairs each crash incident with the recovery phases that follow.
    fn timeline(&self) -> Vec<CrashEntry> {
        let merged = self.merged();
        let ts_index: Vec<u64> = merged.iter().map(|&(ts, _, _)| ts).collect();
        let events_within = |start: u64, end: u64| -> u64 {
            let lo = ts_index.partition_point(|&t| t < start);
            let hi = ts_index.partition_point(|&t| t <= end);
            (hi - lo) as u64
        };

        let mut entries: Vec<CrashEntry> = Vec::new();
        // Aggregated phases per entry, keyed by label id.
        let mut agg: Vec<BTreeMap<u32, RecoveryPhaseStat>> = Vec::new();
        // A crash event opens a new incident iff recovery already
        // started since the last one — bursts of near-simultaneous
        // region deaths (crash propagation trips every region) are one
        // incident, a crash *during* recovery is a fresh one.
        let mut recovering = true;
        // Open phase intervals per ring: (ring, label) -> enter ts.
        let mut open_phases: BTreeMap<(usize, u32), u64> = BTreeMap::new();

        for &(ts, ring, kind) in &merged {
            match kind {
                EventKind::Crash { region, events } => {
                    if recovering || entries.is_empty() {
                        entries.push(CrashEntry {
                            at_ns: ts,
                            site: self.label(region),
                            at_events: events,
                            regions_down: 0,
                            phases: Vec::new(),
                        });
                        agg.push(BTreeMap::new());
                        recovering = false;
                    }
                    let last = entries.last_mut().unwrap();
                    last.regions_down += 1;
                }
                EventKind::CrashSite { shard, events } => {
                    if recovering || entries.is_empty() {
                        entries.push(CrashEntry {
                            at_ns: ts,
                            site: String::new(),
                            at_events: 0,
                            regions_down: 0,
                            phases: Vec::new(),
                        });
                        agg.push(BTreeMap::new());
                        recovering = false;
                    }
                    // CrashSite is the authoritative attribution.
                    let last = entries.last_mut().unwrap();
                    last.site = if shard == u64::MAX {
                        "runtime".to_string()
                    } else {
                        format!("shard-{shard}")
                    };
                    last.at_events = events;
                }
                EventKind::PhaseEnter { label } => {
                    recovering = true;
                    open_phases.insert((ring, label), ts);
                }
                EventKind::PhaseExit { label } => {
                    recovering = true;
                    if let (Some(start), Some(map)) =
                        (open_phases.remove(&(ring, label)), agg.last_mut())
                    {
                        let stat = map.entry(label).or_insert_with(|| RecoveryPhaseStat {
                            label: self.label(label),
                            count: 0,
                            total_ns: 0,
                            events: 0,
                        });
                        stat.count += 1;
                        stat.total_ns += ts.saturating_sub(start);
                        stat.events += events_within(start, ts);
                    }
                }
                _ => {}
            }
        }

        for (entry, map) in entries.iter_mut().zip(agg) {
            if entry.site.is_empty() {
                entry.site = "unattributed".to_string();
            }
            entry.phases = map.into_values().collect();
        }
        entries
    }

    /// Schema checks on the raw trace: per-thread timestamps must be
    /// monotone, span and phase enter/exit must balance with proper
    /// nesting, and every label id must resolve. Returns the list of
    /// violations (empty ⇒ valid).
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        for t in &self.threads {
            let mut last_ts = 0u64;
            let mut last_pos: Option<u64> = None;
            let mut spans: Vec<u32> = Vec::new();
            let mut phases: Vec<u32> = Vec::new();
            for e in &t.events {
                if e.ts < last_ts {
                    errs.push(format!(
                        "ring {}: timestamp regressed at pos {} ({} < {})",
                        t.ring, e.pos, e.ts, last_ts
                    ));
                }
                last_ts = e.ts;
                if let Some(p) = last_pos {
                    if e.pos <= p {
                        errs.push(format!(
                            "ring {}: position not increasing at {}",
                            t.ring, e.pos
                        ));
                    }
                }
                last_pos = Some(e.pos);
                let referenced = match e.kind {
                    EventKind::SpanEnter { label }
                    | EventKind::SpanExit { label }
                    | EventKind::PhaseEnter { label }
                    | EventKind::PhaseExit { label } => Some(label),
                    EventKind::Persist { region, .. }
                    | EventKind::Fence { region }
                    | EventKind::FlushEpoch { region, .. }
                    | EventKind::Crash { region, .. } => Some(region),
                    EventKind::CrashSite { .. } => None,
                };
                if let Some(id) = referenced {
                    if id as usize >= self.labels.len() {
                        errs.push(format!("ring {}: unknown label id {id}", t.ring));
                    }
                }
                match e.kind {
                    EventKind::SpanEnter { label } => spans.push(label),
                    EventKind::SpanExit { label } if spans.pop() != Some(label) => {
                        errs.push(format!(
                            "ring {}: span exit '{}' does not match innermost open span",
                            t.ring,
                            self.label(label)
                        ));
                    }
                    EventKind::PhaseEnter { label } => phases.push(label),
                    EventKind::PhaseExit { label } if phases.pop() != Some(label) => {
                        errs.push(format!(
                            "ring {}: phase exit '{}' does not match innermost open phase",
                            t.ring,
                            self.label(label)
                        ));
                    }
                    _ => {}
                }
            }
            for label in spans {
                errs.push(format!(
                    "ring {}: span '{}' never closed",
                    t.ring,
                    self.label(label)
                ));
            }
            for label in phases {
                errs.push(format!(
                    "ring {}: phase '{}' never closed",
                    t.ring,
                    self.label(label)
                ));
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl TelemetrySummary {
    /// Renders the summary as a human-readable block (the form the
    /// campaigns and the example print).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry: {} events ({} dropped), {} flush-epoch bumps, {} fences",
            self.events, self.dropped, self.flush_epochs, self.fences
        );
        if !self.ops.is_empty() {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9}",
                "op", "count", "p50", "p99", "p999", "max"
            );
            for op in &self.ops {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9}",
                    op.label,
                    op.count,
                    fmt_ns(op.p50_ns),
                    fmt_ns(op.p99_ns),
                    fmt_ns(op.p999_ns),
                    fmt_ns(op.max_ns)
                );
            }
        }
        if !self.persist_economy.is_empty() {
            let _ = writeln!(out, "  persist economy (per op):");
            for pe in &self.persist_economy {
                let _ = writeln!(
                    out,
                    "    {:<26} persists={} lines={} coalesced={} redundant={}",
                    pe.label, pe.persists, pe.lines, pe.coalesced, pe.redundant
                );
            }
        }
        if !self.timeline.is_empty() {
            let n = self.timeline.len();
            let _ = writeln!(
                out,
                "  crash→recovery timeline ({n} incident{}):",
                if n == 1 { "" } else { "s" }
            );
            const SHOWN: usize = 10;
            for (i, entry) in self.timeline.iter().take(SHOWN).enumerate() {
                let phases = entry
                    .phases
                    .iter()
                    .map(|p| {
                        format!(
                            "{} ×{} {} ({} ev)",
                            p.label,
                            p.count,
                            fmt_ns(p.total_ns),
                            p.events
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" · ");
                let _ = writeln!(
                    out,
                    "    [{i}] t={} {} @{}ev ({} region{} down) → {}",
                    fmt_ns(entry.at_ns),
                    entry.site,
                    entry.at_events,
                    entry.regions_down,
                    if entry.regions_down == 1 { "" } else { "s" },
                    if phases.is_empty() {
                        "no recovery observed".to_string()
                    } else {
                        phases
                    }
                );
            }
            if self.timeline.len() > SHOWN {
                let _ = writeln!(out, "    … and {} more", self.timeline.len() - SHOWN);
            }
        }
        out
    }

    /// The op stats whose label starts with `prefix` — a dotted label
    /// family, e.g. `op_family("server.")` pulls the serving-layer ops
    /// (`server.submit`, `server.window`, …) out of a mixed recording.
    /// Returned in the summary's label order.
    #[must_use]
    pub fn op_family(&self, prefix: &str) -> Vec<&OpStat> {
        self.ops
            .iter()
            .filter(|o| o.label.starts_with(prefix))
            .collect()
    }

    /// Distinct recovery-phase labels across the whole timeline.
    #[must_use]
    pub fn distinct_recovery_phases(&self) -> usize {
        let mut labels: Vec<&str> = self
            .timeline
            .iter()
            .flat_map(|e| e.phases.iter().map(|p| p.label.as_str()))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Event;

    fn ev(pos: u64, ts: u64, kind: EventKind) -> Event {
        Event { pos, ts, kind }
    }

    fn snapshot(events: Vec<Event>) -> TraceSnapshot {
        TraceSnapshot {
            labels: vec![
                "unlabeled".into(),
                "op.a".into(),
                "region".into(),
                "recovery.x".into(),
            ],
            threads: vec![ThreadTrace {
                ring: 0,
                events,
                dropped: 0,
            }],
        }
    }

    #[test]
    fn spans_feed_histograms_and_persists_attribute() {
        let snap = snapshot(vec![
            ev(0, 10, EventKind::SpanEnter { label: 1 }),
            ev(
                1,
                20,
                EventKind::Persist {
                    region: 2,
                    lines: 4,
                    dur_ns: 5,
                },
            ),
            ev(
                2,
                30,
                EventKind::Persist {
                    region: 2,
                    lines: 0,
                    dur_ns: 1,
                },
            ),
            ev(3, 1010, EventKind::SpanExit { label: 1 }),
        ]);
        assert!(snap.validate().is_ok());
        let sum = snap.summary();
        assert_eq!(sum.ops.len(), 1);
        assert_eq!(sum.ops[0].label, "op.a");
        assert_eq!(sum.ops[0].count, 1);
        assert!(sum.ops[0].p50_ns >= 1000);
        let pe = &sum.persist_economy[0];
        assert_eq!(
            (pe.persists, pe.lines, pe.coalesced, pe.redundant),
            (2, 4, 3, 1)
        );
    }

    #[test]
    fn op_family_selects_by_label_prefix() {
        let snap = TraceSnapshot {
            labels: vec![
                "unlabeled".into(),
                "server.submit".into(),
                "server.window".into(),
                "kv.batch".into(),
            ],
            threads: vec![ThreadTrace {
                ring: 0,
                events: vec![
                    ev(0, 10, EventKind::SpanEnter { label: 1 }),
                    ev(1, 20, EventKind::SpanExit { label: 1 }),
                    ev(2, 30, EventKind::SpanEnter { label: 2 }),
                    ev(3, 40, EventKind::SpanExit { label: 2 }),
                    ev(4, 50, EventKind::SpanEnter { label: 3 }),
                    ev(5, 60, EventKind::SpanExit { label: 3 }),
                ],
                dropped: 0,
            }],
        };
        let sum = snap.summary();
        assert_eq!(sum.ops.len(), 3);
        let served = sum.op_family("server.");
        assert_eq!(
            served.iter().map(|o| o.label.as_str()).collect::<Vec<_>>(),
            ["server.submit", "server.window"]
        );
        assert!(sum.op_family("queue.").is_empty());
    }

    #[test]
    fn timeline_pairs_crashes_with_phases() {
        let snap = snapshot(vec![
            ev(
                0,
                100,
                EventKind::Crash {
                    region: 2,
                    events: 7,
                },
            ),
            ev(
                1,
                101,
                EventKind::Crash {
                    region: 2,
                    events: 9,
                },
            ),
            ev(
                2,
                102,
                EventKind::CrashSite {
                    shard: 1,
                    events: 7,
                },
            ),
            ev(3, 110, EventKind::PhaseEnter { label: 3 }),
            ev(4, 150, EventKind::PhaseExit { label: 3 }),
            // Crash during/after recovery opens a new incident.
            ev(
                5,
                200,
                EventKind::Crash {
                    region: 2,
                    events: 3,
                },
            ),
        ]);
        let sum = snap.summary();
        assert_eq!(sum.timeline.len(), 2);
        let first = &sum.timeline[0];
        assert_eq!(first.site, "shard-1");
        assert_eq!(first.regions_down, 2);
        assert_eq!(first.phases.len(), 1);
        assert_eq!(first.phases[0].label, "recovery.x");
        assert_eq!(first.phases[0].total_ns, 40);
        assert!(first.phases[0].events >= 2);
        assert_eq!(sum.timeline[1].site, "region");
        assert_eq!(sum.distinct_recovery_phases(), 1);
    }

    #[test]
    fn validate_flags_imbalance_and_regression() {
        let snap = snapshot(vec![
            ev(0, 10, EventKind::SpanEnter { label: 1 }),
            ev(1, 5, EventKind::SpanExit { label: 99 }),
        ]);
        let errs = snap.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("timestamp regressed")));
        assert!(errs.iter().any(|e| e.contains("unknown label id")));
        assert!(errs.iter().any(|e| e.contains("does not match")));
    }
}
