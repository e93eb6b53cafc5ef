//! Trace persistence: a line-oriented on-disk format (what the
//! example writes and `trace-dump` reads) plus hand-rolled JSON
//! rendering — the build environment vendors no serde.

use crate::collect::{TelemetrySummary, ThreadTrace, TraceSnapshot};
use crate::ring::{Event, EventKind};
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: &str = "pstack-trace v1";

fn escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut chars = name.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('s') => out.push(' '),
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl TraceSnapshot {
    /// Serializes the snapshot to the trace-file text format.
    #[must_use]
    pub fn to_trace_string(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        for (id, name) in self.labels.iter().enumerate() {
            let _ = writeln!(out, "label {id} {}", escape(name));
        }
        for t in &self.threads {
            let _ = writeln!(out, "ring {} dropped={}", t.ring, t.dropped);
            for e in &t.events {
                let (ka, b, c) = e.kind.encode();
                let _ = writeln!(out, "e {} {} {ka} {b} {c}", e.pos, e.ts);
            }
        }
        out
    }

    /// Parses a trace file produced by [`Self::to_trace_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim_end() == MAGIC => {}
            _ => return Err(format!("missing magic header '{MAGIC}'")),
        }
        let mut snap = TraceSnapshot::default();
        for (no, line) in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(' ');
            let tag = parts.next().unwrap_or("");
            let fail = |what: &str| format!("line {}: {what}: '{line}'", no + 1);
            match tag {
                "label" => {
                    let id: usize = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| fail("bad label id"))?;
                    let name = unescape(parts.next().ok_or_else(|| fail("missing label name"))?);
                    if id != snap.labels.len() {
                        return Err(fail("label ids must be dense and in order"));
                    }
                    snap.labels.push(name);
                }
                "ring" => {
                    let ring: usize = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| fail("bad ring index"))?;
                    let dropped: u64 = parts
                        .next()
                        .and_then(|v| v.strip_prefix("dropped="))
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| fail("bad dropped count"))?;
                    snap.threads.push(ThreadTrace {
                        ring,
                        events: Vec::new(),
                        dropped,
                    });
                }
                "e" => {
                    let mut next_u64 = || parts.next().and_then(|v| v.parse::<u64>().ok());
                    let (pos, ts, ka, b, c) = (
                        next_u64().ok_or_else(|| fail("bad event pos"))?,
                        next_u64().ok_or_else(|| fail("bad event ts"))?,
                        next_u64().ok_or_else(|| fail("bad event kind word"))?,
                        next_u64().ok_or_else(|| fail("bad event payload b"))?,
                        next_u64().ok_or_else(|| fail("bad event payload c"))?,
                    );
                    let kind =
                        EventKind::decode(ka, b, c).ok_or_else(|| fail("unknown event kind"))?;
                    snap.threads
                        .last_mut()
                        .ok_or_else(|| fail("event before any ring header"))?
                        .events
                        .push(Event { pos, ts, kind });
                }
                _ => return Err(fail("unknown record tag")),
            }
        }
        Ok(snap)
    }

    /// Writes the trace-file format to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_trace_string())
    }

    /// Reads and parses a trace file.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed traces (as `InvalidData`).
    pub fn read_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Renders the snapshot (raw events + derived summary) as a JSON
    /// document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"labels\": [");
        for (i, name) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(name));
        }
        out.push_str("],\n  \"threads\": [");
        for (ti, t) in self.threads.iter().enumerate() {
            if ti > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"ring\": {}, \"dropped\": {}, \"events\": [",
                t.ring, t.dropped
            );
            for (ei, e) in t.events.iter().enumerate() {
                if ei > 0 {
                    out.push(',');
                }
                out.push_str("\n      ");
                out.push_str(&self.event_json(e));
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ],\n  \"summary\": ");
        out.push_str(&summary_json(&self.summary(), "  "));
        out.push_str("\n}\n");
        out
    }

    fn name(&self, id: u32) -> String {
        self.labels
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("label#{id}"))
    }

    fn event_json(&self, e: &Event) -> String {
        let head = format!("{{\"pos\": {}, \"ts\": {}, ", e.pos, e.ts);
        let body = match e.kind {
            EventKind::SpanEnter { label } => {
                format!(
                    "\"kind\": \"span-enter\", \"label\": {}",
                    json_str(&self.name(label))
                )
            }
            EventKind::SpanExit { label } => {
                format!(
                    "\"kind\": \"span-exit\", \"label\": {}",
                    json_str(&self.name(label))
                )
            }
            EventKind::PhaseEnter { label } => {
                format!(
                    "\"kind\": \"phase-enter\", \"label\": {}",
                    json_str(&self.name(label))
                )
            }
            EventKind::PhaseExit { label } => {
                format!(
                    "\"kind\": \"phase-exit\", \"label\": {}",
                    json_str(&self.name(label))
                )
            }
            EventKind::Persist {
                region,
                lines,
                dur_ns,
            } => format!(
                "\"kind\": \"persist\", \"region\": {}, \"lines\": {lines}, \"dur_ns\": {dur_ns}",
                json_str(&self.name(region))
            ),
            EventKind::Fence { region } => {
                format!(
                    "\"kind\": \"fence\", \"region\": {}",
                    json_str(&self.name(region))
                )
            }
            EventKind::Crash { region, events } => format!(
                "\"kind\": \"crash\", \"region\": {}, \"events\": {events}",
                json_str(&self.name(region))
            ),
            EventKind::CrashSite { shard, events } => format!(
                "\"kind\": \"crash-site\", \"site\": {}, \"events\": {events}",
                if shard == u64::MAX {
                    json_str("runtime")
                } else {
                    json_str(&format!("shard-{shard}"))
                }
            ),
        };
        format!("{head}{body}}}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a [`TelemetrySummary`] as JSON (also used standalone by
/// campaign reports).
#[must_use]
pub fn summary_json(s: &TelemetrySummary, indent: &str) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\n{indent}  \"events\": {}, \"dropped\": {}, \"fences\": {},",
        s.events, s.dropped, s.fences
    );
    let _ = write!(out, "\n{indent}  \"ops\": [");
    for (i, op) in s.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}    {{\"label\": {}, \"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
            json_str(&op.label), op.count, op.mean_ns, op.p50_ns, op.p99_ns, op.p999_ns, op.max_ns
        );
    }
    let _ = write!(out, "\n{indent}  ],\n{indent}  \"persist_economy\": [");
    for (i, pe) in s.persist_economy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}    {{\"label\": {}, \"persists\": {}, \"lines\": {}, \"coalesced\": {}, \"redundant\": {}}}",
            json_str(&pe.label), pe.persists, pe.lines, pe.coalesced, pe.redundant
        );
    }
    let _ = write!(out, "\n{indent}  ],\n{indent}  \"timeline\": [");
    for (i, entry) in s.timeline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}    {{\"at_ns\": {}, \"site\": {}, \"at_events\": {}, \"regions_down\": {}, \"phases\": [",
            entry.at_ns, json_str(&entry.site), entry.at_events, entry.regions_down
        );
        for (pi, p) in entry.phases.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{indent}      {{\"label\": {}, \"count\": {}, \"total_ns\": {}, \"events\": {}}}",
                json_str(&p.label), p.count, p.total_ns, p.events
            );
        }
        let _ = write!(out, "\n{indent}    ]}}");
    }
    let _ = write!(out, "\n{indent}  ]\n{indent}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            labels: vec!["unlabeled".into(), "kv put".into(), "shard-0".into()],
            threads: vec![ThreadTrace {
                ring: 3,
                dropped: 2,
                events: vec![
                    Event {
                        pos: 10,
                        ts: 100,
                        kind: EventKind::SpanEnter { label: 1 },
                    },
                    Event {
                        pos: 11,
                        ts: 150,
                        kind: EventKind::Persist {
                            region: 2,
                            lines: 5,
                            dur_ns: 42,
                        },
                    },
                    Event {
                        pos: 12,
                        ts: 200,
                        kind: EventKind::SpanExit { label: 1 },
                    },
                ],
            }],
        }
    }

    #[test]
    fn trace_format_roundtrips() {
        let snap = sample();
        let text = snap.to_trace_string();
        let back = TraceSnapshot::parse(&text).expect("parses");
        assert_eq!(back.labels, snap.labels);
        assert_eq!(back.threads.len(), 1);
        assert_eq!(back.threads[0].ring, 3);
        assert_eq!(back.threads[0].dropped, 2);
        assert_eq!(back.threads[0].events, snap.threads[0].events);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceSnapshot::parse("not a trace").is_err());
        assert!(TraceSnapshot::parse("pstack-trace v1\nbogus line").is_err());
        assert!(TraceSnapshot::parse("pstack-trace v1\ne 1 2 3 4 5").is_err());
    }

    #[test]
    fn json_contains_required_keys_and_resolved_labels() {
        let json = sample().to_json();
        for key in [
            "\"version\"",
            "\"labels\"",
            "\"threads\"",
            "\"events\"",
            "\"summary\"",
            "\"ops\"",
            "\"persist_economy\"",
            "\"timeline\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"kv put\""));
        assert!(json.contains("\"shard-0\""));
    }
}
