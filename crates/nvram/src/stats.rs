//! Access statistics for the emulated NVRAM.
//!
//! The paper's design arguments are in part *flush-count* arguments:
//! a stack push costs one frame flush plus exactly one single-byte
//! marker flush; a pop costs one single-byte flush (§3.4). The counters
//! here let tests and benchmarks check those claims directly
//! (experiment E13 in DESIGN.md).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live atomic counters attached to a [`PMem`](crate::PMem) region.
#[derive(Debug, Default)]
pub struct MemStats {
    pub(crate) reads: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) bytes_written: AtomicU64,
    pub(crate) flush_calls: AtomicU64,
    pub(crate) lines_persisted: AtomicU64,
    pub(crate) persists: AtomicU64,
    pub(crate) coalesced_lines: AtomicU64,
    pub(crate) redundant_persists: AtomicU64,
    pub(crate) async_flushes: AtomicU64,
    pub(crate) elided_lines: AtomicU64,
    pub(crate) async_latency_charged_ns: AtomicU64,
    pub(crate) async_latency_waited_ns: AtomicU64,
    pub(crate) flights_cut: AtomicU64,
    pub(crate) fences: AtomicU64,
    pub(crate) cas_ops: AtomicU64,
    pub(crate) crashes: AtomicU64,
}

impl MemStats {
    /// Captures a point-in-time copy of all counters.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            flush_calls: self.flush_calls.load(Ordering::Relaxed),
            lines_persisted: self.lines_persisted.load(Ordering::Relaxed),
            persists: self.persists.load(Ordering::Relaxed),
            coalesced_lines: self.coalesced_lines.load(Ordering::Relaxed),
            redundant_persists: self.redundant_persists.load(Ordering::Relaxed),
            async_flushes: self.async_flushes.load(Ordering::Relaxed),
            elided_lines: self.elided_lines.load(Ordering::Relaxed),
            async_latency_charged_ns: self.async_latency_charged_ns.load(Ordering::Relaxed),
            async_latency_waited_ns: self.async_latency_waited_ns.load(Ordering::Relaxed),
            flights_cut: self.flights_cut.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            cas_ops: self.cas_ops.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`MemStats`] counters.
///
/// Supports subtraction, so a test can measure the cost of a single
/// operation:
///
/// ```
/// use pstack_nvram::PMemBuilder;
///
/// # fn main() -> Result<(), pstack_nvram::MemError> {
/// let pmem = PMemBuilder::new().len(1024).build_in_memory();
/// let before = pmem.stats().snapshot();
/// pmem.write_u8(64.into(), 1)?;
/// pmem.flush(64.into(), 1)?;
/// let delta = pmem.stats().snapshot() - before;
/// assert_eq!(delta.writes, 1);
/// assert_eq!(delta.lines_persisted, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations (including compare-exchange attempts).
    pub writes: u64,
    /// Total bytes passed to write operations.
    pub bytes_written: u64,
    /// Number of `flush` calls.
    pub flush_calls: u64,
    /// Number of individual cache lines made durable.
    pub lines_persisted: u64,
    /// Number of persist round-trips: flush/write operations that made
    /// at least one line durable. This is the group-commit headline
    /// metric — batching many record persists into one `flush` call
    /// leaves `lines_persisted` unchanged but collapses `persists`.
    pub persists: u64,
    /// Lines made durable *beyond the first* within a single persist
    /// round-trip — durability work amortized by coalescing
    /// (`lines_persisted - persists` when every persist lands ≥ 1
    /// line). Multiply by the line size for coalesced bytes.
    pub coalesced_lines: u64,
    /// Flush calls over a non-empty range that persisted **zero**
    /// lines: every covered line was already durable. PSan's
    /// *redundant persist* diagnostic class — wasted round-trips a
    /// protocol could elide (e.g. unconditional flushes on an
    /// eager-flush region).
    pub redundant_persists: u64,
    /// Asynchronous flush commands issued (flights queued by
    /// [`PMem::flush_async`](crate::PMem::flush_async)); fully-elided
    /// issues count as `redundant_persists` instead.
    pub async_flushes: u64,
    /// Individual line persists elided because the line was already
    /// staged in an in-flight async flush (FliT-style per-line durable
    /// tracking) — durability work the pipeline saved outright.
    pub elided_lines: u64,
    /// Nanoseconds of device round-trip latency charged to issued
    /// flights. With `async_latency_waited_ns` this yields the overlap
    /// fraction: `1 - waited / charged` is the share of flush latency
    /// hidden behind useful work.
    pub async_latency_charged_ns: u64,
    /// Nanoseconds callers actually slept in awaits — the part of the
    /// charged latency the pipeline failed to hide.
    pub async_latency_waited_ns: u64,
    /// Flights still queued — issued, not yet completed — when a crash
    /// cut the region: what
    /// [`PMem::inflight_tickets`](crate::PMem::inflight_tickets) read
    /// at the cut. Crash campaigns use it to prove kills land between
    /// a flight's issue and its await.
    pub flights_cut: u64,
    /// Number of persistence fences.
    pub fences: u64,
    /// Number of compare-exchange operations.
    pub cas_ops: u64,
    /// Number of injected crashes.
    pub crashes: u64,
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
            bytes_written: self.bytes_written - rhs.bytes_written,
            flush_calls: self.flush_calls - rhs.flush_calls,
            lines_persisted: self.lines_persisted - rhs.lines_persisted,
            persists: self.persists - rhs.persists,
            coalesced_lines: self.coalesced_lines - rhs.coalesced_lines,
            redundant_persists: self.redundant_persists - rhs.redundant_persists,
            async_flushes: self.async_flushes - rhs.async_flushes,
            elided_lines: self.elided_lines - rhs.elided_lines,
            async_latency_charged_ns: self.async_latency_charged_ns - rhs.async_latency_charged_ns,
            async_latency_waited_ns: self.async_latency_waited_ns - rhs.async_latency_waited_ns,
            flights_cut: self.flights_cut - rhs.flights_cut,
            fences: self.fences - rhs.fences,
            cas_ops: self.cas_ops - rhs.cas_ops,
            crashes: self.crashes - rhs.crashes,
        }
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    /// Aggregates counters across regions — the per-stripe total a
    /// sharded system reports (see [`PMemStripe`](crate::PMemStripe)).
    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            bytes_written: self.bytes_written + rhs.bytes_written,
            flush_calls: self.flush_calls + rhs.flush_calls,
            lines_persisted: self.lines_persisted + rhs.lines_persisted,
            persists: self.persists + rhs.persists,
            coalesced_lines: self.coalesced_lines + rhs.coalesced_lines,
            redundant_persists: self.redundant_persists + rhs.redundant_persists,
            async_flushes: self.async_flushes + rhs.async_flushes,
            elided_lines: self.elided_lines + rhs.elided_lines,
            async_latency_charged_ns: self.async_latency_charged_ns + rhs.async_latency_charged_ns,
            async_latency_waited_ns: self.async_latency_waited_ns + rhs.async_latency_waited_ns,
            flights_cut: self.flights_cut + rhs.flights_cut,
            fences: self.fences + rhs.fences,
            cas_ops: self.cas_ops + rhs.cas_ops,
            crashes: self.crashes + rhs.crashes,
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} bytes_written={} flush_calls={} lines_persisted={} \
             persists={} coalesced_lines={} redundant_persists={} async_flushes={} \
             elided_lines={} async_latency_charged_ns={} async_latency_waited_ns={} \
             flights_cut={} fences={} cas_ops={} crashes={}",
            self.reads,
            self.writes,
            self.bytes_written,
            self.flush_calls,
            self.lines_persisted,
            self.persists,
            self.coalesced_lines,
            self.redundant_persists,
            self.async_flushes,
            self.elided_lines,
            self.async_latency_charged_ns,
            self.async_latency_waited_ns,
            self.flights_cut,
            self.fences,
            self.cas_ops,
            self.crashes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_subtraction() {
        let stats = MemStats::default();
        MemStats::bump(&stats.writes);
        let a = stats.snapshot();
        MemStats::bump(&stats.writes);
        MemStats::add(&stats.bytes_written, 16);
        let b = stats.snapshot();
        let d = b - a;
        assert_eq!(d.writes, 1);
        assert_eq!(d.bytes_written, 16);
        assert_eq!(d.reads, 0);
    }

    #[test]
    fn display_lists_every_counter() {
        let s = StatsSnapshot::default().to_string();
        for key in [
            "reads=",
            "writes=",
            "bytes_written=",
            "flush_calls=",
            "lines_persisted=",
            "persists=",
            "coalesced_lines=",
            "redundant_persists=",
            "async_flushes=",
            "elided_lines=",
            "async_latency_charged_ns=",
            "async_latency_waited_ns=",
            "flights_cut=",
            "fences=",
            "cas_ops=",
            "crashes=",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
