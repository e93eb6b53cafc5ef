//! What one pass of one workload hands back to the report.

use std::collections::BTreeMap;

use crate::stats::percentile;
use crate::sut::RegionStats;

/// Per-layer metric values by name. A metric a workload does not
/// exercise is simply never inserted; the report prints it as not
/// applicable and the JSON line carries it as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// The result of one pass over a fresh fixture.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Verifier verdict, exactly-once accounting and crash count all
    /// as designed.
    pub correct: bool,
    /// First transmissions (served) or mutations (direct commits).
    pub attempted: u64,
    /// Ops without exactly one answer, plus shed and stale responses;
    /// every attempted op when the pass is not `correct`.
    pub failed: u64,
    /// Ops completed inside the timed window.
    pub ops: u64,
    /// Length of the timed window.
    pub wall_s: f64,
    /// Mean device round-trip the host delivered over the timed
    /// window, microseconds (the sampler's; charged is 1000).
    pub rtt_us: f64,
    /// Latency samples of the timed window, nanoseconds.
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// NVRAM counters over the timed window.
    pub stats: RegionStats,
    /// Σ shards' live heap payload / (live keys × 16 B), after the run.
    pub space_amp: f64,
    /// Time the verifier took, outside the timed window.
    pub verify_ms: f64,
    pub crashes: u64,
    /// Per-layer metrics; empty unless the pass was traced.
    pub layers: Layers,
}

/// `num / den`, 0 when nothing was counted.
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Order statistic `q` of a nanosecond sample, in microseconds.
pub fn p_us(sample_ns: &[u64], q: f64) -> f64 {
    percentile(&mut sample_ns.to_vec(), q) as f64 / 1e3
}

/// Mean of a nanosecond sample, in microseconds; 0 for an empty one.
pub fn mean_us(sample_ns: &[u64]) -> f64 {
    per(
        sample_ns.iter().sum::<u64>() as f64 / 1e3,
        sample_ns.len() as u64,
    )
}
