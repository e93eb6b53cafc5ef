//! Host honesty probes: what the machine under the benchmark was doing
//! while it ran. Every gated timing is made of charged 1 ms sleeps, so
//! the number that matters is how long a 1 ms sleep really takes here,
//! before and after the run.

use std::time::{Duration, Instant};

use crate::rng::SplitMix64;
use crate::stats::median_f64;

/// One reading of the host, taken before and again after a run.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// Wall time of a fixed CPU loop — rises under steal or throttling.
    pub spin_ms: f64,
    /// Median observed length of `thread::sleep(1 ms)`.
    pub sleep_1ms_us: f64,
    /// Cumulative `(steal, total)` jiffies of the whole host.
    steal_total: (u64, u64),
}

const SPIN_ITERS: u64 = 4_000_000;
const SLEEP_SAMPLES: usize = 40;

impl HostProbe {
    pub fn take() -> Self {
        let t = Instant::now();
        let mut rng = SplitMix64::new(1);
        let mut acc = 0u64;
        for _ in 0..SPIN_ITERS {
            acc ^= rng.next_u64();
        }
        std::hint::black_box(acc);
        let spin_ms = t.elapsed().as_secs_f64() * 1e3;

        let mut sleeps: Vec<f64> = (0..SLEEP_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                std::thread::sleep(Duration::from_millis(1));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        HostProbe {
            spin_ms,
            sleep_1ms_us: median_f64(&mut sleeps),
            steal_total: read_steal(),
        }
    }

    /// Share of the host's CPU time stolen by the hypervisor between
    /// `self` and the later probe `after`.
    pub fn steal_frac(&self, after: &HostProbe) -> f64 {
        let steal = after.steal_total.0.saturating_sub(self.steal_total.0);
        let total = after.steal_total.1.saturating_sub(self.steal_total.1);
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }

    /// `true` when the observed 1 ms sleep moved by more than 5 %
    /// across the run: the timings of that run are suspect.
    pub fn disturbed(&self, after: &HostProbe) -> bool {
        let base = self.sleep_1ms_us.max(1.0);
        ((after.sleep_1ms_us - self.sleep_1ms_us) / base).abs() > 0.05
    }
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`; zeros where the file is missing (non-Linux hosts).
fn read_steal() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0);
    let total = fields.iter().take(8).sum();
    (steal, total)
}

/// Process CPU time so far (user + system, all threads) in
/// microseconds, from `/proc/self/stat`; the kernel reports it in 10 ms
/// ticks, far finer than the seconds of CPU a run burns.
pub fn process_cpu_us() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the ')' field 0 is the state, so utime/stime (fields 14 and
    // 15 of the full line) sit at 11 and 12.
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks as f64 * 10_000.0
}

/// Peak resident set size in MB (`VmHWM`); 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
