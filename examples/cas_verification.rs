//! The §5.2 experiment, end to end: random recoverable-CAS workloads on
//! emulated NVRAM, crashes at random moments, restart + recovery loops,
//! and serializability verdicts — for the correct NSRL CAS (wide and
//! narrow operand ranges) and for the deliberately buggy variant with
//! the matrix `R` removed.
//!
//! ```sh
//! cargo run --release --example cas_verification
//! ```

use pstack::chaos::{run_campaign, CampaignConfig, Workload};
use pstack::recoverable::CasVariant;

fn banner(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:>6} {:>8} {:>9} {:>10} {:>10} {:>16}",
        "seed", "rounds", "crashes", "rec.fail", "recovered", "verdict"
    );
}

fn run_block(base: &CampaignConfig, seeds: std::ops::Range<u64>) -> (usize, usize) {
    let mut serializable = 0;
    let mut total = 0;
    for seed in seeds {
        let cfg = CampaignConfig {
            seed,
            ..base.clone()
        };
        let report = run_campaign(&cfg).expect("campaign setup must succeed");
        let verdict = if report.is_consistent() {
            serializable += 1;
            "serializable".to_string()
        } else {
            "NOT serializable".to_string()
        };
        total += 1;
        println!(
            "{:>6} {:>8} {:>9} {:>10} {:>10} {:>16}",
            seed,
            report.rounds,
            report.crashes,
            report.recovery_crashes,
            report.recovered_frames,
            verdict
        );
    }
    (serializable, total)
}

fn main() {
    // Campaign A — correct CAS, wide range [-1e5, 1e5], 4 workers.
    banner("correct NSRL CAS, wide range [-100000, 100000]");
    let (ok, n) = run_block(&CampaignConfig::wide(120, 0), 0..8);
    println!("--> {ok}/{n} executions serializable (paper: all)");
    assert_eq!(ok, n, "correct CAS must always be serializable");

    // Campaign B — correct CAS, narrow range [-10, 10]: duplicate
    // values exercise the multigraph Eulerian check.
    banner("correct NSRL CAS, narrow range [-10, 10]");
    let (ok, n) = run_block(&CampaignConfig::narrow(120, 100), 0..8);
    println!("--> {ok}/{n} executions serializable (paper: all)");
    assert_eq!(ok, n, "correct CAS must always be serializable");

    // Campaign C — buggy CAS (matrix R removed), high contention plus
    // scheduling jitter so the vulnerable window (CAS applied, answer
    // not yet persistent, value overwritten) is actually hit.
    banner("buggy CAS (matrix R removed), values in [-1, 1]");
    let buggy = CampaignConfig {
        workload: Workload::Cas {
            variant: CasVariant::NoMatrix,
            value_range: (-1, 1),
        },
        max_crashes: 40,
        crash_window: (10, 80),
        recovery_crash_prob: 0.5,
        access_jitter: Some((0.15, 40)),
        ..CampaignConfig::wide(80, 0)
    };
    let (ok, n) = run_block(&buggy, 0..12);
    println!(
        "--> {}/{n} executions NON-serializable (paper: bug detected)",
        n - ok
    );
    assert!(
        n - ok > 0,
        "the injected bug must be caught at least once across seeds"
    );

    println!("\nall campaign assertions hold");
}
