//! A crash-tolerant producer/consumer pipeline over the recoverable
//! FIFO queue — the paper's future-work direction 1 ("implement and
//! test other NVRAM algorithms") in action.
//!
//! Four workers drain a descriptor table of enqueue/dequeue operations
//! against one [`RecoverableQueue`]. Mid-run the demo injects a crash,
//! restarts the system in recovery mode (completing the interrupted
//! operations from their persistent-stack frames), finishes the
//! workload, and finally checks the collected execution with the FIFO
//! verifier — which validates the answers against the queue's
//! slot-order linearization witness.
//!
//! ```sh
//! cargo run --example queue_pipeline
//! ```
//!
//! [`RecoverableQueue`]: pstack::recoverable::RecoverableQueue

use pstack::chaos::{run_campaign, CampaignConfig, CampaignReport, Execution, Workload};
use pstack::recoverable::QueueVariant;
use pstack::verify::{FifoVerdict, QueueHistory};

fn queue(report: &CampaignReport) -> (&QueueHistory, &FifoVerdict) {
    let Execution::Queue { history, verdict } = &report.execution else {
        unreachable!("a queue row");
    };
    (history, verdict)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The correct NSRL queue: every execution must verify as FIFO, no
    // matter where the crashes land.
    let cfg = CampaignConfig::new(Workload::Queue(QueueVariant::Nsrl), 80, 2024);
    let report = run_campaign(&cfg)?;
    let (history, verdict) = queue(&report);
    println!(
        "correct queue: {} ops, {} rounds, {} crashes (+{} during recovery), {} frames recovered",
        history.ops.len(),
        report.rounds,
        report.crashes,
        report.recovery_crashes,
        report.recovered_frames,
    );
    println!(
        "  slot witness: {} enqueues linearized, {} consumed",
        history.snapshot.len(),
        history
            .snapshot
            .iter()
            .filter(|s| s.dequeued_by.is_some())
            .count(),
    );
    println!("  FIFO verdict: {verdict:?}");
    assert!(verdict.is_fifo(), "the correct queue must verify as FIFO");

    // The injected bug (recovery without the evidence scan — the queue
    // analogue of §5.2 removing the matrix R): scan seeds until the
    // verifier catches a double application.
    println!("\nno-scan (buggy) queue, hunting for a violation:");
    let mut caught = None;
    for seed in 0.. {
        let cfg = CampaignConfig {
            max_crashes: 40,
            crash_window: (10, 80),
            recovery_crash_prob: 0.5,
            access_jitter: Some((0.15, 40)),
            ..CampaignConfig::new(Workload::Queue(QueueVariant::NoScan), 80, seed)
        };
        let report = run_campaign(&cfg)?;
        if !report.is_consistent() {
            caught = Some((seed, report));
            break;
        }
        if seed > 200 {
            break; // practically unreachable; keep the demo bounded
        }
    }
    let (seed, report) = caught.expect("the no-scan bug manifests within a few seeds");
    println!(
        "  seed {seed}: NOT FIFO after {} crashes — {:?}",
        report.crashes + report.recovery_crashes,
        queue(&report).1,
    );
    println!("\nqueue pipeline example finished");
    Ok(())
}
