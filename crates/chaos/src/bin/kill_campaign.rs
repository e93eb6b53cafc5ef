//! Real-`kill(1)` crash campaign over image files.
//!
//! ```text
//! kill_campaign drive <image> [n_ops] [seed] [--buggy] [--narrow] [--queue]
//! kill_campaign child-run <image>        # spawned by the driver
//! kill_campaign child-recover <image>    # spawned by the driver
//! ```
//!
//! `drive` runs a CAS row (`--narrow`: operands in `[-10, 10]`;
//! `--queue`: a queue row; `--buggy`: the no-matrix CAS or the no-scan
//! queue) under the kill(1) policy: it formats `<image>` (plus
//! `<image>.0` for the object's stripe region), then repeatedly spawns
//! this same binary in `child-run` mode and SIGKILLs it once the child
//! reports the event count drawn for that round, running `child-recover`
//! processes (also candidates for killing — repeated failures) after
//! each kill, until every descriptor completed. It prints the kills and
//! the verdict. A child prints its persistence events, one count a line,
//! on stdout.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pstack_chaos::{
    child_recover, child_run, run_campaign, CampaignConfig, Execution, Kill, Workload,
};
use pstack_recoverable::{CasVariant, QueueVariant};

/// Kills per campaign.
const MAX_KILLS: usize = 6;
/// Events into a worker process at which the driver kills it.
const KILL_WINDOW: (u64, u64) = (5, 60);

fn usage() -> ExitCode {
    eprintln!(
        "usage: kill_campaign drive <image> [n_ops] [seed] [--buggy] [--narrow] [--queue]\n\
         \x20      kill_campaign child-run <image>\n\
         \x20      kill_campaign child-recover <image>"
    );
    ExitCode::from(2)
}

fn drive(image: PathBuf, rest: std::env::Args) -> ExitCode {
    let (mut n_ops, mut seed) = (60usize, 42u64);
    let (mut buggy, mut narrow, mut queue) = (false, false, false);
    let mut positional = 0;
    for arg in rest {
        match arg.as_str() {
            "--buggy" => buggy = true,
            "--narrow" => narrow = true,
            "--queue" => queue = true,
            other => {
                match (positional, other.parse::<u64>()) {
                    (0, Ok(v)) => n_ops = v as usize,
                    (1, Ok(v)) => seed = v,
                    _ => return usage(),
                }
                positional += 1;
            }
        }
    }
    let workload = if queue {
        Workload::Queue(if buggy {
            QueueVariant::NoScan
        } else {
            QueueVariant::Nsrl
        })
    } else {
        Workload::Cas {
            variant: if buggy {
                CasVariant::NoMatrix
            } else {
                CasVariant::Nsrl
            },
            value_range: if narrow {
                (-10, 10)
            } else {
                (-100_000, 100_000)
            },
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::from(3);
        }
    };
    println!(
        "driving kill campaign: {n_ops} ops, seed {seed}, workload {workload:?}, image {}",
        image.display()
    );
    let cfg = CampaignConfig {
        kill: Kill::Processes { exe },
        image: Some(image),
        max_crashes: MAX_KILLS,
        crash_window: KILL_WINDOW,
        ..CampaignConfig::new(workload, n_ops, seed)
    };
    let report = match run_campaign(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::from(3);
        }
    };
    println!(
        "rounds: {}  kills: {}  recovery kills: {}",
        report.rounds - 1,
        report.crashes,
        report.recovery_crashes
    );
    match &report.execution {
        Execution::Cas { history, verdict } => {
            println!(
                "history: {} ops, {} successful, final value {}",
                history.ops.len(),
                history.successful().len(),
                history.final_value
            );
            println!("verdict: {verdict:?}");
        }
        Execution::Queue { history, verdict } => {
            let consumed = history.snapshot.iter().filter(|s| s.dequeued_by.is_some());
            println!(
                "history: {} ops, {} slots linearized, {} consumed",
                history.ops.len(),
                history.snapshot.len(),
                consumed.count()
            );
            println!("verdict: {verdict:?}");
        }
        Execution::Kv { .. } => unreachable!("kill(1) rows are CAS or queue rows"),
    }
    let consistent = if report.is_consistent() {
        "consistent"
    } else {
        "VIOLATION"
    };
    println!("{consistent}");
    ExitCode::SUCCESS
}

fn child(mode: &str, image: &Path) -> ExitCode {
    // The driver reads these lines to place its kill; a closed pipe only
    // means the kill is on its way.
    let progress = |events: u64| {
        let _ = writeln!(std::io::stdout(), "{events}");
    };
    let result = match mode {
        "child-run" => child_run(image, &progress),
        _ => child_recover(image, &progress),
    };
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{mode} failed: {e}");
            ExitCode::from(3)
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _self = args.next();
    let (Some(mode), Some(image)) = (args.next(), args.next()) else {
        return usage();
    };
    let image = PathBuf::from(image);
    match mode.as_str() {
        "drive" => drive(image, args),
        "child-run" | "child-recover" => child(&mode, &image),
        _ => usage(),
    }
}
