//! Prints the experiment tables T1–T10 and asserts every table's
//! invariant, ending with "all table assertions hold":
//!
//! ```sh
//! cargo run -p pstack-bench --bin tables --release
//! ```
//!
//! T1/T2/T3 — the §5.2 verification campaigns (E7/E8/E9);
//! T4 — flush accounting for the stack protocol (E13);
//! T5 — parallel vs serial recovery (E5);
//! T6 — unbounded-stack growth machinery counters (E12);
//! T7 — serializability-verifier scaling (E10);
//! T8 — queue crash campaigns, correct and no-scan (E15);
//! T9 — transactional-loop crash-point sweep (E11);
//! T10 — real-`kill(1)` campaigns over a file image (E18).

use std::sync::Arc;
use std::time::Instant;

use pstack_bench::{crashed_system, region_with_heap};
#[cfg(all(unix, feature = "kill-harness"))]
use pstack_chaos::Kill;
use pstack_chaos::{run_campaign, CampaignConfig, Workload};
use pstack_core::{
    FixedStack, FunctionRegistry, ListStack, PersistentStack, RecoveryMode, Runtime, RuntimeConfig,
    StackKind, TxnLoop, U64CellStep, VecStack,
};
use pstack_nvram::{FailPlan, PMemBuilder, POffset};
use pstack_recoverable::{CasVariant, QueueVariant};
use pstack_verify::{check_serializability, CasHistory, CasOp};

/// One row per seed of `base`; the rows whose execution passed its
/// check (`ok` names them), out of how many.
fn campaign_table(title: &str, base: &CampaignConfig, seeds: u64, ok: &str) -> (usize, usize) {
    println!("\n### {title}\n");
    println!("| seed | rounds | crashes | recovery crashes | frames recovered | verdict |");
    println!("|-----:|-------:|--------:|-----------------:|-----------------:|---------|");
    let mut consistent = 0usize;
    for seed in 0..seeds {
        let cfg = CampaignConfig {
            seed,
            ..base.clone()
        };
        let r = run_campaign(&cfg).expect("campaign setup");
        let verdict = if r.is_consistent() {
            consistent += 1;
            ok.to_string()
        } else {
            format!("**NOT {ok}**")
        };
        println!(
            "| {seed} | {} | {} | {} | {} | {verdict} |",
            r.rounds, r.crashes, r.recovery_crashes, r.recovered_frames
        );
    }
    (consistent, seeds as usize)
}

fn flush_accounting() {
    println!("\n### T4 — flush accounting per stack operation (E13)\n");
    println!("| operation | writes | bytes written | flush calls | lines persisted |");
    println!("|-----------|-------:|--------------:|------------:|----------------:|");
    let (pmem, _) = region_with_heap(1 << 20);
    let mut stack = FixedStack::format(pmem.clone(), POffset::new(0), 256 * 1024).unwrap();

    for arg_len in [0usize, 64, 256, 1024] {
        let args = vec![0u8; arg_len];
        let before = pmem.stats().snapshot();
        stack.push(1, &args).unwrap();
        let d = pmem.stats().snapshot() - before;
        println!(
            "| push ({arg_len}-byte args) | {} | {} | {} | {} |",
            d.writes, d.bytes_written, d.flush_calls, d.lines_persisted
        );
    }
    let before = pmem.stats().snapshot();
    stack.pop().unwrap();
    let d = pmem.stats().snapshot() - before;
    println!(
        "| pop (any size) | {} | {} | {} | {} |",
        d.writes, d.bytes_written, d.flush_calls, d.lines_persisted
    );
}

fn recovery_speedup() {
    println!("\n### T5 — parallel vs serial recovery, 4 workers (E5)\n");
    println!("Recover duals perform CPU work (completing interrupted operations). The");
    println!("modelled speedup is total work / critical path from a serial pass — the");
    println!("figure an ideally parallel host achieves; measured wall-clock speedup is");
    println!(
        "also shown but is a property of this host's {} core(s), not the algorithm.\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("| work per frame | frames per stack | serial (sum) | critical path | modelled speedup | measured parallel |");
    println!("|---------------:|-----------------:|-------------:|--------------:|-----------------:|------------------:|");
    for work in [0u64, 20_000] {
        for depth in [16usize, 64, 256] {
            // Serial pass: per-worker timings give sum and critical path.
            let rep = (0..3)
                .map(|_| {
                    let (_, rt, _) = crashed_system(4, depth, work);
                    let rep = rt.recover(RecoveryMode::Serial).unwrap();
                    assert_eq!(rep.total_frames(), 4 * depth);
                    rep
                })
                .min_by_key(|r| r.total_work())
                .unwrap();
            // Parallel pass wall-clock, for reference.
            let parallel = (0..3)
                .map(|_| {
                    let (_, rt, _) = crashed_system(4, depth, work);
                    let t = Instant::now();
                    rt.recover(RecoveryMode::Parallel).unwrap();
                    t.elapsed()
                })
                .min()
                .unwrap();
            println!(
                "| {work} | {depth} | {:.2?} | {:.2?} | {:.2}x | {parallel:.2?} |",
                rep.total_work(),
                rep.critical_path(),
                rep.modeled_speedup()
            );
        }
    }
}

fn variant_counters() {
    println!("\n### T6 — unbounded-stack growth machinery (E12)\n");
    println!("| variant | after 512 pushes | after 512 pops |");
    println!("|---------|------------------|----------------|");
    {
        let (pmem, heap) = region_with_heap(1 << 22);
        let mut s = VecStack::format(pmem, heap, POffset::new(0), 128).unwrap();
        for i in 0..512u64 {
            s.push(i, &[0u8; 24]).unwrap();
        }
        let grown = format!("{} relocations, capacity {}", s.relocations(), s.capacity());
        for _ in 0..512 {
            s.pop().unwrap();
        }
        println!(
            "| vec (A.2) | {grown} | {} relocations, capacity {} |",
            s.relocations(),
            s.capacity()
        );
    }
    {
        let (pmem, heap) = region_with_heap(1 << 22);
        let mut s = ListStack::format(pmem, heap, POffset::new(0), 256).unwrap();
        for i in 0..512u64 {
            s.push(i, &[0u8; 24]).unwrap();
        }
        let grown = format!(
            "{} blocks chained, {} blocks live",
            s.blocks_chained(),
            s.block_count()
        );
        for _ in 0..512 {
            s.pop().unwrap();
        }
        println!(
            "| list (A.3) | {grown} | {} blocks released, {} block live |",
            s.blocks_released(),
            s.block_count()
        );
    }
}

fn verifier_scaling() {
    println!("\n### T7 — serializability verifier scaling (E10)\n");
    println!("| ops | time (scrambled chain + failed ops) |");
    println!("|----:|------------------------------------:|");
    for n in [1_000usize, 10_000, 100_000, 400_000] {
        let mut ops: Vec<CasOp> = (0..n as i64)
            .map(|i| CasOp {
                pid: 0,
                old: i,
                new: i + 1,
                success: true,
            })
            .collect();
        for k in 0..n / 4 {
            ops.push(CasOp {
                pid: 1,
                old: -(k as i64) - 1,
                new: 0,
                success: false,
            });
        }
        ops.reverse();
        ops.rotate_left(n / 3);
        let h = CasHistory::new(0, n as i64, ops);
        let t = Instant::now();
        let verdict = check_serializability(&h);
        let dt = t.elapsed();
        assert!(verdict.is_serializable());
        println!("| {n} | {dt:.2?} |");
    }
}

fn txn_sweep() {
    println!("\n### T9 — transactional-loop crash-point sweep, 6 items (E11)\n");
    println!(
        "Every persistence event of one whole transaction is used as a crash\n\
         point; after recovery the array must be fully updated or fully\n\
         restored. `torn` must be 0 — it would have been nonzero without the\n\
         deepest-frame commit flag (see `pstack-core`'s `txn` module docs).\n"
    );
    println!("| stack | crash points | rolled back | committed | torn |");
    println!("|-------|-------------:|------------:|----------:|-----:|");
    const TXN_FN: u64 = 0x7AB1;
    for kind in [StackKind::Vec, StackKind::List] {
        let count = 6u64;
        let setup = || {
            let pmem = PMemBuilder::new().len(1 << 21).build_in_memory();
            let stub = FunctionRegistry::new();
            let rt = Runtime::format(
                pmem.clone(),
                RuntimeConfig::new(1).stack_kind(kind).stack_capacity(512),
                &stub,
            )
            .unwrap();
            let step = U64CellStep::format(&rt, count, Arc::new(|v| v * 2 + 1)).unwrap();
            for i in 0..count {
                step.write_item(i, 100 + i).unwrap();
            }
            let mut registry = FunctionRegistry::new();
            let txn = TxnLoop::register(&mut registry, TXN_FN, Arc::new(step.clone())).unwrap();
            let rt = Runtime::open(pmem.clone(), &registry).unwrap();
            (pmem, rt, step, txn)
        };
        let (_, rt, step, txn) = setup();
        let before = step.read_all().unwrap();
        let after: Vec<u64> = before.iter().map(|v| v * 2 + 1).collect();
        step.begin().unwrap();
        let e0 = rt.pmem().events();
        assert_eq!(rt.run_tasks(vec![txn.task(count)]).completed, 1);
        let total = rt.pmem().events() - e0;

        let (mut rolled, mut committed, mut torn) = (0usize, 0usize, 0usize);
        for k in 0..total {
            let (pmem, rt, step, txn) = setup();
            step.begin().unwrap();
            pmem.arm_failpoint(FailPlan::after_events(k));
            let report = rt.run_tasks(vec![txn.task(count)]);
            if !report.crashed {
                committed += 1;
                continue;
            }
            let pmem2 = pmem.reopen().unwrap();
            let stub = FunctionRegistry::new();
            let probe = Runtime::open(pmem2.clone(), &stub).unwrap();
            let step2 = U64CellStep::open(&probe, step.base(), Arc::new(|v| v * 2 + 1)).unwrap();
            let mut registry = FunctionRegistry::new();
            TxnLoop::register(&mut registry, TXN_FN, Arc::new(step2.clone())).unwrap();
            let rt2 = Runtime::open(pmem2, &registry).unwrap();
            rt2.recover(RecoveryMode::Parallel).unwrap();
            let got = step2.read_all().unwrap();
            if got == before {
                rolled += 1;
            } else if got == after {
                committed += 1;
            } else {
                torn += 1;
            }
        }
        println!("| {kind} | {total} | {rolled} | {committed} | {torn} |");
        assert_eq!(torn, 0, "transaction torn on {kind}");
    }
}

#[cfg(all(unix, feature = "kill-harness"))]
fn kill_campaigns() {
    println!("\n### T10 — real-`kill(1)` campaigns, file-backed image (E18)\n");
    // The kill harness re-invokes the `kill_campaign` binary; locate it
    // next to this one in the target directory.
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("kill_campaign")))
        .filter(|p| p.exists());
    let Some(exe) = exe else {
        println!(
            "skipped: `kill_campaign` binary not found next to `tables` — build it\n\
             first (`cargo build -p pstack-chaos --release`) and rerun."
        );
        return;
    };
    println!(
        "Worker **processes** over image files with the modelled 150 µs/line\n\
         HDD persist latency, SIGKILLed by the driver once they report the event\n\
         count drawn for their round (kill timing is not reproducible — rows vary\n\
         run to run, verdicts must not).\n"
    );
    println!("| seed | workload | rounds | kills | recovery kills | verdict |");
    println!("|-----:|----------|-------:|------:|---------------:|---------|");
    let mut consistent = 0usize;
    let mut total = 0usize;
    for (seed, label) in [
        (1u64, "CAS wide"),
        (2, "CAS wide"),
        (3, "CAS narrow"),
        (4, "CAS narrow"),
        (5, "queue"),
        (6, "queue"),
    ] {
        let mut image = std::env::temp_dir();
        image.push(format!(
            "pstack-tables-kill-{seed}-{}.img",
            std::process::id()
        ));
        let row = match label {
            "CAS narrow" => CampaignConfig::narrow(60, seed),
            "queue" => CampaignConfig::new(Workload::Queue(QueueVariant::Nsrl), 60, seed),
            _ => CampaignConfig::wide(60, seed),
        };
        let cfg = CampaignConfig {
            kill: Kill::Processes { exe: exe.clone() },
            image: Some(image.clone()),
            max_crashes: 5,
            crash_window: (5, 60),
            ..row
        };
        let r = run_campaign(&cfg).expect("kill campaign");
        total += 1;
        let verdict = if r.is_consistent() {
            consistent += 1;
            "consistent"
        } else {
            "**VIOLATION**"
        };
        println!(
            "| {seed} | {label} | {} | {} | {} | {verdict} |",
            r.rounds - 1,
            r.crashes,
            r.recovery_crashes,
        );
        let mut stripe_file = image.clone().into_os_string();
        stripe_file.push(".0");
        let _ = std::fs::remove_file(stripe_file);
        let _ = std::fs::remove_file(&image);
    }
    println!(
        "\n**{consistent}/{total} consistent** (serializable for CAS, FIFO for queue; \
         paper: all serializable)"
    );
    assert_eq!(consistent, total);
}

fn main() {
    println!("# pstack experiment tables (generated by `tables`)\n");
    println!(
        "Host: {} workers available",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let (ok, n) = campaign_table(
        "T1 — correct NSRL CAS, wide range [-100000, 100000] (E7)",
        &CampaignConfig::wide(120, 0),
        8,
        "serializable",
    );
    println!("\n**{ok}/{n} serializable** (paper: all serializable)");
    assert_eq!(ok, n);

    let (ok, n) = campaign_table(
        "T2 — correct NSRL CAS, narrow range [-10, 10] (E8)",
        &CampaignConfig::narrow(120, 0),
        8,
        "serializable",
    );
    println!("\n**{ok}/{n} serializable** (paper: all serializable)");
    assert_eq!(ok, n);

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
    let (ok, n) = campaign_table(
        "T3 — buggy CAS (matrix R removed), values in [-1, 1] (E9)",
        &buggy,
        12,
        "serializable",
    );
    println!(
        "\n**{}/{n} NON-serializable** (paper: bug detected; detection is probabilistic per run)",
        n - ok
    );
    assert!(n - ok > 0, "bug must be detected at least once");

    flush_accounting();
    recovery_speedup();
    variant_counters();
    verifier_scaling();

    let (ok, n) = campaign_table(
        "T8a — correct NSRL queue, 60% enqueues (E15)",
        &CampaignConfig::new(Workload::Queue(QueueVariant::Nsrl), 80, 0),
        8,
        "FIFO",
    );
    println!("\n**{ok}/{n} FIFO** (correct queue: all executions verify)");
    assert_eq!(ok, n);

    let noscan = CampaignConfig {
        max_crashes: 40,
        crash_window: (10, 80),
        recovery_crash_prob: 0.5,
        access_jitter: Some((0.15, 40)),
        ..CampaignConfig::new(Workload::Queue(QueueVariant::NoScan), 80, 0)
    };
    let (ok, n) = campaign_table(
        "T8b — buggy queue (evidence scan removed), crash-heavy (E15)",
        &noscan,
        12,
        "FIFO",
    );
    println!(
        "\n**{}/{n} NOT FIFO** (no-scan bug detected; detection is probabilistic per run)",
        n - ok
    );
    assert!(n - ok > 0, "queue bug must be detected at least once");

    txn_sweep();
    #[cfg(all(unix, feature = "kill-harness"))]
    kill_campaigns();
    #[cfg(not(all(unix, feature = "kill-harness")))]
    println!(
        "\n### T10 — real-`kill(1)` campaigns, file-backed image (E18)\n\n\
         skipped: rebuild with `--features kill-harness` (unix only) to regenerate."
    );

    println!("\nall table assertions hold");
}
