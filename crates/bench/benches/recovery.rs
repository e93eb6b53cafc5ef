//! E5: parallel vs serial recovery (§4.3 claims parallel recovery beats
//! an ordinary single-threaded recovery), swept over worker count and
//! per-stack frame depth.
//!
//! The wall-clock rows are host-bound: four recovery threads on a host
//! with fewer cores share them, and on light recover duals thread
//! start-up alone outweighs the walk. On 2 vCPUs, two runs a side,
//! `parallel_work0/16` measured p50 252–296 µs against 48–50 µs serial
//! while every stack had a spawned thread, and 286–332 µs against
//! 52–54 µs with pid 0's stack on the calling thread: the three threads
//! still started cost as much. A one-worker pass starts none —
//! `worker_scaling_parallel` p50 at 1/2/4/8 workers went 1.65–1.84 /
//! 1.29–1.40 / 1.44–1.48 / 1.65–1.78 ms to 1.30–1.34 / 1.26–1.52 /
//! 1.38–1.40 / 1.55–1.68 ms. Each parallel row is
//! followed by the algorithm's own figure, the median over five
//! recoveries of `RecoveryReport::modeled_speedup` — total work over
//! the longest worker's recovery, what enough cores would give.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pstack_bench::crashed_system;
use pstack_core::RecoveryMode;

/// Prints the median `modeled_speedup` of five parallel recoveries of
/// `crashed_system(workers, depth, work)`, outside any timed loop.
fn report_modeled_speedup(label: &str, workers: usize, depth: usize, work: u64) {
    let mut speedups: Vec<f64> = (0..5)
        .map(|_| {
            let (_, rt, _) = crashed_system(workers, depth, work);
            rt.recover(RecoveryMode::Parallel)
                .unwrap()
                .modeled_speedup()
        })
        .collect();
    speedups.sort_by(f64::total_cmp);
    println!(
        "{label:<55} modeled_speedup={:.2} (total_work / critical_path, {workers} workers)",
        speedups[2]
    );
}

fn bench_parallel_vs_serial(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery/parallel_vs_serial");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    // work = iterations of CPU work per recover dual: 0 measures the
    // bare stack walk (lock-bound in the simulator), 20_000 models
    // recover duals that actually complete interrupted operations.
    for work in [0u64, 20_000] {
        for depth in [16usize, 128] {
            for mode in [RecoveryMode::Serial, RecoveryMode::Parallel] {
                let label = match mode {
                    RecoveryMode::Serial => format!("serial_work{work}"),
                    RecoveryMode::Parallel => format!("parallel_work{work}"),
                };
                let id = BenchmarkId::new(&label, depth);
                g.bench_with_input(id, &(mode, depth), |b, &(mode, depth)| {
                    b.iter_with_setup(
                        || crashed_system(4, depth, work),
                        |(_, rt, _)| {
                            let report = rt.recover(mode).unwrap();
                            assert_eq!(report.total_frames(), 4 * depth);
                        },
                    );
                });
                if mode == RecoveryMode::Parallel {
                    let row = format!("recovery/parallel_vs_serial/{label}/{depth}");
                    report_modeled_speedup(&row, 4, depth, work);
                }
            }
        }
    }
    g.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery/worker_scaling_parallel");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    // Fixed total work (workers × depth = 256 frames), spread across
    // more recovery threads.
    for workers in [1usize, 2, 4, 8] {
        let depth = 256 / workers;
        g.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter_with_setup(
                    || crashed_system(workers, depth, 20_000),
                    |(_, rt, _)| {
                        let report = rt.recover(RecoveryMode::Parallel).unwrap();
                        assert_eq!(report.total_frames(), workers * depth);
                    },
                );
            },
        );
        let row = format!("recovery/worker_scaling_parallel/{workers}");
        report_modeled_speedup(&row, workers, depth, 20_000);
    }
    g.finish();
}

fn bench_clean_recovery_is_cheap(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery/clean_noop");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    // Recovery of an un-crashed system only walks dummy frames.
    g.bench_function("4_workers_0_frames", |b| {
        b.iter_with_setup(
            || crashed_system(4, 0, 0),
            |(_, rt, _)| {
                let report = rt.recover(RecoveryMode::Parallel).unwrap();
                assert_eq!(report.total_frames(), 0);
            },
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parallel_vs_serial,
    bench_worker_scaling,
    bench_clean_recovery_is_cheap
);
criterion_main!(benches);
