//! E10: the serializability verifier runs in polynomial (near-linear)
//! time in the number of operations — the property that makes §5.1's
//! checking practical for large executions.
//!
//! Sizes stop at 10 000 operations: the criterion shim's latency pass
//! times at least 1000 single iterations of every row, so a 50 000-op
//! row (~50 ms an iteration) alone would cost close to a minute.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pstack_verify::{check_serializability, CasHistory, CasOp};

/// A scrambled chain history of `n` successful ops plus `n / 4` failed
/// ones — worst-case connected input.
fn chain_history(n: usize, seed: u64) -> CasHistory {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops: Vec<CasOp> = (0..n as i64)
        .map(|i| CasOp {
            pid: 0,
            old: i,
            new: i + 1,
            success: true,
        })
        .collect();
    for _ in 0..n / 4 {
        ops.push(CasOp {
            pid: 1,
            old: -rng.random_range(1i64..1000),
            new: 0,
            success: false,
        });
    }
    // Fisher-Yates scramble.
    for i in (1..ops.len()).rev() {
        let j = rng.random_range(0..=i);
        ops.swap(i, j);
    }
    CasHistory::new(0, n as i64, ops)
}

/// A simulated random execution over a narrow domain (multigraph-heavy).
fn narrow_history(n: usize, seed: u64) -> CasHistory {
    let mut rng = SmallRng::seed_from_u64(seed);
    let init = rng.random_range(-10..=10);
    let mut register = init;
    let ops = (0..n)
        .map(|_| {
            let old = rng.random_range(-10..=10);
            let new = rng.random_range(-10..=10);
            let success = register == old;
            if success {
                register = new;
            }
            CasOp {
                pid: 0,
                old,
                new,
                success,
            }
        })
        .collect();
    CasHistory::new(init, register, ops)
}

fn bench_chain_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("verifier/chain_scaling");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [100usize, 1_000, 10_000] {
        let h = chain_history(n, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                assert!(check_serializability(&h).is_serializable());
            });
        });
    }
    g.finish();
}

fn bench_narrow_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("verifier/narrow_scaling");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [100usize, 1_000, 10_000] {
        let h = narrow_history(n, 11);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                assert!(check_serializability(&h).is_serializable());
            });
        });
    }
    g.finish();
}

fn bench_rejection_is_fast(c: &mut Criterion) {
    let mut g = c.benchmark_group("verifier/rejection");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // Degree violations are caught without building the path.
    let mut h = chain_history(10_000, 13);
    h.ops.push(CasOp {
        pid: 0,
        old: 0,
        new: 1,
        success: true,
    });
    g.bench_function("degree_violation_10k", |b| {
        b.iter(|| {
            assert!(!check_serializability(&h).is_serializable());
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_chain_scaling,
    bench_narrow_scaling,
    bench_rejection_is_fast
);
criterion_main!(benches);
