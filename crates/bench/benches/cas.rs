//! Recoverable-CAS costs: the NSRL algorithm vs the no-matrix variant
//! (what the evidence writes cost), the raw hardware CAS baseline, and
//! the recovery procedure itself.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pstack_bench::region;
use pstack_heap::PHeap;
use pstack_nvram::POffset;
use pstack_recoverable::{CasVariant, RecoverableCas};

fn fixture(variant: CasVariant) -> RecoverableCas {
    let pmem = region(1 << 18);
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 18).unwrap();
    RecoverableCas::format(pmem, &heap, 4, 0, variant).unwrap()
}

fn bench_successful_cas(c: &mut Criterion) {
    let mut g = c.benchmark_group("cas/successful_op");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // A successful CAS followed by its inverse keeps the register
    // oscillating, so every iteration succeeds.
    for (name, variant) in [
        ("nsrl", CasVariant::Nsrl),
        ("no_matrix", CasVariant::NoMatrix),
    ] {
        let cas = fixture(variant);
        let mut seq = 1u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                assert!(cas.cas(0, 0, 1, seq).unwrap());
                assert!(cas.cas(1, 1, 0, seq + 1).unwrap());
                seq += 2;
            });
        });
    }
    g.finish();
}

fn bench_failed_cas(c: &mut Criterion) {
    let mut g = c.benchmark_group("cas/failed_op");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    // Failed CAS never writes evidence or the register: both variants
    // should cost the same (one read).
    for (name, variant) in [
        ("nsrl", CasVariant::Nsrl),
        ("no_matrix", CasVariant::NoMatrix),
    ] {
        let cas = fixture(variant);
        g.bench_function(name, |b| {
            b.iter(|| {
                assert!(!cas.cas(0, 555, 777, 1).unwrap());
            });
        });
    }
    g.finish();
}

fn bench_recover_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("cas/recover");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    // Path 1: value still in the register (cheapest confirmation).
    let cas = fixture(CasVariant::Nsrl);
    cas.cas(0, 0, 5, 1).unwrap();
    g.bench_function("value_in_register", |b| {
        b.iter(|| assert!(cas.recover(0, 0, 5, 1).unwrap()));
    });
    // Path 2: value overwritten, evidence found in the matrix row scan.
    let cas = fixture(CasVariant::Nsrl);
    cas.cas(0, 0, 5, 1).unwrap();
    cas.cas(1, 5, 9, 2).unwrap();
    g.bench_function("evidence_in_matrix", |b| {
        b.iter(|| assert!(cas.recover(0, 0, 5, 1).unwrap()));
    });
    // Path 3: never linearized and cannot re-apply (full scan + retry).
    let cas = fixture(CasVariant::Nsrl);
    cas.cas(1, 0, 9, 1).unwrap();
    g.bench_function("reexecute_fails", |b| {
        b.iter(|| assert!(!cas.recover(0, 0, 5, 2).unwrap()));
    });
    g.finish();
}

fn bench_contended_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("cas/contended_chain");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    // 4 threads advancing a chain 0→1→…→N together: total throughput of
    // the whole contended workload.
    for (name, variant) in [
        ("nsrl", CasVariant::Nsrl),
        ("no_matrix", CasVariant::NoMatrix),
    ] {
        g.bench_function(name, |b| {
            b.iter_with_setup(
                || fixture(variant),
                |cas| {
                    let steps = 64i64;
                    std::thread::scope(|s| {
                        for pid in 0..4usize {
                            let cas = cas.clone();
                            s.spawn(move || {
                                for step in 0..steps {
                                    loop {
                                        let cur = cas.read().unwrap();
                                        if cur > step {
                                            break;
                                        }
                                        if cur == step {
                                            let _ = cas.cas(
                                                pid,
                                                step,
                                                step + 1,
                                                (step * 4 + pid as i64) as u64 + 1,
                                            );
                                        }
                                        std::hint::spin_loop();
                                    }
                                }
                            });
                        }
                    });
                    assert_eq!(cas.read().unwrap(), 64);
                },
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_successful_cas,
    bench_failed_cas,
    bench_recover_paths,
    bench_contended_chain
);
criterion_main!(benches);
