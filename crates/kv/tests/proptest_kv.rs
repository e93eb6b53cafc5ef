//! Property tests for one-op group commits on a shard: random crews of concurrent
//! mutators — each mutation a group commit of one — × compactions,
//! all taking turns in the region's exclusive section × crash
//! placements landing among the record writes, the header's, the
//! record ‖ header ‖ checkpoint flights and the head CAS — the heads
//! left dirty for the next commit, or the reopen's replay — all
//! checked against the
//! sequential spec — every mutation takes effect exactly once, every
//! surviving chain replays, and the persist-order sanitizer stays
//! silent.
//!
//! # Reproducing failures
//!
//! The proptest shim has no shrinking; every case is deterministic per
//! (test, case index). `PROPTEST_SHIM_SEED=<u64>` perturbs all case
//! seeds, `PROPTEST_CASES=<n>` sets cases per property. (The racing
//! threads make the exact event interleaving schedule-dependent, so a
//! crash lands *within* its seeded window rather than on a replayable
//! event — rerun a failing seed a few times when hunting.)

use proptest::prelude::*;

use pstack_heap::PHeap;
use pstack_kv::{KvBatchOp, KvVariant, PKvStore};
use pstack_nvram::{FailPlan, PMemBuilder, POffset};
use pstack_verify::{check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory};

const REGION: usize = 1 << 21;
const NBUCKETS: u64 = 8;
const LOG_CAP: u64 = 1024;
const KEY_SPACE: u64 = 8;

/// One planned mutation, derived deterministically from a strategy
/// word. Tags are `(mutator pid, per-mutator seq)` — globally unique.
#[derive(Debug, Clone, Copy)]
struct Planned {
    pid: u64,
    seq: u64,
    kind: KvOpKind,
    key: u64,
    value: i64,
    expected: i64,
}

impl Planned {
    /// The mutation as a one-op batch's op.
    fn op(self) -> KvBatchOp {
        let (pid, seq, key) = (self.pid, self.seq, self.key);
        match self.kind {
            KvOpKind::Put => KvBatchOp::Put {
                pid,
                seq,
                key,
                value: self.value,
            },
            KvOpKind::Delete => KvBatchOp::Delete { pid, seq, key },
            KvOpKind::Cas => KvBatchOp::Cas {
                pid,
                seq,
                key,
                expected: self.expected,
                new: self.value,
            },
            KvOpKind::Get => unreachable!(),
        }
    }
}

fn plan_op(pid: u64, seq: u64, word: u64) -> Planned {
    let kind = match word % 10 {
        0..=5 => KvOpKind::Put,
        6 | 7 => KvOpKind::Delete,
        _ => KvOpKind::Cas,
    };
    Planned {
        pid,
        seq,
        kind,
        key: (word / 10) % KEY_SPACE,
        value: ((word / 80) % 50) as i64,
        expected: ((word / 4000) % 50) as i64,
    }
}

/// What one mutator thread brings back from a live round: the ops it
/// answered, plus the index of the op a crash cut mid-flight (outcome
/// unknown — must settle through a recovery dual).
type MutatorRound = (Vec<(usize, bool)>, Option<usize>);

fn to_kv_op(p: Planned, ok: bool) -> KvOp {
    KvOp {
        pid: p.pid,
        seq: p.seq,
        kind: p.kind,
        key: p.key,
        value: p.value,
        expected: p.expected,
        answer: match p.kind {
            KvOpKind::Put => KvAnswer::Stored(ok),
            KvOpKind::Delete => KvAnswer::Deleted(ok),
            KvOpKind::Cas => KvAnswer::Swapped(ok),
            KvOpKind::Get => unreachable!("the plan holds only mutations"),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent per-shard mutators × compaction × crash placement.
    /// Live rounds race `mutators` writer threads against a concurrent
    /// compaction, serialized by the region's gate; armed fail-point
    /// countdowns cut executions between a group commit's steps (and
    /// inside the compaction's rewrite). After each crash the store
    /// reopens, settles interrupted compactions from evidence, and
    /// answers every *attempted* op through its recovery dual before
    /// the next crew races. The finished execution must replay against
    /// the sequential spec with exactly-once effects and a clean
    /// sanitizer.
    #[test]
    fn concurrent_mutators_compaction_and_crashes_linearize(
        mutators in 2usize..5,
        words in proptest::collection::vec(0u64..1_000_000, 12..72),
        countdowns in proptest::collection::vec(20u64..400, 0..4),
    ) {
        let mut pmem = PMemBuilder::new()
            .len(REGION)
            .psan(true)
            .build_in_memory();
        let mut heap = PHeap::format(pmem.clone(), POffset::new(0), REGION as u64).unwrap();
        let mut store =
            PKvStore::format(pmem.clone(), &heap, NBUCKETS, LOG_CAP, KvVariant::Nsrl).unwrap();
        let base = store.base();

        // Thread m owns plan indices m, m + mutators, ... in order.
        let plan: Vec<Planned> = words
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let m = i % mutators;
                plan_op(m as u64 + 1, (i / mutators) as u64 + 1, w)
            })
            .collect();
        let mut answered: Vec<Option<bool>> = vec![None; plan.len()];
        // Ops a thread *started* before a crash: unknown outcome, must
        // go through the evidence-scanning recovery dual (`recover_batch`).
        let mut attempted: Vec<bool> = vec![false; plan.len()];
        let mut crashes = countdowns.into_iter();
        let mut rounds = 0usize;

        while answered.iter().any(Option::is_none) {
            rounds += 1;
            prop_assert!(rounds < 64, "execution did not quiesce");

            // Settle the attempted-but-unanswered ops from evidence,
            // single-threaded — the recovery discipline both drive
            // modes share.
            for i in 0..plan.len() {
                if answered[i].is_some() || !attempted[i] {
                    continue;
                }
                let ok = store.recover_batch(&[plan[i].op()]).unwrap()[0].took_effect();
                answered[i] = Some(ok);
            }

            // The live crew: each mutator commits its next ops while a
            // compaction races them for the region's gate.
            let fresh: Vec<Vec<usize>> = (0..mutators)
                .map(|m| {
                    (m..plan.len())
                        .step_by(mutators)
                        .filter(|&i| answered[i].is_none())
                        .collect()
                })
                .collect();
            if fresh.iter().all(Vec::is_empty) {
                break;
            }
            let gen_before = store.generation().unwrap();
            if let Some(countdown) = crashes.next() {
                pmem.arm_failpoint(FailPlan::after_events(countdown));
            }
            let crew: Vec<MutatorRound> = std::thread::scope(|sc| {
                let compactor = {
                    let store = store.clone();
                    let heap = heap.clone();
                    sc.spawn(move || match store.compact(&heap) {
                        Ok(_) => Ok(()),
                        Err(e) if e.is_crash() => Ok(()),
                        Err(e) => Err(e),
                    })
                };
                let handles: Vec<_> = fresh
                    .iter()
                    .map(|mine| {
                        let store = store.clone();
                        let plan = &plan;
                        sc.spawn(move || {
                            let mut done = Vec::new();
                            for &i in mine {
                                match store.apply_batch(&[plan[i].op()]) {
                                    Ok(out) => done.push((i, out[0].took_effect())),
                                    // Crash mid-op: outcome unknown.
                                    Err(e) if e.is_crash() => return (done, Some(i)),
                                    Err(e) => panic!("mutator failed: {e}"),
                                }
                            }
                            (done, None)
                        })
                    })
                    .collect();
                compactor.join().expect("compactor panicked").unwrap();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("mutator panicked"))
                    .collect()
            });
            for (done, cut) in crew {
                for (i, ok) in done {
                    answered[i] = Some(ok);
                }
                if let Some(i) = cut {
                    attempted[i] = true;
                }
            }

            if pmem.is_crashed() {
                // Power failure: unflushed lines are gone. Reopen,
                // settle any interrupted compaction from evidence,
                // then loop back into the recovery pass.
                pmem = pmem.reopen().unwrap();
                heap = PHeap::open(pmem.clone(), POffset::new(0)).unwrap();
                store = PKvStore::open(pmem.clone(), base, KvVariant::Nsrl).unwrap();
                store.recover_compact(&heap, gen_before).unwrap();
            } else {
                pmem.disarm_failpoint();
            }
        }

        // Replay against the sequential spec: every chain record owned
        // by exactly one op, every effectful answer backed by exactly
        // one record, compaction carries faithful. One store is the
        // one-shard history.
        let history = KvShardedHistory {
            ops: plan
                .iter()
                .zip(&answered)
                .map(|(&p, ok)| to_kv_op(p, ok.unwrap()))
                .collect(),
            shards: vec![store
                .snapshot()
                .unwrap()
                .into_iter()
                .map(|chain| chain.into_iter().map(Into::into).collect())
                .collect()],
        };
        let verdict = check_kv_sharded_gen(&history, |_| 0, &[store.generation().unwrap()]);
        prop_assert!(
            verdict.is_linearizable(),
            "lost or torn update: {:?}",
            verdict.violation()
        );
        prop_assert!(
            pmem.psan_violations().is_empty(),
            "sanitizer findings: {:?}",
            pmem.psan_violations()
        );
    }
}
