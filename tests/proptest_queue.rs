//! Property tests: the recoverable queue against a volatile `VecDeque`
//! model, random crash points with recovery, and metamorphic checks on
//! the FIFO verifier (random mutations of a valid witness must be
//! caught).

use std::collections::VecDeque;

use proptest::prelude::*;

use pstack::heap::PHeap;
use pstack::nvram::{FailPlan, PMemBuilder, POffset};
use pstack::recoverable::{QueueVariant, RecoverableQueue};
use pstack::verify::{
    check_fifo, FifoVerdict, QueueAnswer, QueueHistory, QueueOp, QueueOpKind, SlotWitness,
};

const REGION: usize = 1 << 20;

fn fixture(capacity: u64) -> (pstack::nvram::PMem, RecoverableQueue) {
    let pmem = PMemBuilder::new().len(REGION).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), REGION as u64).unwrap();
    let q = RecoverableQueue::format(pmem.clone(), &heap, capacity, QueueVariant::Nsrl).unwrap();
    (pmem, q)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Enqueue(i64),
    Dequeue,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (-1000i64..1000).prop_map(Op::Enqueue),
        2 => Just(Op::Dequeue),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential queue behaviour matches a VecDeque exactly (until
    /// lifetime capacity runs out, which the model tracks too).
    #[test]
    fn matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let capacity = 40u64;
        let (_, q) = fixture(capacity);
        let mut model: VecDeque<i64> = VecDeque::new();
        let mut enqueued = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let seq = i as u64 + 1;
            match op {
                Op::Enqueue(v) => {
                    let accepted = q.enqueue(0, seq, *v).unwrap();
                    let model_accepts = enqueued < capacity;
                    prop_assert_eq!(accepted, model_accepts);
                    if accepted {
                        enqueued += 1;
                        model.push_back(*v);
                    }
                }
                Op::Dequeue => {
                    let got = q.dequeue(0, seq).unwrap();
                    prop_assert_eq!(got, model.pop_front());
                }
            }
        }
        // The slot snapshot agrees with the model's consumed prefix.
        let snap = q.snapshot().unwrap();
        prop_assert_eq!(snap.len() as u64, enqueued);
        let consumed = snap.iter().filter(|s| s.is_tombstone()).count();
        prop_assert_eq!(consumed as u64, enqueued - model.len() as u64);
    }

    /// Crash at a random persistence event inside a random operation;
    /// after recovery the operation is applied exactly once (or
    /// legitimately not at all for unlinearized dequeues of an empty
    /// queue), and the queue still matches a reference model.
    #[test]
    fn random_crash_recovery_is_exactly_once(
        warmup in proptest::collection::vec(op_strategy(), 0..20),
        victim in op_strategy(),
        crash_after in 0u64..12,
    ) {
        let capacity = 64u64;
        let (pmem, q) = fixture(capacity);
        let mut seq = 0u64;
        for op in &warmup {
            seq += 1;
            match op {
                Op::Enqueue(v) => { let _ = q.enqueue(0, seq, *v).unwrap(); }
                Op::Dequeue => { let _ = q.dequeue(0, seq).unwrap(); }
            }
        }
        let before = q.snapshot().unwrap();
        let victim_seq = seq + 1;
        pmem.arm_failpoint(FailPlan::after_events(crash_after));
        let crashed = match victim {
            Op::Enqueue(v) => q.enqueue(1, victim_seq, v).is_err(),
            Op::Dequeue => q.dequeue(1, victim_seq).is_err(),
        };
        if !crashed {
            // The fail-point did not fire inside the op; nothing to
            // recover. Disarm and finish.
            pmem.disarm_failpoint();
            return Ok(());
        }
        let pmem2 = pmem.reopen().unwrap();
        let q2 = RecoverableQueue::open(pmem2, q.base(), QueueVariant::Nsrl).unwrap();
        match victim {
            Op::Enqueue(v) => {
                let ok = q2.recover_enqueue(1, victim_seq, v).unwrap();
                prop_assert!(ok, "capacity 64 cannot be exhausted here");
                let snap = q2.snapshot().unwrap();
                let mine: Vec<_> = snap.iter().filter(|s| s.pid == 1 && s.seq == victim_seq).collect();
                prop_assert_eq!(mine.len(), 1, "exactly one slot for the victim");
                prop_assert_eq!(mine[0].value, v);
                prop_assert_eq!(snap.len(), before.len() + 1);
            }
            Op::Dequeue => {
                let got = q2.recover_dequeue(1, victim_seq).unwrap();
                let full_before = before.iter().filter(|s| s.is_full()).count();
                if full_before == 0 {
                    prop_assert_eq!(got, None);
                } else {
                    // FIFO: the oldest still-full value.
                    let expect = before.iter().find(|s| s.is_full()).unwrap().value;
                    prop_assert_eq!(got, Some(expect));
                    let snap = q2.snapshot().unwrap();
                    let mine = snap
                        .iter()
                        .filter(|s| s.is_tombstone() && s.deq_pid == 1 && s.deq_seq == victim_seq)
                        .count();
                    prop_assert_eq!(mine, 1, "exactly one tombstone for the victim");
                }
            }
        }
    }

    /// Metamorphic check on the verifier: a history generated by an
    /// actual (correct) execution passes; mutating the witness — dup a
    /// slot, change a value, drop a tombstone — makes it fail.
    #[test]
    fn verifier_catches_witness_mutations(
        ops in proptest::collection::vec(op_strategy(), 2..40),
        mutation in 0usize..3,
        pick in 0usize..100,
    ) {
        let capacity = 40u64;
        let (_, q) = fixture(capacity);
        let mut history_ops = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let seq = i as u64 + 1;
            match op {
                Op::Enqueue(v) => {
                    let ok = q.enqueue(0, seq, *v).unwrap();
                    history_ops.push(QueueOp {
                        pid: 0, seq, kind: QueueOpKind::Enqueue, value: *v,
                        answer: QueueAnswer::Accepted(ok),
                    });
                }
                Op::Dequeue => {
                    let got = q.dequeue(0, seq).unwrap();
                    history_ops.push(QueueOp {
                        pid: 0, seq, kind: QueueOpKind::Dequeue, value: 0,
                        answer: QueueAnswer::Dequeued(got),
                    });
                }
            }
        }
        let snapshot: Vec<SlotWitness> = q.snapshot().unwrap().into_iter().map(|s| SlotWitness {
            value: s.value,
            pid: s.pid,
            seq: s.seq,
            dequeued_by: if s.is_tombstone() { Some((s.deq_pid, s.deq_seq)) } else { None },
        }).collect();
        let history = QueueHistory { ops: history_ops, snapshot };
        prop_assert!(check_fifo(&history).is_fifo(), "honest history must pass");

        if history.snapshot.is_empty() {
            return Ok(());
        }
        let mut mutated = history.clone();
        let i = pick % mutated.snapshot.len();
        match mutation {
            0 => {
                // Double application: duplicate a slot (same tag twice).
                let s = mutated.snapshot[i];
                mutated.snapshot.push(SlotWitness { dequeued_by: None, ..s });
            }
            1 => {
                // Value corruption.
                mutated.snapshot[i].value = mutated.snapshot[i].value.wrapping_add(1);
            }
            _ => {
                // Phantom enqueuer tag.
                mutated.snapshot[i].pid = 77;
                mutated.snapshot[i].seq = u64::MAX;
            }
        }
        prop_assert!(
            matches!(check_fifo(&mutated), FifoVerdict::NotFifo { .. }),
            "mutation {mutation} at {i} must be caught"
        );
    }
}
