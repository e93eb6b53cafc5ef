//! The §5 objects' persist budget on one quiescent buffered region with
//! one process, as equalities. Every store is a persist-store and every
//! load a persist-load, and on a quiescent region a load finds nothing
//! dirty — so each operation costs the persists cache-less NVRAM would
//! (one per line-sized store that lands), and no flush ever finds its
//! lines already durable.

use pstack_heap::PHeap;
use pstack_nvram::{PMem, PMemBuilder, POffset};
use pstack_recoverable::{
    CasVariant, QueueVariant, RecoverableCas, RecoverableCounter, RecoverableQueue, RecoverableTas,
    TaskOp, TaskResult, TaskTable,
};

fn region() -> (PMem, PHeap) {
    let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
    (pmem, heap)
}

/// Asserts `op` costs `persists` round-trips of one line each, none of
/// them redundant.
fn costs(pmem: &PMem, persists: u64, what: &str, op: impl FnOnce()) {
    let before = pmem.stats().snapshot();
    op();
    let d = pmem.stats().snapshot() - before;
    assert_eq!(
        (d.persists, d.lines_persisted, d.redundant_persists),
        (persists, persists, 0),
        "{what}: (persists, lines, redundant)"
    );
}

#[test]
fn cas_pays_its_evidence_and_its_register_and_a_failure_nothing() {
    for (variant, persists) in [(CasVariant::Nsrl, 2), (CasVariant::NoMatrix, 1)] {
        let (pmem, heap) = region();
        let cas = RecoverableCas::format(pmem.clone(), &heap, 2, 0, variant).unwrap();
        assert!(cas.cas(1, 0, 5, 1).unwrap());
        // Over another process's value: the NSRL CAS records it first.
        costs(&pmem, persists, &format!("{variant:?} success"), || {
            assert!(cas.cas(0, 5, 9, 2).unwrap());
        });
        costs(&pmem, 0, &format!("{variant:?} failure"), || {
            assert!(!cas.cas(0, 5, 7, 3).unwrap());
        });
    }
}

#[test]
fn a_cas_format_waits_two_round_trips() {
    // The heap's interior headers, then the allocation's switch ‖ the
    // zeroed matrix and the initial value: two levels, each planning at
    // most one latency however many flights it holds.
    let latency = std::time::Duration::from_millis(1);
    let pmem = PMemBuilder::new()
        .len(1 << 16)
        .flush_latency(latency)
        .build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
    let before = pmem.stats().snapshot();
    RecoverableCas::format(pmem.clone(), &heap, 4, 0, CasVariant::Nsrl).unwrap();
    let d = pmem.stats().snapshot() - before;
    assert!(
        d.async_latency_waited_ns <= 2 * latency.as_nanos() as u64,
        "more than two levels of waiting: {} ns planned",
        d.async_latency_waited_ns
    );
    assert_eq!(pmem.inflight_tickets(), 0);
}

#[test]
fn tas_win_is_one_persist_and_a_loss_none() {
    let (pmem, heap) = region();
    let tas = RecoverableTas::format(pmem.clone(), &heap).unwrap();
    costs(&pmem, 1, "win", || assert!(tas.test_and_set(1).unwrap()));
    costs(&pmem, 0, "loss", || assert!(!tas.test_and_set(2).unwrap()));
}

#[test]
fn enqueue_and_dequeue_pay_their_slot_and_their_counter() {
    let (pmem, heap) = region();
    let q = RecoverableQueue::format(pmem.clone(), &heap, 4, QueueVariant::Nsrl).unwrap();
    costs(&pmem, 2, "enqueue", || {
        assert!(q.enqueue(0, 1, 42).unwrap())
    });
    costs(&pmem, 2, "dequeue", || {
        assert_eq!(q.dequeue(1, 1).unwrap(), Some(42));
    });
}

#[test]
fn a_counter_increment_is_one_persist() {
    let (pmem, heap) = region();
    let c = RecoverableCounter::format(pmem.clone(), &heap, 2).unwrap();
    costs(&pmem, 1, "increment", || c.increment(0, 1).unwrap());
}

#[test]
fn mark_done_is_one_persist_for_every_answer() {
    let (pmem, heap) = region();
    let cas = TaskOp::Cas { old: 0, new: 1 };
    let answers = [
        (cas, TaskResult::Swapped(true)),
        (cas, TaskResult::Swapped(false)),
        (TaskOp::Enqueue(1), TaskResult::Accepted(true)),
        (TaskOp::Enqueue(2), TaskResult::Accepted(false)),
        (TaskOp::Dequeue, TaskResult::Dequeued(Some(7))),
        (TaskOp::Dequeue, TaskResult::Dequeued(None)),
    ];
    let ops = answers.map(|(op, _)| op);
    let t = TaskTable::format(pmem.clone(), &heap, &ops).unwrap();
    // The answer, then the done flag, then one flush of the entry's line.
    for (idx, (_, result)) in answers.into_iter().enumerate() {
        costs(&pmem, 1, &format!("{result:?}"), || {
            t.mark_done(idx, 1, result).unwrap();
        });
    }
}
