//! The §5 objects' persist budget on one quiescent buffered region with
//! one process, as equalities. Every store is a persist-store and every
//! load a persist-load, and on a quiescent region a load finds nothing
//! dirty — so each operation costs the persists cache-less NVRAM would
//! (one per line-sized store that lands), and no flush ever finds its
//! lines already durable.

use pstack_heap::PHeap;
use pstack_nvram::{PMem, PMemBuilder, POffset};
use pstack_recoverable::{
    CasVariant, QueueOpTable, QueueTaskOp, QueueTaskResult, QueueVariant, RecoverableCas,
    RecoverableCounter, RecoverableQueue, RecoverableTas, TaskTable,
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
fn mark_done_persists_each_answer_field() {
    let (pmem, heap) = region();
    let t = TaskTable::format(pmem.clone(), &heap, &[(0, 1)]).unwrap();
    costs(&pmem, 1, "task table", || t.mark_done(0, true).unwrap());
    let ops = [
        QueueTaskOp::Enqueue(1),
        QueueTaskOp::Dequeue,
        QueueTaskOp::Dequeue,
    ];
    let t = QueueOpTable::format(pmem.clone(), &heap, &ops).unwrap();
    // Executor, result, then the done flag; a dequeued value adds one.
    for (idx, result, persists) in [
        (0, QueueTaskResult::Accepted(true), 3),
        (1, QueueTaskResult::Dequeued(Some(7)), 4),
        (2, QueueTaskResult::Dequeued(None), 3),
    ] {
        costs(&pmem, persists, &format!("{result:?}"), || {
            t.mark_done(idx, 1, result).unwrap();
        });
    }
}
