//! The served path's persist budget, as **equalities**.
//!
//! One device round-trip per ordered persist is the whole cost model,
//! so every persist a served request pays is written down here and
//! counted: a read pays none, a mutation pays its descriptor once per
//! *drain* (not per request), a window pays 2 for its stack frame (3
//! once the frame outgrows the dummy frame's line), 4 for its group
//! commit and 1 for its answers, an ack pays 1, a shed pays nothing. A
//! change that adds a round-trip to the exactly-once path fails this
//! file before it reaches the benchmark.

mod common;

use common::{Shape, Stack};
use pstack_kv::{KvTaskOp, KvTaskResult};
use pstack_nvram::StatsSnapshot;
use pstack_server::proto::req_id_for;
use pstack_server::{Submission, ADMISSION_EXECUTOR};

const SHAPE: Shape = Shape {
    shards: 2,
    table_cap: 16,
    queue_cap: 8,
    batch: 8,
};

fn delta(s: &Stack, before: (StatsSnapshot, StatsSnapshot)) -> (StatsSnapshot, StatsSnapshot) {
    let now = s.stats();
    (now.0 - before.0, now.1 - before.1)
}

#[test]
fn a_served_get_persists_nothing_on_a_quiescent_store() {
    let s = Stack::format(SHAPE);
    let key = s.key_on(0, 0);
    s.serve(&[(req_id_for(1, 1), KvTaskOp::Put { key, value: 5 })])
        .unwrap();

    let (before, events) = (s.stats(), s.events());
    for (seq, (key, expect)) in [(key, Some(5)), (s.key_on(1, 0), None)]
        .into_iter()
        .enumerate()
    {
        let answers = s
            .serve(&[(req_id_for(2, seq as u32 + 1), KvTaskOp::Get { key })])
            .unwrap();
        assert_eq!(answers[0].result, KvTaskResult::Got(expect));
        assert_eq!(answers[0].executor, ADMISSION_EXECUTOR);
    }
    // Submit, drain, answers_for, ack — the whole round of a read:
    // no persist, no line, no flush call, no write, no event, anywhere.
    let (control, stripe) = delta(&s, before);
    for d in [control, stripe] {
        assert_eq!((d.persists, d.lines_persisted), (0, 0));
        assert_eq!((d.flush_calls, d.redundant_persists, d.writes), (0, 0, 0));
    }
    assert_eq!(s.events(), events);
    assert_eq!(s.table(0).live() + s.table(1).live(), 0, "no slot either");
}

#[test]
fn fresh_puts_to_one_shard_drained_together_persist_one_descriptor_line_set() {
    let s = Stack::format(SHAPE);
    let before = s.stats();
    for i in 0..6u32 {
        let key = s.key_on(0, i as usize);
        assert_eq!(
            s.core
                .submit(req_id_for(1, i + 1), KvTaskOp::Put { key, value: 1 })
                .unwrap(),
            Submission::Queued
        );
    }
    let (control, stripe) = delta(&s, before);
    assert_eq!(
        (control.persists, stripe.persists, stripe.flush_calls),
        (0, 0, 0),
        "submit only stages"
    );

    let (tasks, ids) = s.core.drain_tasks();
    assert_eq!((tasks.len(), ids.len()), (1, 6));
    let (control, stripe) = delta(&s, before);
    assert_eq!(control.persists, 0);
    assert_eq!(
        (
            stripe.persists,
            stripe.lines_persisted,
            stripe.async_flushes
        ),
        (1, 6, 1),
        "six descriptors, one coalesced persist"
    );

    // Two shards drained together: one flight each, issued back to
    // back — still one persist per shard for the whole drain.
    for (i, shard) in [(10u32, 0usize), (11, 1), (12, 0), (13, 1)] {
        let key = s.key_on(shard, i as usize);
        s.core
            .submit(req_id_for(1, i), KvTaskOp::Delete { key })
            .unwrap();
    }
    let mid = s.stats();
    let (tasks, _) = s.core.drain_tasks();
    assert_eq!(tasks.len(), 2);
    let (_, stripe) = delta(&s, mid);
    assert_eq!((stripe.persists, stripe.lines_persisted), (2, 4));
}

#[test]
fn a_lone_put_costs_nine_persists_end_to_end() {
    let s = Stack::format(SHAPE);
    let (req, key) = (req_id_for(1, 1), s.key_on(1, 0));

    let t0 = s.stats();
    assert_eq!(
        s.core.submit(req, KvTaskOp::Put { key, value: 9 }).unwrap(),
        Submission::Queued
    );
    let (tasks, ids) = s.core.drain_tasks();
    let (control, stripe) = delta(&s, t0);
    assert_eq!((control.persists, stripe.persists), (0, 1), "descriptor");

    let t1 = s.stats();
    let report = s.rt.run_tasks(tasks);
    assert!(!report.crashed && report.task_errors == 0);
    let (control, stripe) = delta(&s, t1);
    assert_eq!(
        (control.persists, control.lines_persisted),
        (2, 2),
        "the frame, once five steps (clear the caller's slot, frame, marker flip, \
         write the caller's slot, pop flip), is two: CALL = frame + slot clear + flip \
         in the dummy frame's line, RET = unit return + pop flip in the same line"
    );
    assert_eq!(
        stripe.persists, 5,
        "group commit (records, tail, head, epoch) + one answer persist"
    );

    let t2 = s.stats();
    let answers = s.core.answers_for(&ids).unwrap();
    assert_eq!(answers[0].1.unwrap().result, KvTaskResult::Stored(true));
    assert!(s.core.ack(req).unwrap());
    let (control, stripe) = delta(&s, t2);
    assert_eq!((control.persists, stripe.persists), (0, 1), "ack");

    let (control, stripe) = delta(&s, t0);
    assert_eq!(control.persists + stripe.persists, 9);
    assert_eq!(control.redundant_persists + stripe.redundant_persists, 0);
    s.assert_psan_clean();
}

#[test]
fn a_queue_full_shed_writes_and_persists_nothing() {
    let s = Stack::format(Shape {
        queue_cap: 2,
        ..SHAPE
    });
    for i in 0..2u32 {
        let key = s.key_on(0, i as usize);
        s.core
            .submit(req_id_for(1, i + 1), KvTaskOp::Put { key, value: 1 })
            .unwrap();
    }
    let (before, events, live) = (s.stats(), s.events(), s.table(0).live());
    let shed = req_id_for(1, 3);
    let key = s.key_on(0, 2);
    assert_eq!(
        s.core
            .submit(shed, KvTaskOp::Put { key, value: 1 })
            .unwrap(),
        Submission::Overloaded
    );
    let (control, stripe) = delta(&s, before);
    for d in [control, stripe] {
        assert_eq!((d.persists, d.lines_persisted, d.writes), (0, 0, 0));
    }
    assert_eq!(s.events(), events);
    assert_eq!(s.table(0).live(), live, "shed before claim: no slot pinned");
    assert!(!s.table(0).contains(shed));
    assert_eq!(s.core.shed(), 1);

    // A retry of an id already in the table is still answered from it,
    // however full the queue.
    s.serve(&[]).unwrap(); // drains and runs the two queued puts
    for i in 0..2u32 {
        let key = s.key_on(0, 10 + i as usize);
        s.core
            .submit(req_id_for(2, i + 1), KvTaskOp::Put { key, value: 1 })
            .unwrap();
    }
    let key = s.key_on(0, 0);
    assert!(matches!(
        s.core
            .submit(req_id_for(1, 1), KvTaskOp::Put { key, value: 1 })
            .unwrap(),
        Submission::Answered(_)
    ));
}
