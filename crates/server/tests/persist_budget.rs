//! The served path's persist budget, as **equalities**.
//!
//! One device round-trip per ordered persist is the whole cost model,
//! so every persist a served request pays is written down here and
//! counted: a read pays none, a round's one window pays 1 for its stack
//! frame (3 once the frame outgrows the dummy frame's line) however
//! many shards it names, and per shard 1 for its slots' lines — each
//! descriptor persisting with its answer, once per shard per window,
//! not per request — 2 for its group commit's records and header, and
//! 1 more for the heads the shard's previous commit flipped (when it
//! left any); an ack pays 1 for its mark, a shed and a drain pay
//! nothing. The frame's 1 is its `CALL`: the window's `RET` is retired
//! into the next round's `CALL`, whose persist carries the pop in the
//! same line. A change that adds a round-trip to the exactly-once path
//! fails this file before it reaches the benchmark.
//!
//! *When* each persist is awaited is written down too: the window's
//! `CALL` is a flight, issued as the window starts, and every shard's
//! slots, records, header and previous heads are issued into the
//! window's one level beside it; the window awaits the frame and the
//! level once, flips its heads on the receipt and returns its answers.
//! So a lone put **blocks** on 1 round-trip (`CALL` ‖ slot ‖ records ‖
//! header ‖ heads), and so does a round over four shards. A round's
//! acks are one level of marks that nothing awaits: an ack round blocks
//! on nothing, and a round that also runs a window on nothing more.
//! Every persist on the path is a flight, so the blocking is the waits
//! the regions plan (`async_latency_waited_ns`, control and shards
//! summed), which no host load can inflate: a sleep never undershoots.

mod common;

use std::time::Duration;

use common::{Shape, Stack};
use pstack_kv::{KvTaskOp, KvTaskResult};
use pstack_nvram::{PMemBuilder, StatsSnapshot};
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

/// What a stretch blocked on: the waits its regions planned, control
/// and shards summed — never inflated by host load.
fn waited_ns(control: &StatsSnapshot, stripe: &StatsSnapshot) -> u64 {
    control.async_latency_waited_ns + stripe.async_latency_waited_ns
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
    assert_eq!(
        (control.persists, stripe.persists, stripe.async_flushes),
        (0, 0, 0),
        "the drain persists nothing"
    );

    let mid = s.stats();
    assert!(!s.rt.run_tasks(tasks).crashed);
    let (_, stripe) = delta(&s, mid);
    assert_eq!(
        (
            stripe.persists,
            stripe.async_flushes,
            stripe.lines_persisted
        ),
        (1 + 2, 3, 6 + 6 + 1),
        "six descriptors with their answers, one coalesced flight; the group commit's \
         records and header"
    );

    // Two shards drained together: one window naming both, and one slot
    // flight a shard.
    for (i, shard) in [(10u32, 0usize), (11, 1), (12, 0), (13, 1)] {
        let key = s.key_on(shard, i as usize);
        s.core
            .submit(req_id_for(1, i), KvTaskOp::Delete { key })
            .unwrap();
    }
    let mid = s.stats();
    let (tasks, _) = s.core.drain_tasks();
    assert_eq!(tasks.len(), 1);
    assert!(!s.rt.run_tasks(tasks).crashed);
    let (_, stripe) = delta(&s, mid);
    assert_eq!(
        (stripe.persists, stripe.lines_persisted),
        (2, 4),
        "per shard its slots' flight (the deletes find nothing to delete, so \
         nothing to commit)"
    );
}

#[test]
fn a_lone_put_costs_five_persists_end_to_end() {
    // Every region charged one round-trip per persist, so the blocking
    // bound below is in real units.
    const LATENCY: Duration = Duration::from_millis(1);
    let s = Stack::format_with(SHAPE, PMemBuilder::new().flush_latency(LATENCY));
    let (req, key) = (req_id_for(1, 1), s.key_on(1, 0));

    let t0 = s.stats();
    assert_eq!(
        s.core.submit(req, KvTaskOp::Put { key, value: 9 }).unwrap(),
        Submission::Queued
    );
    let (tasks, ids) = s.core.drain_tasks();
    let (control, stripe) = delta(&s, t0);
    assert_eq!(
        (control.persists, stripe.persists, stripe.async_flushes),
        (0, 0, 0),
        "the descriptor is staged; the drain persists nothing"
    );

    let t1 = s.stats();
    let report = s.rt.run_tasks(tasks);
    assert!(!report.crashed && report.task_errors == 0);
    let (control, stripe) = delta(&s, t1);
    assert_eq!(
        (control.persists, control.lines_persisted),
        (1, 1),
        "the frame, once five steps (clear the caller's slot, frame, marker flip, \
         write the caller's slot, pop flip), is one: CALL = frame + slot clear + flip \
         in the dummy frame's line; RET (unit return + pop flip, same line) is \
         written and retired into the next CALL's persist"
    );
    assert_eq!(
        (stripe.persists, stripe.async_flushes),
        (3, 3),
        "the slot (descriptor and answer), the records and the header — every stripe \
         persist a flight; the shard had no earlier heads to persist"
    );

    // Blocking: every persist a flight — the CALL too, issued as the
    // window starts — and the window awaits them once: CALL ‖ slot ‖
    // records ‖ header, one latency summed over every region.
    let (control, stripe) = delta(&s, t0);
    assert_eq!(
        (control.persists, control.async_flushes),
        (1, 1),
        "the one control persist is a flight: 0 synchronous"
    );
    assert!(
        waited_ns(&control, &stripe) <= LATENCY.as_nanos() as u64,
        "a lone put blocked on more than 1 round-trip: {} ns waited on flights",
        waited_ns(&control, &stripe)
    );

    let t2 = s.stats();
    let answers = s.core.answers_for(&ids).unwrap();
    assert_eq!(answers[0].1.unwrap().result, KvTaskResult::Stored(true));
    // The ack writes its mark and issues it, then the next round's
    // empty drain: a flight nothing awaits, so the ack waits for
    // nothing. It lands with its region's next await — here a fence.
    assert!(s.core.ack(req).unwrap());
    assert!(s.core.drain_tasks().0.is_empty());
    let (control, stripe) = delta(&s, t2);
    assert_eq!(
        (
            stripe.writes,
            stripe.async_flushes,
            control.persists + stripe.persists
        ),
        (1, 1, 0),
        "ack: its mark written and issued, nothing awaited"
    );
    assert_eq!(waited_ns(&control, &stripe), 0, "the ack waits for nothing");
    for shard in 0..SHAPE.shards {
        s.region(shard).fence();
    }
    let (control, stripe) = delta(&s, t2);
    assert_eq!((control.persists, stripe.persists), (0, 1), "the mark");

    let (control, stripe) = delta(&s, t0);
    assert_eq!(control.persists + stripe.persists, 5);
    assert_eq!(control.redundant_persists + stripe.redundant_persists, 0);
    s.assert_psan_clean();
}

#[test]
fn a_four_shard_round_is_one_frame_and_one_round_trip() {
    // A round that touches every shard is one window: one frame, and
    // the four shards' group commits in its one level — the lone put's
    // 1 blocking round-trip, not 1 per shard, and 1 control persist per
    // round, not per shard.
    const LATENCY: Duration = Duration::from_millis(1);
    let shape = Shape { shards: 4, ..SHAPE };
    let s = Stack::format_with(shape, PMemBuilder::new().flush_latency(LATENCY));
    let put = |seq: u32, shard: usize, nth: usize| {
        let key = s.key_on(shard, nth);
        let req = req_id_for(1, seq);
        let op = KvTaskOp::Put { key, value: 1 };
        assert_eq!(s.core.submit(req, op).unwrap(), Submission::Queued);
    };
    let round = || {
        let (tasks, ids) = s.core.drain_tasks();
        assert_eq!(tasks.len(), 1, "one task for the whole round");
        let report = s.rt.run_tasks(tasks);
        assert!(!report.crashed && report.task_errors == 0);
        for (req, answer) in s.core.answers_for(&ids).unwrap() {
            assert_eq!(
                answer.unwrap().result,
                KvTaskResult::Stored(true),
                "{req:#x}"
            );
        }
    };

    let t0 = s.stats();
    for shard in 0..4 {
        put(shard as u32 + 1, shard, 0);
    }
    round();
    let (control, stripe) = delta(&s, t0);
    assert_eq!(
        (control.persists, control.async_flushes),
        (1, 1),
        "one CALL for four shards, a flight, its RET retired: the frame (4 one-slot \
         parts, 12 bytes) shares the dummy frame's line"
    );
    assert_eq!(
        (stripe.persists, stripe.async_flushes),
        (4 * 3, 12),
        "4 slot flights + 4 × 2 commit flights (records, header)"
    );
    assert!(
        waited_ns(&control, &stripe) <= LATENCY.as_nanos() as u64,
        "a four-shard round blocked on more than 1 round-trip: {} ns waited on flights",
        waited_ns(&control, &stripe)
    );

    // The rounds that follow: each CALL carries the round before's
    // retired pop in the one line it persists — one slot a shard again,
    // or two (a 16-byte frame, still in the dummy frame's line). Four a
    // shard make 24 bytes, past it: the pending pop is flushed before
    // the frame's bytes are written, then the frame ahead of the flip —
    // the 3 a wide round paid before the pop was retired.
    let mut seq = 10;
    let mut nth = 1;
    for (per_shard, frame) in [(1, (1, 1)), (2, (1, 1)), (4, (3, 4))] {
        let t = s.stats();
        for _ in 0..per_shard {
            for shard in 0..4 {
                seq += 1;
                put(seq, shard, nth);
            }
            nth += 1;
        }
        round();
        let (control, stripe) = delta(&s, t);
        assert_eq!(
            (control.persists, control.lines_persisted),
            frame,
            "{per_shard} slots a shard"
        );
        assert_eq!(
            stripe.persists,
            4 * 4,
            "{per_shard} slots a shard: slots, records, header, the round before's heads"
        );
    }
    s.assert_psan_clean();
}

#[test]
fn a_round_of_acks_is_one_level() {
    // Acks on four shards, plus two more on one of them: one mark each,
    // all issued into one level that nothing in the round awaits.
    const LATENCY: Duration = Duration::from_millis(1);
    let shape = Shape { shards: 4, ..SHAPE };
    let s = Stack::format_with(shape, PMemBuilder::new().flush_latency(LATENCY));
    let mut seq = 0;
    let mut nth = [0usize; 4];
    let mut submit_puts = |shards: &[usize]| -> Vec<u64> {
        let mut reqs = Vec::new();
        for &shard in shards {
            seq += 1;
            let (req, key) = (req_id_for(1, seq), s.key_on(shard, nth[shard]));
            nth[shard] += 1;
            let op = KvTaskOp::Put { key, value: 1 };
            assert_eq!(s.core.submit(req, op).unwrap(), Submission::Queued);
            reqs.push(req);
        }
        reqs
    };
    let run_window = || {
        let (tasks, ids) = s.core.drain_tasks();
        assert_eq!(tasks.len(), 1, "one window");
        let report = s.rt.run_tasks(tasks);
        assert!(!report.crashed && report.task_errors == 0);
        for (req, answer) in s.core.answers_for(&ids).unwrap() {
            assert_eq!(
                answer.unwrap().result,
                KvTaskResult::Stored(true),
                "{req:#x}"
            );
        }
    };
    let six = [0, 1, 2, 3, 0, 0];

    // An ack-only round: six marks written and issued, none awaited.
    let acked = submit_puts(&six);
    run_window();
    let t = s.stats();
    for &req in &acked {
        assert!(s.core.ack(req).unwrap());
    }
    assert!(s.core.drain_tasks().0.is_empty());
    let (control, stripe) = delta(&s, t);
    assert_eq!(
        (
            stripe.writes,
            stripe.async_flushes,
            control.persists + stripe.persists
        ),
        (6, 6, 0),
        "six marks issued, none awaited"
    );
    assert_eq!(
        waited_ns(&control, &stripe),
        0,
        "an ack round waits for nothing"
    );
    assert!(
        (0..4).all(|shard| s.table(shard).live() == 0),
        "every slot recyclable"
    );
    // The level lands with each region's next await — here a fence.
    for shard in 0..4 {
        s.region(shard).fence();
    }
    let (control, stripe) = delta(&s, t);
    assert_eq!((control.persists, stripe.persists), (0, 6), "one per ack");
    assert_eq!(control.redundant_persists + stripe.redundant_persists, 0);

    // The same acks in a round that also runs a window: they ride
    // beside it, and its await lands them at no cost of their own — its
    // 1 round-trip and none more.
    let acked = submit_puts(&six);
    run_window();
    let t = s.stats();
    for &req in &acked {
        assert!(s.core.ack(req).unwrap());
    }
    submit_puts(&[0, 1, 2, 3]);
    run_window();
    let (control, stripe) = delta(&s, t);
    assert_eq!(
        stripe.persists,
        6 + 4 * 4,
        "the acks, then the four-shard round's slots, records, headers and the \
         round before's heads"
    );
    assert_eq!(control.redundant_persists + stripe.redundant_persists, 0);
    assert!(
        waited_ns(&control, &stripe) <= LATENCY.as_nanos() as u64,
        "acks beside a window blocked it past 1 round-trip: {} ns waited on flights",
        waited_ns(&control, &stripe)
    );
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
