//! Crash-point enumeration of the admission path: a power failure at
//! **every persistence event** of a serving round — descriptor staged,
//! drain flights issued and awaited (two shards back to back), window
//! frame, group commit, answer persist, ack — in each shard region and
//! in the control region, every dirty line lost (survival 0).
//!
//! After each kill the system restarts, the persistent stacks replay,
//! and the clients retry under the contract. Checked every time:
//!
//! * **effect exactly once** — one record per request tag, whatever
//!   prefix of the round the failure kept;
//! * **no lost ack** — the retried round completes and leaves every
//!   slot answered and acked (recyclable);
//! * **no new id over a stale answer** — shard 0's slot is a recycled
//!   one (its old occupant answered and acked), shard 1's has never
//!   been used, and a reopened table shows each either as it was
//!   before the round, intact, or as the new request with the new
//!   request's own answer or none;
//! * **nothing executes over a lost descriptor** — a frame naming a
//!   slot whose descriptor never became durable is replayed over
//!   whatever the slot held before (for a never-used slot, unguarded: a
//!   phantom put of key 0 tagged `(0, 0)`); no such record ever appears.

mod common;

use common::{Shape, Stack};
use pstack_kv::{KvTaskOp, KvTaskResult};
use pstack_nvram::FailPlan;
use pstack_server::proto::req_id_for;

/// One slot per shard: the round under test must recycle shard 0's.
const SHAPE: Shape = Shape {
    shards: 2,
    table_cap: 1,
    queue_cap: 4,
    batch: 4,
};

/// Shard 0's old occupant: a delete of an absent key,
/// `Deleted(false)`. Shard 1's slot stays never-used (request id 0).
fn old_round(s: &Stack) -> (u64, KvTaskOp) {
    let key = s.key_on(0, 5);
    (req_id_for(1, 1), KvTaskOp::Delete { key })
}

/// The round under test: one put per shard, `Stored(true)`.
fn new_round(s: &Stack) -> Vec<(u64, KvTaskOp)> {
    (0..2)
        .map(|shard| {
            let (key, value) = (s.key_on(shard, 0), 40 + shard as i64);
            (
                req_id_for(2, shard as u32 + 1),
                KvTaskOp::Put { key, value },
            )
        })
        .collect()
}

fn primed() -> Stack {
    let s = Stack::format(SHAPE);
    let old = s.serve(&[old_round(&s)]).expect("no failure armed");
    assert_eq!(old[0].result, KvTaskResult::Deleted(false));
    s
}

/// `region`: 0 = control, 1 + shard otherwise (the order of
/// [`Stack::events`]).
fn arm(s: &Stack, region: usize, countdown: u64) {
    let plan = FailPlan::after_events(countdown);
    match region {
        0 => s.rt.control().arm_failpoint(plan),
        r => s.region(r - 1).arm_failpoint(plan),
    }
}

#[test]
fn a_power_failure_at_every_event_of_a_round_keeps_exactly_once() {
    // How many events the round spends in each region, unarmed.
    let s = primed();
    let before = s.events();
    s.serve(&new_round(&s)).expect("no failure armed");
    let spent: Vec<u64> = s
        .events()
        .iter()
        .zip(&before)
        .map(|(now, then)| now - then)
        .collect();
    assert!(spent.iter().all(|&n| n > 0), "every region takes part");

    let mut recycled_and_pending = 0usize;
    for (region, &total) in spent.iter().enumerate() {
        for k in 0..total {
            let s = primed();
            let (old, new) = ([old_round(&s).0, 0], new_round(&s));
            arm(&s, region, k);
            assert!(
                s.serve(&new).is_none(),
                "region {region} event {k}: the failure must show in the round it hits"
            );

            let s = s.power_cycle();
            assert!(
                s.records_of(0).is_empty(),
                "region {region} event {k}: a window ran over a never-used slot"
            );
            for (shard, (&old_id, &(new_id, _))) in old.iter().zip(&new).enumerate() {
                let table = s.table(shard);
                let at = format!("region {region} event {k} shard {shard}");
                match table.req_id(0).unwrap() {
                    id if id == old_id => {
                        // The staged descriptor never became durable:
                        // the slot is as it was (the old occupant
                        // intact and recyclable, or never used), and
                        // nothing was promised to the new request.
                        let before = table.result(0).unwrap().map(|a| a.result);
                        let expect = (old_id != 0).then_some(KvTaskResult::Deleted(false));
                        assert_eq!(before, expect, "{at}");
                        assert_eq!(table.acked(0).unwrap(), old_id != 0, "{at}");
                        assert_eq!(table.live(), 0, "{at}");
                        assert!(
                            s.records_of(new_id).is_empty(),
                            "{at}: effect without descriptor"
                        );
                    }
                    id if id == new_id => match table.result(0).unwrap() {
                        None => recycled_and_pending += 1,
                        Some(answer) => {
                            // Never the old occupant's answer under the
                            // new id — and an answer implies its effect.
                            assert_eq!(answer.result, KvTaskResult::Stored(true), "{at}");
                            assert_eq!(s.records_of(new_id).len(), 1, "{at}");
                        }
                    },
                    other => panic!("{at}: torn identity {other:#x}"),
                }
            }

            // The clients retry the round (same ids) until it is done.
            let answers = s.serve(&new).expect("no failure armed after the restart");
            for (shard, (&(new_id, op), answer)) in new.iter().zip(&answers).enumerate() {
                let at = format!("region {region} event {k} shard {shard}");
                assert_eq!(answer.result, KvTaskResult::Stored(true), "{at}");
                assert_eq!(s.records_of(new_id).len(), 1, "{at}: exactly one effect");
                let KvTaskOp::Put { key, value } = op else {
                    unreachable!()
                };
                assert_eq!(s.store().get(key).unwrap(), Some(value), "{at}");
                assert!(s.table(shard).acked(0).unwrap(), "{at}: lost ack");
                assert_eq!(s.table(shard).live(), 0, "{at}: slot must be recyclable");
            }
            // A read after the dust settles is answered at admission
            // and sees the one effect.
            let KvTaskOp::Put { key, value } = new[0].1 else {
                unreachable!()
            };
            let read = s
                .serve(&[(req_id_for(3, 1), KvTaskOp::Get { key })])
                .unwrap();
            assert_eq!(read[0].result, KvTaskResult::Got(Some(value)));
            s.assert_psan_clean();
        }
    }
    assert!(
        recycled_and_pending > 0,
        "some crash points must land between the drain persist and the answer"
    );
}

#[test]
fn a_failed_drain_persist_shows_in_the_run_that_follows() {
    // The kill lands exactly on the drain's flight for shard 0 (the
    // first event after the descriptors are staged). `drain_tasks` has
    // no error channel, so both windows are handed out: shard 0's trips
    // the system at its first access — the run that follows the drain
    // reports the power failure, nobody waits for another request to
    // happen upon the dead region. Its frame is durable over a
    // descriptor that is not, and recovery replays it over the slot's
    // old occupant without executing anything.
    let s = primed();
    let new = new_round(&s);
    for &(req_id, op) in &new {
        s.core.submit(req_id, op).unwrap();
    }
    s.region(0).arm_failpoint(FailPlan::after_events(0));
    let (tasks, ids) = s.core.drain_tasks();
    assert_eq!(tasks.len(), 2, "every drained window is handed out");
    assert_eq!(ids.len(), 2);
    assert!(s.region(0).is_crashed());
    assert!(
        s.rt.run_tasks(tasks).crashed,
        "the window meets the dead region"
    );
    assert!(s.rt.all_crashed(), "and takes the whole system down");

    let s = s.power_cycle();
    assert_eq!(
        s.table(0).req_id(0).unwrap(),
        req_id_for(1, 1),
        "old occupant"
    );
    assert!(s.records_of(new[0].0).is_empty());
    assert!(s.records_of(0).is_empty(), "no phantom put of key 0");
    let answers = s.serve(&new).unwrap();
    assert!(answers
        .iter()
        .all(|a| a.result == KvTaskResult::Stored(true)));
    assert_eq!(s.records_of(new[0].0).len(), 1);
    assert_eq!(
        s.records_of(new[1].0).len(),
        1,
        "a retry of a done request dedups"
    );
}

#[test]
fn a_lone_window_whose_descriptor_was_lost_still_surfaces_the_failure() {
    // One put, one window, the kill on its drain flight — and this time
    // the slot has never been used, so the replayed frame finds request
    // id 0 there: it must skip it, not execute a put of key 0.
    let s = primed();
    let (req_id, op) = new_round(&s)[1];
    assert_eq!(s.table(1).req_id(0).unwrap(), 0, "never used");
    s.core.submit(req_id, op).unwrap();
    s.region(1).arm_failpoint(FailPlan::after_events(0));
    let (tasks, _) = s.core.drain_tasks();
    assert_eq!(
        tasks.len(),
        1,
        "a loop that runs only non-empty rounds must see it"
    );
    assert!(s.rt.run_tasks(tasks).crashed);

    let s = s.power_cycle();
    assert_eq!(s.table(1).req_id(0).unwrap(), 0, "the descriptor was lost");
    assert!(s.records_of(0).is_empty(), "no phantom put of key 0");
    assert!(s.records_of(req_id).is_empty());
    let answers = s.serve(&[(req_id, op)]).unwrap();
    assert_eq!(answers[0].result, KvTaskResult::Stored(true));
    assert_eq!(s.records_of(req_id).len(), 1);
}
