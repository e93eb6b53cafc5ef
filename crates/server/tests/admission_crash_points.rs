//! Crash-point enumeration of the admission path: a power failure at
//! **every persistence event** of a serving round that touches four
//! shards — descriptors staged, the round's one window frame issued,
//! the four group commits staged under it, every shard's slots (each
//! descriptor with its answer), records, header and previous heads
//! issued into the window's one level, the level awaited, acks — in
//! each shard region and in the control region, under every survivor
//! choice of the crash sweep (`pstack_nvram::sweep`: none, all, four
//! seeded halves).
//!
//! After each kill the system restarts, the persistent stacks replay,
//! and the clients retry under the contract. Checked every time:
//!
//! * **effect exactly once** — one record per request tag, whatever
//!   prefix of the round the failure kept;
//! * **no lost ack** — the retried round completes and leaves every
//!   slot answered and acked (recyclable);
//! * **no new id over a stale answer** — shard 0's slot is a recycled
//!   one (its old occupant answered and acked by another client, its
//!   mark landed before the recycle), shards 1–3's have never been
//!   used, and a reopened table shows each either as it was before the
//!   round, intact and recyclable, or as the new request with the new
//!   request's own answer or none;
//! * **nothing executes over a lost descriptor** — a frame naming a
//!   slot whose descriptor never became durable is replayed over
//!   whatever the slot held before (for a never-used slot, unguarded: a
//!   phantom put of key 0 tagged `(0, 0)`); no such record ever appears;
//! * **one frame** — the round is one window, so a power cycle replays
//!   at most one frame.
//!
//! A second sweep cuts the `CALL` in flight over records and tail a
//! shard kept, with the frame's line lost and kept (sixteen seeded
//! halves reach both) — a record of the round is reachable only with
//! its descriptor, and each retry is answered exactly once.
//!
//! A completed round's window leaves its `RET` retired into the next
//! round's `CALL`, so a power failure anywhere between the two replays
//! the completed window — after the round in between has acked its
//! request, recycled its slot and admitted a new request into it. The
//! third sweep fails at every event of such a round, in the control
//! region and the shard's, under every survivor choice: each request
//! still has exactly one effect and one durable answer.
//!
//! An ack's `AckOk` waits for nothing: the ack writes the slot's mark,
//! and issues it as a flight that nothing awaits. The
//! ack-round sweep fails at every event of an ack round — two shards'
//! acks, with and without another client's put admitted into the slot
//! one of them freed — and once past its end, under every survivor
//! choice. Each slot reopens as its old
//! occupant, acked or pinned (its mark cut in flight — never where a
//! confirmed ack's line was kept), free, or the new put's; no slot stays
//! pinned past its client's next request; each request has one effect,
//! and a retransmission of an acked id is shed `Stale`, never run
//! again. Two more tests follow a mark cut in flight to the client's
//! next request, and a client that acks and goes quiet in a table with
//! fewer slots than clients.

mod common;

use common::{Shape, Stack};
use pstack_core::PError;
use pstack_kv::{KvTaskOp, KvTaskResult};
use pstack_nvram::{sweep, FailPlan, Image, MemError, Survivors, Sweep};
use pstack_server::proto::{req_id_for, Request, RequestBody, Response};
use pstack_server::{serve_round, Submission};

/// One slot per shard: the round under test must recycle shard 0's.
const SHAPE: Shape = Shape {
    shards: 4,
    table_cap: 1,
    queue_cap: 4,
    batch: 4,
};

/// Shard 0's old occupant: a delete of an absent key,
/// `Deleted(false)`. Shards 1–3's slots stay never-used (request id 0).
fn old_round(s: &Stack) -> (u64, KvTaskOp) {
    let key = s.key_on(0, 5);
    (req_id_for(1, 1), KvTaskOp::Delete { key })
}

/// The round under test: one put per shard, `Stored(true)`.
fn new_round(s: &Stack) -> Vec<(u64, KvTaskOp)> {
    (0..SHAPE.shards)
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
    s.regions()[region].arm_failpoint(FailPlan::after_events(countdown));
}

#[test]
fn a_power_failure_at_every_event_of_a_round_keeps_exactly_once() {
    // Per shard, the crash points in its region that leave the window's
    // frame durable over a lost descriptor: the descriptor flies with
    // its answer, in the level the frame shares.
    let mut frame_over_cut_flight = [0usize; SHAPE.shards];
    let probe = primed();
    let (old, new) = ([old_round(&probe).0, 0, 0, 0], new_round(&probe));
    let events = sweep(
        primed,
        |s| s.serve(&new).ok_or("the power failed"),
        |s, cut| {
            let s = s.power_cycle();
            assert!(
                s.replayed <= 1,
                "{cut}: {} frames replayed for one round",
                s.replayed
            );
            assert!(
                s.records_of(0).is_empty(),
                "{cut}: a window ran over a never-used slot"
            );
            if cut.returned() {
                // Every request answered once; its acks' marks may be
                // cut in flight (the ack-round sweep follows those).
                for &(new_id, _) in &new {
                    assert_eq!(s.records_of(new_id).len(), 1, "{cut}: exactly one effect");
                }
                return;
            }
            for (shard, (&old_id, &(new_id, _))) in old.iter().zip(&new).enumerate() {
                let table = s.table(shard);
                let at = format!("{cut} shard {shard}");
                match table.req_id(0).unwrap() {
                    id if id == old_id => {
                        // The staged descriptor never became durable:
                        // the slot is as it was (the old occupant
                        // intact and recyclable — its mark landed
                        // before the recycle — or never used), and
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
                        if cut.region == 1 + shard && s.replayed > 0 {
                            frame_over_cut_flight[shard] += 1;
                        }
                    }
                    id if id == new_id => match table.result(0).unwrap() {
                        None => {}
                        Some(answer) => {
                            // Never the old occupant's answer under the
                            // new id — and an answer implies its effect.
                            assert_eq!(answer.result, KvTaskResult::Stored(true), "{at}");
                            assert_eq!(s.records_of(new_id).len(), 1, "{at}");
                        }
                    },
                    // The recycle's first store kept alone: a free slot,
                    // nothing promised to the new request.
                    0 => {
                        assert_ne!(cut.survivors, Survivors::None, "{at}");
                        assert_eq!(table.live(), 0, "{at}");
                        assert!(
                            s.records_of(new_id).is_empty(),
                            "{at}: effect without descriptor"
                        );
                    }
                    other => panic!("{at}: torn identity {other:#x}"),
                }
            }

            // The clients retry the round (same ids) until it is done.
            let answers = s.serve(&new).expect("no failure armed after the restart");
            for (shard, (&(new_id, op), answer)) in new.iter().zip(&answers).enumerate() {
                let at = format!("{cut} shard {shard}");
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
            s.assert_psan_clean_after(cut);
        },
    );
    assert!(events.iter().all(|&n| n > 0), "every region takes part");
    assert!(
        frame_over_cut_flight.iter().all(|&n| n > 0),
        "each shard region must be cut between its window's CALL and its level's \
         await: {frame_over_cut_flight:?}"
    );
}

#[test]
fn a_call_cut_in_flight_publishes_records_only_with_their_descriptors() {
    // A window's CALL, its slots' lines and its group commits share one
    // level. Cut the power at every event of shard 0's region in the
    // round, under every survivor choice — shard 0's records and tail
    // durable as far as they were written when its lines are kept, and
    // the control region's CALL line lost or kept. Wherever the CALL was
    // still in flight, a record of the round is reachable on the
    // reopened store only if its descriptor is durable too, with the
    // frame or without it; the replay (frame kept) or the retry (frame
    // lost) answers each request exactly once.
    let probe = primed();
    let new = new_round(&probe);
    let reserved = probe.store().log_reserved_per_shard().unwrap()[0];
    // The round's window, as its frame names it.
    for &(req_id, op) in &new {
        probe.core.submit(req_id, op).unwrap();
    }
    let window = probe.core.drain_tasks().0.remove(0).args;

    // [frame lost, frame kept]: cuts of a CALL in flight over shard
    // 0's durable records and tail.
    let mut over_durable_records = [0usize; 2];
    // Sixteen halves: a frame lost over durable records needs shard 0's
    // header line kept and the control region's CALL line lost, which
    // four halves at the few events of a CALL in flight may all miss.
    let survivors = Survivors::halves(16);
    Sweep::new().survivors(&survivors).regions(&[1]).run(
        primed,
        |s| s.serve(&new).ok_or("the power failed"),
        |s, cut| {
            let call_cut = s.rt.control().stats().snapshot().flights_cut > 0;
            let (mut staged_durable, mut frame_kept) = (false, false);
            let s = s.power_cycle_with(|rt, exec| {
                let stack = rt.runtime().open_stack(0).unwrap();
                let top = stack.frame_record(stack.depth()).unwrap();
                frame_kept = stack.depth() > 0 && top.args == window;
                let store = exec.store();
                staged_durable = store.log_reserved_per_shard().unwrap()[0] > reserved;
                if call_cut {
                    for &(req_id, _) in &new {
                        let reached = common::records_in(store, req_id);
                        let described = exec.tables().iter().any(|t| t.contains(req_id));
                        assert!(
                            reached.is_empty() || described,
                            "{cut}: {req_id:#x} published without its descriptor"
                        );
                    }
                }
            });
            if call_cut && staged_durable {
                over_durable_records[usize::from(frame_kept)] += 1;
            }
            if cut.returned() {
                return;
            }

            let answers = s.serve(&new).expect("no failure armed after the restart");
            for (&(req_id, _), answer) in new.iter().zip(&answers) {
                assert_eq!(answer.result, KvTaskResult::Stored(true), "{cut}");
                assert_eq!(
                    s.records_of(req_id).len(),
                    1,
                    "{cut}: {req_id:#x} one effect"
                );
            }
            if call_cut && staged_durable {
                let now = s.store().log_reserved_per_shard().unwrap()[0];
                assert!(now > reserved, "{cut}: the effect");
            }
        },
    );
    assert!(
        over_durable_records.iter().all(|&n| n > 0),
        "a CALL cut in flight over durable records, its line lost and kept: \
         {over_durable_records:?}"
    );
}

#[test]
fn a_drain_persists_nothing_and_a_window_cut_at_its_first_event_runs_nothing() {
    // The drain hands the window out and persists nothing: a kill armed
    // at shard 0's next event is still pending after it. The window's
    // first access to shard 0 meets it and takes the system down. Its
    // frame may be durable over a descriptor that is not, and recovery
    // replays it over the slot's old occupant without executing
    // anything.
    let s = primed();
    let new = new_round(&s);
    for &(req_id, op) in &new {
        s.core.submit(req_id, op).unwrap();
    }
    s.region(0).arm_failpoint(FailPlan::after_events(0));
    let events = s.region(0).events();
    let (tasks, ids) = s.core.drain_tasks();
    assert_eq!(tasks.len(), 1, "the drained window is handed out");
    assert_eq!(ids.len(), SHAPE.shards);
    assert_eq!(s.region(0).events(), events, "the drain persists nothing");
    assert!(!s.region(0).is_crashed());
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
    for &(req_id, _) in &new {
        assert_eq!(s.records_of(req_id).len(), 1, "{req_id:#x}: one effect");
    }
}

#[test]
fn a_lone_window_whose_descriptor_was_lost_still_surfaces_the_failure() {
    // One put, one window, the kill on its first event in the shard —
    // and this time the slot has never been used, so the replayed frame
    // finds request id 0 there: it must skip it, not execute a put of
    // key 0.
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

/// Round 1 of the second sweep, answered and not yet acked: a put into
/// shard 0's one slot, its window's pop retired.
fn completed_unacked() -> (Stack, (u64, KvTaskOp)) {
    let s = Stack::format(SHAPE);
    let (req_id, key) = (req_id_for(1, 1), s.key_on(0, 5));
    let put = KvTaskOp::Put { key, value: 15 };
    let body = RequestBody::Op(put);
    let responses = serve_round(&s.core, &s.rt, &[Request { req_id, body }]).unwrap();
    assert!(matches!(responses[..], [Response::Done { .. }]));
    (s, (req_id, put))
}

/// Round 2 by its steps: ack round 1 — its slot recycles — admit the
/// new put into that slot, drain, and run the window.
fn recycle_and_run(s: &Stack, acked: u64, (req_id, op): (u64, KvTaskOp)) -> Result<(), PError> {
    assert!(s.core.ack(acked)?, "round 1 was answered");
    assert_eq!(s.core.submit(req_id, op)?, Submission::Queued);
    let (tasks, _) = s.core.drain_tasks();
    if s.rt.run_tasks(tasks).crashed {
        return Err(PError::Mem(MemError::Crashed));
    }
    Ok(())
}

#[test]
fn a_power_failure_between_a_completed_window_and_the_next_call_keeps_exactly_once() {
    let new = |s: &Stack| {
        let key = s.key_on(0, 6);
        (req_id_for(2, 1), KvTaskOp::Put { key, value: 26 })
    };
    // Round 2's events: shard 0's (ack, staged descriptor, drain
    // flight, then its window's), the control region's in its run
    // (CALL, then the retire after the window).
    let (probe, old) = completed_unacked();
    let new = new(&probe);
    let mut replayed_over_the_new_put = 0;
    let events = sweep(
        || completed_unacked().0,
        |s| recycle_and_run(s, old.0, new),
        |s, cut| {
            let s = s.power_cycle();
            assert!(s.replayed <= 1, "{cut}: {} frames replayed", s.replayed);
            let table = s.table(0);
            if cut.region == 1 && s.replayed == 1 && table.req_id(0).unwrap() == new.0 {
                // The completed window, replayed over its recycled
                // slot: the new put ran through its recovery dual.
                assert!(table.result(0).unwrap().is_some(), "{cut}");
                replayed_over_the_new_put += 1;
            }
            // The §5.2 re-enqueue: whatever is still pending never
            // started.
            let pending = s.core.exec().pending_tasks(SHAPE.batch).unwrap();
            let report = s.rt.run_tasks(pending);
            assert!(!report.crashed && report.task_errors == 0, "{cut}");
            // Round 1's client retransmits its unconfirmed ack (acks
            // are idempotent), the new put's client its request.
            s.core.ack(old.0).unwrap();
            let answers = s.serve(&[new]).expect("no failure armed after the restart");
            assert_eq!(answers[0].result, KvTaskResult::Stored(true), "{cut}");
            for (req_id, op) in [old, new] {
                assert_eq!(
                    s.records_of(req_id).len(),
                    1,
                    "{cut}: {req_id:#x} one effect"
                );
                let KvTaskOp::Put { key, .. } = op else {
                    unreachable!()
                };
                assert!(s.store().get(key).unwrap().is_some(), "{cut}");
            }
            let table = s.table(0);
            assert_eq!(table.req_id(0).unwrap(), new.0, "{cut}");
            assert_eq!(
                table.result(0).unwrap().map(|a| a.result),
                Some(KvTaskResult::Stored(true)),
                "{cut}: one durable answer"
            );
            s.assert_psan_clean_after(cut);
        },
    );
    assert!(events[0] > 0 && events[1] > 0);
    assert!(
        replayed_over_the_new_put > 0,
        "a completed window must be replayed over a recycled slot whose new \
         descriptor survived"
    );
}

/// Round 1 of the ack sweep, answered and not yet acked: a put into
/// shard 0's one slot and one into shard 1's.
fn two_unacked() -> (Stack, [u64; 2]) {
    let s = Stack::format(SHAPE);
    let acked = [req_id_for(1, 1), req_id_for(1, 2)];
    let requests: Vec<Request> = (0..2)
        .map(|shard| {
            let (key, value) = (s.key_on(shard, 5), 10 + shard as i64);
            let body = RequestBody::Op(KvTaskOp::Put { key, value });
            Request {
                req_id: acked[shard],
                body,
            }
        })
        .collect();
    let responses = serve_round(&s.core, &s.rt, &requests).unwrap();
    assert!(matches!(
        responses[..],
        [Response::Done { .. }, Response::Done { .. }]
    ));
    (s, acked)
}

#[test]
fn an_ack_round_cut_anywhere_keeps_one_effect_and_no_lasting_pin() {
    // The round acks client 1's two answered puts and, in its first
    // shape, admits client 2's put into shard 0's slot, which the first
    // ack freed, and runs it: the recycle lands the ack's mark before it
    // overwrites the slot. Every event of the round in the control
    // region and in both shards, every dirty line lost, kept and drawn
    // by lottery, plus one more event past the round's last: the round
    // returns `Ok` and the power fails after it. The marks are flights
    // that nothing in the round awaits, so a round
    // that returned `Ok` may lose them: only such a mark, cut in
    // flight, leaves its slot pinned, and client 1's next request there
    // frees it.
    let new = |s: &Stack| {
        let key = s.key_on(0, 6);
        (req_id_for(2, 1), KvTaskOp::Put { key, value: 26 })
    };
    let next = |s: &Stack, shard: usize, seq: u32| {
        let key = s.key_on(shard, 7);
        let value = i64::from(seq);
        (req_id_for(1, seq), KvTaskOp::Put { key, value })
    };
    let acks = |acked: [u64; 2]| -> Vec<Request> {
        acked
            .map(|req_id| Request {
                req_id,
                body: RequestBody::Ack,
            })
            .to_vec()
    };
    let round = |s: &Stack, acked: [u64; 2], admit: bool| {
        let mut requests = acks(acked);
        if admit {
            let (req_id, op) = new(s);
            let body = RequestBody::Op(op);
            requests.push(Request { req_id, body });
        }
        serve_round(&s.core, &s.rt, &requests)
    };
    // [pinned, acked, recycle's first store, new occupant]: what shard
    // 0's slot showed after a power failure inside the round.
    let mut seen = [[0usize; 4]; 2];
    let (probe, acked) = two_unacked();
    let new = new(&probe);
    for (shape, admit) in [true, false].into_iter().enumerate() {
        // The control region and both shards; a round without a window
        // runs no frame, so the control region sees nothing to cut.
        let armed = &[0, 1, 2][usize::from(!admit)..];
        let events = Sweep::new().regions(armed).run(
            || two_unacked().0,
            |s| {
                let responses = round(s, acked, admit)?;
                for req_id in acked {
                    assert!(responses.contains(&Response::AckOk { req_id }));
                }
                Ok::<_, PError>(())
            },
            |s, cut| {
                let confirmed = cut.returned();
                let s = s.power_cycle();
                for (shard, &old_id) in acked.iter().enumerate() {
                    let table = s.table(shard);
                    let at = format!("admit {admit}, {cut} shard {shard}");
                    match table.req_id(0).unwrap() {
                        id if id == old_id => {
                            // Never the old id over a cleared state:
                            // the slot is done, acked by its mark or
                            // pinned — never for a confirmed ack
                            // whose line was kept, and never under a
                            // recycle that ran.
                            let answer = table.result(0).unwrap().map(|a| a.result);
                            assert_eq!(answer, Some(KvTaskResult::Stored(true)), "{at}");
                            let acked = table.acked(0).unwrap();
                            assert_eq!(table.live(), u64::from(!acked), "{at}");
                            let kept = confirmed && cut.survivors == Survivors::All;
                            assert!(acked || !kept, "{at}: a kept mark lost");
                            let recycled = shard == 0 && admit && confirmed;
                            assert!(!recycled, "{at}: the recycle's put lost");
                            if shard == 0 {
                                seen[shape][usize::from(acked)] += 1;
                            }
                        }
                        // The recycle's first store: a free slot.
                        0 if shard == 0 && admit => seen[shape][2] += 1,
                        id if shard == 0 && admit && id == new.0 => {
                            // The new occupant, with its own answer
                            // or none — never the old one's.
                            if let Some(answer) = table.result(0).unwrap() {
                                assert_eq!(answer.result, KvTaskResult::Stored(true), "{at}");
                                assert_eq!(s.records_of(new.0).len(), 1, "{at}");
                            }
                            seen[shape][3] += 1;
                        }
                        other => panic!("{at}: torn identity {other:#x}"),
                    }
                }

                // The clients retransmit what was not confirmed: the
                // acks free the slots they pinned, and the new put's
                // client retries it (answered from the table if it
                // ran) and acks it. Then client 1 sends its next put
                // into each shard: admitted, whatever the failure
                // kept — a confirmed ack pins no slot past it.
                let at = format!("admit {admit}, {cut}");
                if !confirmed {
                    serve_round(&s.core, &s.rt, &acks(acked)).expect("no failure armed");
                }
                if admit {
                    let answers = s.serve(&[new]).expect("no failure armed");
                    assert_eq!(answers[0].result, KvTaskResult::Stored(true), "{at}");
                }
                for (shard, seq) in [(0, 3), (1, 4)] {
                    let answers = s.serve(&[next(&s, shard, seq)]).expect("no failure armed");
                    assert_eq!(answers[0].result, KvTaskResult::Stored(true), "{at}");
                }
                for shard in 0..SHAPE.shards {
                    assert_eq!(s.table(shard).live(), 0, "{at} shard {shard}: a slot leaks");
                }
                // A buggy retransmission of an acked id is shed, its
                // slot gone to a later put.
                for (shard, req_id) in acked.into_iter().enumerate() {
                    let key = s.key_on(shard, 5);
                    let op = KvTaskOp::Put { key, value: 99 };
                    let shed = s.core.submit(req_id, op).unwrap();
                    assert_eq!(shed, Submission::Stale, "{at}");
                }
                let nexts = [3, 4].map(|seq| req_id_for(1, seq));
                let effects = acked.into_iter().chain(nexts).chain(admit.then_some(new.0));
                for req_id in effects {
                    assert_eq!(
                        s.records_of(req_id).len(),
                        1,
                        "{at}: {req_id:#x} one effect"
                    );
                }
                s.assert_psan_clean_after(cut);
            },
        );
        assert_eq!(
            events[0] > 0,
            admit,
            "only a round with a window runs a frame"
        );
    }
    let [recycled, ack_only] = seen;
    assert!(
        recycled.iter().all(|&n| n > 0),
        "shard 0's slot after a failure in the recycling round — pinned, acked, \
         free, new occupant — each seen: {recycled:?}"
    );
    assert!(
        ack_only[0] > 0 && ack_only[1] > 0,
        "an ack-only round's mark both cut in flight and landed: {ack_only:?}"
    );
}

#[test]
fn an_ack_cut_in_flight_pins_its_slot_until_the_clients_next_request() {
    let s = Stack::format(Shape {
        table_cap: 4,
        ..SHAPE
    });
    let put = |s: &Stack, client: u32, seq: u32| {
        let key = s.key_on(0, (client * 10 + seq) as usize);
        let value = i64::from(seq);
        (req_id_for(client, seq), KvTaskOp::Put { key, value })
    };
    let (one, other, two, three) = (put(&s, 1, 1), put(&s, 2, 1), put(&s, 1, 2), put(&s, 1, 3));
    // Client 1's first put beside client 2's, each acked; then client
    // 1's second, acked too. Its window's awaits land the first two
    // marks, and its own ack's mark rides a flight nothing awaits.
    s.serve(&[one, other]).unwrap();
    s.serve(&[two]).unwrap();
    assert_eq!(s.table(0).live(), 0, "every slot acked");

    // The power fails with that flight in flight: the landed marks
    // retire their slots, and the cut one leaves its slot pinned — the
    // client's latest answer, as if never acked.
    let s = s.power_cycle();
    let slot_of = |s: &Stack, req_id| s.table(0).lookup(req_id).unwrap().unwrap().0;
    let acked = |s: &Stack, req_id| s.table(0).acked(slot_of(s, req_id)).unwrap();
    assert!(acked(&s, one.0) && acked(&s, other.0), "landed marks");
    assert!(!acked(&s, two.0), "the mark cut in flight");
    assert_eq!(s.table(0).live(), 1, "one pin, the client's latest");
    // A retransmission of either of client 1's is answered from its
    // durable answer, never run again.
    for (req_id, op) in [one, two] {
        let answer = s.core.submit(req_id, op).unwrap();
        let stored =
            matches!(answer, Submission::Answered(a) if a.result == KvTaskResult::Stored(true));
        assert!(stored, "{req_id:#x}: {answer:?}");
    }

    // The client's next request retires the pin, and its window lands
    // the mark that retirement wrote.
    s.serve(&[three]).unwrap();
    assert!(acked(&s, two.0), "retired by the next request");
    let s = s.power_cycle();
    assert!(acked(&s, two.0), "its mark landed");
    assert!(!acked(&s, three.0), "the third put's ack cut in flight");
    assert_eq!(s.table(0).live(), 1, "one pin again: the client's latest");
    for req_id in [one.0, other.0, two.0, three.0] {
        assert_eq!(s.records_of(req_id).len(), 1, "{req_id:#x}: one effect");
    }
}

#[test]
fn a_client_that_acks_and_goes_quiet_leaves_its_slot_to_the_others() {
    // Shard 0's table has two slots and three clients use it. Client 3
    // puts, acks and goes quiet; clients 1 and 2 keep putting there, a
    // power failure at a drawn event of every third round. Client 3's
    // mark lands with the next window on the shard, so its slot is the
    // others' from then on, whatever later failures take: each round
    // admits both clients (a shed would leave a request unanswered).
    let s = Stack::format(Shape {
        table_cap: 2,
        ..SHAPE
    });
    let put = |s: &Stack, client: u32, seq: u32| {
        let key = s.key_on(0, client as usize);
        let value = i64::from(seq);
        (req_id_for(client, seq), KvTaskOp::Put { key, value })
    };
    let quiet = put(&s, 3, 1);
    s.serve(&[quiet]).unwrap();
    s.serve(&[put(&s, 1, 1)]).unwrap();
    let mut s = s.power_cycle();
    let slot = s.table(0).lookup(quiet.0).unwrap().unwrap().0;
    assert!(
        s.table(0).acked(slot).unwrap(),
        "the quiet client's mark landed"
    );

    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut draw = |n: u64| {
        rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (rng >> 33) % n
    };
    let mut seq = [1u32, 0];
    let mut in_flight = [None; 2];
    let (mut served, mut cut) = (0, 0);
    for round in 0..30 {
        let requests: Vec<(u64, KvTaskOp)> = (0..2)
            .map(|c| {
                *in_flight[c].get_or_insert_with(|| {
                    seq[c] += 1;
                    put(&s, c as u32 + 1, seq[c])
                })
            })
            .collect();
        if round % 3 == 2 {
            arm(&s, draw(2) as usize, draw(24));
        }
        match s.serve(&requests) {
            Some(answers) => {
                assert!(answers
                    .iter()
                    .all(|a| a.result == KvTaskResult::Stored(true)));
                in_flight = [None; 2];
                served += 1;
            }
            None => cut += 1,
        }
        if round % 3 == 2 {
            s = s.power_cycle();
        }
    }
    assert!(served > 0 && cut > 0, "{served} rounds served, {cut} cut");
    assert_eq!(s.records_of(quiet.0).len(), 1);
    for c in 0..2 {
        for n in 1..=seq[c] {
            let req_id = req_id_for(c as u32 + 1, n);
            let done = in_flight[c].is_none_or(|(id, _)| id != req_id);
            let effects = s.records_of(req_id).len();
            assert!(
                effects == 1 || (effects == 0 && !done),
                "{req_id:#x}: {effects}"
            );
        }
    }
}

#[test]
fn pinned_slots_stay_bounded_over_two_hundred_power_cycles() {
    // Four closed-loop clients, three rounds a power cycle: in each,
    // every client sends its next mutation (or retries the one a power
    // failure cut) and acks it — the rounds hand slots from client to
    // client, so a client's older answers outlive its newer — then the
    // power fails: at a drawn event, or after the last `AckOk`s, which
    // it takes back. A table holds, per client, at most its pinned
    // answer and its request in flight.
    const CLIENTS: usize = 4;
    const CYCLES: usize = 200;
    let shape = Shape {
        shards: 2,
        table_cap: 4 * CLIENTS as u32,
        queue_cap: 8,
        batch: 8,
    };
    let mut s = Stack::format(shape);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = |n: u64| {
        rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (rng >> 33) % n
    };
    let mut seq = [0u32; CLIENTS];
    let mut in_flight: [Option<(u64, KvTaskOp)>; CLIENTS] = [None; CLIENTS];
    let mut puts = Vec::new();
    let mut cut = 0;
    for cycle in 0..CYCLES {
        arm(&s, draw(3) as usize, draw(40));
        for _ in 0..3 {
            let mut next = |c: usize| {
                seq[c] += 1;
                let req_id = req_id_for(c as u32 + 1, seq[c]);
                // One in eight a put; the rest delete keys never written,
                // which stage no record: the logs stay small, the slots
                // churn the same.
                let key = draw(32);
                if draw(8) == 0 {
                    puts.push(req_id);
                    let value = i64::from(seq[c]);
                    (req_id, KvTaskOp::Put { key, value })
                } else {
                    (req_id, KvTaskOp::Delete { key: 1000 + key })
                }
            };
            let requests: Vec<(u64, KvTaskOp)> = (0..CLIENTS)
                .map(|c| *in_flight[c].get_or_insert_with(|| next(c)))
                .collect();
            if s.serve(&requests).is_none() {
                cut += 1;
                break;
            }
            in_flight = [None; CLIENTS];
        }
        s = s.power_cycle();
        for shard in 0..shape.shards {
            let table = s.table(shard);
            assert!(
                table.live_high_water() <= 2 * CLIENTS as u64,
                "cycle {cycle} shard {shard}: {} live slots",
                table.live_high_water()
            );
        }
    }
    assert!(cut > 0 && cut < CYCLES, "{cut} of {CYCLES} rounds cut");
    let mut effects = std::collections::HashMap::new();
    for r in s
        .store()
        .snapshot_sharded()
        .unwrap()
        .into_iter()
        .flatten()
        .flatten()
    {
        *effects.entry(r.seq).or_insert(0) += 1;
    }
    for req_id in puts {
        let done = !in_flight.iter().flatten().any(|&(id, _)| id == req_id);
        let n = effects.get(&req_id).copied().unwrap_or(0);
        assert!(n == 1 || (n == 0 && !done), "{req_id:#x}: {n} effects");
    }
}

/// The boot rules' sweep: two shards, tables of one slot. Round 1 puts a
/// key on each shard and acks it: its commits leave their heads dirty.
/// Round 2 recycles each shard's slot for a new put and is cut at every
/// event of every region under every survivor choice; the system
/// reboots the way the benchmark's power cycle does, and every cut is
/// rebooted a second time before anything runs (the heads the first
/// boot rebuilt ride a commit that has not happened yet). Then the
/// clients retry. Round 1's answers were shown, so their effects stay,
/// once each; round 2's requests end with one effect each; no retry
/// takes a second one.
mod boot_rules {
    use super::*;
    use pstack_core::{RecoveryMode, StripedRuntime};
    use pstack_kv::ShardWindow;
    use pstack_kv::{KvRequestTable, KvVariant, ShardedKvStore};
    use pstack_nvram::{PMem, POffset};
    use pstack_server::{KvServeFunction, ServerCore};

    const SHAPE: Shape = Shape {
        shards: 2,
        table_cap: 1,
        queue_cap: 4,
        batch: 4,
    };

    /// Where a served shard root records its request table's base.
    const TABLE_ROOT: u64 = 48;

    fn round(s: &Stack, n: u32) -> Vec<(u64, KvTaskOp)> {
        (0..SHAPE.shards)
            .map(|shard| {
                let key = s.key_on(shard, n as usize);
                let req_id = req_id_for(shard as u32 + 1, n);
                (
                    req_id,
                    KvTaskOp::Put {
                        key,
                        value: i64::from(n),
                    },
                )
            })
            .collect()
    }

    /// Round 1, a shard at a time: its last frame names shard 1 alone,
    /// so a frame naming both shards is round 2's.
    fn dirty() -> Stack {
        let s = Stack::format(SHAPE);
        for put in round(&s, 1) {
            s.serve(&[put]).unwrap();
        }
        s
    }

    /// A shard region's raw slot 0: (request id, answered).
    fn raw_slot(region: &PMem) -> (u64, bool) {
        let base = region.read_u64(POffset::new(TABLE_ROOT)).unwrap();
        let line = POffset::new(base + 64);
        let id = region.read_u64(line + 40u64).unwrap();
        (id, region.read_u8(line + 1u64).unwrap() == 1)
    }

    /// Whether some log slot of `region` holds a record tagged
    /// `(client, req_id)` of `req_id`, reachable or not.
    fn raw_record(region: &PMem, req_id: u64) -> bool {
        let mut image = vec![0u8; region.len()];
        region.read(POffset::new(0), &mut image).unwrap();
        let tag = [(req_id >> 32).to_le_bytes(), req_id.to_le_bytes()].concat();
        image.chunks_exact(64).any(|slot| slot[24..40] == tag[..])
    }

    /// The benchmark's power cycle: every region reopened, then
    /// `ShardedKvStore::open` → `KvRequestTable::open` →
    /// `KvServeFunction::new` → `ServerCore::new` → `recover_with`,
    /// whose prelude walks each shard's store. `inspect` sees the
    /// runtime and the served half before the stacks replay.
    fn reboot(s: Stack, inspect: impl FnOnce(&StripedRuntime, &KvServeFunction)) -> Stack {
        let mut attached = None;
        let rt =
            s.rt.reopen_all_with(|_, stripe| {
                let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl)?;
                let mut tables = Vec::new();
                for region in stripe.regions() {
                    let base = region.read_u64(POffset::new(TABLE_ROOT))?;
                    tables.push(KvRequestTable::open(region.clone(), POffset::new(base))?);
                }
                attached
                    .insert(KvServeFunction::new(store, tables))
                    .registry()
            })
            .unwrap();
        let exec = attached.unwrap();
        inspect(&rt, &exec);
        let core = ServerCore::new(exec, SHAPE.queue_cap, SHAPE.batch);
        let store = core.exec().store().clone();
        let report = rt
            .recover_with(RecoveryMode::Parallel, |shard, _| {
                store.shard(shard).snapshot().map(|_| ())
            })
            .unwrap();
        Stack {
            shape: SHAPE,
            rt,
            core,
            replayed: report.total_frames(),
        }
    }

    #[test]
    fn every_cut_of_a_round_over_dirty_heads_reboots_to_one_effect_per_request() {
        let probe = dirty();
        let (old, new) = (round(&probe, 1), round(&probe, 2));
        let part = |shard: u32| ShardWindow {
            shard,
            recovery: false,
            slots: vec![0],
        };
        let window = KvServeFunction::window_args(&[part(0), part(1)]);
        // The named cases, counted over the cuts that reach them.
        #[derive(Default, Debug)]
        struct Reached {
            /// A new record landed whole, its descriptor did not.
            batch_without_descriptor: usize,
            /// A new answer landed, its batch did not publish: with the
            /// window's frame kept, and without.
            answer_without_batch: [usize; 2],
            /// The new record and its slot's line landed, the batch did
            /// not publish: its header was lost.
            header_lost: usize,
            /// The recycled slot's later line landed over round 1's
            /// batch, which still publishes.
            later_claim_landed: usize,
            /// A boot's volatile heads cut before the next commit.
            second_boot: usize,
        }
        let mut reached = Reached::default();
        sweep(
            dirty,
            |s| s.serve(&new).ok_or("the power failed"),
            |s, cut| {
                s.rt.crash_all(0, 0.0);
                let mut cases = Vec::new();
                let s = reboot(s, |rt, exec| {
                    let stack = rt.runtime().open_stack(0).unwrap();
                    let top = stack.frame_record(stack.depth()).unwrap();
                    let frame = usize::from(stack.depth() > 0 && top.args == window);
                    for (shard, &(req_id, _)) in new.iter().enumerate() {
                        let region = rt.stripe().region(shard);
                        let (slot_id, answered) = raw_slot(region);
                        let landed = raw_record(region, req_id);
                        let published = !common::records_in(exec.store(), req_id).is_empty();
                        let described = slot_id == req_id;
                        assert!(
                            !published || described,
                            "{cut}: published without its descriptor"
                        );
                        if landed && !described {
                            cases.push(0);
                        }
                        if described && answered && !published {
                            cases.push(1 + frame);
                        }
                        if landed && described && !published {
                            cases.push(3);
                        }
                        if described && !published {
                            cases.push(4);
                        }
                    }
                });
                for case in cases {
                    match case {
                        0 => reached.batch_without_descriptor += 1,
                        1 | 2 => reached.answer_without_batch[case - 1] += 1,
                        3 => reached.header_lost += 1,
                        _ => reached.later_claim_landed += 1,
                    }
                }
                // Power fails again before anything commits, keeping the
                // boot's volatile heads as the cut kept its lines.
                let prob = match cut.survivors {
                    Survivors::None => 0.0,
                    Survivors::All => 1.0,
                    Survivors::Half(_) => 0.5,
                };
                s.rt.crash_all(cut.event << 8 | 0x5A, prob);
                let s = reboot(s, |_, _| {});
                reached.second_boot += 1;
                for &(req_id, _) in &old {
                    assert_eq!(s.records_of(req_id).len(), 1, "{cut}: a shown effect lost");
                }
                if cut.returned() {
                    for &(req_id, _) in &new {
                        assert_eq!(s.records_of(req_id).len(), 1, "{cut}: a shown effect lost");
                    }
                }
                let answers = s.serve(&new).expect("no failure armed after the restart");
                for (&(req_id, op), answer) in new.iter().zip(&answers) {
                    assert_eq!(answer.result, KvTaskResult::Stored(true), "{cut}");
                    assert_eq!(s.records_of(req_id).len(), 1, "{cut}: one effect");
                    let KvTaskOp::Put { key, value } = op else {
                        unreachable!()
                    };
                    assert_eq!(s.store().get(key).unwrap(), Some(value), "{cut}");
                }
                for &(req_id, _) in &old {
                    assert_eq!(s.records_of(req_id).len(), 1, "{cut}: round 1 once");
                }
            },
        );
        println!("boot rules: {reached:?}");
        assert!(reached.batch_without_descriptor > 0, "{reached:?}");
        assert!(
            reached.answer_without_batch.iter().all(|&n| n > 0),
            "{reached:?}"
        );
        assert!(reached.header_lost > 0, "{reached:?}");
        assert!(reached.later_claim_landed > 0, "{reached:?}");
    }
}
