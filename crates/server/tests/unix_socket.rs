//! The unix-socket listener serves the round every campaign proves:
//! real frames over a real socket, every window **through a stack
//! frame** — a lone put costs exactly `persist_budget.rs`'s budget, two
//! of its persists in the control region — and a power failure under it
//! ends in closed connections and a reported error, after which the
//! retransmission on a new connection finds the answer the persistent
//! stack's replay recorded.

#![cfg(unix)]

mod common;

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use common::{Shape, Stack};
use pstack_kv::{KvTaskOp, KvTaskResult};
use pstack_nvram::FailPlan;
use pstack_server::proto::{
    decode_response, encode_request, read_frame, req_id_for, write_frame, Request, RequestBody,
    Response,
};
use pstack_server::transport::unix::{serve, UnixServerHandle};

const SHAPE: Shape = Shape {
    shards: 2,
    table_cap: 16,
    queue_cap: 8,
    batch: 8,
};

fn listen(s: &Stack, tag: &str) -> UnixServerHandle {
    let name = format!("pstack-serve-{tag}-{}.sock", std::process::id());
    let sock: PathBuf = std::env::temp_dir().join(name);
    serve(sock, s.core.clone(), s.rt.clone()).unwrap()
}

fn op(req_id: u64, op: KvTaskOp) -> Request {
    let body = RequestBody::Op(op);
    Request { req_id, body }
}

fn round_trip(stream: &mut (impl Read + Write), req: &Request) -> Response {
    write_frame(stream, &encode_request(req)).unwrap();
    let frame = read_frame(stream).unwrap();
    decode_response(&frame).unwrap()
}

fn result_of(resp: Response) -> KvTaskResult {
    let Response::Done { answer, .. } = resp else {
        panic!("expected Done, got {resp:?}")
    };
    answer.result
}

#[test]
fn unix_socket_round_trip_exactly_once() {
    let s = Stack::format(SHAPE);
    let mut handle = listen(&s, "budget");
    // (control, stripe) persists since `t0`.
    let t0 = s.stats();
    let persists = || {
        let now = s.stats();
        (
            (now.0 - t0.0).persists,
            (now.1 - t0.1).persists,
            (now.0 - t0.0).redundant_persists + (now.1 - t0.1).redundant_persists,
        )
    };

    let mut stream = UnixStream::connect(handle.path()).unwrap();
    let key = s.key_on(1, 0);
    let put = op(req_id_for(1, 1), KvTaskOp::Put { key, value: 7 });
    assert_eq!(
        result_of(round_trip(&mut stream, &put)),
        KvTaskResult::Stored(true)
    );
    assert_eq!(
        persists(),
        (2, 6, 0),
        "the frame (CALL, RET) in the control region; descriptor, group commit (4), answer"
    );

    // A retransmission of the same request id returns the durable
    // answer without a second effect — and a second client on its own
    // connection reads the committed value; neither persists anything.
    assert_eq!(
        result_of(round_trip(&mut stream, &put)),
        KvTaskResult::Stored(true)
    );
    let mut stream2 = UnixStream::connect(handle.path()).unwrap();
    let get = op(req_id_for(2, 1), KvTaskOp::Get { key });
    assert_eq!(
        result_of(round_trip(&mut stream2, &get)),
        KvTaskResult::Got(Some(7))
    );
    assert_eq!(persists(), (2, 6, 0));

    // Acks flow over the same wire and are idempotent: the ninth
    // persist, once.
    let ack = Request {
        req_id: put.req_id,
        body: RequestBody::Ack,
    };
    for _ in 0..2 {
        assert_eq!(
            round_trip(&mut stream, &ack),
            Response::AckOk { req_id: put.req_id }
        );
        assert_eq!(persists(), (2, 7, 0));
    }

    assert_eq!(s.records_of(put.req_id).len(), 1, "no second effect");
    handle.stop().expect("no power failure");
    s.assert_psan_clean();
}

#[test]
fn a_power_failure_closes_the_connections_and_the_retransmission_finds_the_answer() {
    let (req_id, value) = (req_id_for(1, 1), 7);
    let put = |s: &Stack| {
        let key = s.key_on(0, 0);
        KvTaskOp::Put { key, value }
    };
    // How many shard-0 events admission spends (stage, drain persist),
    // on a twin: the failure is to land two events into the window.
    let admission = {
        let twin = Stack::format(SHAPE);
        let before = twin.events()[1];
        twin.core.submit(req_id, put(&twin)).unwrap();
        let _ = twin.core.drain_tasks();
        twin.events()[1] - before
    };

    let s = Stack::format(SHAPE);
    let mut handle = listen(&s, "powerfail");
    let mut stream = UnixStream::connect(handle.path()).unwrap();
    let mut idle = UnixStream::connect(handle.path()).unwrap();
    let req = op(req_id, put(&s));
    s.region(0)
        .arm_failpoint(FailPlan::after_events(admission + 1));
    write_frame(&mut stream, &encode_request(&req)).unwrap();

    // The machine is down: EOF on every connection — the one waiting
    // for its answer and the one that never spoke — not a `Retry`.
    let eof = read_frame(&mut stream).unwrap_err();
    assert_eq!(eof.kind(), ErrorKind::UnexpectedEof, "{eof}");
    assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0);
    assert!(
        handle.stop().unwrap_err().is_crash(),
        "the handle reports it"
    );
    assert!(s.rt.all_crashed());
    assert!(
        UnixStream::connect(handle.path()).is_err(),
        "nobody listens"
    );

    // Reboot: reopen, re-attach, replay the interrupted window's frame.
    let s = s.power_cycle();
    let mut handle = listen(&s, "powerfail");
    let before = s.stats();
    let mut stream = UnixStream::connect(handle.path()).unwrap();
    assert_eq!(
        result_of(round_trip(&mut stream, &req)),
        KvTaskResult::Stored(true)
    );
    let now = s.stats();
    assert_eq!(
        ((now.0 - before.0).persists, (now.1 - before.1).persists),
        (0, 0),
        "answered from the record the replayed frame left, not executed again"
    );
    assert_eq!(s.records_of(req_id).len(), 1, "exactly one version record");
    assert_eq!(s.store().get(s.key_on(0, 0)).unwrap(), Some(value));
    handle.stop().expect("no power failure");
    s.assert_psan_clean();
}
