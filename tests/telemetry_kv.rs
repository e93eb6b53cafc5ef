//! Flight-recorder integration over the KV store: spans opened around
//! (and across) a crash/reopen boundary stay balanced, the collected
//! trace validates, and the summary attributes the store's ops.
#![cfg(feature = "telemetry")]

use pstack::heap::PHeap;
use pstack::kv::{KvVariant, PKvStore};
use pstack::nvram::PMemBuilder;
use pstack::telemetry::{self, TraceSession};

/// The recorder is process-global: a session collects every thread's
/// events from its start cursor, so two tests recording at once see
/// each other's spans and crash events. Until sessions carry their own
/// recorder state (ROADMAP, first open item), the tests of this binary
/// take turns.
static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn recorder_turn() -> std::sync::MutexGuard<'static, ()> {
    RECORDER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn spans_stay_balanced_across_crash_and_reopen() {
    let _turn = recorder_turn();
    // A span opened *before* the session must not leak an unbalanced
    // exit into the trace when it closes inside the session.
    let pre_session_span = telemetry::span("test.pre-session");

    let session = TraceSession::start();

    let pmem = PMemBuilder::new()
        .len(1 << 18)
        .eager_flush(true)
        .build_in_memory();
    let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 18).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 16, 128, KvVariant::Nsrl).unwrap();

    {
        let _outer = telemetry::span("test.outer");
        kv.put(0, 1, 10, 1).unwrap();
        kv.put(0, 2, 20, 2).unwrap();
        {
            let _inner = telemetry::span("test.inner");
            kv.delete(0, 3, 20).unwrap();
        }
    }

    // A span held OPEN across the power cut and the reopen: the crash
    // event lands inside it, the exit comes after recovery, and the
    // pairing must survive.
    let kv = {
        let _spanning = telemetry::span("test.across-crash");
        pmem.crash_now(7, 0.0);
        let pmem = pmem.reopen().unwrap();
        PKvStore::open(pmem, kv.base(), KvVariant::Nsrl).unwrap()
    };
    assert_eq!(kv.get(10).unwrap(), Some(1));

    drop(pre_session_span);
    let snapshot = session.finish();

    if !telemetry::compiled() {
        assert!(snapshot.threads.is_empty());
        return;
    }

    // The structural lint the trace-dump --validate mode runs: monotone
    // timestamps, gapless positions, and — the point of this test —
    // balanced span enter/exit pairs despite the crash in the middle
    // and the guard that outlived the session start.
    snapshot.validate().unwrap_or_else(|errs| {
        panic!("trace must validate: {errs:?}");
    });

    let summary = snapshot.summary();
    let labels: Vec<&str> = summary.ops.iter().map(|op| op.label.as_str()).collect();
    assert!(labels.contains(&"test.outer"), "ops: {labels:?}");
    assert!(labels.contains(&"test.inner"), "ops: {labels:?}");
    assert!(labels.contains(&"test.across-crash"), "ops: {labels:?}");
    assert!(labels.contains(&"kv.put"), "ops: {labels:?}");
    assert!(
        !labels.contains(&"test.pre-session"),
        "a span entered before the session must not appear: {labels:?}"
    );
    // The power cut is on the timeline, attributed to the region.
    assert_eq!(summary.timeline.len(), 1, "{:?}", summary.timeline);
    assert!(summary.events > 0);

    // Persist economy: the eager puts persisted inside their spans.
    assert!(
        summary
            .persist_economy
            .iter()
            .any(|pe| pe.label == "kv.put" && pe.persists > 0),
        "economy: {:?}",
        summary.persist_economy
    );
}

#[test]
fn overlapping_sessions_collect_independently() {
    let _turn = recorder_turn();
    // Sessions may nest (a campaign inside an example-wide recording);
    // each gets the events from its own start cursor and both stay
    // valid.
    let outer = TraceSession::start();
    let pmem = PMemBuilder::new()
        .len(1 << 16)
        .eager_flush(true)
        .build_in_memory();
    pmem.write_u64(0u64.into(), 1).unwrap();
    pmem.flush(0u64.into(), 8).unwrap();

    let inner = TraceSession::start();
    pmem.write_u64(64u64.into(), 2).unwrap();
    pmem.flush(64u64.into(), 8).unwrap();
    let inner_snap = inner.finish();

    pmem.write_u64(128u64.into(), 3).unwrap();
    pmem.flush(128u64.into(), 8).unwrap();
    let outer_snap = outer.finish();

    if !telemetry::compiled() {
        return;
    }
    inner_snap.validate().expect("inner trace validates");
    outer_snap.validate().expect("outer trace validates");
    let inner_events: usize = inner_snap.threads.iter().map(|t| t.events.len()).sum();
    let outer_events: usize = outer_snap.threads.iter().map(|t| t.events.len()).sum();
    assert!(
        outer_events > inner_events,
        "outer ({outer_events}) spans a superset of inner ({inner_events})"
    );
}
