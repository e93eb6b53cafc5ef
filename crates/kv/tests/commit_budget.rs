//! The commit path's persist budget, as **equalities**.
//!
//! One device round-trip per ordered persist is the whole cost model.
//! There is one group-commit routine — `apply_batch_begin` then
//! `commit` — and this file writes down what it pays: four persists a
//! batch (records, log tail, heads, epoch), the first two as flights
//! that overlap; what compaction pays: seven; and what a static
//! workload's window pays on the persistent stack: eight, the served
//! window's own budget. Counters, not wall-clock, so nothing here
//! depends on how loaded the host is.

use std::time::Duration;

use pstack_core::{RuntimeConfig, StripedRuntime};
use pstack_heap::PHeap;
use pstack_kv::{KvBatchOp, KvServeFunction, KvTaskOp, KvVariant, PKvStore, ShardedKvStore};
use pstack_nvram::{PMem, PMemBuilder, POffset};

const LEN: usize = 1 << 19;

fn store(builder: PMemBuilder) -> (PMem, PHeap, PKvStore) {
    let pmem = builder.len(LEN).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), LEN as u64).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 8, 256, KvVariant::Nsrl).unwrap();
    (pmem, heap, kv)
}

fn puts(keys: std::ops::Range<u64>) -> Vec<KvBatchOp> {
    keys.map(|key| KvBatchOp::Put {
        pid: 0,
        seq: key + 1,
        key,
        value: key as i64,
    })
    .collect()
}

#[test]
fn a_group_commit_is_four_persists_two_of_them_overlapping_flights() {
    let (pmem, _, kv) = store(PMemBuilder::new().flush_latency(Duration::from_millis(1)));
    let before = pmem.stats().snapshot();
    let outcomes = kv.apply_batch(&puts(0..16)).unwrap();
    assert!(outcomes.iter().all(|o| o.took_effect()));
    let d = pmem.stats().snapshot() - before;
    assert_eq!(
        (d.persists, d.async_flushes, d.redundant_persists),
        (4, 2, 0),
        "records + tail as flights, then heads, then epoch"
    );
    assert_eq!(
        pmem.inflight_tickets(),
        0,
        "commit awaits what begin issued"
    );
    // Both flights were charged a round-trip; awaiting them cost about
    // one, because the second ran while the first was awaited.
    assert_eq!(d.async_latency_charged_ns, 2_000_000);
    assert!(
        (d.async_latency_waited_ns as f64) < 0.75 * d.async_latency_charged_ns as f64,
        "the flights did not overlap: waited {} of {} ns charged",
        d.async_latency_waited_ns,
        d.async_latency_charged_ns
    );
    assert_eq!(kv.flush_epoch().unwrap(), 1);
}

#[test]
fn begun_windows_hold_two_flights_a_shard_and_publish_nothing_until_committed() {
    let stripe = PMemBuilder::new().len(1 << 18).build_striped(4);
    let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
    let mut per_shard = vec![Vec::new(); kv.nshards()];
    for op in puts(0..64) {
        per_shard[kv.shard_of(op.key())].push(op);
    }
    assert!(per_shard.iter().all(|ops| !ops.is_empty()));

    let pending: Vec<_> = per_shard
        .iter()
        .enumerate()
        .map(|(s, ops)| kv.shard(s).apply_batch_begin(ops).unwrap())
        .collect();
    for (s, region) in stripe.regions().iter().enumerate() {
        assert_eq!(region.inflight_tickets(), 2, "shard {s}: records + tail");
    }
    assert!(kv.contents().unwrap().is_empty(), "no bucket head moved");
    assert_eq!(kv.flush_epochs().unwrap(), vec![0; 4]);

    for batch in pending {
        assert!(batch.commit().unwrap().iter().all(|o| o.took_effect()));
    }
    assert_eq!(kv.contents().unwrap().len(), 64);
    assert_eq!(kv.flush_epochs().unwrap(), vec![1; 4]);
    let agg = stripe.aggregate_stats();
    assert_eq!(agg.async_flushes, 8);
    for region in stripe.regions() {
        assert_eq!(region.inflight_tickets(), 0);
    }
}

#[test]
fn a_compaction_is_seven_persists_and_no_flight() {
    let (pmem, heap, kv) = store(PMemBuilder::new());
    for chunk in puts(0..128).chunks(16) {
        kv.apply_batch(chunk).unwrap();
    }
    let before = pmem.stats().snapshot();
    assert_eq!(kv.compact(&heap).unwrap().carried, 128);
    let d = pmem.stats().snapshot() - before;
    assert_eq!(
        (d.persists, d.async_flushes),
        (7, 0),
        "one coalesced flush of the new block, however many carries"
    );
    assert!(d.lines_persisted > 128, "every carry slot is its own line");
}

#[test]
fn an_eager_batch_issues_no_flight() {
    let (pmem, _, kv) = store(PMemBuilder::new().eager_flush(true));
    let before = pmem.stats().snapshot();
    let pending = kv.apply_batch_begin(&puts(0..16)).unwrap();
    assert!(!pending.is_staged(), "applied per-op at begin");
    assert_eq!(kv.contents().unwrap().len(), 16);
    assert!(pending.commit().unwrap().iter().all(|o| o.took_effect()));
    let d = pmem.stats().snapshot() - before;
    assert_eq!((d.async_flushes, d.redundant_persists), (0, 0));
    assert_eq!(pmem.inflight_tickets(), 0);
    assert_eq!(
        kv.flush_epoch().unwrap(),
        0,
        "eager stores never group-commit"
    );
}

#[test]
fn a_preloaded_window_is_eight_persists_and_its_replay_none_on_the_shard() {
    // A static workload is a preloaded request table run as
    // persistent-stack tasks: the served window minus the served
    // path's per-drain descriptor persist and per-op ack
    // (`pstack-server`'s `persist_budget.rs`: a lone put is 1 + 2 + 4 +
    // 1 + 1; sixteen slots make a 96-byte frame, which cannot share the
    // dummy frame's line and is flushed ahead of the flip: 3).
    let stripe = PMemBuilder::new().len(LEN).build_striped(1);
    let shard = stripe.region(0);
    let store = ShardedKvStore::format(stripe.regions(), 8, 256, KvVariant::Nsrl).unwrap();
    let ops: Vec<KvTaskOp> = (0..16).map(|key| KvTaskOp::Put { key, value: 1 }).collect();

    // Preloading n mutations is one persist on top of formatting the
    // table they go into (and recording its base in the shard root).
    let t0 = shard.stats().snapshot();
    KvServeFunction::format(store.clone(), ops.len() as u32).unwrap();
    let format_only = shard.stats().snapshot() - t0;
    let t1 = shard.stats().snapshot();
    let exec = KvServeFunction::preload(store, &ops).unwrap();
    let preload = shard.stats().snapshot() - t1;
    assert_eq!(preload.persists, format_only.persists + 1);
    assert_eq!(
        preload.lines_persisted,
        format_only.lines_persisted + 16,
        "sixteen descriptors, one coalesced persist"
    );

    let control = PMemBuilder::new().len(1 << 18).build_in_memory();
    let rt = StripedRuntime::format(
        control.clone(),
        stripe.clone(),
        RuntimeConfig::new(1).stack_capacity(4 * 1024),
        &exec.registry().unwrap(),
    )
    .unwrap();
    let run = |tasks| {
        let before = (control.stats().snapshot(), shard.stats().snapshot());
        let report = rt.run_tasks(tasks);
        assert!(!report.crashed && report.task_errors == 0);
        (
            (control.stats().snapshot() - before.0).persists,
            (shard.stats().snapshot() - before.1).persists,
        )
    };

    let tasks = exec.pending_tasks(16).unwrap();
    assert_eq!(tasks.len(), 1, "sixteen puts, one window");
    let replay = tasks.clone();
    assert_eq!(
        run(tasks),
        (3, 5),
        "the frame (frame; slot clear + marker flip; unit return + pop flip); \
         the group commit (records, tail, heads, epoch) + one answer persist"
    );
    assert!(exec.pending_tasks(16).unwrap().is_empty());
    assert_eq!(exec.store().flush_epochs().unwrap(), vec![1]);

    // Replaying the completed window pays its frame and nothing else:
    // every slot is answered, so nothing is staged, committed or
    // re-answered.
    assert_eq!(run(replay), (3, 0));
    assert_eq!(exec.store().flush_epochs().unwrap(), vec![1]);
}
