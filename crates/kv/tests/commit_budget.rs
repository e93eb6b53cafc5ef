//! The commit path's persist budget, as **equalities**.
//!
//! One device round-trip per ordered persist is the whole cost model.
//! There is one group-commit routine — `apply_batch_begin` then the
//! commit's level — and this file writes down what it pays: a bare
//! batch is at most three persists (records, the generation header,
//! and the heads the shard's previous commit flipped), all flights,
//! awaited in **one** level however many shards commit together — a
//! lone mutation is a batch of one and pays the same, on its home shard
//! alone, or nothing when it takes no effect; that its records and
//! header are the commit point (a cut shows the batch whole or not at
//! all, a cut after `commit` returns loses nothing); what compaction
//! pays: five persists in three levels, and one flight more in its
//! middle level for heads a bare commit left dirty; and what a static
//! workload's window pays on the persistent stack: six, the served
//! window's own budget. Counters, not wall-clock: the blocking bounds
//! compare the *planned* waits the regions record
//! (`async_latency_waited_ns`, deadline minus now at each await) to the
//! charged latency, and a level's flights are all issued before its
//! first await, so each level plans at most one latency — however
//! loaded the host is.

use std::time::Duration;

use pstack_core::{RuntimeConfig, StripedRuntime};
use pstack_heap::PHeap;
use pstack_kv::{
    KvBatchOp, KvRequestTable, KvServeFunction, KvTaskOp, KvVariant, PKvStore, ShardedKvStore,
};
use pstack_nvram::{sweep, PMem, PMemBuilder, POffset, StatsSnapshot, Survivors};

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

const LATENCY: Duration = Duration::from_millis(1);

/// Asserts one bare group commit's bill from `before`: `flights`
/// persists, every one a flight charged a round-trip, nothing left in
/// flight, and at most one latency of waiting — one level.
fn assert_one_level(pmem: &PMem, before: StatsSnapshot, flights: u64, what: &str) {
    let d = pmem.stats().snapshot() - before;
    assert_eq!(
        (d.persists, d.async_flushes, d.redundant_persists),
        (flights, flights, 0),
        "{what}"
    );
    assert_eq!(pmem.inflight_tickets(), 0, "commit awaits what it issued");
    assert_eq!(
        d.async_latency_charged_ns,
        flights * LATENCY.as_nanos() as u64
    );
    assert!(
        d.async_latency_waited_ns <= LATENCY.as_nanos() as u64,
        "{what}: more than one level of waiting: {} ns of {} charged",
        d.async_latency_waited_ns,
        d.async_latency_charged_ns
    );
}

#[test]
fn a_group_commit_is_three_persists_as_three_flights_awaited_in_one_level() {
    // Records ‖ header ‖ the heads the previous commit flipped: one
    // level. A fresh store has no dirty head, so its first commit is
    // two flights; every later one three.
    let (pmem, _, kv) = store(PMemBuilder::new().flush_latency(LATENCY));
    let before = pmem.stats().snapshot();
    assert!(kv
        .apply_batch(&puts(0..16))
        .unwrap()
        .iter()
        .all(|o| o.took_effect()));
    assert_one_level(&pmem, before, 2, "records ‖ header");
    let before = pmem.stats().snapshot();
    assert!(kv
        .apply_batch(&puts(16..32))
        .unwrap()
        .iter()
        .all(|o| o.took_effect()));
    assert_one_level(
        &pmem,
        before,
        3,
        "records ‖ header ‖ the first commit's heads",
    );
}

#[test]
fn a_per_op_put_is_a_group_commit_of_one() {
    // A lone put waits one round-trip: its record ‖ the header, and
    // from the second on the previous put's head beside them.
    let (pmem, _, kv) = store(PMemBuilder::new().flush_latency(LATENCY));
    for (key, flights) in [(7, 2), (8, 3)] {
        let before = pmem.stats().snapshot();
        assert!(kv.apply_batch(&puts(key..key + 1)).unwrap()[0].took_effect());
        assert_one_level(&pmem, before, flights, "a lone put");
    }
}

#[test]
fn a_per_op_delete_of_an_absent_key_persists_nothing() {
    let (pmem, _, kv) = store(PMemBuilder::new().flush_latency(LATENCY));
    let before = pmem.stats().snapshot();
    let delete = KvBatchOp::Delete {
        pid: 0,
        seq: 1,
        key: 7,
    };
    assert!(!kv.apply_batch(&[delete]).unwrap()[0].took_effect());
    let d = pmem.stats().snapshot() - before;
    assert_eq!((d.persists, d.async_flushes), (0, 0), "nothing staged");
}

#[test]
fn a_group_commit_is_visible_whole_or_not_at_all_at_every_cut() {
    // A bare group commit's records and header are its last persists:
    // its heads ride the next commit, and a reopen rebuilds them from
    // the stamped log. Cut the power at every event of the commit:
    // keeping no dirty line, no cut before the head CAS shows any of
    // the batch — a flight completes at its await, which consumes no
    // event, and the CAS is the first event after it — and keeping
    // every dirty line (as if every issued flight had completed), the
    // batch shows whole exactly from the header's write on (its records
    // are written before it). Never in part. After `commit` returns, a
    // cut keeps everything.
    let ops: Vec<KvBatchOp> = (0..4)
        .map(|key| KvBatchOp::Put {
            pid: 1,
            seq: key + 1,
            key,
            value: key as i64,
        })
        .collect();
    let fresh = || {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 1, 16, KvVariant::Nsrl).unwrap();
        (pmem, kv)
    };
    let (pmem, kv) = fresh();
    let e0 = pmem.events();
    kv.apply_batch(&ops).unwrap();
    let total = pmem.events() - e0;

    // The commit's events: one write per record, the header's write,
    // then the flights' lines and, after the await, the head CAS. A
    // lottery keeps any subset of the dirty lines: whole or nothing.
    let (header, cas) = (ops.len() as u64, total - 1);
    sweep(
        fresh,
        |(_, kv)| kv.apply_batch(&ops),
        |(pmem, kv), cut| {
            let kv2 = PKvStore::open(pmem, kv.base(), KvVariant::Nsrl).unwrap();
            let visible = kv2.chain(0).unwrap().len();
            let k = cut.event;
            let whole = match cut.survivors {
                Survivors::None => k >= cas,
                Survivors::All => k > header,
                Survivors::Half(_) if k >= cas => true,
                Survivors::Half(_) => visible > 0,
            };
            assert_eq!(visible, if whole { ops.len() } else { 0 }, "{cut}");
        },
    );
}

#[test]
fn a_four_shard_group_commit_waits_one_round_trip_of_twelve_charged() {
    // One level, every shard's flights issued before the first of them
    // is awaited: one shard's wait covers the others'. (Shard by shard
    // it would be 4.) The first commit finds no dirty head: eight
    // flights; the second checkpoints the first's heads: twelve.
    let stripe = PMemBuilder::new()
        .len(1 << 18)
        .flush_latency(LATENCY)
        .build_striped(4);
    let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
    for (keys, per_shard) in [(0..16, 2), (16..32, 3)] {
        let formatted: Vec<u64> = stripe
            .regions()
            .iter()
            .map(|r| r.stats().snapshot().async_flushes)
            .collect();
        let mut batch = kv.batch();
        for op in puts(keys) {
            batch.push(op);
        }
        let before = stripe.aggregate_stats();
        assert!(batch.commit().unwrap().iter().all(|o| o.took_effect()));
        let d = stripe.aggregate_stats() - before;
        for (s, region) in stripe.regions().iter().enumerate() {
            let flights = region.stats().snapshot().async_flushes - formatted[s];
            assert_eq!(flights, per_shard, "shard {s} committed once");
            assert_eq!(region.inflight_tickets(), 0);
        }
        let all = 4 * per_shard;
        assert_eq!(
            (d.persists, d.async_flushes),
            (all, all),
            "{per_shard} flights a shard"
        );
        assert_eq!(d.async_latency_charged_ns, all * LATENCY.as_nanos() as u64);
        assert!(
            d.async_latency_waited_ns <= LATENCY.as_nanos() as u64,
            "more than one level of waiting: {} ns of {} charged",
            d.async_latency_waited_ns,
            d.async_latency_charged_ns
        );
    }
}

#[test]
fn a_sharded_put_is_a_group_commit_of_one_on_its_home_shard() {
    // `ShardedKvStore::put`, what the benchmark's `kv.put_persists`
    // reports: the home shard pays one group commit, the others nothing.
    let stripe = PMemBuilder::new()
        .len(1 << 18)
        .flush_latency(LATENCY)
        .build_striped(4);
    let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
    let key = 7;
    let home = kv.shard_of(key);
    let before: Vec<_> = stripe
        .regions()
        .iter()
        .map(|r| r.stats().snapshot())
        .collect();
    assert!(kv.put(0, 1, key, 70).unwrap());
    for (s, (region, before)) in stripe.regions().iter().zip(before).enumerate() {
        if s != home {
            let d = region.stats().snapshot() - before;
            assert_eq!(d.persists, 0, "shard {s} is not the key's home");
            continue;
        }
        assert_one_level(region, before, 2, "records ‖ header");
    }
}

#[test]
fn begun_windows_hold_two_flights_a_shard_and_publish_nothing_until_committed() {
    let stripe = PMemBuilder::new().len(1 << 18).build_striped(4);
    let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
    let formatted = stripe.aggregate_stats();
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
        assert_eq!(region.inflight_tickets(), 2, "shard {s}: records + header");
    }
    assert!(kv.contents().unwrap().is_empty(), "no bucket head moved");

    for batch in pending {
        assert!(batch.commit().unwrap().iter().all(|o| o.took_effect()));
    }
    assert_eq!(kv.contents().unwrap().len(), 64);
    let agg = stripe.aggregate_stats() - formatted;
    assert_eq!(agg.async_flushes, 8, "records, header a shard");
    for region in stripe.regions() {
        assert_eq!(region.inflight_tickets(), 0);
    }
}

#[test]
fn a_compaction_is_five_persists_in_three_round_trips() {
    // The heap's two interior headers, then the allocation's switch ‖
    // one coalesced flight of the new block however many carries, then
    // the root cell's slot and selector in one line: three levels. The
    // heads the last group commit left dirty ride the middle level, one
    // flight more; a generation with none pays five.
    let (pmem, heap, kv) = store(PMemBuilder::new().flush_latency(LATENCY));
    for chunk in puts(0..128).chunks(16) {
        kv.apply_batch(chunk).unwrap();
    }
    for (dirty, carried) in [(1, 128), (0, 128)] {
        let before = pmem.stats().snapshot();
        assert_eq!(kv.compact(&heap).unwrap().carried, carried);
        let d = pmem.stats().snapshot() - before;
        assert_eq!(
            (d.persists, d.async_flushes, d.redundant_persists),
            (5 + dirty, 4 + dirty, 0),
            "headers ‖ → switch ‖ block (‖ heads) → cell: the cell alone is a plain flush"
        );
        assert_eq!(
            pmem.inflight_tickets(),
            0,
            "compaction awaits what it issued"
        );
        assert!(d.lines_persisted > 128, "every carry slot is its own line");
        assert!(
            d.async_latency_waited_ns <= 3 * LATENCY.as_nanos() as u64,
            "more than three levels of waiting: {} ns planned",
            d.async_latency_waited_ns
        );
    }

    // The bill follows the live set, not the history: 64 live keys
    // compact for the same persists and lines after 512 mutations as
    // after 4096.
    let bill = |history: u64| {
        let log_cap = history + 16;
        let len = (PKvStore::required_len(64, log_cap) * 4).next_power_of_two();
        let pmem = PMemBuilder::new().len(len).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), len as u64).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 64, log_cap, KvVariant::Nsrl).unwrap();
        let ops: Vec<KvBatchOp> = (0..history)
            .map(|i| KvBatchOp::Put {
                pid: 0,
                seq: i + 1,
                key: i % 64,
                value: i as i64,
            })
            .collect();
        for chunk in ops.chunks(64) {
            kv.apply_batch(chunk).unwrap();
        }
        let before = pmem.stats().snapshot();
        assert_eq!(kv.compact(&heap).unwrap().carried, 64);
        let d = pmem.stats().snapshot() - before;
        (d.persists, d.lines_persisted)
    };
    let (shallow, deep) = (bill(512), bill(4096));
    assert_eq!(shallow.0, 6, "five, and the last commit's heads");
    assert_eq!(shallow, deep, "history 512 vs 4096: (persists, lines)");
}

#[test]
fn a_preloaded_window_is_one_level_of_five_persists_and_its_replay_none_on_the_shard() {
    // A static workload is a preloaded request table run as
    // persistent-stack tasks: the served window minus the served
    // path's per-op ack (`pstack-server`'s `persist_budget.rs`: a lone
    // put is 1 + 1 + 3 + 1). The frame is its CALL — its RET is retired
    // into the next CALL. On the shard, one level: the slots' lines
    // (descriptor and answer), the records, the header, and — after an
    // earlier window — the heads that window flipped: 3, then 4.
    // Thirty-two slots make a 34-byte argument block — a byte per slot,
    // two for the shard's header and count — which cannot share the
    // dummy frame's line and is flushed ahead of the flip: 2. Sixteen,
    // 18 bytes, still share it: 1.
    let ops: Vec<KvTaskOp> = (0..32).map(|key| KvTaskOp::Put { key, value: 1 }).collect();
    for (batch, frame, replayed_frame) in [(32, 2, 3), (16, 1, 1)] {
        let stripe = PMemBuilder::new().len(LEN).build_striped(1);
        let shard = stripe.region(0);
        let store = ShardedKvStore::format(stripe.regions(), 8, 256, KvVariant::Nsrl).unwrap();

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
            format_only.lines_persisted + 32,
            "thirty-two descriptors, one coalesced persist"
        );

        let control = PMemBuilder::new().len(1 << 18).build_in_memory();
        let rt = StripedRuntime::format(
            control.clone(),
            stripe.clone(),
            RuntimeConfig::new(1).stack_capacity(4 * 1024),
            &exec.registry().unwrap(),
        )
        .unwrap();
        let run = |task| {
            let before = (control.stats().snapshot(), shard.stats().snapshot());
            let report = rt.run_tasks(vec![task]);
            assert!(!report.crashed && report.task_errors == 0);
            (
                (control.stats().snapshot() - before.0).persists,
                (shard.stats().snapshot() - before.1).persists,
            )
        };

        let tasks = exec.pending_tasks(batch).unwrap();
        assert_eq!(tasks.len(), 32 / batch, "windows of {batch}");
        let replay = tasks[0].clone();
        for (i, task) in tasks.into_iter().enumerate() {
            assert_eq!(
                run(task),
                (frame, if i == 0 { 3 } else { 4 }),
                "windows of {batch}: the frame (frame; slot clear + marker flip; the unit \
                 return + pop flip retired); the slots, the records, the header and the \
                 previous window's heads"
            );
        }
        assert!(exec.pending_tasks(batch).unwrap().is_empty());
        assert_eq!(exec.store().log_reserved_per_shard().unwrap(), vec![32]);

        // Replaying a completed window pays its frame and nothing else:
        // every slot is answered, so nothing is staged, committed or
        // re-answered. A 34-byte frame does not fit the retired pop's
        // line, so its CALL flushes that pop first: 3.
        assert_eq!(run(replay), (replayed_frame, 0), "windows of {batch}");
        assert_eq!(exec.store().log_reserved_per_shard().unwrap(), vec![32]);
    }
}

#[test]
fn a_store_format_waits_four_round_trips_and_a_table_two() {
    // Same persists as one flush each, fewer waits: each allocation
    // awaits its interior headers, and its switch shares the level of
    // what it holds. A store: root headers, generation-0 headers, the
    // switches ‖ root ‖ generation 0, the root cell. A table: headers,
    // then switch ‖ slots.
    let pmem = PMemBuilder::new()
        .flush_latency(LATENCY)
        .len(LEN)
        .build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), LEN as u64).unwrap();
    let latency = LATENCY.as_nanos() as u64;
    let before = pmem.stats().snapshot();
    PKvStore::format(pmem.clone(), &heap, 8, 256, KvVariant::Nsrl).unwrap();
    let d = pmem.stats().snapshot() - before;
    assert_eq!((d.persists, d.redundant_persists), (9, 0));
    assert!(
        d.async_latency_waited_ns <= 4 * latency,
        "more than four levels of waiting: {} ns",
        d.async_latency_waited_ns
    );
    let before = pmem.stats().snapshot();
    KvRequestTable::format(pmem.clone(), &heap, 64).unwrap();
    let d = pmem.stats().snapshot() - before;
    assert_eq!(
        (d.persists, d.redundant_persists),
        (4, 0),
        "a front, a tail"
    );
    assert!(
        d.async_latency_waited_ns <= 2 * latency,
        "more than two levels of waiting: {} ns",
        d.async_latency_waited_ns
    );
    assert_eq!(pmem.inflight_tickets(), 0);
}
