use std::collections::BTreeMap;

use super::layout::{
    decode_record, header_range, round64, write_header, LogHeader, GEN_OFF_LOG_CAP, GEN_OFF_PREV,
    RECORD_STRIDE, WORDS_LEN,
};
use super::*;
use pstack_nvram::{sweep, Cut, PMemBuilder, PsanViolationKind, Survivors, Sweep};

fn fixture(nbuckets: u64, log_cap: u64) -> (PMem, PHeap, PKvStore) {
    // PSan shadows every store test: the protocols must never trip
    // the sanitizer (checked per-test where state is inspected).
    let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, nbuckets, log_cap, KvVariant::Nsrl).unwrap();
    (pmem, heap, kv)
}

/// Opens the store at `base` as a served shard whose descriptors all
/// landed: every claim check of the newest batch passes.
fn open_served(pmem: PMem, base: POffset) -> PKvStore {
    let claims = |_: &[(u32, u32)]| Ok(true);
    PKvStore::open_with(pmem, base, KvVariant::Nsrl, Some(&claims)).unwrap()
}

/// A served window's group commit alone: op `i` executes slot `i`
/// under claim 1.
fn commit_served(kv: &PKvStore, ops: &[KvBatchOp]) -> Result<Vec<KvApplied>, PError> {
    let served: Vec<(u32, u32)> = (0..ops.len() as u32).map(|slot| (slot, 1)).collect();
    let mut pending = kv.begin_served(ops, &served, false)?;
    pending.issue_own()?;
    pending.commit()
}

const fn put(pid: u64, seq: u64, key: u64, value: i64) -> KvBatchOp {
    KvBatchOp::Put {
        pid,
        seq,
        key,
        value,
    }
}

const fn del(pid: u64, seq: u64, key: u64) -> KvBatchOp {
    KvBatchOp::Delete { pid, seq, key }
}

const fn cas(pid: u64, seq: u64, key: u64, expected: i64, new: i64) -> KvBatchOp {
    KvBatchOp::Cas {
        pid,
        seq,
        key,
        expected,
        new,
    }
}

/// A group commit of `op` alone; `true` iff it took effect.
fn apply(kv: &PKvStore, op: KvBatchOp) -> Result<bool, PError> {
    Ok(kv.apply_batch(&[op])?[0].took_effect())
}

/// A [`PKvStore::recover_batch`] of `op` alone; `true` iff it took
/// effect (before the crash or now).
fn recover(kv: &PKvStore, op: KvBatchOp) -> Result<bool, PError> {
    Ok(kv.recover_batch(&[op])?[0].took_effect())
}

#[test]
fn put_get_delete_cas_semantics() {
    let (_, _, kv) = fixture(8, 64);
    assert_eq!(kv.get(1).unwrap(), None);
    assert!(apply(&kv, put(0, 1, 1, 100)).unwrap());
    assert!(apply(&kv, put(0, 2, 2, 200)).unwrap());
    assert_eq!(kv.get(1).unwrap(), Some(100));
    assert!(apply(&kv, put(0, 3, 1, 101)).unwrap(), "overwrite succeeds");
    assert_eq!(kv.get(1).unwrap(), Some(101));
    assert!(
        !apply(&kv, cas(0, 4, 1, 100, 999)).unwrap(),
        "stale expected fails"
    );
    assert!(apply(&kv, cas(0, 5, 1, 101, 102)).unwrap());
    assert_eq!(kv.get(1).unwrap(), Some(102));
    assert!(
        !apply(&kv, cas(0, 6, 99, 0, 1)).unwrap(),
        "absent key fails cas"
    );
    assert!(apply(&kv, del(0, 7, 1)).unwrap());
    assert_eq!(kv.get(1).unwrap(), None);
    assert!(
        !apply(&kv, del(0, 8, 1)).unwrap(),
        "double delete reports absent"
    );
    assert!(
        !apply(&kv, cas(0, 9, 1, 102, 103)).unwrap(),
        "deleted key fails cas"
    );
    assert_eq!(kv.get(2).unwrap(), Some(200));
}

#[test]
fn put_after_delete_reinserts() {
    let (_, _, kv) = fixture(4, 32);
    apply(&kv, put(0, 1, 5, 50)).unwrap();
    apply(&kv, del(0, 2, 5)).unwrap();
    assert!(apply(&kv, put(0, 3, 5, 51)).unwrap());
    assert_eq!(kv.get(5).unwrap(), Some(51));
}

#[test]
fn log_capacity_is_lifetime_bounded() {
    let (_, _, kv) = fixture(2, 3);
    assert!(apply(&kv, put(0, 1, 1, 1)).unwrap());
    assert!(apply(&kv, put(0, 2, 2, 2)).unwrap());
    assert!(apply(&kv, put(0, 3, 3, 3)).unwrap());
    assert!(!apply(&kv, put(0, 4, 4, 4)).unwrap(), "log exhausted");
    // Deletes and cas also need log slots.
    assert!(!apply(&kv, del(0, 5, 1)).unwrap());
    assert!(!apply(&kv, cas(0, 6, 1, 1, 9)).unwrap());
    // Reads still work.
    assert_eq!(kv.get(2).unwrap(), Some(2));
    assert_eq!(kv.log_reserved().unwrap(), 3);
}

#[test]
fn uncommitted_pending_batch_leaves_invisible_orphans() {
    let (pmem, _, kv) = fixture(8, 64);
    let formatted = pmem.stats().snapshot();
    let pending = kv.apply_batch_begin(&[put(0, 1, 7, 70)]).unwrap();
    assert!(pending.is_staged());
    drop(pending);
    // Records staged but never published: invisible, no heads
    // published, the slot voided, and every flight — records ‖ header,
    // then the void's records and header — simply drained by the next
    // synchronization point.
    assert_eq!(kv.get(7).unwrap(), None);
    let d = pmem.stats().snapshot() - formatted;
    assert_eq!(d.async_flushes, 4, "records + header, voids + header");
    pmem.fence();
    assert_eq!(pmem.inflight_tickets(), 0);
    assert!(
        apply(&kv, put(0, 2, 7, 71)).unwrap(),
        "store still writable"
    );
    assert_eq!(kv.get(7).unwrap(), Some(71));

    // A power failure right after the drop, every dirty line lost or
    // every one kept: the dropped batch never shows, before or after a
    // later commit, and the later commit survives.
    for prob in [0.0, 1.0] {
        for later in [false, true] {
            let at = format!("survivors {prob}, a later commit {later}");
            let (pmem, _, kv) = fixture(8, 64);
            apply(&kv, put(0, 1, 3, 30)).unwrap();
            drop(
                kv.apply_batch_begin(&[put(0, 2, 7, 70), put(0, 3, 8, 80)])
                    .unwrap(),
            );
            if later {
                apply(&kv, put(0, 4, 9, 90)).unwrap();
            }
            pmem.crash_now(5, prob);
            let kv2 = PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
            assert_eq!(kv2.get(7).unwrap(), None, "{at}");
            assert_eq!(kv2.get(8).unwrap(), None, "{at}");
            assert_eq!(kv2.get(3).unwrap(), Some(30), "{at}");
            assert_eq!(kv2.get(9).unwrap(), later.then_some(90), "{at}");
            assert!(recover(&kv2, put(0, 2, 7, 70)).unwrap(), "{at}");
            assert_eq!(kv2.get(7).unwrap(), Some(70), "{at}: re-executed once");
        }
    }
}

#[test]
fn pipelined_compaction_preserves_live_state() {
    let (pmem, heap, kv) = fixture(8, 256);
    for i in 0..128u64 {
        assert!(apply(&kv, put(0, i + 1, i, i as i64)).unwrap());
    }
    let stats = kv.compact(&heap).unwrap();
    assert_eq!(stats.carried, 128);
    assert_eq!(pmem.inflight_tickets(), 0, "compaction leaves no flight");
    pmem.crash_now(0, 0.0);
    let pmem2 = pmem.reopen().unwrap();
    let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
    assert_eq!(kv2.generation().unwrap(), 1);
    for i in 0..128u64 {
        assert_eq!(kv2.get(i).unwrap(), Some(i as i64));
    }
    assert!(pmem2.psan_violations().is_empty());
}

#[test]
fn a_snapshot_walks_the_generation_list_once() {
    // Two generations: eight keys put, compacted (carried into
    // generation 1), and four of them overwritten there.
    const BUCKETS: u64 = 16;
    let (pmem, heap, kv) = fixture(BUCKETS, 64);
    for key in 0..8u64 {
        assert!(apply(&kv, put(0, key + 1, key, key as i64)).unwrap());
    }
    kv.compact(&heap).unwrap();
    for key in 0..4u64 {
        assert!(apply(&kv, put(0, key + 9, key, -(key as i64))).unwrap());
    }
    let reads = || pmem.stats().snapshot().reads;
    let r0 = reads();
    assert_eq!(kv.gens_oldest_first().unwrap().len(), 2);
    assert_eq!(
        reads() - r0,
        5,
        "the walk: the active generation from the index 0, its prev 1, \
         the retired generation's header 3 and its prev 1"
    );
    let r0 = reads();
    let snapshot = kv.snapshot().unwrap();
    let records = snapshot.iter().map(Vec::len).sum::<usize>() as u64;
    assert_eq!(
        records,
        8 + 8 + 4,
        "generation 0's puts, the carries, the overwrites"
    );
    assert_eq!(
        reads() - r0,
        5 + BUCKETS + records,
        "one walk, a head per bucket of the retired generation (the active \
         one's are the index's), a read per record"
    );
}

#[test]
fn buffered_region_yields_a_batched_store() {
    let (pmem, _, kv) = fixture(8, 64);
    let formatted = pmem.stats().snapshot();
    assert!(apply(&kv, put(0, 1, 7, 70)).unwrap());
    assert!(apply(&kv, cas(0, 2, 7, 70, 71)).unwrap());
    assert_eq!(kv.get(7).unwrap(), Some(71));
    // Every one-op batch is a group commit of one — records ‖ header,
    // and from the second on the previous one's head beside them — and
    // its record and header are durable before it returns; its head,
    // left dirty, is rebuilt from the log by the reopen.
    let d = pmem.stats().snapshot() - formatted;
    assert_eq!(d.async_flushes, 2 + 3);
    pmem.crash_now(0, 0.0);
    let pmem2 = pmem.reopen().unwrap();
    let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
    assert_eq!(kv2.get(7).unwrap(), Some(71));
    assert_eq!(kv2.log_reserved().unwrap(), 2);
    assert!(pmem.psan_violations().is_empty());
}

#[test]
fn batch_sees_its_own_staged_effects() {
    let (pmem, _, kv) = fixture(4, 64);
    let formatted = pmem.stats().snapshot();
    let out = kv
        .apply_batch(&[
            put(0, 1, 1, 10),
            cas(0, 2, 1, 10, 11),
            del(0, 3, 1),
            put(0, 4, 1, 12),
            cas(0, 5, 9, 0, 1),
            del(0, 6, 9),
        ])
        .unwrap();
    assert_eq!(
        out,
        vec![
            KvApplied::Applied,
            KvApplied::Applied,
            KvApplied::Applied,
            KvApplied::Applied,
            KvApplied::PrecondFailed,
            KvApplied::PrecondFailed,
        ]
    );
    assert_eq!(kv.get(1).unwrap(), Some(12));
    assert_eq!(kv.get(9).unwrap(), None);
    assert_eq!(
        (pmem.stats().snapshot() - formatted).async_flushes,
        2,
        "one commit for the batch: records ‖ header"
    );
}

#[test]
fn empty_and_no_effect_batches_skip_the_flush_protocol() {
    let (pmem, _, kv) = fixture(4, 64);
    apply(&kv, put(0, 1, 5, 50)).unwrap();
    let before = pmem.stats().snapshot();
    assert!(kv.apply_batch(&[]).unwrap().is_empty());
    let out = kv.apply_batch(&[del(0, 2, 99)]).unwrap();
    assert_eq!(out, vec![KvApplied::PrecondFailed]);
    let delta = pmem.stats().snapshot() - before;
    assert_eq!(
        (delta.persists, delta.async_flushes),
        (0, 0),
        "nothing staged, nothing persisted"
    );
}

#[test]
fn group_commit_coalesces_persists() {
    // The batching headline: k mutations in one batch cost far
    // fewer persist round-trips than k singleton commits.
    let (batched_pmem, _, batched) = fixture(4, 64);
    let (per_op_pmem, _, per_op) = fixture(4, 64);
    let ops: Vec<KvBatchOp> = (0..16).map(|i| put(0, i + 1, i, i as i64)).collect();

    let before = batched_pmem.stats().snapshot();
    assert!(batched
        .apply_batch(&ops)
        .unwrap()
        .iter()
        .all(|o| o.took_effect()));
    let batched_delta = batched_pmem.stats().snapshot() - before;

    let before = per_op_pmem.stats().snapshot();
    for &op in &ops {
        assert!(per_op.apply_batch(&[op]).unwrap()[0].took_effect());
    }
    let per_op_delta = per_op_pmem.stats().snapshot() - before;

    assert_eq!(batched.contents().unwrap(), per_op.contents().unwrap());
    assert!(
        batched_delta.persists * 3 <= per_op_delta.persists,
        "batched {} vs per-op {} persist round-trips",
        batched_delta.persists,
        per_op_delta.persists,
    );
    assert!(
        batched_delta.coalesced_lines > 0,
        "record persists must coalesce: {batched_delta:?}"
    );
}

#[test]
fn log_full_mid_batch_reports_per_op() {
    let (_, _, kv) = fixture(2, 2);
    let ops: Vec<KvBatchOp> = (0..4).map(|i| put(0, i + 1, i, 1)).collect();
    let out = kv.apply_batch(&ops).unwrap();
    assert_eq!(
        out,
        vec![
            KvApplied::Applied,
            KvApplied::Applied,
            KvApplied::LogFull,
            KvApplied::LogFull,
        ]
    );
    assert_eq!(kv.contents().unwrap().len(), 2);
}

/// The batch-window sweeps' check on the reopened store: no torn state,
/// each bucket all or nothing of the batch, and the recovery duals
/// complete the batch exactly once.
fn assert_batch_recovers(kv: &PKvStore, ops: &[KvBatchOp], want: &BTreeMap<u64, i64>, cut: &Cut) {
    // No torn state: every published record decodes, every chain
    // walks, and published tags are unique.
    let mut tags = std::collections::HashSet::new();
    for chain in kv.snapshot().unwrap() {
        for rec in chain {
            assert!(tags.insert((rec.pid, rec.seq)), "{cut}: dup tag");
        }
    }
    // Per-bucket all-or-nothing: a bucket publishes either none or all
    // of its batch records (one head flip per bucket).
    for bucket in 0..2 {
        let batch_recs = kv
            .chain(bucket)
            .unwrap()
            .iter()
            .filter(|r| r.pid == 1)
            .count();
        let full = ops.iter().filter(|op| mix(op.key()) % 2 == bucket).count();
        assert!(
            batch_recs == 0 || batch_recs == full,
            "{cut}: bucket {bucket} published {batch_recs}/{full} — torn batch"
        );
    }
    // Recovery duals complete the batch exactly once.
    for &op in ops {
        assert!(recover(kv, op).unwrap(), "{cut}: {op:?}");
    }
    assert_eq!(kv.contents().unwrap(), *want, "{cut}");
    let published: usize = kv.snapshot().unwrap().iter().map(Vec::len).sum();
    assert_eq!(published, ops.len(), "{cut}: duplicate application");
}

/// A two-bucket store in a PSan-shadowed region, the batch sweeps'
/// starting point.
fn two_buckets() -> (PMem, PKvStore) {
    let pmem = PMemBuilder::new().len(1 << 16).psan(true).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 2, 16, KvVariant::Nsrl).unwrap();
    (pmem, kv)
}

const BATCH: [KvBatchOp; 5] = [
    put(1, 1, 0, 10),
    put(1, 2, 2, 20),
    // Same bucket pressure: nbuckets = 2, so keys collide and chain
    // within the batch.
    put(1, 3, 4, 40),
    cas(1, 4, 0, 10, 11),
    del(1, 5, 2),
];

#[test]
fn batch_crash_points_leave_no_lost_or_torn_heads() {
    // The group-commit publish path, exhaustively: crash at every
    // persistence event inside a batch window. After recovery the
    // published state must be per-bucket all-or-nothing (no torn
    // heads), and the recovery duals must complete every op exactly
    // once.
    let (_, kv) = two_buckets();
    assert!(kv
        .apply_batch(&BATCH)
        .unwrap()
        .iter()
        .all(|o| o.took_effect()));
    let want = kv.contents().unwrap();
    let events = sweep(
        two_buckets,
        |(_, kv)| kv.apply_batch(&BATCH),
        |(pmem, kv), cut| {
            let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
            assert_batch_recovers(&kv, &BATCH, &want, cut);
            cut.assert_psan_clean(pmem.psan_violations());
        },
    );
    assert!(
        events[0] > 8,
        "the batch window spans many flush boundaries"
    );
}

#[test]
fn pipelined_crash_points_keep_exactly_the_completed_flight_prefix() {
    // The sweep above, counted against the flush queue: crash at
    // every persistence event inside a batch window, so kills land
    // with zero, one, and two flights in the device queue —
    // before the first issue, between the record and tail issues,
    // between issue and await, and after the publish CAS. Whatever
    // the cut, recovery must see exactly the completed-flight
    // prefix durable: decodable records, unique tags, per-bucket
    // all-or-nothing heads, and recovery duals that finish the
    // batch exactly once.
    //
    // Golden run: the batch stages two overlapping flights (records
    // and header), both still queued when `begin` returns.
    let (pmem, kv) = two_buckets();
    let e0 = pmem.events();
    let pending = kv.apply_batch_begin(&BATCH).unwrap();
    let staged_events = pmem.events() - e0;
    assert_eq!(pmem.inflight_tickets(), 2, "records + header in flight");
    assert!(pending.commit().unwrap().iter().all(|o| o.took_effect()));
    let total = pmem.events() - e0;
    let want = kv.contents().unwrap();
    assert!(total > staged_events, "publish consumes events too");

    let mut inflight_kills = 0usize;
    sweep(
        two_buckets,
        |(_, kv)| kv.apply_batch(&BATCH),
        |(pmem, kv), cut| {
            // Countdowns landing before the staging point cut the
            // window while flights are still queued on the device.
            inflight_kills += usize::from(cut.event < staged_events);
            let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
            assert_batch_recovers(&kv, &BATCH, &want, cut);
            cut.assert_psan_clean(pmem.psan_violations());
        },
    );
    assert!(
        inflight_kills > 2,
        "the sweep never cut the window with flights in flight"
    );

    // One more input: a two-shard `KvBatch`, both shards moving
    // through the commit's levels together (every heads flight
    // issued before the first is awaited). Power fails at every
    // event of each region. Per shard, each bucket is all-or-nothing;
    // nothing orders one shard against the other.
    use crate::shard::ShardedKvStore;
    let mut ops: Vec<KvBatchOp> = (0..6u64)
        .map(|key| KvBatchOp::Put {
            pid: 1,
            seq: key + 1,
            key,
            value: key as i64 * 10,
        })
        .collect();
    ops.push(cas(1, 7, 1, 10, 11));
    ops.push(del(1, 8, 2));
    let probe = || {
        let stripe = PMemBuilder::new().len(1 << 16).psan(true).build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 2, 16, KvVariant::Nsrl).unwrap();
        (stripe, kv)
    };
    let commit = |kv: &ShardedKvStore| {
        let mut batch = kv.batch();
        ops.iter().for_each(|&op| batch.push(op));
        batch.commit()
    };
    let recover = |kv: &ShardedKvStore, op: KvBatchOp| recover(kv.shard(kv.shard_of(op.key())), op);

    let (_, kv) = probe();
    assert!(commit(&kv).unwrap().iter().all(|o| o.took_effect()));
    let want = kv.contents().unwrap();
    let events = sweep(
        probe,
        |(_, kv)| commit(kv),
        |(stripe, _), cut| {
            let kv = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl).unwrap();
            for s in 0..2 {
                for bucket in 0..2 {
                    let batch_recs = kv
                        .shard(s)
                        .chain(bucket)
                        .unwrap()
                        .iter()
                        .filter(|r| r.pid == 1)
                        .count();
                    let full = ops
                        .iter()
                        .filter(|op| kv.shard_of(op.key()) == s && mix(op.key()) % 2 == bucket)
                        .count();
                    assert!(
                        batch_recs == 0 || batch_recs == full,
                        "{cut}: shard {s} bucket {bucket} published {batch_recs}/{full}"
                    );
                }
            }
            for &op in &ops {
                assert!(recover(&kv, op).unwrap(), "{cut}: {op:?}");
            }
            assert_eq!(kv.contents().unwrap(), want, "{cut}");
            let published: usize = kv
                .snapshot_sharded()
                .unwrap()
                .iter()
                .flatten()
                .map(Vec::len)
                .sum();
            assert_eq!(published, ops.len(), "{cut}: duplicate application");
            cut.assert_psan_clean(stripe.psan_violations());
        },
    );
    assert!(events.iter().all(|&n| n > 0), "both shards take part");
}

#[test]
fn independently_opened_handles_serialize_group_commits() {
    // The batch lock is region-scoped, not handle-scoped: a second
    // handle from PKvStore::open (not a clone) must serialize with
    // the first, or concurrent commits would race the publish CAS.
    let (pmem, _, kv) = fixture(4, 4096);
    let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
    let per = 256u64;
    std::thread::scope(|s| {
        for (w, handle) in [kv.clone(), kv2].into_iter().enumerate() {
            s.spawn(move || {
                let w = w as u64;
                let ops: Vec<KvBatchOp> = (0..per)
                    .map(|i| put(w, i + 1, w * per + i, i as i64))
                    .collect();
                for chunk in ops.chunks(16) {
                    assert!(handle
                        .apply_batch(chunk)
                        .unwrap()
                        .iter()
                        .all(|o| o.took_effect()));
                }
            });
        }
    });
    assert_eq!(kv.contents().unwrap().len(), 2 * per as usize);
    assert_eq!(kv.log_reserved().unwrap(), 2 * per);
}

#[test]
fn recover_batch_completes_exactly_once_and_is_idempotent() {
    let (_, _, kv) = fixture(4, 64);
    assert!(apply(&kv, put(1, 1, 10, 100)).unwrap());
    let ops = [
        // Linearized before the "crash": evidence skips it.
        put(1, 1, 10, 100),
        // Never ran: re-executed through the group commit.
        put(1, 2, 11, 110),
        // No evidence and no key: re-executes to a clean no-effect.
        del(1, 3, 99),
    ];
    for round in 0..2 {
        let out = kv.recover_batch(&ops).unwrap();
        assert_eq!(
            out,
            vec![
                KvApplied::Applied,
                KvApplied::Applied,
                KvApplied::PrecondFailed,
            ],
            "recovery round {round}"
        );
        let published: usize = kv.snapshot().unwrap().iter().map(Vec::len).sum();
        assert_eq!(published, 2, "recovery round {round}: no duplicates");
    }
    assert_eq!(kv.get(11).unwrap(), Some(110));
}

#[test]
fn two_concurrent_replays_of_one_op_take_one_effect() {
    // Two frames naming one pending slot, recovered in parallel: the
    // second replay scans in the exclusive section the first one's
    // group commit holds, so it finds the first's evidence — it
    // does not scan first, miss, and then apply a second time. The
    // second replays the op alone, then behind an op that never ran.
    let op = put(3, 7, 12, 120);
    let seconds: [&(dyn Fn(&PKvStore) -> bool + Sync); 2] =
        [&|kv| recover(kv, op).unwrap(), &|kv| {
            kv.recover_batch(&[put(3, 8, 13, 130), op]).unwrap() == [KvApplied::Applied; 2]
        }];
    for (input, second) in seconds.into_iter().enumerate() {
        let (_, _, kv) = fixture(4, 64);
        let mut first = kv.recover_batch_begin(&[op], None).unwrap();
        first.issue_own().unwrap();
        std::thread::scope(|s| {
            let second = s.spawn(|| second(&kv));
            // Time for the second replay to reach the gate. Its
            // outcome does not hang on it: an ungated scan would
            // have run — and missed — in this pause.
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(first.commit().unwrap(), vec![KvApplied::Applied]);
            assert!(second.join().unwrap(), "input {input}");
        });
        let effects = kv.snapshot().unwrap().into_iter().flatten();
        let effects = effects.filter(|r| (r.pid, r.seq) == (3, 7)).count();
        assert_eq!(effects, 1, "input {input}: one effect for two replays");
    }
}

#[test]
fn recover_batch_noscan_double_applies() {
    let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 18).unwrap();
    let kv = PKvStore::format(pmem, &heap, 4, 32, KvVariant::NoScan).unwrap();
    assert!(apply(&kv, put(0, 1, 1, 10)).unwrap());
    let out = kv.recover_batch(&[put(0, 1, 1, 10)]).unwrap();
    assert_eq!(out, vec![KvApplied::Applied]);
    let published: usize = kv.snapshot().unwrap().iter().map(Vec::len).sum();
    assert_eq!(published, 2, "no-scan batched recovery must re-execute");
}

#[test]
fn a_get_of_heads_a_window_left_dirty_persists_nothing_and_survives_a_power_failure() {
    // The read rule, as an equality. Every commit — a served window's,
    // and a bare one — leaves its heads dirty, and the stamped log
    // covers them: a durable read of any of them persists nothing — no
    // persist, no line, no flush call, no event, not even a
    // redundant-persist count — and its answer survives a power failure
    // that keeps no dirty line, since the reopen replays the batches.
    let (pmem, _heap, kv) = fixture(64, 64);
    let window: Vec<_> = (0..8u64).map(|k| put(1, k + 1, k, 10 + k as i64)).collect();
    let bare: Vec<_> = (8..16u64)
        .map(|k| put(1, k + 1, k, 10 + k as i64))
        .collect();
    commit_served(&kv, &window).unwrap();
    kv.apply_batch(&bare).unwrap();
    let gen = kv.active_gen().unwrap();
    assert!(
        (8..16u64).all(|k| pmem
            .is_dirty(kv.bucket_off_at(&gen, kv.bucket_of(k)), 8)
            .unwrap()),
        "every head the last commit flipped is dirty"
    );
    let (e0, before) = (pmem.events(), pmem.stats().snapshot());
    for k in 0..16u64 {
        assert_eq!(kv.get_durable(k).unwrap(), Some(10 + k as i64));
    }
    assert_eq!(kv.get_durable(99).unwrap(), None);
    let d = pmem.stats().snapshot() - before;
    assert_eq!(
        (
            d.persists,
            d.lines_persisted,
            d.flush_calls,
            d.redundant_persists
        ),
        (0, 0, 0, 0)
    );
    assert_eq!(pmem.events(), e0);
    pmem.crash_now(0, 0.0);
    let kv2 = open_served(pmem.reopen().unwrap(), kv.base());
    for k in 0..16u64 {
        assert_eq!(kv2.get(k).unwrap(), Some(10 + k as i64), "key {k} survives");
    }
    assert!(pmem.psan_violations().is_empty());
}

#[test]
fn a_store_whose_newest_batch_is_served_opens_only_with_its_claims() {
    // A served batch at `L` is published only against its request
    // table's claims: the store alone refuses it rather than guess, and
    // one that can ask replays it.
    let (pmem, _, kv) = fixture(8, 32);
    commit_served(&kv, &[put(1, 1, 42, -7)]).unwrap();
    assert!(matches!(
        PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl),
        Err(PError::InvalidConfig(_))
    ));
    assert_eq!(open_served(pmem, kv.base()).get(42).unwrap(), Some(-7));
}

#[test]
fn open_round_trips_and_rejects_garbage() {
    let (pmem, heap, kv) = fixture(8, 32);
    apply(&kv, put(1, 1, 42, -7)).unwrap();
    let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
    assert_eq!(kv2.nbuckets(), 8);
    assert_eq!(kv2.log_capacity().unwrap(), 32);
    assert_eq!(kv2.get(42).unwrap(), Some(-7));
    let junk = heap.alloc_zeroed(128).unwrap();
    assert!(matches!(
        PKvStore::open(pmem, junk, KvVariant::Nsrl),
        Err(PError::CorruptStack(_))
    ));
}

#[test]
fn open_refuses_a_version_2_image_with_a_typed_error() {
    // An image of the format before stamped records: its log holds no
    // stamps to replay, so it is refused by name, not misread.
    let (pmem, _, kv) = fixture(8, 32);
    apply(&kv, put(1, 1, 42, -7)).unwrap();
    let magic = kv.base() + layout::OFF_MAGIC;
    pmem.write_u64(magic, layout::KV_MAGIC_V2).unwrap();
    match PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl) {
        Err(PError::CorruptStack(msg)) => {
            assert!(
                msg.contains("version-2") && msg.contains("PSKVSTO2"),
                "{msg}"
            );
        }
        other => panic!("a version-2 image opened: {other:?}"),
    }
    pmem.write_u64(magic, layout::KV_MAGIC).unwrap();
    let kv2 = PKvStore::open(pmem, kv.base(), KvVariant::Nsrl).unwrap();
    assert_eq!(kv2.get(42).unwrap(), Some(-7));
}

/// Runs `walk` on `kv` on a thread of its own: `Some` of its result if
/// it returns within ten seconds, `None` if it hangs.
fn bounded<T: Send + 'static>(kv: &PKvStore, walk: fn(&PKvStore) -> T) -> Option<T> {
    let (kv, (tx, rx)) = (kv.clone(), std::sync::mpsc::channel());
    std::thread::spawn(move || tx.send(walk(&kv)));
    rx.recv_timeout(std::time::Duration::from_secs(10)).ok()
}

#[test]
fn a_link_that_does_not_go_down_is_a_typed_error_not_a_hang() {
    // A chain runs from higher log offsets to lower, and a generation's
    // `prev` to a lower number. A record whose `next` names itself or a
    // record above it, or a generation whose `prev` names itself, read
    // back from a corrupt image, would make every walk over it a cycle:
    // each walk ends with a typed error instead.
    type Walk = fn(&PKvStore) -> Result<(), PError>;
    let walks: [(&str, Walk); 3] = [
        ("contents", |kv| kv.contents().map(drop)),
        ("get", |kv| kv.get(1).map(drop)),
        ("recover_batch", |kv| {
            kv.recover_batch(&[put(2, 1, 9, 9)]).map(drop)
        }),
    ];
    for up in [0, RECORD_STRIDE] {
        let (pmem, _, kv) = fixture(1, 32);
        for k in 1..=3 {
            assert!(apply(&kv, put(1, k, k, k as i64)).unwrap());
        }
        let gen = kv.active_gen().unwrap();
        let head = pmem.read_u64(kv.bucket_off_at(&gen, 0)).unwrap();
        let below = decode_record(&kv.read_slot(head).unwrap()).4;
        assert!(
            below > 0 && below + RECORD_STRIDE <= head,
            "a chain of three"
        );
        pmem.write_u64(POffset::new(below + 40), below + up)
            .unwrap();
        for (what, walk) in walks {
            match bounded(&kv, walk) {
                Some(Err(PError::CorruptStack(_))) => {}
                other => panic!("{what}, next {up} above its record: {other:?}"),
            }
        }
    }
    let (pmem, heap, kv) = fixture(4, 16);
    apply(&kv, put(1, 1, 1, 1)).unwrap();
    kv.compact(&heap).unwrap();
    let gen = kv.active_gen().unwrap();
    pmem.write_u64(POffset::new(gen.base + GEN_OFF_PREV), gen.base)
        .unwrap();
    match bounded(&kv, |kv| kv.generations().map(drop)) {
        Some(Err(PError::CorruptStack(_))) => {}
        other => panic!("generation 1's prev names itself: {other:?}"),
    }
}

#[test]
fn open_refuses_counts_that_overrun_the_region_with_a_typed_error() {
    // Byte 143 ^ 0x80 of a populated image — the bucket count's top
    // byte in that image — made `open` multiply with overflow; a zero
    // count, and a log past the region, are the same kind of lie.
    let (pmem, _, kv) = fixture(8, 32);
    apply(&kv, put(1, 1, 1, 1)).unwrap();
    let gen = kv.active_gen().unwrap();
    let nbuckets = kv.base() + OFF_NBUCKETS;
    let log_cap = POffset::new(gen.base + GEN_OFF_LOG_CAP);
    for (at, word) in [
        (nbuckets, 8 | 0x80 << 56),
        (nbuckets, 0),
        (nbuckets, u64::MAX / 8),
        (log_cap, 32 | 0x80 << 56),
        (log_cap, 1 << 40),
    ] {
        let old = pmem.read_u64(at).unwrap();
        pmem.write_u64(at, word).unwrap();
        match PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl) {
            Err(PError::CorruptStack(_)) => {}
            other => panic!("{word:#x} at {at}: {other:?}"),
        }
        pmem.write_u64(at, old).unwrap();
    }
    PKvStore::open(pmem, kv.base(), KvVariant::Nsrl).unwrap();
}

#[test]
fn contents_and_chains_reflect_history() {
    let (_, _, kv) = fixture(4, 64);
    apply(&kv, put(0, 1, 10, 1)).unwrap();
    apply(&kv, put(0, 2, 11, 2)).unwrap();
    apply(&kv, put(0, 3, 10, 3)).unwrap();
    apply(&kv, del(0, 4, 11)).unwrap();
    let contents = kv.contents().unwrap();
    assert_eq!(contents.get(&10), Some(&3));
    assert_eq!(contents.get(&11), None);
    let total: usize = kv.snapshot().unwrap().iter().map(Vec::len).sum();
    assert_eq!(total, 4, "every published mutation appears exactly once");
    // The delete record carries the removed value.
    let del = kv
        .snapshot()
        .unwrap()
        .into_iter()
        .flatten()
        .find(|r| r.is_delete)
        .unwrap();
    assert_eq!(del.key, 11);
    assert_eq!(del.value, 2);
}

#[test]
fn state_survives_crash_and_reopen() {
    let (pmem, _, kv) = fixture(8, 64);
    apply(&kv, put(0, 1, 7, 70)).unwrap();
    apply(&kv, put(0, 2, 8, 80)).unwrap();
    apply(&kv, del(0, 3, 8)).unwrap();
    pmem.crash_now(0, 0.0); // every op was durable as it returned
    let pmem2 = pmem.reopen().unwrap();
    let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
    assert_eq!(kv2.get(7).unwrap(), Some(70));
    assert_eq!(kv2.get(8).unwrap(), None);
}

#[test]
fn recovery_sees_linearized_ops() {
    let (_, _, kv) = fixture(8, 64);
    assert!(apply(&kv, put(3, 9, 1, 11)).unwrap());
    assert!(recover(&kv, put(3, 9, 1, 11)).unwrap());
    assert_eq!(kv.log_reserved().unwrap(), 1, "no second application");
    assert!(apply(&kv, cas(2, 10, 1, 11, 12)).unwrap());
    assert!(recover(&kv, cas(2, 10, 1, 11, 12)).unwrap());
    assert!(apply(&kv, del(1, 11, 1)).unwrap());
    assert!(recover(&kv, del(1, 11, 1)).unwrap());
    assert_eq!(kv.log_reserved().unwrap(), 3);
    assert_eq!(kv.get(1).unwrap(), None);
}

#[test]
fn recovery_reexecutes_unlinearized_ops() {
    let (_, _, kv) = fixture(8, 64);
    assert!(recover(&kv, put(0, 1, 5, 55)).unwrap());
    assert_eq!(kv.get(5).unwrap(), Some(55));
    assert!(recover(&kv, del(0, 2, 5)).unwrap());
    assert_eq!(kv.get(5).unwrap(), None);
    assert!(!recover(&kv, cas(0, 3, 5, 55, 56)).unwrap());
}

#[test]
fn noscan_variant_double_applies() {
    let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 18).unwrap();
    let kv = PKvStore::format(pmem, &heap, 4, 32, KvVariant::NoScan).unwrap();
    assert!(apply(&kv, put(0, 1, 1, 10)).unwrap());
    assert!(recover(&kv, put(0, 1, 1, 10)).unwrap());
    let records: Vec<VersionRecord> = kv.snapshot().unwrap().into_iter().flatten().collect();
    assert_eq!(records.len(), 2, "double application must be visible");
    assert_eq!(records[0].seq, records[1].seq);
}

/// Sweeps a one-op group commit of `op` over a store `probe` builds:
/// from every cut, `op`'s recovery dual takes effect once, and the
/// reopened store passes `check`.
fn sweep_one_op(
    probe: impl Fn() -> (PMem, PKvStore),
    op: KvBatchOp,
    check: impl Fn(&PKvStore, &Cut),
) -> Vec<u64> {
    sweep(
        probe,
        |(_, kv)| apply(kv, op),
        |(pmem, kv), cut| {
            let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
            assert!(recover(&kv, op).unwrap(), "{cut}");
            check(&kv, cut);
            cut.assert_psan_clean(pmem.psan_violations());
        },
    )
}

/// The number of published records.
fn published(kv: &PKvStore) -> usize {
    kv.snapshot().unwrap().iter().map(Vec::len).sum()
}

/// A four-bucket store holding one put of key 7.
fn with_key_7() -> (PMem, PKvStore) {
    let (pmem, _, kv) = fixture(4, 16);
    apply(&kv, put(0, 1, 7, 77)).unwrap();
    (pmem, kv)
}

#[test]
fn crash_point_enumeration_put_recovers_exactly_once() {
    // A one-op put — a group commit of one — cut at every
    // persistence event: the record write, the header's, the record
    // and header flights, the head CAS. Wherever the crash lands, the
    // evidence scan answers exactly-once and PSan stays silent.
    let probe = || {
        let (pmem, _, kv) = fixture(4, 16);
        (pmem, kv)
    };
    let events = sweep_one_op(probe, put(0, 1, 7, 77), |kv, cut| {
        assert_eq!(kv.get(7).unwrap(), Some(77), "{cut}");
        assert_eq!(published(kv), 1, "{cut}: exactly one record");
    });
    assert!(events[0] >= 5, "record + header + flights + head CAS");
}

#[test]
fn crash_point_enumeration_delete_recovers_exactly_once() {
    sweep_one_op(with_key_7, del(1, 2, 7), |kv, cut| {
        assert_eq!(kv.get(7).unwrap(), None, "{cut}");
        assert_eq!(published(kv), 2, "{cut}: put + delete records");
    });
}

#[test]
fn crash_point_enumeration_cas_recovers_exactly_once() {
    sweep_one_op(with_key_7, cas(1, 2, 7, 77, 78), |kv, cut| {
        assert_eq!(kv.get(7).unwrap(), Some(78), "{cut}");
        assert_eq!(published(kv), 2, "{cut}: no double application");
    });
}

#[test]
fn concurrent_writers_lose_nothing() {
    // Four writers on one shard, their group commits of one
    // serialized by the region's gate: nothing lost, PSan clean.
    let (pmem, _, kv) = fixture(16, 1024);
    let writers = 4u64;
    let per = 64u64;
    std::thread::scope(|s| {
        for w in 0..writers {
            let kv = kv.clone();
            s.spawn(move || {
                for i in 0..per {
                    let key = w * per + i;
                    assert!(apply(&kv, put(w, i + 1, key, key as i64)).unwrap());
                }
            });
        }
    });
    let contents = kv.contents().unwrap();
    assert_eq!(contents.len(), (writers * per) as usize);
    for (k, v) in contents {
        assert_eq!(k as i64, v);
    }
    assert!(pmem.psan_violations().is_empty());
    // Everything published is already durable: a crash now loses
    // nothing.
    pmem.crash_now(0, 0.0);
    let pmem2 = pmem.reopen().unwrap();
    let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
    assert_eq!(kv2.contents().unwrap().len(), (writers * per) as usize);
}

#[test]
fn concurrent_cas_on_one_key_applies_each_transition_once() {
    // Four threads increment one key via cas-retry loops; the final
    // value counts every success exactly once.
    let (pmem, _, kv) = fixture(4, 4096);
    apply(&kv, put(0, 1, 0, 0)).unwrap();
    let per = 50i64;
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let kv = kv.clone();
            s.spawn(move || {
                let mut seq = 1_000 * (w + 1);
                for _ in 0..per {
                    loop {
                        seq += 1;
                        let cur = kv.get(0).unwrap().unwrap();
                        if apply(&kv, cas(w, seq, 0, cur, cur + 1)).unwrap() {
                            break;
                        }
                    }
                }
            });
        }
    });
    assert_eq!(kv.get(0).unwrap(), Some(4 * per));
    assert!(pmem.psan_violations().is_empty());
}

#[test]
fn compaction_quiesces_lock_free_mutators() {
    // The machine-checked exclusive section: compactions race four
    // writer threads on one shard. A compact() and every put hold
    // the region's gate in turn, so the generation never moves
    // under a publish and nothing is lost.
    let pmem = PMemBuilder::new().len(1 << 20).psan(true).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 20).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 8, 512, KvVariant::Nsrl).unwrap();
    let writers = 4u64;
    let per = 40u64;
    std::thread::scope(|s| {
        for w in 0..writers {
            let kv = kv.clone();
            s.spawn(move || {
                for i in 0..per {
                    let key = w * per + i;
                    assert!(apply(&kv, put(w, i + 1, key, key as i64)).unwrap());
                }
            });
        }
        let kv = kv.clone();
        let heap = heap.clone();
        s.spawn(move || {
            for _ in 0..5 {
                kv.compact(&heap).unwrap();
                std::thread::yield_now();
            }
        });
    });
    let contents = kv.contents().unwrap();
    assert_eq!(contents.len(), (writers * per) as usize);
    for (k, v) in contents {
        assert_eq!(k as i64, v);
    }
    assert!(kv.generation().unwrap() >= 5);
    assert!(pmem.psan_violations().is_empty());
}

#[test]
fn retired_generations_are_guarded_against_free() {
    // Regression: `heap.free` on a retired generation block used to
    // be a silent correctness bug only caught later by the witness
    // walk. Compaction now registers the retired extent; the free
    // fails typed, immediately.
    let (pmem, heap, kv) = fixture(4, 32);
    apply(&kv, put(0, 1, 7, 77)).unwrap();
    assert!(heap.retired_extents().is_empty());
    kv.compact(&heap).unwrap();
    let retired = heap.retired_extents();
    assert_eq!(retired.len(), 1, "compact registers the old generation");
    let (start, _) = retired[0];
    assert!(matches!(
        heap.free(POffset::new(start)),
        Err(pstack_heap::HeapError::RetiredExtent { .. })
    ));

    // The registry is volatile: after a crash, recover_compact (or
    // register_retired_generations) re-arms it over the reopened
    // heap before any client could free retained evidence.
    pmem.crash_now(0, 0.0);
    let pmem2 = pmem.reopen().unwrap();
    let heap2 = PHeap::open(pmem2.clone(), POffset::new(0)).unwrap();
    assert!(
        heap2.retired_extents().is_empty(),
        "volatile, like the free list"
    );
    let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
    assert!(kv2.recover_compact(&heap2, 0).unwrap());
    assert_eq!(heap2.retired_extents(), retired);
    assert!(matches!(
        heap2.free(POffset::new(start)),
        Err(pstack_heap::HeapError::RetiredExtent { .. })
    ));
    // And the explicit helper covers plain reopens too (idempotent
    // over the recover_compact registration above).
    assert_eq!(kv2.generations().unwrap().len(), 2);
    kv2.register_retired_generations(&heap2).unwrap();
    assert_eq!(heap2.retired_extents(), retired);
}

#[test]
fn required_len_covers_layout() {
    // Root block + generation 0: gen header + buckets (rounded so
    // the log starts 64-aligned) + the log itself.
    let need = PKvStore::required_len(16, 8);
    assert_eq!(need as u64, 128 + round64(64 + 16 * 8) + 8 * 64);
}

#[test]
#[should_panic(expected = "out of range")]
fn chain_bounds_are_enforced() {
    let (_, _, kv) = fixture(2, 8);
    let _ = kv.chain(2);
}

// ---- compaction: the generational log ------------------------------

/// A mixed workload leaving 3 live keys out of 8 mutations.
fn seed_history(kv: &PKvStore) {
    apply(kv, put(0, 1, 1, 10)).unwrap();
    apply(kv, put(0, 2, 2, 20)).unwrap();
    apply(kv, put(0, 3, 1, 11)).unwrap(); // supersedes seq 1
    apply(kv, put(0, 4, 3, 30)).unwrap();
    apply(kv, del(0, 5, 2)).unwrap(); // kills key 2
    apply(kv, cas(0, 6, 3, 30, 31)).unwrap();
    apply(kv, put(0, 7, 4, 40)).unwrap();
    apply(kv, del(0, 8, 4)).unwrap();
}

#[test]
fn compaction_preserves_contents_and_frees_headroom() {
    let (pmem, heap, kv) = fixture(4, 16);
    seed_history(&kv);
    let want = kv.contents().unwrap();
    assert_eq!(kv.log_reserved().unwrap(), 8);
    assert_eq!(kv.generation().unwrap(), 0);

    let before = pmem.stats().snapshot();
    let stats = kv.compact(&heap).unwrap();
    let delta = pmem.stats().snapshot() - before;
    assert_eq!(stats.from_gen, 0);
    assert_eq!(stats.to_gen, 1);
    assert_eq!(stats.carried, 2, "keys 1 and 3 are live");
    assert_eq!(
        stats.dropped, 6,
        "superseded, deleted and delete records drop"
    );
    assert_eq!(kv.generation().unwrap(), 1);
    assert_eq!(kv.contents().unwrap(), want);
    assert_eq!(kv.log_reserved().unwrap(), 2, "headroom reclaimed");
    // The FliT lens: the rewrite pays O(live) persists — one
    // coalesced round-trip for the whole block, two for the root
    // cell, plus the heap allocator's fixed
    // block-header persists. Crucially *not* a function of the
    // 8-record history.
    assert!(
        delta.persists <= 8,
        "compaction cost {} persist round-trips",
        delta.persists
    );

    // Survives a crash + reopen into the new generation.
    pmem.crash_now(0, 0.0);
    let pmem2 = pmem.reopen().unwrap();
    let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
    assert_eq!(kv2.generation().unwrap(), 1);
    assert_eq!(kv2.contents().unwrap(), want);

    // The full chain witness still spans both generations, with
    // the carries flagged and generation-stamped.
    let recs: Vec<VersionRecord> = kv2.snapshot().unwrap().into_iter().flatten().collect();
    assert_eq!(recs.iter().filter(|r| !r.compacted).count(), 8);
    let carries: Vec<&VersionRecord> = recs.iter().filter(|r| r.compacted).collect();
    assert_eq!(carries.len(), 2);
    for c in carries {
        assert_eq!(c.gen, 1);
        assert!(!c.is_delete, "deletes are never carried");
        assert_eq!(want.get(&c.key), Some(&c.value));
    }
    let gens = kv2.generations().unwrap();
    assert_eq!(gens.len(), 2);
    assert!(gens[0].retired && !gens[1].retired);
    assert_eq!(gens[1].carried, 2);
}

#[test]
fn store_outlives_its_original_log_capacity() {
    // The acceptance headline: a store formatted with log_cap 8
    // accepts far more than 8 lifetime mutations once the driver
    // compacts on low headroom.
    let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 20).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 4, 8, KvVariant::Nsrl).unwrap();
    let mut applied = 0u64;
    for seq in 1..=200u64 {
        if kv.log_reserved().unwrap() + 1 >= kv.log_capacity().unwrap() {
            kv.compact(&heap).unwrap();
        }
        let key = seq % 6;
        assert!(
            apply(&kv, put(0, seq, key, seq as i64)).unwrap(),
            "put {seq} rejected — compaction failed to free headroom"
        );
        applied += 1;
    }
    assert_eq!(applied, 200);
    assert!(applied > 8, "strictly more than the original capacity");
    assert!(kv.generation().unwrap() > 1, "several swaps happened");
    // Every key holds its newest value; history is intact across
    // all generations (200 real mutations published).
    let contents = kv.contents().unwrap();
    for key in 0..6u64 {
        let newest = (1..=200u64).filter(|s| s % 6 == key).max().unwrap();
        assert_eq!(contents.get(&key), Some(&(newest as i64)));
    }
    let real: usize = kv
        .snapshot()
        .unwrap()
        .iter()
        .flatten()
        .filter(|r| !r.compacted)
        .count();
    assert_eq!(real, 200, "witness spans every generation");
}

#[test]
fn carried_records_count_as_recovery_evidence() {
    // An operation that published before a compaction must not be
    // re-executed by its recovery dual afterwards — whether its
    // record survives as a carry (live) or only in the retired log.
    let (_, heap, kv) = fixture(4, 16);
    seed_history(&kv);
    kv.compact(&heap).unwrap();
    let reserved = kv.log_reserved().unwrap();
    // seq 3 is live (carried); seq 1 is superseded (retired log
    // only); seq 5 is a delete (retired log only).
    assert!(recover(&kv, put(0, 3, 1, 11)).unwrap());
    assert!(recover(&kv, put(0, 1, 1, 10)).unwrap());
    assert!(recover(&kv, del(0, 5, 2)).unwrap());
    assert_eq!(
        kv.log_reserved().unwrap(),
        reserved,
        "evidence scans must find pre-compaction records and not re-execute"
    );
    assert_eq!(kv.get(1).unwrap(), Some(11), "state untouched");
}

#[test]
fn compact_capacity_validation_and_growth() {
    let (_, heap, kv) = fixture(4, 16);
    for seq in 1..=10u64 {
        apply(&kv, put(0, seq, seq, seq as i64)).unwrap(); // 10 live keys
    }
    assert!(matches!(
        kv.compact_with_capacity(&heap, Some(5)),
        Err(PError::InvalidConfig(_))
    ));
    // Default growth: live × 2 when the live set outgrew cap/2.
    let stats = kv.compact(&heap).unwrap();
    assert_eq!(stats.carried, 10);
    assert_eq!(stats.new_capacity, 20);
    assert_eq!(stats.headroom(), 10);
    assert_eq!(kv.log_capacity().unwrap(), 20);
    // Explicit capacity is honored exactly.
    let stats = kv.compact_with_capacity(&heap, Some(64)).unwrap();
    assert_eq!(stats.new_capacity, 64);
    assert_eq!(kv.generation().unwrap(), 2);
}

#[test]
fn recover_compact_resumes_or_safely_abandons() {
    let (_, heap, kv) = fixture(4, 16);
    seed_history(&kv);
    let want = kv.contents().unwrap();
    // Nothing committed: re-executes (evidence says gen unchanged).
    assert!(!kv.recover_compact(&heap, 0).unwrap());
    assert_eq!(kv.generation().unwrap(), 1);
    assert_eq!(kv.contents().unwrap(), want);
    // Already committed: evidence scan answers without a new swap.
    assert!(kv.recover_compact(&heap, 0).unwrap());
    assert_eq!(kv.generation().unwrap(), 1, "no duplicate swap");
    // A future from_gen is a caller bug.
    assert!(matches!(
        kv.recover_compact(&heap, 7),
        Err(PError::InvalidConfig(_))
    ));
}

#[test]
fn group_commits_keep_working_after_a_swap() {
    // The batched hot path across a generation boundary: group
    // commits before and after a compaction, each records ‖ header on
    // a generation with no dirty head (the compaction's own five
    // counted apart: two interior headers, then its switch, its block
    // and the retired generation's dirty heads).
    let (pmem, heap, kv) = fixture(4, 16);
    let formatted = pmem.stats().snapshot().async_flushes;
    let flights = || pmem.stats().snapshot().async_flushes - formatted;
    let ops: Vec<KvBatchOp> = (0..8).map(|i| put(0, i + 1, i % 4, i as i64)).collect();
    assert!(kv
        .apply_batch(&ops)
        .unwrap()
        .iter()
        .all(|o| o.took_effect()));
    assert_eq!(flights(), 2);
    kv.compact(&heap).unwrap();
    let compaction = flights() - 2;
    assert_eq!(
        compaction, 5,
        "interior headers, then switch ‖ block ‖ heads"
    );
    let ops2: Vec<KvBatchOp> = (0..8)
        .map(|i| put(0, 100 + i, i % 4, -(i as i64)))
        .collect();
    assert!(kv
        .apply_batch(&ops2)
        .unwrap()
        .iter()
        .all(|o| o.took_effect()));
    assert_eq!(
        flights() - compaction,
        4,
        "one more group commit, in the new generation"
    );
    assert_eq!(kv.contents().unwrap().len(), 4);
    // And the whole thing is durable.
    pmem.crash_now(0, 0.0);
    let kv2 = PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
    for i in 4..8u64 {
        assert_eq!(kv2.get(i % 4).unwrap(), Some(-(i as i64)));
    }
}

/// What every reopen after a cut compaction must show: generation 0
/// or 1, whole; the contents unchanged; a clean heap whose block the
/// root names is a used heap block. Returns the generation.
fn assert_whole_after_cut(kv: &PKvStore, heap: &PHeap, want: &BTreeMap<u64, i64>, at: &str) -> u64 {
    let gen = kv.active_gen().unwrap();
    assert!(gen.number <= 1, "{at}: generation {}", gen.number);
    assert_eq!(&kv.contents().unwrap(), want, "{at}: contents torn");
    heap.check_consistency()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    let len = heap
        .payload_len(POffset::new(gen.base))
        .unwrap_or_else(|e| panic!("{at}: the root names no used block: {e}"));
    assert!(len >= gen_block_len(kv.nbuckets(), gen.log_cap), "{at}");
    gen.number
}

#[test]
fn compaction_crash_points_buffered() {
    // A crash at every persistence event inside `compact` (the heap's
    // interior headers, its switch ‖ the block, the root swap), under
    // every survivor choice, and, from each crash state, at every
    // persistence event inside the recovery dual.
    type Store = (PMem, (PHeap, PKvStore));
    let probe = || {
        let (pmem, heap, kv) = fixture(4, 16);
        seed_history(&kv);
        (pmem, (heap, kv))
    };
    let compact = |(_, (heap, kv)): &mut Store| kv.compact(heap);
    let reopen = |(pmem, (_, kv)): Store| -> Store {
        let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        let heap = PHeap::open(pmem.clone(), POffset::new(0)).unwrap();
        (pmem, (heap, kv))
    };
    let (_, (heap, kv)) = probe();
    let want = kv.contents().unwrap();
    let used_before = heap.stats().used_blocks;

    let mut leaked = false;
    let events = sweep(probe, compact, |store, cut| {
        // Phase 1: the store must reopen whole in the old or the new
        // generation. The cut "switch ‖ block landed, cell not": the old
        // root and one more used block, the new one, leaked.
        let (pmem, (heap, kv)) = reopen(store);
        let at = cut.to_string();
        let gen = assert_whole_after_cut(&kv, &heap, &want, &at);
        assert!(!cut.returned() || gen == 1, "{cut}: the swap returned");
        leaked |= gen == 0 && heap.stats().used_blocks > used_before;
        cut.assert_psan_clean(pmem.psan_violations());

        // Phase 2: a crash at every event of the recovery dual, from
        // this cut's state. Every dirty line lost only: under each of
        // the outer cuts, the full set would run this test 6× longer.
        let recover = |(_, (heap, kv)): &mut Store| kv.recover_compact(heap, 0);
        Sweep::new().survivors(&[Survivors::None]).run(
            || reopen(cut.replay(probe, compact)),
            recover,
            |store, step| {
                let (pmem, (heap, kv)) = reopen(store);
                let at = format!("{cut}, recovery {step}");
                // A clean pass from the doubly-crashed state converges,
                // and a second one finds it committed.
                kv.recover_compact(&heap, 0).unwrap();
                assert_eq!(assert_whole_after_cut(&kv, &heap, &want, &at), 1);
                assert!(kv.recover_compact(&heap, 0).unwrap(), "{at}");
                assert_eq!(kv.generation().unwrap(), 1, "{at}");
                let gens = kv.generations().unwrap();
                assert!(gens[0].retired, "{at}: the old generation is retired");
                cut.assert_psan_clean(pmem.psan_violations());
            },
        );
    });
    assert!(
        events[0] >= 3,
        "rewrite + swap span several events (got {:?})",
        events
    );
    assert!(
        leaked,
        "no cut landed the switch and the block without the cell"
    );
}

#[test]
fn repeated_compactions_chain_generations() {
    let (_, heap, kv) = fixture(4, 16);
    let mut seq = 0u64;
    for round in 0..4u64 {
        for key in 0..3u64 {
            seq += 1;
            apply(&kv, put(0, seq, key, (round * 10 + key) as i64)).unwrap();
        }
        kv.compact(&heap).unwrap();
        assert_eq!(kv.generation().unwrap(), round + 1);
    }
    let gens = kv.generations().unwrap();
    assert_eq!(gens.len(), 5);
    assert!(gens.iter().take(4).all(|g| g.retired));
    assert!(!gens[4].retired);
    assert_eq!(gens[4].carried, 3);
    // All 12 real mutations still in the witness; evidence scans
    // reach the oldest generation.
    let real: usize = kv
        .snapshot()
        .unwrap()
        .iter()
        .flatten()
        .filter(|r| !r.compacted)
        .count();
    assert_eq!(real, 12);
    assert!(recover(&kv, put(0, 1, 0, 0)).unwrap());
    assert_eq!(
        kv.snapshot()
            .unwrap()
            .iter()
            .flatten()
            .filter(|r| !r.compacted)
            .count(),
        12,
        "gen-0 evidence found, nothing re-executed"
    );
}

// ---- PSan: the persist-order sanitizer ------------------------------

#[test]
fn full_lifecycle_is_psan_clean_on_both_commit_modes() {
    // The unit-scope zero-violation gate: one-op batches, a group
    // commit, a compaction and a crash/recover cycle must leave the
    // sanitizer silent.
    let (pmem, heap, kv) = fixture(4, 16);
    seed_history(&kv);
    kv.apply_batch(&[put(2, 1, 5, 50), cas(2, 2, 5, 50, 51)])
        .unwrap();
    kv.compact(&heap).unwrap();
    apply(&kv, put(2, 3, 6, 60)).unwrap();
    assert!(pmem.psan_violations().is_empty());
    pmem.crash_now(0, 0.0);
    let pmem2 = pmem.reopen().unwrap();
    let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
    assert!(recover(&kv2, put(2, 3, 6, 60)).unwrap());
    assert_eq!(kv2.get(5).unwrap(), Some(51));
    let violations = pmem2.psan_violations();
    assert!(
        violations.is_empty(),
        "PSan flagged the correct protocol: {violations:?}"
    );
}

#[test]
fn psan_flags_the_early_publish_variant_at_the_head_cas() {
    let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 4, 32, KvVariant::EarlyPublish).unwrap();
    assert!(pmem.psan_violations().is_empty(), "format itself is clean");
    kv.apply_batch(&[put(0, 1, 7, 70)]).unwrap();
    let v = pmem.psan_violations();
    let hit = v
        .iter()
        .find(|x| matches!(x.kind, PsanViolationKind::EarlyPublish { .. }))
        .unwrap_or_else(|| panic!("expected an early-publish violation: {v:?}"));
    // Attribution: the op label names the publishing call site, and
    // the flagged span covers the published (still-volatile) record.
    assert_eq!(hit.op_label, "kv.apply_batch");
    let PsanViolationKind::EarlyPublish { published } = hit.kind else {
        unreachable!()
    };
    assert!(
        hit.offset <= published && published < hit.offset + hit.len as u64 + RECORD_STRIDE,
        "violation span {:#x}+{} should cover the published record {published:#x}",
        hit.offset,
        hit.len,
    );
}

#[test]
fn psan_flags_the_no_persist_before_swap_variant_at_the_root_swap() {
    let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 4, 16, KvVariant::NoPersistBeforeSwap).unwrap();
    for seq in 1..=4u64 {
        apply(&kv, put(0, seq, seq, seq as i64)).unwrap();
    }
    assert!(
        pmem.psan_violations().is_empty(),
        "ordinary mutations are clean under this variant"
    );
    kv.compact(&heap).unwrap();
    let v = pmem.psan_violations();
    let hit = v
        .iter()
        .find(|x| matches!(x.kind, PsanViolationKind::UnorderedCommit))
        .unwrap_or_else(|| panic!("expected an unordered-commit violation: {v:?}"));
    assert_eq!(hit.op_label, "kv.compact");
    // The flagged line lies inside the committed-but-volatile new
    // generation block, past the heap's gen-0 allocations.
    assert!(
        hit.offset >= PKvStore::required_len(4, 16) as u64,
        "violation at {:#x} should fall in the new generation block",
        hit.offset
    );
}

/// The stamped log: a bare commit's heads ride the next commit, and
/// `open` replays what they do not yet cover.
mod stamped_log {
    use super::*;
    use std::fmt::Display;

    /// Every published tag of `kv` but the compaction copies, each once.
    fn tags_once(kv: &PKvStore, at: impl Display) -> Vec<(u64, u64)> {
        let mut tags = std::collections::BTreeSet::new();
        for rec in kv.snapshot().unwrap().into_iter().flatten() {
            if !rec.compacted {
                assert!(
                    tags.insert((rec.pid, rec.seq)),
                    "{at}: tag {:?} twice",
                    (rec.pid, rec.seq)
                );
            }
        }
        tags.into_iter().collect()
    }

    fn pid_count(tags: &[(u64, u64)], pid: u64) -> usize {
        tags.iter().filter(|t| t.0 == pid).count()
    }

    #[test]
    fn a_bare_commit_cut_at_every_event_is_whole_or_absent_and_loses_no_returned_one() {
        // The commit before the cut returned and left its heads dirty; the
        // cut one checkpoints them in its own level. Whatever the cut and
        // whatever survives, the reopen shows the returned commit whole and
        // the cut one whole or not at all — over four buckets, so whole
        // means every chain it touched — and whole once it returned.
        let first: Vec<KvBatchOp> = (0..6).map(|k| put(1, k + 1, k, k as i64)).collect();
        let second = [
            put(2, 1, 0, 100),
            put(2, 2, 3, 300),
            del(2, 3, 4),
            cas(2, 4, 5, 5, 55),
            put(2, 5, 9, 900),
        ];
        let probe = || {
            let (pmem, _, kv) = fixture(4, 32);
            assert!(kv
                .apply_batch(&first)
                .unwrap()
                .iter()
                .all(|o| o.took_effect()));
            (pmem, kv)
        };
        let (_, kv) = probe();
        let before = kv.contents().unwrap();
        assert!(kv
            .apply_batch(&second)
            .unwrap()
            .iter()
            .all(|o| o.took_effect()));
        let after = kv.contents().unwrap();

        sweep(
            probe,
            |(_, kv)| kv.apply_batch(&second),
            |(pmem, kv), cut| {
                let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                let tags = tags_once(&kv2, cut);
                assert_eq!(
                    pid_count(&tags, 1),
                    first.len(),
                    "{cut}: the returned commit"
                );
                let whole = match pid_count(&tags, 2) {
                    0 => false,
                    5 => true,
                    n => panic!("{cut}: {n} of the cut commit's 5 records"),
                };
                assert!(whole || !cut.returned(), "{cut}: a returned commit lost");
                let contents = kv2.contents().unwrap();
                assert_eq!(&contents, if whole { &after } else { &before }, "{cut}");
                // And the reopened store goes on: the replayed heads ride
                // its next commit, and a second reopen keeps everything.
                assert!(apply(&kv2, put(3, 1, 11, 1)).unwrap(), "{cut}");
                pmem.crash_now(0, 0.0);
                let kv3 =
                    PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
                let mut want = contents.clone();
                want.insert(11, 1);
                assert_eq!(
                    kv3.contents().unwrap(),
                    want,
                    "{cut}: after the next commit"
                );
                cut.assert_psan_clean(pmem.psan_violations());
            },
        );
    }

    #[test]
    fn a_two_shard_bare_commit_cut_at_every_event_is_whole_or_absent_per_shard() {
        use crate::shard::ShardedKvStore;
        let first: Vec<KvBatchOp> = (0..8).map(|k| put(1, k + 1, k, k as i64)).collect();
        let second: Vec<KvBatchOp> = (0..8)
            .map(|k| put(2, k + 1, k + 4, 100 + k as i64))
            .collect();
        let commit = |kv: &ShardedKvStore, ops: &[KvBatchOp]| {
            let mut batch = kv.batch();
            ops.iter().for_each(|&op| batch.push(op));
            batch.commit()
        };
        let probe = || {
            let stripe = PMemBuilder::new().len(1 << 17).psan(true).build_striped(2);
            let kv = ShardedKvStore::format(stripe.regions(), 4, 32, KvVariant::Nsrl).unwrap();
            assert!(commit(&kv, &first).unwrap().iter().all(|o| o.took_effect()));
            (stripe, kv)
        };
        let on = |kv: &ShardedKvStore, s: usize, pid: u64| {
            kv.shard(s)
                .snapshot()
                .unwrap()
                .into_iter()
                .flatten()
                .filter(|r| r.pid == pid)
                .count()
        };
        let (_, kv) = probe();
        let want: Vec<usize> = (0..2)
            .map(|s| {
                second
                    .iter()
                    .filter(|op| kv.shard_of(op.key()) == s)
                    .count()
            })
            .collect();
        let first_on: Vec<usize> = (0..2).map(|s| on(&kv, s, 1)).collect();

        let events = sweep(
            probe,
            |(_, kv)| commit(kv, &second),
            |(stripe, _), cut| {
                let kv2 = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl).unwrap();
                for s in 0..2 {
                    assert_eq!(
                        on(&kv2, s, 1),
                        first_on[s],
                        "{cut}: shard {s} lost a returned commit"
                    );
                    let n = on(&kv2, s, 2);
                    assert!(
                        n == want[s] || n == 0 && !cut.returned(),
                        "{cut}: shard {s} shows {n} of {}",
                        want[s]
                    );
                    tags_once(kv2.shard(s), cut);
                }
                cut.assert_psan_clean(stripe.psan_violations());
            },
        );
        assert!(events.iter().all(|&n| n > 0), "both shards take part");
    }

    #[test]
    fn a_reused_slot_never_validates_a_record_of_the_batch_that_lost_it() {
        // A batch cut at its header's write with every dirty line kept: its
        // records land in the slots past the durable tail, its header does
        // not. The reopen reuses those slots for a batch of the same size —
        // the same first and last slot — cut at every event. None of the
        // lost batch's records may ever show, as part of the new batch or
        // otherwise: the reopen finds them past the tail and advances the
        // epoch, so the new batch differs from them in its epoch. The lost
        // batch is a bare commit or a served window's.
        let base = [put(1, 1, 0, 0), put(1, 2, 1, 1)];
        let lost: Vec<KvBatchOp> = (0..4).map(|k| put(7, k + 1, 10 + k, 70)).collect();
        let reuse: Vec<KvBatchOp> = (0..4).map(|k| put(8, k + 1, 20 + k, 80)).collect();
        type Based = (PMem, (PKvStore, u64));
        let based = || {
            let (pmem, _, kv) = fixture(4, 32);
            kv.apply_batch(&base).unwrap();
            let tail = kv.log_reserved().unwrap();
            (pmem, (kv, tail))
        };
        for heads in ["bare", "served"] {
            let commit_lost = |(_, (kv, _)): &mut Based| match heads {
                "bare" => kv.apply_batch(&lost),
                _ => commit_served(kv, &lost),
            };
            // The cut: the last event at which, every line kept, the header
            // still shows the pre-batch tail.
            let mut header_unwritten = Vec::new();
            Sweep::new().survivors(&[Survivors::All]).run(
                based,
                commit_lost,
                |(pmem, (kv, tail)), cut| {
                    let kv2 = open_served(pmem, kv.base());
                    if kv2.log_reserved().unwrap() == tail {
                        header_unwritten.push(*cut);
                    }
                },
            );
            let lost_cut = header_unwritten
                .iter()
                .zip(0..)
                .take_while(|(cut, k)| cut.event == *k)
                .last()
                .unwrap()
                .0;
            let reopened = || {
                let (pmem, (kv, tail)) = lost_cut.replay(based, commit_lost);
                let kv = open_served(pmem.clone(), kv.base());
                // Every record of the lost batch landed past the tail.
                for i in 0..lost.len() as u64 {
                    let gen = kv.active_gen().unwrap();
                    let rec = kv.read_slot(kv.record_off(&gen, tail + i)).unwrap();
                    assert_eq!(decode_record(&rec).3 .0, 7, "{heads}: slot {i} landed");
                }
                (pmem, kv)
            };
            sweep(
                reopened,
                |(_, kv)| kv.apply_batch(&reuse),
                |(pmem, kv), cut| {
                    let at = format!("{heads} lost, {cut}");
                    let kv2 = open_served(pmem.clone(), kv.base());
                    let tags = tags_once(&kv2, &at);
                    assert_eq!(pid_count(&tags, 7), 0, "{at}: a lost record shows");
                    assert_eq!(pid_count(&tags, 1), base.len(), "{at}");
                    let n = pid_count(&tags, 8);
                    assert!(n == 0 || n == reuse.len(), "{at}: {n} of the batch");
                    assert!(
                        !cut.returned() || n == reuse.len(),
                        "{at}: a returned commit lost"
                    );
                    // The lost batch's lines were kept without a completed
                    // flight: reading them is a ghost read, by design.
                    let violations: Vec<_> = pmem
                        .psan_violations()
                        .into_iter()
                        .filter(|v| v.kind != PsanViolationKind::GhostRead)
                        .collect();
                    assert!(violations.is_empty(), "{at}: {violations:?}");
                },
            );
            // The lottery outcome a sweep's halves may miss: the reusing
            // batch's header line kept and every record line lost, so the
            // header names the slots the lost batch still holds. Seeds are
            // tried in order; those that land it are checked.
            let mut landed = 0;
            for seed in 0..256 {
                let (pmem, kv) = reopened();
                let gen = kv.active_gen().unwrap();
                let tail = kv.log_reserved().unwrap();
                let pending = kv.apply_batch_begin(&reuse).unwrap();
                pmem.crash_now(seed, 0.5);
                drop(pending);
                let image = pmem.reopen().unwrap();
                let (off, _) = header_range(gen.base);
                let mut words = [0u8; WORDS_LEN];
                image.read(off, &mut words).unwrap();
                let header_kept =
                    LogHeader::decode(&words).unwrap().tail == tail + reuse.len() as u64;
                let records_lost = (0..reuse.len() as u64).all(|i| {
                    let mut rec = [0u8; RECORD_STRIDE as usize];
                    let off = POffset::new(kv.record_off(&gen, tail + i));
                    image.read(off, &mut rec).unwrap();
                    decode_record(&rec).3 .0 == 7
                });
                if !(header_kept && records_lost) {
                    continue;
                }
                landed += 1;
                let at = format!("{heads} lost, seed {seed}: header kept, records lost");
                let kv2 = open_served(image, kv.base());
                let tags = tags_once(&kv2, &at);
                assert_eq!(pid_count(&tags, 7), 0, "{at}: a lost record shows");
                assert_eq!(pid_count(&tags, 8), 0, "{at}: a batch shows in part");
                assert_eq!(pid_count(&tags, 1), base.len(), "{at}");
                assert_eq!(kv2.log_reserved().unwrap(), tail, "{at}: the tail");
            }
            assert!(landed > 0, "{heads}: no seed kept the header alone");
        }
    }

    #[test]
    fn a_boot_cut_inside_its_epoch_advance_still_parts_a_lost_batch_from_the_next() {
        // A batch cut with its header lost and some of its records kept:
        // the boot finds them past the tail and advances the epoch, in
        // one awaited level. Cut that boot at every event × `Survivors::
        // EVERY`: the next boot still shows the earlier commit whole and
        // none of the lost records, and its epoch is not the lost
        // batch's, so a batch that reuses those slots can never take
        // one of them for its own.
        let base = [put(1, 1, 0, 0), put(1, 2, 1, 1)];
        let lost: Vec<KvBatchOp> = (0..4).map(|k| put(7, k + 1, 10 + k, 70)).collect();
        // The lottery seed that keeps some of the lost records and loses
        // the header: the first that does.
        let cut_lost = |seed: u64| {
            let (pmem, _, kv) = fixture(4, 32);
            kv.apply_batch(&base).unwrap();
            let gen = kv.active_gen().unwrap();
            let (tail, epoch) = {
                let header = kv.read_header(&gen).unwrap();
                (header.tail, header.epoch)
            };
            let pending = kv.apply_batch_begin(&lost).unwrap();
            pmem.crash_now(seed, 0.5);
            drop(pending);
            let pmem = pmem.reopen().unwrap();
            let mut words = [0u8; WORDS_LEN];
            pmem.read(header_range(gen.base).0, &mut words).unwrap();
            let header_lost = LogHeader::decode(&words).unwrap().tail == tail;
            let kept = (0..lost.len() as u64).any(|i| {
                let mut rec = [0u8; RECORD_STRIDE as usize];
                let off = POffset::new(kv.record_off(&gen, tail + i));
                pmem.read(off, &mut rec).unwrap();
                decode_record(&rec).3 .0 == 7
            });
            (pmem, (kv, epoch, header_lost && kept))
        };
        let seed = (0..256)
            .find(|&seed| cut_lost(seed).1 .2)
            .expect("a seed that keeps a lost record past the tail");
        let events = sweep(
            || {
                let (pmem, (kv, epoch, _)) = cut_lost(seed);
                (pmem, (kv, epoch))
            },
            |(pmem, (kv, _))| PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl),
            |(pmem, (kv, epoch)), cut| {
                let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                let tags = tags_once(&kv2, cut);
                assert_eq!(pid_count(&tags, 1), base.len(), "{cut}: the earlier commit");
                assert_eq!(pid_count(&tags, 7), 0, "{cut}: a lost record shows");
                let header = kv2.read_header(&kv2.active_gen().unwrap()).unwrap();
                assert_ne!(header.epoch, epoch, "{cut}: the lost batch's epoch reused");
            },
        );
        assert!(events[0] > 0, "the boot persists its epoch");
    }

    #[test]
    fn a_window_after_bare_commits_cut_at_every_event_keeps_every_returned_effect() {
        // Two bare commits leave heads dirty; a served window's commit
        // checkpoints them in its one level and leaves its own dirty; a
        // bare commit after it checkpoints those. Cut anywhere in the
        // window or that commit (every descriptor landed: the claim checks
        // pass): the bare commits before it show whole, the window's
        // buckets whole or not at all, the commit after it whole or absent
        // — and only if the window's commit returned. Then the store goes
        // on: a further commit and a reopen keep all of that.
        let bare = [
            vec![put(1, 1, 0, 0), put(1, 2, 1, 1), put(1, 3, 2, 2)],
            vec![put(1, 4, 3, 3), put(1, 5, 0, 10)],
        ];
        let window = [
            put(5, 1, 4, 40),
            put(5, 2, 5, 50),
            put(5, 3, 1, 41),
            put(5, 4, 6, 60),
        ];
        let after = [put(6, 1, 7, 70), put(6, 2, 2, 72)];
        let probe = || {
            let (pmem, _, kv) = fixture(4, 64);
            for ops in &bare {
                kv.apply_batch(ops).unwrap();
            }
            (pmem, kv)
        };
        let (pmem, kv) = probe();
        let e0 = pmem.events();
        commit_served(&kv, &window).unwrap();
        let window_events = pmem.events() - e0;
        let bucket = |key: u64| mix(key) % 4;

        sweep(
            probe,
            |(_, kv)| -> Result<(), PError> {
                commit_served(kv, &window)?;
                kv.apply_batch(&after)?;
                Ok(())
            },
            |(pmem, kv), cut| {
                let kv2 = open_served(pmem.clone(), kv.base());
                let tags = tags_once(&kv2, cut);
                assert_eq!(pid_count(&tags, 1), 5, "{cut}: the bare commits");
                let shown: Vec<_> = window
                    .iter()
                    .filter(|op| tags.contains(&op.tag()))
                    .collect();
                for op in &window {
                    let same: Vec<_> = window
                        .iter()
                        .filter(|o| bucket(o.key()) == bucket(op.key()))
                        .collect();
                    let kept = same.iter().filter(|o| tags.contains(&o.tag())).count();
                    assert!(
                        kept == 0 || kept == same.len(),
                        "{cut}: a window bucket torn"
                    );
                }
                if cut.event >= window_events {
                    assert_eq!(shown.len(), window.len(), "{cut}: the window returned");
                }
                let n = pid_count(&tags, 6);
                assert!(n == 0 || n == after.len(), "{cut}: {n} of the commit after");
                assert!(
                    n == 0 || cut.event >= window_events,
                    "{cut}: a commit before its window returned"
                );
                assert!(
                    !cut.returned() || n == after.len(),
                    "{cut}: a returned commit lost"
                );
                // The store goes on, and keeps what it shows.
                let mut want = kv2.contents().unwrap();
                assert!(apply(&kv2, put(9, 1, 8, 90)).unwrap(), "{cut}");
                want.insert(8, 90);
                pmem.crash_now(0, 0.0);
                let kv3 = open_served(pmem.reopen().unwrap(), kv.base());

                assert_eq!(
                    kv3.contents().unwrap(),
                    want,
                    "{cut}: after the next commit"
                );
                assert_eq!(tags_once(&kv3, cut).len(), tags.len() + 1, "{cut}");
                cut.assert_psan_clean(pmem.psan_violations());
            },
        );
    }

    #[test]
    fn a_compaction_cut_with_dirty_heads_keeps_every_returned_tag_as_evidence() {
        // The last bare commit's heads are dirty when the compaction runs:
        // they ride its switch ‖ block level, for the retired generation's
        // chains are what the evidence scan walks once the swap lands — and
        // no replay reads a retired log. That commit overwrites a key twice
        // and deletes another, so two of its tags live nowhere else: the
        // carry keeps only the newest record of a live key. Cut the
        // compaction at every event, or after it returns: every returned
        // op is found, none re-executed.
        let commits = [
            (0..6)
                .map(|k| put(1, k + 1, k, k as i64))
                .collect::<Vec<_>>(),
            vec![put(1, 7, 0, 10), del(1, 8, 1)],
            vec![
                put(1, 9, 3, 30),
                put(1, 10, 3, 31),
                del(1, 11, 4),
                put(1, 12, 2, 22),
            ],
        ];
        let probe = || {
            let (pmem, heap, kv) = fixture(4, 32);
            for ops in &commits {
                assert!(kv.apply_batch(ops).unwrap().iter().all(|o| o.took_effect()));
            }
            (pmem, (heap, kv))
        };
        let want = probe().1 .1.contents().unwrap();
        sweep(
            probe,
            |(_, (heap, kv))| kv.compact(heap),
            |(pmem, (_, kv)), cut| {
                let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                assert!(
                    !cut.returned() || kv2.generation().unwrap() == 1,
                    "{cut}: the swap returned"
                );
                assert_eq!(kv2.contents().unwrap(), want, "{cut}");
                for &op in commits.iter().flatten() {
                    assert_eq!(
                        kv2.recover_batch(&[op]).unwrap(),
                        [KvApplied::Applied],
                        "{cut}: {op:?}"
                    );
                }
                assert_eq!(kv2.contents().unwrap(), want, "{cut}: nothing re-executed");
                assert_eq!(tags_once(&kv2, cut).len(), 12, "{cut}");
                cut.assert_psan_clean(pmem.psan_violations());
            },
        );
    }

    #[test]
    fn a_header_naming_slots_or_buckets_it_lacks_is_a_typed_error() {
        // The commit words come back from NVRAM: a tail past the log, a
        // replay point past the tail, a last batch outside `[C, tail]`
        // or a dirty bucket past the array is refused, not replayed.
        let bad = [
            LogHeader::settled(33, 0),
            LogHeader {
                replay_from: 5,
                ..LogHeader::settled(4, 0)
            },
            LogHeader {
                replay_from: 2,
                last_batch: 1,
                ..LogHeader::settled(4, 0)
            },
            LogHeader {
                dirty: Some((0, 8)),
                ..LogHeader::settled(4, 0)
            },
        ];
        for header in bad {
            let (pmem, _, kv) = fixture(8, 32);
            apply(&kv, put(1, 1, 42, -7)).unwrap();
            let gen = kv.active_gen().unwrap();
            write_header(&pmem, gen.base, &header).unwrap();
            assert!(
                matches!(
                    PKvStore::open(pmem, kv.base(), KvVariant::Nsrl),
                    Err(PError::CorruptStack(_))
                ),
                "{header:?}"
            );
        }
        // A dirty word no commit writes: a first bucket, and a span end
        // of 0 that would underflow.
        let (pmem, _, kv) = fixture(8, 32);
        apply(&kv, put(1, 1, 42, -7)).unwrap();
        let (words, _) = header_range(kv.active_gen().unwrap().base);
        pmem.write_u64(words + 16u64, 1).unwrap();
        assert!(matches!(
            PKvStore::open(pmem, kv.base(), KvVariant::Nsrl),
            Err(PError::CorruptStack(_))
        ));
    }
}

/// The volatile index against the image and against other handles: the
/// coherence cases and the dead machine. CI runs them 20 times at 8
/// test threads.
mod volatile_index {
    use std::sync::atomic::{AtomicI64, Ordering};

    use super::*;

    /// Asserts that `kv`'s index names the generation the root cell does,
    /// and holds every head the image does.
    fn assert_index_is_the_image(kv: &PKvStore) {
        let active = kv.active().unwrap();
        let gen = kv.root_gen().unwrap();
        assert_eq!((active.gen.base, active.gen.number), (gen.base, gen.number));
        for b in 0..kv.nbuckets() {
            let image = kv.pmem.read_u64(kv.bucket_off_at(&gen, b)).unwrap();
            assert_eq!(active.head(b), image, "bucket {b}");
        }
    }

    #[test]
    fn a_second_handle_sees_a_compaction_swap_made_by_the_first() {
        // The index is the region's, not the handle's: a handle opened on
        // its own reads the generation the first handle's compaction
        // swapped in, and its writes land there, where the first sees them.
        let (pmem, heap, kv) = fixture(4, 64);
        for key in 0..6u64 {
            assert!(apply(&kv, put(0, key + 1, key, key as i64)).unwrap());
        }
        let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.generation().unwrap(), 0);
        kv.compact(&heap).unwrap();
        assert_eq!(kv2.generation().unwrap(), 1);
        assert_eq!(kv2.log_reserved().unwrap(), 6, "the carries");
        for key in 0..6u64 {
            assert_eq!(kv2.get(key).unwrap(), Some(key as i64));
        }
        assert!(apply(&kv2, put(1, 1, 2, 20)).unwrap());
        assert!(apply(&kv2, del(1, 2, 3)).unwrap());
        assert_eq!(kv.get(2).unwrap(), Some(20));
        assert_eq!(kv.get(3).unwrap(), None);
        assert_eq!(kv.log_reserved().unwrap(), 8);
        assert_index_is_the_image(&kv);
        assert!(pmem.psan_violations().is_empty());
    }

    #[test]
    fn a_boot_that_voids_the_newest_batch_leaves_the_index_at_the_voided_state() {
        // A served batch at `L` whose slots do not hold their claims is
        // voided by the boot (the boot rules): the index the boot builds
        // shows the store without it, and the next commit on its buckets
        // publishes over the heads the index holds.
        let (pmem, _, kv) = fixture(8, 32);
        assert!(apply(&kv, put(1, 1, 5, 50)).unwrap());
        commit_served(&kv, &[put(1, 2, 5, 51), put(1, 3, 6, 60)]).unwrap();
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let lost = |_: &[(u32, u32)]| Ok(false);
        let kv =
            PKvStore::open_with(pmem.clone(), kv.base(), KvVariant::Nsrl, Some(&lost)).unwrap();
        assert_eq!((kv.get(5).unwrap(), kv.get(6).unwrap()), (Some(50), None));
        assert_eq!(kv.log_reserved().unwrap(), 1, "the tail back at L");
        assert_index_is_the_image(&kv);
        assert!(apply(&kv, put(1, 4, 5, 52)).unwrap());
        assert!(apply(&kv, put(1, 5, 6, 61)).unwrap());
        assert_eq!(
            (kv.get(5).unwrap(), kv.get(6).unwrap()),
            (Some(52), Some(61))
        );
        assert_index_is_the_image(&kv);
        assert!(pmem.psan_violations().is_empty());
    }

    #[test]
    fn a_get_racing_a_commit_on_its_bucket_sees_the_old_head_or_the_new_one() {
        // A get reads the index's head, which a commit flips only on its
        // level's receipt: while a batch is staged and its level in flight,
        // a get sees the old value; once the batch returns, the new one.
        // Then a reader races a writer on one key of one bucket: every value
        // it reads was committed by the time the read ended and was not yet
        // replaced when it began — the old head or the new one, in order.
        let (_, _, kv) = fixture(1, 1024);
        assert!(apply(&kv, put(0, 1, 7, 0)).unwrap());
        let pending = kv.apply_batch_begin(&[put(0, 2, 7, 1)]).unwrap();
        let kv2 = kv.clone();
        let during = std::thread::spawn(move || kv2.get(7).unwrap());
        assert_eq!(during.join().unwrap(), Some(0), "the level is in flight");
        assert_eq!(pending.commit().unwrap(), vec![KvApplied::Applied]);
        assert_eq!(kv.get(7).unwrap(), Some(1));

        const WRITES: i64 = 300;
        let (begun, done) = (AtomicI64::new(1), AtomicI64::new(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut last = 0;
                while done.load(Ordering::SeqCst) < WRITES {
                    let lo = done.load(Ordering::SeqCst);
                    let got = kv.get(7).unwrap().expect("the key is never deleted");
                    let hi = begun.load(Ordering::SeqCst);
                    assert!((lo..=hi).contains(&got), "{got} outside [{lo}, {hi}]");
                    assert!(got >= last, "{got} after {last}");
                    last = got;
                }
            });
            for v in 2..=WRITES {
                begun.store(v, Ordering::SeqCst);
                assert!(apply(&kv, put(0, v as u64 + 1, 7, v)).unwrap());
                done.store(v, Ordering::SeqCst);
            }
        });
    }

    #[test]
    fn a_dead_machine_never_answers_a_get() {
        // The index is DRAM, which a power failure does not clear in the
        // emulator: a read of it on a crashed region fails with the crash,
        // as a read of the image does — for an empty bucket, a populated
        // one, and a generation a compaction put in the index. Every
        // handle on the region, clone or independent open, fails alike.
        let (pmem, _, kv) = fixture(64, 64);
        assert!(apply(&kv, put(0, 1, 7, 70)).unwrap());
        let active = kv.active().unwrap();
        let empty = (0..).find(|&k| active.head(kv.bucket_of(k)) == 0).unwrap();
        let crashed = |kv: &PKvStore, key: u64| {
            for get in [PKvStore::get, PKvStore::get_durable] {
                assert!(
                    matches!(get(kv, key), Err(PError::Mem(MemError::Crashed))),
                    "key {key}: {:?}",
                    get(kv, key)
                );
            }
        };
        let kv2 = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        pmem.crash_now(0, 1.0);
        for handle in [&kv, &kv.clone(), &kv2] {
            crashed(handle, empty);
            crashed(handle, 7);
        }

        let pmem = pmem.reopen().unwrap();
        let heap = PHeap::open(pmem.clone(), POffset::new(0)).unwrap();
        let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        kv.compact(&heap).unwrap();
        assert_eq!(
            (kv.generation().unwrap(), kv.get(7).unwrap()),
            (1, Some(70))
        );
        pmem.crash_now(0, 1.0);
        crashed(&kv, empty);
        crashed(&kv, 7);
        assert!(matches!(
            kv.generation(),
            Err(PError::Mem(MemError::Crashed))
        ));
    }
}
