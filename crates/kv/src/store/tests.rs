use std::collections::BTreeMap;

use super::layout::{
    decode_record, header_range, round64, write_header, LogHeader, RECORD_STRIDE, WORDS_LEN,
};
use super::*;
use pstack_nvram::Level;
use pstack_nvram::{FailPlan, PMemBuilder, PsanViolationKind};

fn fixture(nbuckets: u64, log_cap: u64) -> (PMem, PHeap, PKvStore) {
    // PSan shadows every store test: the protocols must never trip
    // the sanitizer (checked per-test where state is inspected).
    let pmem = PMemBuilder::new().len(1 << 19).psan(true).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 19).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, nbuckets, log_cap, KvVariant::Nsrl).unwrap();
    (pmem, heap, kv)
}

fn put(pid: u64, seq: u64, key: u64, value: i64) -> KvBatchOp {
    KvBatchOp::Put {
        pid,
        seq,
        key,
        value,
    }
}

fn del(pid: u64, seq: u64, key: u64) -> KvBatchOp {
    KvBatchOp::Delete { pid, seq, key }
}

fn cas(pid: u64, seq: u64, key: u64, expected: i64, new: i64) -> KvBatchOp {
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
        10,
        "the walk: root cell 3, the active generation's magic and capacity 2, \
         its prev 1, the retired generation's header 3 and its prev 1"
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
        10 + 2 * BUCKETS + records,
        "one walk, a head per bucket per generation, a read per record"
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

#[test]
fn batch_crash_points_leave_no_lost_or_torn_heads() {
    // The group-commit publish path, exhaustively: crash at every
    // persistence event inside a batch window. After recovery the
    // published state must be per-bucket all-or-nothing (no torn
    // heads), and the recovery duals must complete every op exactly
    // once.
    let ops = [
        put(1, 1, 0, 10),
        put(1, 2, 2, 20),
        // Same bucket pressure: nbuckets = 2, so keys collide and
        // chain within the batch.
        put(1, 3, 4, 40),
        cas(1, 4, 0, 10, 11),
        del(1, 5, 2),
    ];
    let probe = || {
        let pmem = PMemBuilder::new().len(1 << 16).psan(true).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 2, 16, KvVariant::Nsrl).unwrap();
        (pmem, kv)
    };
    let (pmem, kv) = probe();
    let e0 = pmem.events();
    let out = kv.apply_batch(&ops).unwrap();
    assert!(out.iter().all(|o| o.took_effect()));
    let total = pmem.events() - e0;
    let want = kv.contents().unwrap();
    assert!(total > 8, "the batch window spans many flush boundaries");

    for k in 0..total {
        let (pmem, kv) = probe();
        pmem.arm_failpoint(FailPlan::after_events(k));
        let err = kv.apply_batch(&ops).unwrap_err();
        assert!(err.is_crash(), "crash at event {k}");
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();

        // No torn state: every published record decodes, every
        // chain walks, and published tags are unique.
        let mut tags = std::collections::HashSet::new();
        for chain in kv2.snapshot().unwrap() {
            for rec in chain {
                assert!(tags.insert((rec.pid, rec.seq)), "crash at {k}: dup tag");
            }
        }
        // Per-bucket all-or-nothing: a bucket publishes either none
        // or all of its batch records (one head flip per bucket).
        for bucket in 0..2 {
            let batch_recs = kv2
                .chain(bucket)
                .unwrap()
                .iter()
                .filter(|r| r.pid == 1)
                .count();
            let full = ops.iter().filter(|op| mix(op.key()) % 2 == bucket).count();
            assert!(
                batch_recs == 0 || batch_recs == full,
                "crash at {k}: bucket {bucket} published {batch_recs}/{full} — torn batch"
            );
        }

        // Recovery duals complete the batch exactly once.
        assert!(recover(&kv2, put(1, 1, 0, 10)).unwrap());
        assert!(recover(&kv2, put(1, 2, 2, 20)).unwrap());
        assert!(recover(&kv2, put(1, 3, 4, 40)).unwrap());
        assert!(recover(&kv2, cas(1, 4, 0, 10, 11)).unwrap());
        assert!(recover(&kv2, del(1, 5, 2)).unwrap());
        assert_eq!(kv2.contents().unwrap(), want, "crash at event {k}");
        let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
        assert_eq!(published, ops.len(), "crash at {k}: duplicate application");
        let violations = pmem2.psan_violations();
        assert!(
            violations.is_empty(),
            "crash at {k}: PSan flagged the correct protocol: {violations:?}"
        );
    }
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
    let ops = [
        put(1, 1, 0, 10),
        put(1, 2, 2, 20),
        put(1, 3, 4, 40),
        cas(1, 4, 0, 10, 11),
        del(1, 5, 2),
    ];
    let probe = || {
        let pmem = PMemBuilder::new().len(1 << 16).psan(true).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let kv = PKvStore::format(pmem.clone(), &heap, 2, 16, KvVariant::Nsrl).unwrap();
        (pmem, kv)
    };

    // Golden run: the batch stages two overlapping flights (records
    // and header), both still queued when `begin` returns.
    let (pmem, kv) = probe();
    let e0 = pmem.events();
    let pending = kv.apply_batch_begin(&ops).unwrap();
    let staged_events = pmem.events() - e0;
    assert_eq!(pmem.inflight_tickets(), 2, "records + header in flight");
    assert!(pending.commit().unwrap().iter().all(|o| o.took_effect()));
    let total = pmem.events() - e0;
    let want = kv.contents().unwrap();
    assert!(total > staged_events, "publish consumes events too");

    let mut inflight_kills = 0usize;
    for k in 0..total {
        let (pmem, kv) = probe();
        pmem.arm_failpoint(FailPlan::after_events(k));
        let err = kv.apply_batch(&ops).unwrap_err();
        assert!(err.is_crash(), "crash at event {k}");
        // Countdowns landing before the staging point cut the
        // window while flights are still queued on the device.
        if k < staged_events {
            inflight_kills += 1;
        }
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();

        let mut tags = std::collections::HashSet::new();
        for chain in kv2.snapshot().unwrap() {
            for rec in chain {
                assert!(tags.insert((rec.pid, rec.seq)), "crash at {k}: dup tag");
            }
        }
        for bucket in 0..2 {
            let batch_recs = kv2
                .chain(bucket)
                .unwrap()
                .iter()
                .filter(|r| r.pid == 1)
                .count();
            let full = ops.iter().filter(|op| mix(op.key()) % 2 == bucket).count();
            assert!(
                batch_recs == 0 || batch_recs == full,
                "crash at {k}: bucket {bucket} published {batch_recs}/{full} — torn batch"
            );
        }

        assert!(recover(&kv2, put(1, 1, 0, 10)).unwrap());
        assert!(recover(&kv2, put(1, 2, 2, 20)).unwrap());
        assert!(recover(&kv2, put(1, 3, 4, 40)).unwrap());
        assert!(recover(&kv2, cas(1, 4, 0, 10, 11)).unwrap());
        assert!(recover(&kv2, del(1, 5, 2)).unwrap());
        assert_eq!(kv2.contents().unwrap(), want, "crash at event {k}");
        let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
        assert_eq!(published, ops.len(), "crash at {k}: duplicate application");
        let violations = pmem2.psan_violations();
        assert!(
            violations.is_empty(),
            "crash at {k}: PSan flagged the correct protocol: {violations:?}"
        );
    }
    assert!(
        inflight_kills > 2,
        "the sweep never cut the window with flights in flight"
    );

    // One more input: a two-shard `KvBatch`, both shards moving
    // through the commit's levels together (every heads flight
    // issued before the first is awaited). Power fails at every
    // event of each region, every dirty line lost or every one kept.
    // Per shard, each bucket is all-or-nothing; nothing orders one
    // shard against the other.
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

    let (stripe, kv) = probe();
    let e0 = stripe.events_per_region();
    assert!(commit(&kv).unwrap().iter().all(|o| o.took_effect()));
    let spent: Vec<u64> = stripe
        .events_per_region()
        .iter()
        .zip(&e0)
        .map(|(now, then)| now - then)
        .collect();
    assert!(spent.iter().all(|&n| n > 0), "both shards take part");
    let want = kv.contents().unwrap();

    for (region, &total) in spent.iter().enumerate() {
        for k in 0..total {
            for prob in [0.0, 1.0] {
                let at = format!("shard {region} event {k}, survivors {prob}");
                let (stripe, kv) = probe();
                let plan = FailPlan::after_events(k).with_survivors(0, prob);
                stripe.region(region).arm_failpoint(plan);
                assert!(commit(&kv).unwrap_err().is_crash(), "{at}");
                stripe.crash_all(0, prob);
                let stripe2 = stripe.reopen_all().unwrap();
                let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();

                for s in 0..2 {
                    for bucket in 0..2 {
                        let batch_recs = kv2
                            .shard(s)
                            .chain(bucket)
                            .unwrap()
                            .iter()
                            .filter(|r| r.pid == 1)
                            .count();
                        let full = ops
                            .iter()
                            .filter(|op| kv2.shard_of(op.key()) == s && mix(op.key()) % 2 == bucket)
                            .count();
                        assert!(
                            batch_recs == 0 || batch_recs == full,
                            "{at}: shard {s} bucket {bucket} published {batch_recs}/{full}"
                        );
                    }
                }

                for &op in &ops {
                    assert!(recover(&kv2, op).unwrap(), "{at}: {op:?}");
                }
                assert_eq!(kv2.contents().unwrap(), want, "{at}");
                let published: usize = kv2
                    .snapshot_sharded()
                    .unwrap()
                    .iter()
                    .flatten()
                    .map(Vec::len)
                    .sum();
                assert_eq!(published, ops.len(), "{at}: duplicate application");
                // Kept lines that were never durable are read as
                // ghosts (the emulator's generosity, not an order
                // violation); no order violation either way.
                let violations: Vec<_> = stripe2
                    .psan_violations()
                    .into_iter()
                    .filter(|v| prob == 0.0 || !matches!(v.kind, PsanViolationKind::GhostRead))
                    .collect();
                assert!(violations.is_empty(), "{at}: {violations:?}");
            }
        }
    }
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
        let first = kv.recover_batch_begin(&[op], Heads::NextCommit).unwrap();
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
fn durable_get_survives_a_power_failure_a_plain_get_does_not() {
    // The read rule and its negative control. A reader races a served
    // window stopped between its head CAS and its heads' await; the
    // power fails right after it answers. `get_durable` persisted the
    // dirty head first, so its answer survives; a plain `get` handed
    // out a value the crash takes back (a window's records are never
    // replayed: its heads are its commit point).
    for durable in [true, false] {
        let (pmem, _heap, kv) = fixture(16, 64);
        apply(&kv, put(1, 1, 7, 10)).unwrap();
        let mut pending = kv.begin(&[put(1, 2, 7, 20)], Heads::CallerLevel).unwrap();
        let mut heads = Level::default();
        pending.publish(&mut heads).unwrap();

        let before = pmem.stats().snapshot();
        let answered = if durable {
            kv.get_durable(7).unwrap()
        } else {
            kv.get(7).unwrap()
        };
        assert_eq!(answered, Some(20), "both readers see the published head");
        let d = pmem.stats().snapshot() - before;
        assert_eq!(d.persists, u64::from(durable), "only the durable read pays");
        drop(pending);

        pmem.crash_now(3, 0.0);
        let kv2 = PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
        let survived = kv2.get(7).unwrap();
        if durable {
            assert_eq!(survived, answered, "a durable read's answer survives");
        } else {
            assert_eq!(survived, Some(10), "negative control: the answer is lost");
        }
        assert!(pmem.psan_violations().is_empty());
    }

    // A bare commit leaves its heads dirty, and the log covers them: a
    // durable read of any of them persists nothing — no persist, no
    // line, no event, not even a redundant-persist count — and its
    // answer survives a power failure that keeps no dirty line, since
    // the reopen replays the batch.
    let (pmem, _heap, kv) = fixture(64, 64);
    let keys = 0..16u64;
    let puts: Vec<_> = keys
        .clone()
        .map(|k| put(1, k + 1, k, 10 + k as i64))
        .collect();
    kv.apply_batch(&puts).unwrap();
    let gen = kv.active_gen().unwrap();
    assert!(
        keys.clone()
            .all(|k| pmem.is_dirty(kv.bucket_off(&gen, k), 8).unwrap()),
        "every head the commit flipped is dirty"
    );
    let (e0, before) = (pmem.events(), pmem.stats().snapshot());
    for k in keys.clone() {
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
    let kv2 = PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
    for k in keys {
        assert_eq!(kv2.get(k).unwrap(), Some(10 + k as i64), "key {k} survives");
    }
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

#[test]
fn crash_point_enumeration_put_recovers_exactly_once() {
    // A one-op put — a group commit of one — cut at every
    // persistence event: reserve CAS, record write, the record and
    // tail flights, head CAS, the heads flight. Wherever
    // the crash lands, the evidence scan answers exactly-once and
    // PSan stays silent.
    let probe = || fixture(4, 16);
    let (pmem, _, kv) = probe();
    let e0 = pmem.events();
    assert!(apply(&kv, put(0, 1, 7, 77)).unwrap());
    let total = pmem.events() - e0;
    assert!(total >= 5, "reserve + record + head CAS + flights");

    for k in 0..total {
        let (pmem, _, kv) = probe();
        pmem.arm_failpoint(FailPlan::after_events(k));
        let err = apply(&kv, put(0, 1, 7, 77)).unwrap_err();
        assert!(err.is_crash());
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
        assert!(
            recover(&kv2, put(0, 1, 7, 77)).unwrap(),
            "crash at event {k}"
        );
        assert_eq!(kv2.get(7).unwrap(), Some(77), "crash at event {k}");
        let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
        assert_eq!(published, 1, "crash at event {k}: exactly one record");
        assert!(pmem2.psan_violations().is_empty(), "crash at event {k}");
    }
}

#[test]
fn crash_point_enumeration_delete_recovers_exactly_once() {
    let probe = || {
        let (pmem, heap, kv) = fixture(4, 16);
        apply(&kv, put(0, 1, 7, 77)).unwrap();
        (pmem, heap, kv)
    };
    let (pmem, _, kv) = probe();
    let e0 = pmem.events();
    assert!(apply(&kv, del(1, 2, 7)).unwrap());
    let total = pmem.events() - e0;

    for k in 0..total {
        let (pmem, _, kv) = probe();
        pmem.arm_failpoint(FailPlan::after_events(k));
        let err = apply(&kv, del(1, 2, 7)).unwrap_err();
        assert!(err.is_crash());
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
        assert!(recover(&kv2, del(1, 2, 7)).unwrap(), "crash at event {k}");
        assert_eq!(kv2.get(7).unwrap(), None, "crash at event {k}");
        let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
        assert_eq!(published, 2, "crash at event {k}: put + delete records");
    }
}

#[test]
fn crash_point_enumeration_cas_recovers_exactly_once() {
    let probe = || {
        let (pmem, heap, kv) = fixture(4, 16);
        apply(&kv, put(0, 1, 7, 77)).unwrap();
        (pmem, heap, kv)
    };
    let (pmem, _, kv) = probe();
    let e0 = pmem.events();
    assert!(apply(&kv, cas(1, 2, 7, 77, 78)).unwrap());
    let total = pmem.events() - e0;

    for k in 0..total {
        let (pmem, _, kv) = probe();
        pmem.arm_failpoint(FailPlan::after_events(k));
        let err = apply(&kv, cas(1, 2, 7, 77, 78)).unwrap_err();
        assert!(err.is_crash());
        let pmem2 = pmem.reopen().unwrap();
        let kv2 = PKvStore::open(pmem2, kv.base(), KvVariant::Nsrl).unwrap();
        assert!(
            recover(&kv2, cas(1, 2, 7, 77, 78)).unwrap(),
            "crash at event {k}"
        );
        assert_eq!(kv2.get(7).unwrap(), Some(78), "crash at event {k}");
        let published: usize = kv2.snapshot().unwrap().iter().map(Vec::len).sum();
        assert_eq!(published, 2, "crash at event {k}: no double application");
    }
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
    // interior headers, its switch ‖ the block, the root swap), keeping
    // no dirty line, every one, or a seeded half, and, from each crash
    // state, at every persistence event inside the recovery dual.
    let probe = || {
        let (pmem, heap, kv) = fixture(4, 16);
        seed_history(&kv);
        (pmem, heap, kv)
    };
    let (pmem, heap, kv) = probe();
    let want = kv.contents().unwrap();
    let used_before = heap.stats().used_blocks;
    let e0 = pmem.events();
    kv.compact(&heap).unwrap();
    let total = pmem.events() - e0;
    assert!(
        total >= 3,
        "rewrite + swap span several events (got {total})"
    );

    let mut leaked = false;
    for (seed, prob) in [(0, 0.0), (0, 1.0), (3, 0.5)] {
        // Kept lines that were never durable are read as ghosts (the
        // emulator's generosity, not an order violation).
        let order_violations = |pmem: &PMem| -> Vec<_> {
            pmem.psan_violations()
                .into_iter()
                .filter(|v| prob == 0.0 || !matches!(v.kind, PsanViolationKind::GhostRead))
                .collect()
        };
        let cut = |k: u64| {
            let (pmem, heap, kv) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k).with_survivors(seed + k, prob));
            let err = kv.compact(&heap).unwrap_err();
            assert!(err.is_crash(), "survivors {prob}, crash at event {k}");
            let pmem = pmem.reopen().unwrap();
            let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
            let heap = PHeap::open(pmem.clone(), POffset::new(0)).unwrap();
            (pmem, heap, kv)
        };
        for k in 0..total {
            // Phase 1: crash the compaction after k events; the store
            // must reopen whole in the old or the new generation.
            let at = format!("survivors {prob}, crash at {k}");
            let (pmem2, heap2, kv2) = cut(k);
            // The cut "switch ‖ block landed, cell not": the old root
            // and one more used block, the new one, leaked.
            let gen = assert_whole_after_cut(&kv2, &heap2, &want, &at);
            leaked |= gen == 0 && heap2.stats().used_blocks > used_before;
            let violations = order_violations(&pmem2);
            assert!(violations.is_empty(), "{at}: {violations:?}");

            // Phase 2: enumerate crashes inside the recovery dual. The
            // first j at or past recovery's event footprint completes.
            for j in 0.. {
                let at = format!("{at}, recovery step {j}");
                let (pmem, heap, kv) = cut(k);
                pmem.arm_failpoint(FailPlan::after_events(j));
                match kv.recover_compact(&heap, 0) {
                    Ok(_committed_before) => {
                        pmem.disarm_failpoint();
                        assert_eq!(assert_whole_after_cut(&kv, &heap, &want, &at), 1);
                        let gens = kv.generations().unwrap();
                        assert!(gens[0].retired, "the old generation is retired");
                        // Idempotent: a second recovery changes nothing.
                        assert!(kv.recover_compact(&heap, 0).unwrap());
                        assert_eq!(kv.generation().unwrap(), 1);
                        let violations = order_violations(&pmem);
                        assert!(
                            violations.is_empty(),
                            "{at}: PSan flagged recovery: {violations:?}"
                        );
                        break;
                    }
                    Err(e) => {
                        assert!(e.is_crash(), "{at}: {e}");
                        let pmem = pmem.reopen().unwrap();
                        let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                        let heap = PHeap::open(pmem, POffset::new(0)).unwrap();
                        // A clean pass from the doubly-crashed state
                        // must still converge.
                        kv.recover_compact(&heap, 0).unwrap();
                        assert_eq!(assert_whole_after_cut(&kv, &heap, &want, &at), 1);
                    }
                }
            }
        }
    }
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

    /// The survivor policies a cut sweep runs at event `k`: every dirty
    /// line lost, every one kept, and four seeded halves.
    fn survivor_plans(k: u64) -> Vec<(String, FailPlan, u64, f64)> {
        let mut plans = vec![(0, 0.0), (0, 1.0)];
        plans.extend((1..=4).map(|seed| (seed, 0.5)));
        plans
            .into_iter()
            .map(|(seed, prob)| {
                let plan = FailPlan::after_events(k).with_survivors(seed, prob);
                (
                    format!("event {k}, survivors {prob} (seed {seed})"),
                    plan,
                    seed,
                    prob,
                )
            })
            .collect()
    }

    /// Every published tag of `kv` but the compaction copies, each once.
    fn tags_once(kv: &PKvStore, at: &str) -> Vec<(u64, u64)> {
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

    /// PSan's verdict after a cut: no violation, except that a line a crash
    /// kept without a completed flight reads as a ghost.
    fn assert_psan_clean(pmem: &PMem, prob: f64, at: &str) {
        let violations: Vec<_> = pmem
            .psan_violations()
            .into_iter()
            .filter(|v| prob == 0.0 || !matches!(v.kind, PsanViolationKind::GhostRead))
            .collect();
        assert!(violations.is_empty(), "{at}: {violations:?}");
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
        // means every chain it touched.
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
        let (pmem, kv) = probe();
        let before = kv.contents().unwrap();
        let e0 = pmem.events();
        assert!(kv
            .apply_batch(&second)
            .unwrap()
            .iter()
            .all(|o| o.took_effect()));
        let total = pmem.events() - e0;
        let after = kv.contents().unwrap();
        pmem.crash_now(0, 0.0);
        let kv2 = PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
        assert_eq!(
            kv2.contents().unwrap(),
            after,
            "a cut after commit returns loses nothing"
        );

        for k in 0..total {
            for (at, plan, _, prob) in survivor_plans(k) {
                let (pmem, kv) = probe();
                pmem.arm_failpoint(plan);
                assert!(kv.apply_batch(&second).unwrap_err().is_crash(), "{at}");
                let pmem2 = pmem.reopen().unwrap();
                let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                let tags = tags_once(&kv2, &at);
                assert_eq!(
                    pid_count(&tags, 1),
                    first.len(),
                    "{at}: the returned commit"
                );
                let whole = match pid_count(&tags, 2) {
                    0 => false,
                    5 => true,
                    n => panic!("{at}: {n} of the cut commit's 5 records"),
                };
                let contents = kv2.contents().unwrap();
                assert_eq!(&contents, if whole { &after } else { &before }, "{at}");
                // And the reopened store goes on: the replayed heads ride
                // its next commit, and a second reopen keeps everything.
                assert!(apply(&kv2, put(3, 1, 11, 1)).unwrap(), "{at}");
                pmem2.crash_now(0, 0.0);
                let kv3 =
                    PKvStore::open(pmem2.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
                let mut want = contents.clone();
                want.insert(11, 1);
                assert_eq!(kv3.contents().unwrap(), want, "{at}: after the next commit");
                assert_psan_clean(&pmem2, prob, &at);
            }
        }
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
        let (stripe, kv) = probe();
        let e0 = stripe.events_per_region();
        commit(&kv, &second).unwrap();
        let spent: Vec<u64> = stripe
            .events_per_region()
            .iter()
            .zip(&e0)
            .map(|(now, then)| now - then)
            .collect();
        assert!(spent.iter().all(|&n| n > 0), "both shards take part");
        let on = |kv: &ShardedKvStore, s: usize, pid: u64| {
            kv.shard(s)
                .snapshot()
                .unwrap()
                .into_iter()
                .flatten()
                .filter(|r| r.pid == pid)
                .count()
        };
        let want: Vec<usize> = (0..2)
            .map(|s| {
                second
                    .iter()
                    .filter(|op| kv.shard_of(op.key()) == s)
                    .count()
            })
            .collect();
        let first_on: Vec<usize> = (0..2).map(|s| on(&kv, s, 1)).collect();

        for (region, &total) in spent.iter().enumerate() {
            for k in 0..total {
                for (at, plan, seed, prob) in survivor_plans(k) {
                    let at = format!("shard {region} {at}");
                    let (stripe, kv) = probe();
                    stripe.region(region).arm_failpoint(plan);
                    assert!(commit(&kv, &second).unwrap_err().is_crash(), "{at}");
                    stripe.crash_all(seed, prob);
                    let stripe2 = stripe.reopen_all().unwrap();
                    let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
                    for s in 0..2 {
                        assert_eq!(
                            on(&kv2, s, 1),
                            first_on[s],
                            "{at}: shard {s} lost a returned commit"
                        );
                        let n = on(&kv2, s, 2);
                        assert!(
                            n == 0 || n == want[s],
                            "{at}: shard {s} shows {n} of {}",
                            want[s]
                        );
                        tags_once(kv2.shard(s), &at);
                    }
                    let violations: Vec<_> = stripe2
                        .psan_violations()
                        .into_iter()
                        .filter(|v| prob == 0.0 || !matches!(v.kind, PsanViolationKind::GhostRead))
                        .collect();
                    assert!(violations.is_empty(), "{at}: {violations:?}");
                }
            }
        }
    }

    #[test]
    fn a_reused_slot_never_validates_a_record_of_the_batch_that_lost_it() {
        // A batch cut at its header's write with every dirty line kept: its
        // records land in the slots past the durable tail, its header does
        // not. The reopen reuses those slots for a batch of the same size —
        // the same first and last slot — cut at every event. None of the
        // lost batch's records may ever show, as part of the new batch or
        // otherwise. The lost batch is a bare commit (stamped records: the
        // new batch differs from it only in its epoch) or a window's first
        // level (records that carry no stamp).
        let base = [put(1, 1, 0, 0), put(1, 2, 1, 1)];
        let lost: Vec<KvBatchOp> = (0..4).map(|k| put(7, k + 1, 10 + k, 70)).collect();
        let reuse: Vec<KvBatchOp> = (0..4).map(|k| put(8, k + 1, 20 + k, 80)).collect();
        for heads in [Heads::NextCommit, Heads::CallerLevel] {
            let commit_lost =
                |kv: &PKvStore| kv.begin(&lost, heads).and_then(KvPendingBatch::commit);
            // The cut: the last event at which, every line kept, the header
            // still shows the pre-batch tail.
            let setup = |k: u64| {
                let (pmem, _, kv) = fixture(4, 32);
                kv.apply_batch(&base).unwrap();
                let tail = kv.log_reserved().unwrap();
                pmem.arm_failpoint(FailPlan::after_events(k).with_survivors(0, 1.0));
                let cut = commit_lost(&kv).is_err();
                pmem.disarm_failpoint();
                (pmem, kv, tail, cut)
            };
            let cut_at = (0..64)
                .take_while(|&k| {
                    let (pmem, kv, tail, cut) = setup(k);
                    assert!(cut, "{heads:?}: the lost batch spans more than 64 events");
                    let kv2 =
                        PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
                    kv2.log_reserved().unwrap() == tail
                })
                .last()
                .unwrap();
            let reopened = || {
                let (pmem, kv, tail, _) = setup(cut_at);
                let pmem = pmem.reopen().unwrap();
                let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                // Every record of the lost batch landed past the tail.
                for i in 0..lost.len() as u64 {
                    let gen = kv.active_gen().unwrap();
                    let rec = kv.read_slot(kv.record_off(&gen, tail + i)).unwrap();
                    assert_eq!(decode_record(&rec).3 .0, 7, "{heads:?}: slot {i} landed");
                }
                (pmem, kv)
            };
            let (pmem, kv) = reopened();
            let e0 = pmem.events();
            kv.apply_batch(&reuse).unwrap();
            let total = pmem.events() - e0;
            for k in 0..=total {
                for (at, plan, _, prob) in survivor_plans(k) {
                    let at = format!("{heads:?} lost, {at}");
                    let (pmem, kv) = reopened();
                    pmem.arm_failpoint(plan);
                    let _ = kv.apply_batch(&reuse);
                    pmem.disarm_failpoint();
                    if !pmem.is_crashed() {
                        pmem.crash_now(0, prob);
                    }
                    let kv2 =
                        PKvStore::open(pmem.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
                    let tags = tags_once(&kv2, &at);
                    assert_eq!(pid_count(&tags, 7), 0, "{at}: a lost record shows");
                    assert_eq!(pid_count(&tags, 1), base.len(), "{at}");
                    let n = pid_count(&tags, 8);
                    assert!(n == 0 || n == reuse.len(), "{at}: {n} of the batch");
                    assert!(
                        k < total || n == reuse.len(),
                        "{at}: a returned commit lost"
                    );
                    // The lost batch's lines were kept without a completed
                    // flight: reading them is a ghost read, by design.
                    assert_psan_clean(&pmem, 1.0, &at);
                }
            }
            // The lottery outcome the sweep's four halves may miss: the
            // reusing batch's header line kept and every record line lost,
            // so the header names the slots the lost batch still holds.
            // Seeds are tried in order; those that land it are checked.
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
                let at = format!("{heads:?} lost, seed {seed}: header kept, records lost");
                let kv2 = PKvStore::open(image, kv.base(), KvVariant::Nsrl).unwrap();
                let tags = tags_once(&kv2, &at);
                assert_eq!(pid_count(&tags, 7), 0, "{at}: a lost record shows");
                assert_eq!(pid_count(&tags, 8), 0, "{at}: a batch shows in part");
                assert_eq!(pid_count(&tags, 1), base.len(), "{at}");
                assert_eq!(kv2.log_reserved().unwrap(), tail, "{at}: the tail");
            }
            assert!(landed > 0, "{heads:?}: no seed kept the header alone");
        }
    }

    #[test]
    fn a_window_after_bare_commits_cut_at_every_event_keeps_every_returned_effect() {
        // Two bare commits leave heads dirty; a served window checkpoints
        // them, moves `C` past its own records and clears the bare bit; a
        // bare commit after it sets the bit again. Cut anywhere in the
        // window or that commit: the bare commits before it show whole, the
        // window's buckets whole or not at all (its heads are its commit
        // point), the commit after it whole or absent — and only if the
        // window's commit returned. Then the store goes on: a further
        // commit and a reopen keep all of that, so no replay ever ran into
        // the window's unstamped records and gave their slots away.
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
        let run = |kv: &PKvStore| -> Result<(), PError> {
            kv.begin(&window, Heads::CallerLevel)?.commit()?;
            kv.apply_batch(&after)?;
            Ok(())
        };
        let (pmem, kv) = probe();
        let e0 = pmem.events();
        kv.begin(&window, Heads::CallerLevel)
            .unwrap()
            .commit()
            .unwrap();
        let window_events = pmem.events() - e0;
        kv.apply_batch(&after).unwrap();
        let total = pmem.events() - e0;
        let bucket = |key: u64| mix(key) % 4;

        for k in 0..total {
            for (at, plan, _, prob) in survivor_plans(k) {
                let (pmem, kv) = probe();
                pmem.arm_failpoint(plan);
                assert!(run(&kv).unwrap_err().is_crash(), "{at}");
                let pmem2 = pmem.reopen().unwrap();
                let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                let tags = tags_once(&kv2, &at);
                assert_eq!(pid_count(&tags, 1), 5, "{at}: the bare commits");
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
                        "{at}: a window bucket torn"
                    );
                }
                if k >= window_events {
                    assert_eq!(shown.len(), window.len(), "{at}: the window returned");
                }
                let n = pid_count(&tags, 6);
                assert!(n == 0 || n == after.len(), "{at}: {n} of the commit after");
                assert!(
                    n == 0 || k >= window_events,
                    "{at}: a commit before its window returned"
                );
                // The store goes on, and keeps what it shows.
                let mut want = kv2.contents().unwrap();
                assert!(apply(&kv2, put(9, 1, 8, 90)).unwrap(), "{at}");
                want.insert(8, 90);
                pmem2.crash_now(0, 0.0);
                let kv3 =
                    PKvStore::open(pmem2.reopen().unwrap(), kv.base(), KvVariant::Nsrl).unwrap();
                assert_eq!(kv3.contents().unwrap(), want, "{at}: after the next commit");
                assert_eq!(tags_once(&kv3, &at).len(), tags.len() + 1, "{at}");
                assert_psan_clean(&pmem2, prob, &at);
            }
        }
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
            (pmem, heap, kv)
        };
        let (pmem, heap, kv) = probe();
        let want = kv.contents().unwrap();
        let e0 = pmem.events();
        kv.compact(&heap).unwrap();
        let total = pmem.events() - e0;
        for k in 0..=total {
            for (at, plan, _, prob) in survivor_plans(k) {
                let (pmem, heap, kv) = probe();
                pmem.arm_failpoint(plan);
                let _ = kv.compact(&heap);
                pmem.disarm_failpoint();
                if !pmem.is_crashed() {
                    pmem.crash_now(0, prob);
                }
                let pmem2 = pmem.reopen().unwrap();
                let kv2 = PKvStore::open(pmem2.clone(), kv.base(), KvVariant::Nsrl).unwrap();
                assert!(
                    k < total || kv2.generation().unwrap() == 1,
                    "{at}: the swap returned"
                );
                assert_eq!(kv2.contents().unwrap(), want, "{at}");
                for &op in commits.iter().flatten() {
                    assert_eq!(
                        kv2.recover_batch(&[op]).unwrap(),
                        [KvApplied::Applied],
                        "{at}: {op:?}"
                    );
                }
                assert_eq!(kv2.contents().unwrap(), want, "{at}: nothing re-executed");
                assert_eq!(tags_once(&kv2, &at).len(), 12, "{at}");
                assert_psan_clean(&pmem2, prob, &at);
            }
        }
    }

    #[test]
    fn a_header_naming_slots_or_buckets_it_lacks_is_a_typed_error() {
        // The commit words come back from NVRAM: a tail past the log, a
        // replay point past the tail, a last batch outside `[C, tail]`
        // or a dirty bucket past the array is refused, not replayed.
        let bad = [
            LogHeader::settled(33, 0, true),
            LogHeader {
                replay_from: 5,
                ..LogHeader::settled(4, 0, true)
            },
            LogHeader {
                replay_from: 2,
                last_batch: 1,
                ..LogHeader::settled(4, 0, true)
            },
            LogHeader {
                dirty: Some((0, 8)),
                ..LogHeader::settled(4, 0, false)
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
