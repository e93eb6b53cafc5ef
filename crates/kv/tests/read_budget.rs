//! The read path's NVRAM reads, as **equalities**.
//!
//! The active generation and its bucket heads live in the region's
//! volatile index, built by `format` and `open`, so a read of the store
//! touches NVRAM only for the records it walks: a get on a settled
//! shard reads its chain hops and nothing else, a bare commit reads its
//! generation header and the chains its preconditions walk, and an
//! `open` builds the index with one read of the bucket array, whatever
//! the bucket count. A change that reads the root cell, a generation
//! header or a bucket head per operation again fails here before it
//! reaches the benchmark's `kv.get_reads`.

use pstack_heap::PHeap;
use pstack_kv::{KvApplied, KvBatchOp, KvVariant, PKvStore};
use pstack_nvram::{PMem, PMemBuilder, POffset};

const LEN: usize = 1 << 20;

fn store(nbuckets: u64) -> (PMem, PKvStore) {
    let pmem = PMemBuilder::new().len(LEN).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), LEN as u64).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, nbuckets, 256, KvVariant::Nsrl).unwrap();
    (pmem, kv)
}

fn reads<T>(pmem: &PMem, f: impl FnOnce() -> T) -> (T, u64) {
    let r0 = pmem.stats().snapshot().reads;
    let out = f();
    (out, pmem.stats().snapshot().reads - r0)
}

fn put(seq: u64, key: u64, value: i64) -> KvBatchOp {
    KvBatchOp::Put {
        pid: 0,
        seq,
        key,
        value,
    }
}

/// Reboots `kv`'s region: its index is then the one `open` builds.
fn reboot(pmem: &PMem, kv: &PKvStore) -> (PMem, PKvStore) {
    pmem.crash_now(0, 0.0);
    let pmem = pmem.reopen().unwrap();
    let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap();
    (pmem, kv)
}

#[test]
fn a_get_reads_exactly_its_chain_hops() {
    // One bucket, so every key shares its chain: empty, then one
    // record, then two. Each state is read on the live handle (the
    // index the commits kept) and after a reboot (the index `open`
    // built); a get and a durable get read alike.
    let (pmem, kv) = store(1);
    let check = |pmem: &PMem, kv: &PKvStore, want: &[(u64, Option<i64>, u64)]| {
        for get in [PKvStore::get, PKvStore::get_durable] {
            for &(key, value, hops) in want {
                let got = reads(pmem, || get(kv, key).unwrap());
                assert_eq!(got, (value, hops), "key {key}");
            }
        }
    };
    let empty = [(7, None, 0)];
    check(&pmem, &kv, &empty);
    let (pmem, kv) = reboot(&pmem, &kv);
    check(&pmem, &kv, &empty);

    kv.apply_batch(&[put(1, 7, 70)]).unwrap();
    let one = [(7, Some(70), 1), (9, None, 1)];
    check(&pmem, &kv, &one);
    let (pmem, kv) = reboot(&pmem, &kv);
    check(&pmem, &kv, &one);

    kv.apply_batch(&[put(2, 8, 80)]).unwrap();
    let two = [(8, Some(80), 1), (7, Some(70), 2), (9, None, 2)];
    check(&pmem, &kv, &two);
    let (pmem, kv) = reboot(&pmem, &kv);
    check(&pmem, &kv, &two);
}

#[test]
fn a_bare_commit_reads_its_header_and_the_chains_its_preconditions_walk() {
    // The generation and the pre-batch heads are the index's: a put
    // reads the header alone, a cas or a delete the header and the
    // chain hops its precondition walks. The publish is a CAS per
    // touched head, not a read.
    let (pmem, kv) = store(1);
    let commit = |ops: &[KvBatchOp]| reads(&pmem, || kv.apply_batch(ops).unwrap());
    assert_eq!(commit(&[put(1, 7, 70)]), (vec![KvApplied::Applied], 1));
    assert_eq!(commit(&[put(2, 8, 80)]), (vec![KvApplied::Applied], 1));
    let cas = KvBatchOp::Cas {
        pid: 0,
        seq: 3,
        key: 7,
        expected: 70,
        new: 71,
    };
    assert_eq!(commit(&[cas]), (vec![KvApplied::Applied], 1 + 2));
    let delete = KvBatchOp::Delete {
        pid: 0,
        seq: 4,
        key: 9,
    };
    assert_eq!(commit(&[delete]), (vec![KvApplied::PrecondFailed], 1 + 3));
}

#[test]
fn an_open_builds_the_index_with_one_read_of_the_bucket_array() {
    // A settled, empty store opens with the same reads at 8 buckets and
    // at 4096: the root's magic and bucket count 2, the root cell's
    // magic and selector 2, then its selector and slot 3, the active
    // generation's magic and capacity 2, the header 1, the replay of
    // the empty [C, tail) 1, the slots past the tail 1 — and the bucket
    // array 1.
    for nbuckets in [8, 4096] {
        let (pmem, kv) = store(nbuckets);
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let (kv, n) = reads(&pmem, || {
            PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl).unwrap()
        });
        assert_eq!(n, 2 + 2 + 3 + 2 + 1 + 1 + 1 + 1, "{nbuckets} buckets");
        assert_eq!(reads(&pmem, || kv.get(1).unwrap()), (None, 0));
    }
}
