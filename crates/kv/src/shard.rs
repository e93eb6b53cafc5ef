//! Sharded store: stripe buckets, version logs and answer evidence
//! across independent NVRAM regions.
//!
//! Every operation of a single [`PKvStore`] funnels through its
//! region's one critical section, so the store cannot scale past one
//! core no matter how many buckets it has. [`ShardedKvStore`] stripes
//! the key space across `N` complete stores — **one region, one lock,
//! one version log and one recovery scan per shard** — behind a
//! [`shard_of`] router, so operations on different shards touch
//! disjoint regions and never contend. Each shard is a full
//! [`PKvStore`], which means the group-commit batching of buffered
//! regions ([`PKvStore::apply_batch`]) and the evidence-scan recovery
//! argument apply per shard unchanged; a [`KvBatch`] routes a mixed-key
//! batch into one group commit per touched shard.
//!
//! Keys never move between shards (the router is a pure function of
//! the key), so per-key linearization order is exactly the key's chain
//! order inside its home shard — the global witness a sharded verifier
//! checks is just the union of per-shard witnesses
//! ([`ShardedKvStore::check`] runs `pstack-verify`'s
//! [`check_kv_sharded_gen`] over them).
//!
//! The shard router hashes with the *high* half of the same SplitMix64
//! finalizer whose low half picks the bucket inside a shard, so shard
//! and bucket choices stay decorrelated even when both counts are
//! powers of two.

use std::collections::BTreeMap;

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};
use pstack_verify::{check_kv_sharded_gen, KvOp, KvShardedHistory, KvVerdict, KvWitnessRecord};

use crate::reqtable::claims_hold;
use crate::store::{
    mix, CompactionStats, KvApplied, KvBatchOp, KvVariant, PKvStore, VersionRecord,
};

const SHARD_MAGIC: u64 = 0x5053_4B56_5348_4431; // "PSKVSHD1"

/// Bytes reserved at the start of each shard region for the shard root
/// (magic, shard index, shard count, store base, request-table base).
const SHARD_ROOT_LEN: u64 = 64;

const ROOT_OFF_MAGIC: u64 = 0;
const ROOT_OFF_SHARD: u64 = 8;
const ROOT_OFF_NSHARDS: u64 = 16;
const ROOT_OFF_STORE: u64 = 24;
/// The serving layer's word: the base of the shard's request table, 0
/// while none was formatted ([`ShardedKvStore::persist_table_root`]).
pub(crate) const ROOT_OFF_TABLE: u64 = 48;

/// The shard router: which of `nshards` shards owns `key`.
///
/// Uses the high 32 bits of the full-avalanche key mix (the low bits
/// pick the bucket inside the shard), so shard and bucket indices are
/// decorrelated.
///
/// # Panics
///
/// Panics if `nshards == 0`.
#[must_use]
pub fn shard_of(key: u64, nshards: usize) -> usize {
    assert!(nshards > 0, "at least one shard");
    ((mix(key) >> 32) % nshards as u64) as usize
}

/// A crash-recoverable KV store striped across independent regions:
/// one complete [`PKvStore`] (lock + log + buckets) per shard, plus a
/// key router. Cheap to clone; clones share the shards.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_kv::{KvVariant, ShardedKvStore};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stripe = PMemBuilder::new().len(1 << 18).build_striped(4);
/// let kv = ShardedKvStore::format(stripe.regions(), 16, 256, KvVariant::Nsrl)?;
/// let mut batch = kv.batch();
/// for key in 0..32 {
///     batch.put(0, key + 1, key, key as i64);
/// }
/// assert!(batch.commit()?.iter().all(|o| o.took_effect()));
/// assert_eq!(kv.get(17)?, Some(17));
/// assert_eq!(kv.contents()?.len(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedKvStore {
    shards: Vec<PKvStore>,
    heaps: Vec<PHeap>,
}

impl ShardedKvStore {
    /// Formats one store per region: a 64-byte shard root at offset 0,
    /// a heap over the rest of the region, and the shard's store
    /// allocated from that heap. `nbuckets` and `log_cap` are per
    /// shard.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for an empty region list; propagated
    /// heap/NVRAM errors otherwise.
    pub fn format(
        regions: &[PMem],
        nbuckets: u64,
        log_cap: u64,
        variant: KvVariant,
    ) -> Result<Self, PError> {
        Self::check_regions(regions)?;
        let mut shards = Vec::with_capacity(regions.len());
        let mut heaps = Vec::with_capacity(regions.len());
        for (i, pmem) in regions.iter().enumerate() {
            let heap = PHeap::format(
                pmem.clone(),
                POffset::new(SHARD_ROOT_LEN),
                pmem.len() as u64 - SHARD_ROOT_LEN,
            )?;
            let store = PKvStore::format(pmem.clone(), &heap, nbuckets, log_cap, variant)?;
            pmem.write_u64(POffset::new(ROOT_OFF_SHARD), i as u64)?;
            pmem.write_u64(POffset::new(ROOT_OFF_NSHARDS), regions.len() as u64)?;
            pmem.write_u64(POffset::new(ROOT_OFF_STORE), store.base().get())?;
            pmem.write_u64(POffset::new(ROOT_OFF_MAGIC), SHARD_MAGIC)?;
            pmem.flush(POffset::new(0), SHARD_ROOT_LEN as usize)?;
            shards.push(store);
            heaps.push(heap);
        }
        Ok(ShardedKvStore { shards, heaps })
    }

    /// Re-attaches to a sharded store previously formatted over these
    /// regions, in the same order (recovery boot).
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad shard root (wrong magic,
    /// shard order or shard count), [`PError::InvalidConfig`] for an
    /// empty region list.
    pub fn open(regions: &[PMem], variant: KvVariant) -> Result<Self, PError> {
        Self::check_regions(regions)?;
        let mut shards = Vec::with_capacity(regions.len());
        let mut heaps = Vec::with_capacity(regions.len());
        for (i, pmem) in regions.iter().enumerate() {
            let magic = pmem.read_u64(POffset::new(ROOT_OFF_MAGIC))?;
            if magic != SHARD_MAGIC {
                return Err(PError::CorruptStack(format!(
                    "bad shard-root magic {magic:#x} in region {i}"
                )));
            }
            let shard = pmem.read_u64(POffset::new(ROOT_OFF_SHARD))?;
            let nshards = pmem.read_u64(POffset::new(ROOT_OFF_NSHARDS))?;
            if shard != i as u64 || nshards != regions.len() as u64 {
                return Err(PError::CorruptStack(format!(
                    "region {i} holds shard {shard} of {nshards} — regions reordered or \
                     stripe resized"
                )));
            }
            let store_base = POffset::new(pmem.read_u64(POffset::new(ROOT_OFF_STORE))?);
            heaps.push(PHeap::open(pmem.clone(), POffset::new(SHARD_ROOT_LEN))?);
            // The newest batch's served records are checked against the
            // request table this shard's root names, read only if asked.
            let claims = |served: &[(u32, u32)]| -> Result<bool, PError> {
                match pmem.read_u64(POffset::new(ROOT_OFF_TABLE))? {
                    0 => Err(PError::CorruptStack(format!(
                        "shard {i}'s newest batch is served, but its root names no request table"
                    ))),
                    table => claims_hold(pmem, POffset::new(table), served),
                }
            };
            shards.push(PKvStore::open_with(
                pmem.clone(),
                store_base,
                variant,
                Some(&claims),
            )?);
        }
        Ok(ShardedKvStore { shards, heaps })
    }

    fn check_regions(regions: &[PMem]) -> Result<(), PError> {
        if regions.is_empty() {
            return Err(PError::InvalidConfig(
                "a sharded store needs at least one region".into(),
            ));
        }
        Ok(())
    }

    /// Number of shards.
    #[must_use]
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key`.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Shard `i`'s underlying store.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nshards()`.
    #[must_use]
    pub fn shard(&self, i: usize) -> &PKvStore {
        &self.shards[i]
    }

    /// Shard `i`'s heap (for co-locating per-shard metadata, e.g. a
    /// descriptor table, in the shard's own region).
    ///
    /// # Panics
    ///
    /// Panics if `i >= nshards()`.
    #[must_use]
    pub fn heap(&self, i: usize) -> &PHeap {
        &self.heaps[i]
    }

    /// Persists `base` as shard `i`'s request-table base in the shard
    /// root, so [`ShardedKvStore::table_root`] finds the table again
    /// after a restart.
    pub(crate) fn persist_table_root(&self, i: usize, base: POffset) -> Result<(), PError> {
        let (pmem, root) = (self.heaps[i].pmem(), POffset::new(ROOT_OFF_TABLE));
        pmem.write_u64(root, base.get())?;
        pmem.flush(root, 8)?;
        Ok(())
    }

    /// Shard `i`'s request-table base as its shard root records it.
    pub(crate) fn table_root(&self, i: usize) -> Result<POffset, PError> {
        match self.heaps[i]
            .pmem()
            .read_u64(POffset::new(ROOT_OFF_TABLE))?
        {
            0 => Err(PError::CorruptStack(format!(
                "shard {i}'s root names no request table"
            ))),
            base => Ok(POffset::new(base)),
        }
    }

    fn route(&self, key: u64) -> &PKvStore {
        &self.shards[self.shard_of(key)]
    }

    /// A put routed to its home shard: a one-op
    /// [`PKvStore::apply_batch`] there (records ‖ header ‖ the previous
    /// commit's heads, ≤ 3 persists awaited in 1 level). Write through
    /// [`ShardedKvStore::batch`]; this exists only because the
    /// benchmark's frozen put probe calls it, and the benchmark item
    /// deletes it.
    ///
    /// # Errors
    ///
    /// A propagated crash (recover the op with the home shard's
    /// [`PKvStore::recover_batch`] after restart).
    pub fn put(&self, pid: u64, seq: u64, key: u64, value: i64) -> Result<bool, PError> {
        let op = KvBatchOp::Put {
            pid,
            seq,
            key,
            value,
        };
        Ok(self.route(key).apply_batch(&[op])?[0].took_effect())
    }

    /// Routed [`PKvStore::get`].
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn get(&self, key: u64) -> Result<Option<i64>, PError> {
        self.route(key).get(key)
    }

    /// Routed [`PKvStore::get_durable`]: a read whose answer survives
    /// a power failure, persisting nothing on a quiescent shard.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn get_durable(&self, key: u64) -> Result<Option<i64>, PError> {
        self.route(key).get_durable(key)
    }

    /// Starts an empty cross-shard batch.
    #[must_use]
    pub fn batch(&self) -> KvBatch<'_> {
        KvBatch {
            store: self,
            ops: Vec::new(),
        }
    }

    /// Per-shard chain witnesses: `result[s][b]` is shard `s`'s bucket
    /// `b`, oldest record first — the witness [`ShardedKvStore::check`]
    /// checks.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn snapshot_sharded(&self) -> Result<Vec<Vec<Vec<VersionRecord>>>, PError> {
        self.shards.iter().map(PKvStore::snapshot).collect()
    }

    /// Checks `ops` — every operation of the execution with its answer —
    /// against this store's own witness with `check_kv_sharded_gen`: its
    /// chains, its router and each shard's active generation number as
    /// the store reports it. Returns the checked history with its
    /// verdict.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn check(&self, ops: Vec<KvOp>) -> Result<(KvShardedHistory, KvVerdict), PError> {
        let shards = self
            .snapshot_sharded()?
            .into_iter()
            .map(|chains| {
                chains
                    .into_iter()
                    .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                    .collect()
            })
            .collect();
        let history = KvShardedHistory { ops, shards };
        let nshards = self.nshards();
        let verdict =
            check_kv_sharded_gen(&history, |key| shard_of(key, nshards), &self.generations()?);
        Ok((history, verdict))
    }

    /// The whole store's current contents as one ordinary map.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn contents(&self) -> Result<BTreeMap<u64, i64>, PError> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            out.append(&mut shard.contents()?);
        }
        Ok(out)
    }

    /// Log slots reserved so far, per shard — a single hot shard
    /// running out of headroom turns only that shard read-only, which
    /// is why campaigns watch the minimum headroom, not the sum.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn log_reserved_per_shard(&self) -> Result<Vec<u64>, PError> {
        self.shards.iter().map(PKvStore::log_reserved).collect()
    }

    /// Per-shard **active-generation** version-log capacities. Uniform
    /// at format time; per-shard compactions may grow them
    /// independently.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn log_capacities(&self) -> Result<Vec<u64>, PError> {
        self.shards.iter().map(PKvStore::log_capacity).collect()
    }

    /// Per-shard active generation numbers (0 until a shard's first
    /// compaction).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn generations(&self) -> Result<Vec<u64>, PError> {
        self.shards.iter().map(PKvStore::generation).collect()
    }

    /// Compacts shard `i` into a fresh generation — the per-shard
    /// generational swap ([`PKvStore::compact`]) fed from the shard's
    /// own heap, so one hot shard's log rewrite never touches (or
    /// serializes with) the other shards' regions. Drive it off the
    /// per-shard headroom signal
    /// (`ShardLogUsage::headroom_fraction` in `pstack-chaos`).
    ///
    /// # Errors
    ///
    /// A propagated crash (recover with
    /// [`ShardedKvStore::recover_compact_shard`] after restart); heap
    /// exhaustion in the shard's region.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nshards()`.
    pub fn compact_shard(&self, i: usize) -> Result<CompactionStats, PError> {
        self.shards[i].compact(&self.heaps[i])
    }

    /// The evidence-scanning recovery dual of
    /// [`ShardedKvStore::compact_shard`]; see
    /// [`PKvStore::recover_compact`].
    ///
    /// # Errors
    ///
    /// See [`PKvStore::recover_compact`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= nshards()`.
    pub fn recover_compact_shard(&self, i: usize, from_gen: u64) -> Result<bool, PError> {
        self.shards[i].recover_compact(&self.heaps[i], from_gen)
    }
}

/// A cross-shard mutation batch: ops accumulate in submission order,
/// and [`KvBatch::commit`] runs **one group commit per touched shard**
/// (preserving each shard's submission order), then reports outcomes
/// in submission order. Within a batch, later ops on a key observe
/// earlier staged ops on the same key.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_kv::{KvApplied, KvVariant, ShardedKvStore};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Buffered regions: commits batch persists per shard.
/// let stripe = PMemBuilder::new().len(1 << 18).build_striped(2);
/// let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl)?;
/// let mut batch = kv.batch();
/// for key in 0..8 {
///     batch.put(0, key + 1, key, key as i64);
/// }
/// let outcomes = batch.commit()?;
/// assert!(outcomes.iter().all(|o| o.took_effect()));
/// assert_eq!(kv.get(5)?, Some(5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KvBatch<'a> {
    store: &'a ShardedKvStore,
    ops: Vec<KvBatchOp>,
}

impl KvBatch<'_> {
    /// Appends a raw mutation.
    pub fn push(&mut self, op: KvBatchOp) {
        self.ops.push(op);
    }

    /// Appends a put.
    pub fn put(&mut self, pid: u64, seq: u64, key: u64, value: i64) {
        self.push(KvBatchOp::Put {
            pid,
            seq,
            key,
            value,
        });
    }

    /// Appends a delete.
    pub fn delete(&mut self, pid: u64, seq: u64, key: u64) {
        self.push(KvBatchOp::Delete { pid, seq, key });
    }

    /// Appends a cas.
    pub fn cas(&mut self, pid: u64, seq: u64, key: u64, expected: i64, new: i64) {
        self.push(KvBatchOp::Cas {
            pid,
            seq,
            key,
            expected,
            new,
        });
    }

    /// Number of accumulated ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no ops have accumulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commits the batch: one group commit per touched shard, outcomes
    /// in submission order. Every touched shard's commit is **begun**
    /// ([`PKvStore::apply_batch_begin`] issues its level: records ‖
    /// header ‖ the heads that shard's previous commit flipped), then
    /// each publishes — its level awaited, its heads flipped on the
    /// receipt — so the shards' flights share one round-trip: one
    /// round-trip of waiting whatever the number of shards. When it
    /// returns every shard's records and header are durable; the heads
    /// ride each shard's next commit, and a reopen rebuilds them from
    /// the stamped log, so a power failure after it returns loses
    /// nothing, and one before shows each shard's part whole or not at
    /// all.
    ///
    /// # Errors
    ///
    /// A propagated crash — after restart, route each op to its shard
    /// ([`ShardedKvStore::shard_of`]) and call [`PKvStore::recover_batch`]
    /// there (the per-shard evidence scans decide which ops linearized
    /// before the crash).
    pub fn commit(self) -> Result<Vec<KvApplied>, PError> {
        let mut per_shard: BTreeMap<usize, (Vec<usize>, Vec<KvBatchOp>)> = BTreeMap::new();
        for (i, &op) in self.ops.iter().enumerate() {
            let entry = per_shard.entry(self.store.shard_of(op.key())).or_default();
            entry.0.push(i);
            entry.1.push(op);
        }
        let mut pending = Vec::with_capacity(per_shard.len());
        for (shard, (_, ops)) in &per_shard {
            pending.push(self.store.shard(*shard).apply_batch_begin(ops)?);
        }
        let mut outcomes = vec![KvApplied::PrecondFailed; self.ops.len()];
        for ((indexes, _), batch) in per_shard.values().zip(pending) {
            for (&i, outcome) in indexes.iter().zip(batch.commit()?) {
                outcomes[i] = outcome;
            }
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{FailPlan, PMemBuilder, PMemStripe};

    fn buffered_stripe(n: usize) -> PMemStripe {
        PMemBuilder::new().len(1 << 18).build_striped(n)
    }

    fn put(pid: u64, seq: u64, key: u64, value: i64) -> KvBatchOp {
        KvBatchOp::Put {
            pid,
            seq,
            key,
            value,
        }
    }

    /// A one-op cross-shard batch; `true` iff it took effect.
    fn apply(kv: &ShardedKvStore, op: KvBatchOp) -> Result<bool, PError> {
        let mut batch = kv.batch();
        batch.push(op);
        Ok(batch.commit()?[0].took_effect())
    }

    #[test]
    fn router_is_total_and_balanced_enough() {
        let nshards = 4;
        let mut counts = vec![0usize; nshards];
        for key in 0..4096u64 {
            counts[shard_of(key, nshards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 4096 / nshards / 2,
                "shard {s} owns only {c} of 4096 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn router_decorrelates_from_bucket_choice() {
        // Keys landing in one shard must still spread over that shard's
        // buckets (shard = high mix bits, bucket = low mix bits).
        let nshards = 4;
        let nbuckets = 8u64;
        let mut buckets = std::collections::HashSet::new();
        for key in (0..4096u64).filter(|&k| shard_of(k, nshards) == 0) {
            buckets.insert(mix(key) % nbuckets);
        }
        assert_eq!(buckets.len() as u64, nbuckets);
    }

    #[test]
    fn ops_route_and_round_trip() {
        let stripe = buffered_stripe(4);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        for key in 0..64u64 {
            assert!(apply(&kv, put(0, key + 1, key, key as i64)).unwrap());
        }
        let cas = KvBatchOp::Cas {
            pid: 0,
            seq: 100,
            key: 7,
            expected: 7,
            new: 70,
        };
        assert!(apply(&kv, cas).unwrap());
        assert!(apply(
            &kv,
            KvBatchOp::Delete {
                pid: 0,
                seq: 101,
                key: 9
            }
        )
        .unwrap());
        assert_eq!(kv.get(7).unwrap(), Some(70));
        assert_eq!(kv.get(9).unwrap(), None);
        assert_eq!(kv.contents().unwrap().len(), 63);
        // Records landed in the key's home shard only.
        for key in [7u64, 9, 13] {
            let home = kv.shard_of(key);
            for (s, chains) in kv.snapshot_sharded().unwrap().iter().enumerate() {
                let here = chains.iter().flatten().any(|r| r.key == key);
                assert_eq!(here, s == home, "key {key} record in shard {s}");
            }
        }
    }

    #[test]
    fn state_survives_stripe_crash_and_reopen() {
        let stripe = buffered_stripe(3);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        for key in 0..24u64 {
            apply(&kv, put(1, key + 1, key, (key * 10) as i64)).unwrap();
        }
        stripe.crash_all(7, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.nshards(), 3);
        for key in 0..24u64 {
            assert_eq!(kv2.get(key).unwrap(), Some((key * 10) as i64));
        }
    }

    #[test]
    fn open_rejects_reordered_or_foreign_regions() {
        let stripe = buffered_stripe(2);
        let kv = ShardedKvStore::format(stripe.regions(), 4, 16, KvVariant::Nsrl).unwrap();
        apply(&kv, put(0, 1, 1, 1)).unwrap();
        let swapped = vec![stripe.region(1).clone(), stripe.region(0).clone()];
        assert!(matches!(
            ShardedKvStore::open(&swapped, KvVariant::Nsrl),
            Err(PError::CorruptStack(_))
        ));
        let fresh = PMemBuilder::new().len(1 << 16).build_in_memory();
        assert!(matches!(
            ShardedKvStore::open(&[fresh], KvVariant::Nsrl),
            Err(PError::CorruptStack(_))
        ));
        assert!(matches!(
            ShardedKvStore::format(&[], 4, 16, KvVariant::Nsrl),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn cross_shard_batch_commits_per_shard_and_preserves_order() {
        let stripe = buffered_stripe(4);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        let formatted: Vec<u64> = stripe
            .regions()
            .iter()
            .map(|r| r.stats().snapshot().async_flushes)
            .collect();
        let mut batch = kv.batch();
        for key in 0..32u64 {
            batch.put(0, key + 1, key, key as i64);
        }
        // Same-key sequencing within the batch, across the shard split.
        batch.cas(0, 100, 5, 5, 50);
        batch.delete(0, 101, 6);
        assert_eq!(batch.len(), 34);
        let outcomes = batch.commit().unwrap();
        assert!(outcomes.iter().all(|o| o.took_effect()));
        assert_eq!(kv.get(5).unwrap(), Some(50));
        assert_eq!(kv.get(6).unwrap(), None);
        // One group commit per touched shard — records ‖ header, two
        // flights: a fresh shard has no dirty head to checkpoint.
        for (s, region) in stripe.regions().iter().enumerate() {
            let flights = region.stats().snapshot().async_flushes - formatted[s];
            assert_eq!(flights, 2, "shard {s} must commit exactly once");
        }
    }

    #[test]
    fn empty_batch_commits_to_nothing() {
        let stripe = buffered_stripe(2);
        let kv = ShardedKvStore::format(stripe.regions(), 4, 16, KvVariant::Nsrl).unwrap();
        let formatted = stripe.aggregate_stats();
        let batch = kv.batch();
        assert!(batch.is_empty());
        assert!(batch.commit().unwrap().is_empty());
        assert_eq!((stripe.aggregate_stats() - formatted).async_flushes, 0);
    }

    #[test]
    fn crash_in_one_shard_leaves_others_recoverable() {
        // Kill shard 0 inside its batch window; the system failure then
        // takes the other shards down too. Recovery (each op in its home
        // shard's recover_batch) must complete every op exactly once.
        let stripe = buffered_stripe(2);
        let kv = ShardedKvStore::format(stripe.regions(), 4, 32, KvVariant::Nsrl).unwrap();
        let keys: Vec<u64> = (0..16).collect();
        // Arm the failpoint on shard 0's region only, mid-window.
        stripe.region(0).arm_failpoint(FailPlan::after_events(3));
        let mut batch = kv.batch();
        for &key in &keys {
            batch.put(2, key + 1, key, key as i64 + 100);
        }
        let err = batch.commit().unwrap_err();
        assert!(err.is_crash());
        stripe.crash_all(11, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
        for &key in &keys {
            let op = put(2, key + 1, key, key as i64 + 100);
            let home = kv2.shard(kv2.shard_of(key));
            assert_eq!(home.recover_batch(&[op]).unwrap(), [KvApplied::Applied]);
            assert_eq!(kv2.get(key).unwrap(), Some(key as i64 + 100));
        }
        let published: usize = kv2
            .snapshot_sharded()
            .unwrap()
            .iter()
            .flatten()
            .map(Vec::len)
            .sum();
        assert_eq!(published, keys.len(), "exactly one record per op");
    }

    #[test]
    fn per_shard_log_headroom_is_observable() {
        let stripe = buffered_stripe(2);
        let kv = ShardedKvStore::format(stripe.regions(), 4, 8, KvVariant::Nsrl).unwrap();
        // Fill only one shard: pick keys routed to shard 0.
        let hot: Vec<u64> = (0..).filter(|&k| shard_of(k, 2) == 0).take(8).collect();
        for (i, &key) in hot.iter().enumerate() {
            assert!(apply(&kv, put(0, i as u64 + 1, key, 1)).unwrap());
        }
        assert!(
            !apply(&kv, put(0, 99, hot[0], 2)).unwrap(),
            "hot shard is read-only"
        );
        let reserved = kv.log_reserved_per_shard().unwrap();
        let caps = kv.log_capacities().unwrap();
        assert_eq!(reserved[0], caps[0]);
        assert!(reserved[1] < caps[1], "cold shard keeps headroom");
        // A key routed to shard 1 still stores fine.
        let cold = (0..).find(|&k| shard_of(k, 2) == 1).unwrap();
        assert!(apply(&kv, put(0, 100, cold, 3)).unwrap());
    }

    #[test]
    fn hot_shard_compaction_unbricks_only_that_shard() {
        // PR 5's headline at the shard level: the hot shard fills, goes
        // read-only, compacts into a fresh generation, and accepts
        // strictly more than its original capacity — while the cold
        // shard never leaves generation 0.
        let stripe = buffered_stripe(2);
        let kv = ShardedKvStore::format(stripe.regions(), 4, 8, KvVariant::Nsrl).unwrap();
        let hot_keys: Vec<u64> = (0..).filter(|&k| shard_of(k, 2) == 0).take(4).collect();
        let mut seq = 0u64;
        let mut applied = 0u64;
        for round in 0..10u64 {
            for &key in &hot_keys {
                seq += 1;
                if kv.shard(0).log_reserved().unwrap() >= kv.log_capacities().unwrap()[0] {
                    let stats = kv.compact_shard(0).unwrap();
                    assert!(stats.carried <= 4);
                }
                assert!(
                    apply(&kv, put(0, seq, key, round as i64)).unwrap(),
                    "seq {seq}"
                );
                applied += 1;
            }
        }
        assert_eq!(applied, 40, "5× the original 8-slot capacity");
        assert!(kv.generations().unwrap()[0] > 0, "hot shard swapped");
        assert_eq!(kv.generations().unwrap()[1], 0, "cold shard untouched");
        for &key in &hot_keys {
            assert_eq!(kv.get(key).unwrap(), Some(9));
        }
        // Recovery dual at the shard level: already-committed swaps are
        // recognized by the evidence scan.
        let gen = kv.generations().unwrap()[0];
        assert!(kv.recover_compact_shard(0, gen - 1).unwrap());
        assert_eq!(kv.generations().unwrap()[0], gen, "no duplicate swap");
    }

    #[test]
    fn parallel_writers_on_disjoint_shards_lose_nothing() {
        let stripe = buffered_stripe(4);
        let kv = ShardedKvStore::format(stripe.regions(), 16, 1024, KvVariant::Nsrl).unwrap();
        let per = 128u64;
        std::thread::scope(|s| {
            for w in 0..4usize {
                let kv = kv.clone();
                s.spawn(move || {
                    let mut seq = 0;
                    for key in (0u64..per * 8).filter(|&k| shard_of(k, 4) == w) {
                        seq += 1;
                        assert!(apply(&kv, put(w as u64, seq, key, key as i64)).unwrap());
                    }
                });
            }
        });
        let contents = kv.contents().unwrap();
        assert_eq!(contents.len(), (per * 8) as usize);
        for (k, v) in contents {
            assert_eq!(k as i64, v);
        }
    }

    #[test]
    fn parallel_batched_writers_per_shard() {
        // Buffered stripe, one thread per shard, each group-committing
        // its own keys — the group-commit fast path under parallelism.
        let stripe = buffered_stripe(4);
        let kv = ShardedKvStore::format(stripe.regions(), 16, 1024, KvVariant::Nsrl).unwrap();
        let formatted = stripe.aggregate_stats();
        std::thread::scope(|s| {
            for w in 0..4usize {
                let kv = kv.clone();
                s.spawn(move || {
                    let keys: Vec<u64> = (0u64..1024).filter(|&k| shard_of(k, 4) == w).collect();
                    for chunk in keys.chunks(16) {
                        let mut batch = kv.batch();
                        for &key in chunk {
                            batch.put(w as u64, key + 1, key, key as i64);
                        }
                        assert!(batch.commit().unwrap().iter().all(|o| o.took_effect()));
                    }
                });
            }
        });
        assert_eq!(kv.contents().unwrap().len(), 1024);
        let commits: usize = (0..4)
            .map(|w| {
                (0u64..1024)
                    .filter(|&k| shard_of(k, 4) == w)
                    .count()
                    .div_ceil(16)
            })
            .sum();
        // Records ‖ header ‖ the previous commit's heads: three flights
        // a group commit, but two for each shard's first.
        assert_eq!(
            (stripe.aggregate_stats() - formatted).async_flushes,
            3 * commits as u64 - 4,
            "three flights per group commit"
        );
    }

    #[test]
    fn pipelined_cross_shard_batch_overlaps_flights_and_stays_clean() {
        let stripe = PMemBuilder::new().len(1 << 18).psan(true).build_striped(4);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        let formatted: Vec<u64> = stripe
            .regions()
            .iter()
            .map(|r| r.stats().snapshot().async_flushes)
            .collect();
        let mut batch = kv.batch();
        for key in 0..32u64 {
            batch.put(0, key + 1, key, key as i64);
        }
        batch.cas(0, 100, 5, 5, 50);
        batch.delete(0, 101, 6);
        let outcomes = batch.commit().unwrap();
        assert!(outcomes.iter().all(|o| o.took_effect()));
        assert_eq!(kv.get(5).unwrap(), Some(50));
        assert_eq!(kv.get(6).unwrap(), None);
        for (s, region) in stripe.regions().iter().enumerate() {
            let flights = region.stats().snapshot().async_flushes - formatted[s];
            assert_eq!(flights, 2, "shard {s}: records ‖ header, once");
        }
        // The heads are still dirty: the crash takes them, and the
        // reopen rebuilds them from the stamped log.
        stripe.crash_all(3, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.contents().unwrap().len(), 31);
        assert!(stripe2.psan_violations().is_empty());
    }

    #[test]
    fn sharded_lifecycle_is_psan_clean_and_format_wastes_no_persists() {
        let stripe = PMemBuilder::new().len(1 << 18).psan(true).build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 4, 16, KvVariant::Nsrl).unwrap();
        assert_eq!(
            stripe.aggregate_stats().redundant_persists,
            0,
            "format burned a redundant persist round-trip"
        );
        let mut batch = kv.batch();
        for key in 0..12u64 {
            batch.put(0, key + 1, key, key as i64);
        }
        assert!(batch.commit().unwrap().iter().all(|o| o.took_effect()));
        kv.compact_shard(0).unwrap();
        stripe.crash_all(5, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
        assert_eq!(kv2.contents().unwrap().len(), 12);
        let violations = stripe2.psan_violations();
        assert!(
            violations.is_empty(),
            "PSan flagged the correct protocol: {violations:?}"
        );
    }

    #[test]
    fn psan_attributes_sharded_violations_to_the_home_shard() {
        use pstack_nvram::PsanViolationKind;
        // The buggy variant publishes volatile records in whichever
        // shard the batch touches; the violation's region label must
        // name that shard.
        let stripe = PMemBuilder::new().len(1 << 18).psan(true).build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 4, 16, KvVariant::EarlyPublish).unwrap();
        let key = 3u64;
        let home = kv.shard_of(key);
        kv.shard(home)
            .apply_batch(&[KvBatchOp::Put {
                pid: 0,
                seq: 1,
                key,
                value: 30,
            }])
            .unwrap();
        let violations = stripe.psan_violations();
        let hit = violations
            .iter()
            .find(|v| matches!(v.kind, PsanViolationKind::EarlyPublish { .. }))
            .unwrap_or_else(|| panic!("expected an early-publish violation: {violations:?}"));
        assert_eq!(hit.region, format!("shard-{home}"));
        assert_eq!(hit.op_label, "kv.apply_batch");
        // The other shard stayed clean.
        assert!(stripe.region(1 - home).psan_violations().is_empty());
    }
}
