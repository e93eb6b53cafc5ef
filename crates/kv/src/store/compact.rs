//! Compaction: the generational log.
//!
//! A generation's log is append-only and lifetime-bounded (the
//! recoverable-queue trade: records are evidence, so they are never
//! recycled in place). [`PKvStore::compact`] lifts the lifetime bound
//! without touching that argument: it rewrites the **live** bucket
//! heads — the newest non-delete record of each key, O(live keys)
//! persists, not O(history) — into a freshly allocated generation
//! block as `carried` records (kind 3, original `(pid, seq)` tags
//! preserved), persists the block with one coalesced flight, and then
//! commits with a single [`RootCell::swap`]. The persists form three
//! dependence levels, one round-trip each: the heap's interior headers;
//! the allocation's switch word ‖ the block ‖ the heads commits left
//! dirty in the retired generation; the root cell (slot and
//! selector in one line). Five persists in all, six with dirty heads:
//! once the swap lands nothing replays the retired generation's log,
//! and its chains are the evidence [`PKvStore::recover_batch`] walks,
//! so its heads must be durable first. The new generation starts
//! settled — every head durable, its replay point at its tail — with
//! the retired one's epoch. The selector flip is
//! the *only* commit point: a crash anywhere before it recovers into
//! the old generation; a crash anywhere after it recovers into the new
//! one. Right after the flip, still in the exclusive section, the
//! region's volatile index (`store/index.rs`) is replaced by the new
//! generation and its carries' heads, so every handle's next read is of
//! the new generation. A crash before the flip leaves the new block free (its switch
//! lost) or an allocated, unreachable orphan (its switch landed, with
//! or without the block) — the heap leaks it, the same pre-swap trade
//! as a block whose owner crashed before publishing it (`pstack-heap`'s
//! crate docs). Old generations
//! are retained and chained via their `prev` pointer; every generation
//! but the active one is retired:
//!
//! * recovery evidence scans ([`PKvStore::recover_batch`]) walk the
//!   key's chain **across generations**, so an operation that
//!   published before a compaction is never re-executed after one —
//!   and a carried record is itself evidence (it is a copy of the
//!   original published record, tag included);
//! * [`PKvStore::chain`]/[`PKvStore::snapshot`] return the full
//!   multi-generation witness (oldest generation first), which is what
//!   `pstack-verify`'s generation-aware checkers validate: carried
//!   records must reproduce exactly the live state at the boundary,
//!   and no live key may be dropped by a swap.
//!
//! Crash-recovering an *interrupted* compaction is an evidence scan
//! too ([`PKvStore::recover_compact`]): if the root cell already moved
//! past the starting generation, the compaction committed (recovery
//! only re-registers the retired extents with the heap); otherwise it
//! is safely re-executed from the current state.
//!
//! Compaction runs in the region's exclusive section
//! ([`PMem::quiesce`]), which every mutation holds too, so the
//! generation it rewrites cannot move under it. The discipline is
//! machine-checked — a racing mutation *blocks* instead of corrupting.
//!
//! [`RootCell::swap`]: pstack_nvram::RootCell::swap
//! [`PMem::quiesce`]: pstack_nvram::PMem::quiesce

use std::collections::BTreeMap;

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{op_label, Level, POffset};

use super::index::Active;
use super::layout::{
    encode_record, gen_block_len, gen_prefix_len, heads_range, write_header, Gen, LogHeader,
    GEN_OFF_CARRIED, KIND_CARRY, RECORD_STRIDE,
};
#[cfg(any(test, feature = "fault-seeds"))]
use super::KvVariant;
use super::{CompactionStats, PKvStore, VersionRecord};

impl PKvStore {
    /// Compacts the store: rewrites the live bucket heads into a fresh
    /// generation and commits it with one persisted root swap. The new
    /// capacity is the old one, grown to twice the live count if the
    /// live set has outgrown it. See [`PKvStore::compact_with_capacity`]
    /// for the full contract.
    ///
    /// # Errors
    ///
    /// A propagated crash (recover with [`PKvStore::recover_compact`]
    /// after restart), or heap exhaustion.
    pub fn compact(&self, heap: &PHeap) -> Result<CompactionStats, PError> {
        self.compact_with_capacity(heap, None)
    }

    /// Compacts the store into a fresh generation of `capacity` records
    /// (`None` = keep the current capacity, grown to twice the live
    /// count if needed).
    ///
    /// The protocol, in persist order:
    ///
    /// 1. replay the active generation's chains and collect the newest
    ///    non-delete record of every key — the live set;
    /// 2. allocate a fresh generation block from `heap`
    ///    ([`PHeap::alloc_aligned_in`]: its interior headers awaited —
    ///    round-trip 1 — and its switch word issued into this
    ///    compaction's level), write the live records into it as
    ///    `carried` records (original tags preserved, one chain per
    ///    bucket), then issue header, buckets and carries as **one
    ///    coalesced flight** into the same level, beside the old
    ///    generation's dirty heads, and await it — round-trip 2,
    ///    O(live keys) persist traffic, never O(history);
    /// 3. commit by swapping the root cell to the new block — the
    ///    single-line selector flip is the only commit point, one
    ///    persist: round-trip 3 — and register the old block with
    ///    `heap` as a retired extent.
    ///
    /// A crash before step 3 leaves the old generation active and the
    /// half-built block free or an unreachable, allocated orphan (the
    /// cut where the switch and the block landed and the cell did not
    /// leaks it); a crash after it leaves the new generation active.
    /// Either way the store reopens consistent, which is what the
    /// crash-point enumeration tests check boundary by boundary.
    ///
    /// Old generations are retained (chained via their `prev` pointer)
    /// as recovery evidence and verifier witness; only the *active*
    /// generation is ever written again.
    ///
    /// Runs in the region's exclusive section
    /// ([`pstack_nvram::PMem::quiesce`]), which every mutation holds
    /// too — machine-checked: a racing mutation blocks, it does not
    /// corrupt.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if `capacity` cannot hold the live
    /// set; a propagated crash (recover with
    /// [`PKvStore::recover_compact`] after restart); heap exhaustion.
    pub fn compact_with_capacity(
        &self,
        heap: &PHeap,
        capacity: Option<u64>,
    ) -> Result<CompactionStats, PError> {
        let _label = op_label("kv.compact");
        let _serialize = self.pmem.quiesce();
        self.compact_locked(heap, capacity)
    }

    /// The compaction body; the caller holds the region quiesced.
    fn compact_locked(
        &self,
        heap: &PHeap,
        capacity: Option<u64>,
    ) -> Result<CompactionStats, PError> {
        let gen = self.active_gen()?;
        let header = self.read_header(&gen)?;

        // Step 1 — the live set, per bucket in ascending key order
        // (deterministic carry layout).
        let mut live: Vec<Vec<VersionRecord>> = Vec::with_capacity(self.nbuckets as usize);
        let mut live_total = 0u64;
        for b in 0..self.nbuckets {
            let mut newest: BTreeMap<u64, VersionRecord> = BTreeMap::new();
            for rec in self.chain_in_gen(&gen, b)? {
                newest.insert(rec.key, rec);
            }
            let keep: Vec<VersionRecord> = newest.into_values().filter(|r| !r.is_delete).collect();
            live_total += keep.len() as u64;
            live.push(keep);
        }
        let new_cap = match capacity {
            Some(cap) => {
                if cap < live_total {
                    return Err(PError::InvalidConfig(format!(
                        "compaction capacity {cap} cannot hold {live_total} live records"
                    )));
                }
                cap
            }
            None => gen.log_cap.max(live_total * 2),
        };
        if new_cap >= 1 << 32 {
            return Err(PError::InvalidConfig(format!(
                "compaction capacity {new_cap} does not fit the header's 32-bit slot indexes"
            )));
        }

        // Step 2 — build the new generation: header + buckets zeroed,
        // carries written slot by slot, all volatile until the single
        // coalesced flight below, issued into the level that holds the
        // allocation's switch. Its header is settled past the carries,
        // with the retired generation's epoch.
        let mut level = Level::default();
        let nb = Self::format_generation(
            &self.pmem,
            heap,
            &mut level,
            self.nbuckets,
            new_cap,
            gen.number + 1,
            gen.base,
        )?;
        write_header(
            &self.pmem,
            nb,
            &LogHeader::settled(live_total, header.epoch),
        )?;
        let new_gen = Gen {
            base: nb,
            number: gen.number + 1,
            log_cap: new_cap,
        };
        let mut slot = 0u64;
        let mut heads = Vec::with_capacity(live.len());
        for (b, keep) in live.iter().enumerate() {
            let mut head = 0u64;
            for rec in keep {
                let off = self.record_off(&new_gen, slot);
                self.write_slot(
                    off,
                    &encode_record(KIND_CARRY, rec.key, rec.value, (rec.pid, rec.seq), head),
                )?;
                head = off;
                slot += 1;
            }
            if head != 0 {
                self.pmem
                    .write_u64(self.bucket_off_at(&new_gen, b as u64), head)?;
            }
            heads.push(head);
        }
        self.pmem
            .write_u64(POffset::new(nb + GEN_OFF_CARRIED), live_total)?;
        // One flight covers the contiguous prefix: header, buckets and
        // every carry slot. It shares the switch's round-trip.
        // KvVariant::NoPersistBeforeSwap forges its receipt instead —
        // PSan's negative control: the root swap below then commits a
        // still-volatile generation, which the sanitizer flags at the
        // selector flip.
        let new_block_len = (gen_prefix_len(self.nbuckets) + live_total * RECORD_STRIDE) as usize;
        #[cfg(any(test, feature = "fault-seeds"))]
        let forged = self.forges(
            KvVariant::NoPersistBeforeSwap,
            &mut level,
            nb,
            new_block_len,
        );
        #[cfg(not(any(test, feature = "fault-seeds")))]
        let forged = false;
        if !forged {
            level.issue(&self.pmem, POffset::new(nb), new_block_len)?;
        }
        // The heads commits left dirty ride the same round-trip:
        // the retired generation's heads are what `find_tag` walks for
        // evidence once the swap lands, and nothing replays its log.
        if let Some(dirty) = header.dirty {
            let (off, len) = heads_range(gen.base, dirty);
            level.issue(&self.pmem, off, len)?;
        }
        let block = level.await_all()?;

        // Step 3 — the commit point, on the receipt for the whole new
        // block: PSan checks every line of it at the selector flip. The
        // index follows the cell at once, still in the exclusive
        // section. The old block is then retained recovery evidence: a
        // `free` on it must fail typed, not corrupt silently.
        Self::register_publish_range(&self.pmem, nb, self.nbuckets);
        self.cell
            .swap(new_gen.number, nb, new_block_len, &block)
            .map_err(PError::from)?;
        self.index.replace(Active::new(new_gen, heads));
        heap.register_retired_extent(
            POffset::new(gen.base),
            gen_block_len(self.nbuckets, gen.log_cap),
        );

        let old_reserved = header.tail;
        Ok(CompactionStats {
            from_gen: gen.number,
            to_gen: new_gen.number,
            carried: live_total,
            dropped: old_reserved.saturating_sub(live_total),
            new_capacity: new_cap,
        })
    }

    /// Registers every non-active generation's extent as retired with
    /// `heap` ([`PHeap::register_retired_extent`]): the heap's registry
    /// is volatile, so a recovery boot re-walks the `prev` chain and
    /// re-arms the guard before any client could `free` retained
    /// evidence. Called by [`PKvStore::recover_compact`]; call it
    /// directly after a plain reopen when the heap outlives the boot.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn register_retired_generations(&self, heap: &PHeap) -> Result<(), PError> {
        // The walk's first generation is the active one.
        for gen in self.gens().skip(1) {
            let gen = gen?;
            heap.register_retired_extent(
                POffset::new(gen.base),
                gen_block_len(self.nbuckets, gen.log_cap),
            );
        }
        Ok(())
    }

    /// The evidence-scanning recovery dual of [`PKvStore::compact`]:
    /// completes a compaction that was interrupted after it started
    /// from generation `from_gen`.
    ///
    /// * If the root cell has already moved past `from_gen`, the swap
    ///   committed before the crash — the compaction *happened*; this
    ///   only re-registers the retired generations with `heap`
    ///   ([`PKvStore::register_retired_generations`]) and returns
    ///   `Ok(true)`.
    /// * If the root cell still names `from_gen`, the crash landed
    ///   before the commit point; the half-built block (if any) is an
    ///   unreachable orphan and the compaction is safely re-executed
    ///   from the current state. Returns `Ok(false)`.
    ///
    /// Idempotent: crash it and re-run it as often as the fault
    /// injector likes.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if `from_gen` is *newer* than the
    /// active generation (the caller's bookkeeping is broken); a
    /// propagated crash (re-run after restart).
    pub fn recover_compact(&self, heap: &PHeap, from_gen: u64) -> Result<bool, PError> {
        let _label = op_label("kv.recover_compact");
        let _phase = pstack_telemetry::phase("recovery.compact-dual");
        let _serialize = self.pmem.quiesce();
        let gen = self.active_gen()?;
        match gen.number.cmp(&from_gen) {
            std::cmp::Ordering::Less => Err(PError::InvalidConfig(format!(
                "recover_compact from generation {from_gen}, but the store is at {}",
                gen.number
            ))),
            std::cmp::Ordering::Greater => {
                self.register_retired_generations(heap)?;
                Ok(true)
            }
            std::cmp::Ordering::Equal => {
                self.compact_locked(heap, None)?;
                Ok(false)
            }
        }
    }
}
