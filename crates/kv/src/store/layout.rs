//! The persistent layout: the root block, the generation block, the
//! record codec, and the two walks every reader of them shares — the
//! generations newest first (`PKvStore::gens`) and one chain's records
//! newest first (`PKvStore::records_from`).
//!
//! ```text
//! root (128 B):  magic, bucket count, reserved word (offset 16, never
//!                written), RootCell (seq = generation number,
//!                ptr = block base)
//!
//! generation block (heap-allocated, 64-aligned):
//!   header (64 B): magic, number, log capacity, log tail,
//!                  prev-generation base, reserved word (offset 40,
//!                  never written), carried count
//!   buckets:       nbuckets × 8 B — absolute offset of the newest
//!                                   record of each chain (0 = empty)
//!   version log:   log_cap × 64 B — immutable records, 64-aligned
//! ```
//!
//! Offset 40 of a generation header held a retirement mark in older
//! images. Nothing decided anything on it: a generation is retired iff
//! it is not the active one. Such images open unchanged.
//!
//! A record occupies the first 48 bytes of its 64-byte slot:
//!
//! ```text
//! 0      kind   (0 = unpublished, 1 = PUT, 2 = DELETE,
//!                3 = carried PUT — a compaction copy of a live record)
//! 8..16  key
//! 16..24 value  (the stored value; for DELETE, the value removed)
//! 24..32 pid    (writer's process id)
//! 32..40 seq    (writer's operation tag)
//! 40..48 next   (offset of the chain's previous record, 0 = end)
//! ```
//!
//! Records become visible only through the bucket-head publish, after
//! every field is durable, so no crash moment can expose a torn
//! record. Reserved-but-unpublished slots are orphans: invisible to
//! lookups, scans and the verifier alike.

use std::collections::BTreeMap;
use std::ops::Range;

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{Level, MemError, PMem, POffset};

use super::{GenerationInfo, PKvStore, VersionRecord};

pub(super) const KV_MAGIC: u64 = 0x5053_4B56_5354_4F32; // "PSKVSTO2" (generational)
pub(super) const RECORD_STRIDE: u64 = 64;
const RECORD_LEN: usize = 48;

/// Root block: magic, bucket count, then the generation pointer cell at
/// [`OFF_GEN_CELL`]. Offset 16 is reserved: zeroed by `format`, never
/// written or read — an older image's commit counter there is ignored,
/// so such images still open.
pub(super) const ROOT_LEN: u64 = 128;
pub(super) const OFF_MAGIC: u64 = 0;
pub(super) const OFF_NBUCKETS: u64 = 8;
pub(super) const OFF_GEN_CELL: u64 = 64;

/// Generation block header. Offset 40 is reserved (see the module doc).
const GEN_MAGIC: u64 = 0x5053_4B56_4745_4E31; // "PSKVGEN1"
const GEN_HEADER_LEN: u64 = 64;
const GEN_OFF_MAGIC: u64 = 0;
const GEN_OFF_NUMBER: u64 = 8;
const GEN_OFF_LOG_CAP: u64 = 16;
pub(super) const GEN_OFF_LOG_TAIL: u64 = 24;
const GEN_OFF_PREV: u64 = 32;
pub(super) const GEN_OFF_CARRIED: u64 = 48;

pub(super) const KIND_PUT: u8 = 1;
pub(super) const KIND_DEL: u8 = 2;
/// A compaction carry-over: a copy of a live PUT (or effective CAS)
/// record, original tag preserved.
pub(super) const KIND_CARRY: u8 = 3;

/// A loaded generation descriptor (volatile; re-read from the root
/// cell on every operation so handles never go stale across swaps).
#[derive(Debug, Clone, Copy)]
pub(super) struct Gen {
    pub(super) base: u64,
    pub(super) number: u64,
    pub(super) log_cap: u64,
}

/// The bytes of a record span `[first, last]` (slot offsets, as
/// [`KvPendingBatch::published`](super::KvPendingBatch::published)
/// reports them): what the records ‖ tail level persisted for it.
pub(crate) fn span_extent((first, last): (u64, u64)) -> (POffset, usize) {
    (POffset::new(first), (last - first + RECORD_STRIDE) as usize)
}

pub(super) fn round64(v: u64) -> u64 {
    (v + 63) & !63
}

/// SplitMix64 finalizer: a full-avalanche mix so sequential keys spread
/// across buckets.
pub(crate) fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes of the fixed prefix (header + bucket array) of a generation
/// block, rounded so the log starts 64-aligned.
pub(super) fn gen_prefix_len(nbuckets: u64) -> u64 {
    round64(GEN_HEADER_LEN + nbuckets * 8)
}

/// Bytes of a whole generation block.
pub(super) fn gen_block_len(nbuckets: u64, log_cap: u64) -> u64 {
    gen_prefix_len(nbuckets) + log_cap * RECORD_STRIDE
}

/// A cursor down one chain of one generation, newest record first: each
/// hop reads one record and yields it with its offset.
pub(super) struct Records<'a> {
    store: &'a PKvStore,
    gen_number: u64,
    /// The next record's offset, 0 at the chain's end.
    at: u64,
}

impl Iterator for Records<'_> {
    type Item = Result<(u64, VersionRecord), PError>;

    fn next(&mut self) -> Option<Self::Item> {
        let off = std::mem::replace(&mut self.at, 0);
        if off == 0 {
            return None;
        }
        Some(
            self.store
                .read_record(off, self.gen_number)
                .map(|(rec, next)| {
                    self.at = next;
                    (off, rec)
                }),
        )
    }
}

impl Records<'_> {
    /// `true` when the chain reaches the record at `off`, reading every
    /// record above it once and no other. Within one generation a chain
    /// runs from higher log offsets to lower (a record links to the head
    /// it replaced, which was reserved before it), so the walk stops at
    /// `off`'s height.
    pub(super) fn reaches(mut self, off: u64) -> Result<bool, PError> {
        while self.at > off {
            self.next().transpose()?;
        }
        Ok(self.at == off)
    }
}

impl PKvStore {
    /// Tells PSan (no-op when disabled) that the generation's bucket
    /// array publishes record offsets: every head CAS in it must point
    /// at a durable record slot.
    pub(super) fn register_publish_range(pmem: &PMem, gen_base: u64, nbuckets: u64) {
        pmem.psan_register_publish_range(
            POffset::new(gen_base + GEN_HEADER_LEN),
            (nbuckets * 8) as usize,
            RECORD_STRIDE as usize,
        );
    }

    /// Allocates a generation block, writes its header (tail 0) and
    /// zeroes its bucket array. Log slots are left untouched: they are
    /// unreachable until reserved, written in full and published. The
    /// allocation's switch is issued into `level`
    /// ([`PHeap::alloc_aligned_in`]); the block is volatile until the
    /// caller issues it into the same level and awaits it.
    pub(super) fn format_generation(
        pmem: &PMem,
        heap: &PHeap,
        level: &mut Level,
        nbuckets: u64,
        log_cap: u64,
        number: u64,
        prev: u64,
    ) -> Result<u64, PError> {
        let len = gen_block_len(nbuckets, log_cap) as usize;
        let base = heap.alloc_aligned_in(len, 64, level)?;
        pmem.fill(base, 0, gen_prefix_len(nbuckets) as usize)?;
        pmem.write_u64(base + GEN_OFF_NUMBER, number)?;
        pmem.write_u64(base + GEN_OFF_LOG_CAP, log_cap)?;
        pmem.write_u64(base + GEN_OFF_PREV, prev)?;
        pmem.write_u64(base + GEN_OFF_MAGIC, GEN_MAGIC)?;
        Ok(base.get())
    }

    /// Loads the active generation from the root cell. Re-read on every
    /// operation (reads are free of persistence events), so clones and
    /// independently opened handles observe a compaction swap
    /// immediately.
    pub(super) fn active_gen(&self) -> Result<Gen, PError> {
        // A mid-read power failure is a crash, not corruption — it
        // must keep its classification so callers route it to
        // recovery instead of aborting on a phantom corruption.
        let (number, base) = self.cell.current().map_err(|e| match e {
            MemError::Crashed => PError::Mem(e),
            e => PError::CorruptStack(format!("KV store root cell: {e}")),
        })?;
        let off = POffset::new(base);
        let magic = self.pmem.read_u64(off + GEN_OFF_MAGIC)?;
        if magic != GEN_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad KV generation magic {magic:#x} at {off} (generation {number})"
            )));
        }
        let log_cap = self.pmem.read_u64(off + GEN_OFF_LOG_CAP)?;
        Ok(Gen {
            base,
            number,
            log_cap,
        })
    }

    /// Loads a generation descriptor from its block base, validating
    /// the magic word.
    fn load_gen(&self, base: u64) -> Result<Gen, PError> {
        let off = POffset::new(base);
        let magic = self.pmem.read_u64(off + GEN_OFF_MAGIC)?;
        if magic != GEN_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad KV generation magic {magic:#x} at {off}"
            )));
        }
        Ok(Gen {
            base,
            number: self.pmem.read_u64(off + GEN_OFF_NUMBER)?,
            log_cap: self.pmem.read_u64(off + GEN_OFF_LOG_CAP)?,
        })
    }

    /// The generations, newest first: the active one, then each `prev`
    /// in turn. Lazy — a generation's header is read only when the walk
    /// reaches it, so a scan that stops in the active generation reads
    /// no older one.
    pub(super) fn gens(&self) -> impl Iterator<Item = Result<Gen, PError>> + '_ {
        // The base of the generation yielded last: `None` before the
        // first, 0 once the walk has ended.
        let mut last: Option<u64> = None;
        std::iter::from_fn(move || {
            let gen = match last {
                None => self.active_gen(),
                Some(0) => return None,
                Some(base) => match self.pmem.read_u64(POffset::new(base + GEN_OFF_PREV)) {
                    Ok(0) => {
                        last = Some(0);
                        return None;
                    }
                    Ok(prev) => self.load_gen(prev),
                    Err(e) => Err(e.into()),
                },
            };
            last = Some(gen.as_ref().map_or(0, |gen| gen.base));
            Some(gen)
        })
    }

    /// Every generation of the store, oldest first.
    pub(super) fn gens_oldest_first(&self) -> Result<Vec<Gen>, PError> {
        let mut gens = self.gens().collect::<Result<Vec<_>, _>>()?;
        gens.reverse();
        Ok(gens)
    }

    /// The chain cursor from the record at `head` of generation
    /// `gen_number` ([`Records`]).
    pub(super) fn records_from(&self, head: u64, gen_number: u64) -> Records<'_> {
        Records {
            store: self,
            gen_number,
            at: head,
        }
    }

    pub(super) fn bucket_off(&self, gen: &Gen, key: u64) -> POffset {
        let b = mix(key) % self.nbuckets;
        self.bucket_off_at(gen, b)
    }

    pub(super) fn bucket_off_at(&self, gen: &Gen, bucket: u64) -> POffset {
        POffset::new(gen.base + GEN_HEADER_LEN + bucket * 8)
    }

    pub(super) fn record_off(&self, gen: &Gen, idx: u64) -> u64 {
        gen.base + gen_prefix_len(self.nbuckets) + idx * RECORD_STRIDE
    }

    /// The offsets of `gen`'s log slots.
    pub(super) fn log_range(&self, gen: &Gen) -> Range<u64> {
        self.record_off(gen, 0)..self.record_off(gen, gen.log_cap)
    }

    pub(super) fn read_record(
        &self,
        off: u64,
        gen_number: u64,
    ) -> Result<(VersionRecord, u64), PError> {
        let mut b = [0u8; RECORD_LEN];
        self.pmem.read(POffset::new(off), &mut b)?;
        let kind = b[0];
        if kind != KIND_PUT && kind != KIND_DEL && kind != KIND_CARRY {
            return Err(PError::CorruptStack(format!(
                "published KV record at {off:#x} has kind {kind}"
            )));
        }
        let rec = VersionRecord {
            key: u64::from_le_bytes(b[8..16].try_into().expect("slice length")),
            value: i64::from_le_bytes(b[16..24].try_into().expect("slice length")),
            pid: u64::from_le_bytes(b[24..32].try_into().expect("slice length")),
            seq: u64::from_le_bytes(b[32..40].try_into().expect("slice length")),
            is_delete: kind == KIND_DEL,
            compacted: kind == KIND_CARRY,
            gen: gen_number,
        };
        let next = u64::from_le_bytes(b[40..48].try_into().expect("slice length"));
        Ok((rec, next))
    }

    /// Writes a full record into slot `off` (volatile until flushed).
    /// `tag` is the writer's `(pid, seq)` pair.
    pub(super) fn write_record(
        &self,
        off: u64,
        kind: u8,
        key: u64,
        value: i64,
        tag: (u64, u64),
        next: u64,
    ) -> Result<(), PError> {
        let mut b = [0u8; RECORD_LEN];
        b[0] = kind;
        b[8..16].copy_from_slice(&key.to_le_bytes());
        b[16..24].copy_from_slice(&value.to_le_bytes());
        b[24..32].copy_from_slice(&tag.0.to_le_bytes());
        b[32..40].copy_from_slice(&tag.1.to_le_bytes());
        b[40..48].copy_from_slice(&next.to_le_bytes());
        Ok(self.pmem.write(POffset::new(off), &b)?)
    }

    /// One bucket's published chain within one generation, oldest
    /// record first.
    pub(super) fn chain_in_gen(
        &self,
        gen: &Gen,
        bucket: u64,
    ) -> Result<Vec<VersionRecord>, PError> {
        let head = self.pmem.read_u64(self.bucket_off_at(gen, bucket))?;
        let mut out = self
            .records_from(head, gen.number)
            .map(|hop| hop.map(|(_, rec)| rec))
            .collect::<Result<Vec<_>, _>>()?;
        out.reverse();
        Ok(out)
    }

    /// One bucket's published chain, oldest record first, **spanning
    /// every generation** (retired generations' history first, then the
    /// active generation's carry-overs and new records). This is the
    /// witness shape the generation-aware verifier replays.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= nbuckets`.
    pub fn chain(&self, bucket: u64) -> Result<Vec<VersionRecord>, PError> {
        assert!(
            bucket < self.nbuckets,
            "bucket {bucket} out of range ({} buckets)",
            self.nbuckets
        );
        self.chain_across(&self.gens_oldest_first()?, bucket)
    }

    /// One bucket's chain across `gens` (oldest first).
    fn chain_across(&self, gens: &[Gen], bucket: u64) -> Result<Vec<VersionRecord>, PError> {
        let mut out = Vec::new();
        for gen in gens {
            out.extend(self.chain_in_gen(gen, bucket)?);
        }
        Ok(out)
    }

    /// Every bucket's published chain (oldest first, spanning every
    /// generation), in bucket order — the linearization witness the KV
    /// verifier checks answers against. The generation list is walked
    /// once, then each bucket's head is read once per generation.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn snapshot(&self) -> Result<Vec<Vec<VersionRecord>>, PError> {
        let gens = self.gens_oldest_first()?;
        (0..self.nbuckets)
            .map(|b| self.chain_across(&gens, b))
            .collect()
    }

    /// The store's current contents as an ordinary map. Replays only
    /// the **active** generation — its carry-overs capture the live
    /// state at the last compaction boundary, so retired history is
    /// redundant here (O(live + recent), not O(lifetime)).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn contents(&self) -> Result<BTreeMap<u64, i64>, PError> {
        let gen = self.active_gen()?;
        let mut out = BTreeMap::new();
        for b in 0..self.nbuckets {
            for rec in self.chain_in_gen(&gen, b)? {
                if rec.is_delete {
                    out.remove(&rec.key);
                } else {
                    out.insert(rec.key, rec.value);
                }
            }
        }
        Ok(out)
    }

    /// Every generation of the store, oldest first, with its log usage
    /// — campaign reports and benches read this. Every generation but
    /// the active one is retired.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn generations(&self) -> Result<Vec<GenerationInfo>, PError> {
        let gens = self.gens_oldest_first()?;
        let active = gens.len() - 1;
        gens.iter()
            .enumerate()
            .map(|(i, gen)| {
                let off = POffset::new(gen.base);
                Ok(GenerationInfo {
                    number: gen.number,
                    log_cap: gen.log_cap,
                    reserved: self.pmem.read_u64(off + GEN_OFF_LOG_TAIL)?,
                    carried: self.pmem.read_u64(off + GEN_OFF_CARRIED)?,
                    retired: i < active,
                })
            })
            .collect()
    }
}
