//! The persistent layout: the root block, the generation block, the
//! record codec with its stamp, the commit words of a generation
//! header ([`LogHeader`]), and the two walks every reader of them
//! shares — the generations newest first (`PKvStore::gens`) and one
//! chain's records newest first (`PKvStore::records_from`).
//!
//! ```text
//! root (128 B):  magic ("PSKVSTO3"), bucket count, reserved word
//!                (offset 16, never written), RootCell (seq =
//!                generation number, ptr = block base)
//!
//! generation block (heap-allocated, 64-aligned):
//!   header (64 B): magic, number, log capacity, prev-generation base,
//!                  carried count, then the three commit words:
//!     40  log word:   tail (bits 0..32) | replay-from C (bits 32..64)
//!     48  batch word: newest batch's first slot L (bits 0..32) |
//!                     epoch (bits 32..62) | keep bit (bit 62) |
//!                     long bit (bit 63)
//!     56  dirty word: first dirty bucket (bits 0..32) | one past the
//!                     last (bits 32..64, never 0); 0 = every head
//!                     durable
//!   buckets:       nbuckets × 8 B — absolute offset of the newest
//!                                   record of each chain (0 = empty)
//!   version log:   log_cap × 64 B — immutable records, 64-aligned
//! ```
//!
//! The three commit words are one line, read and written as one access
//! ([`PKvStore::read_header`], [`write_header`]), and persisted by the
//! level of the commit that writes them. Every group commit — bare or
//! a served window's — leaves its heads dirty: they persist with the
//! shard's next commit, and until then the log from `C` is what
//! recovery trusts. So the words say:
//!
//! - **tail** — the next free slot; a batch reserves its slots in
//!   volatile memory and writes the tail once;
//! - **C** — every head that a record below `C` needs is durable, so
//!   `PKvStore::open` replays `[C, tail)`;
//! - **L** — the first slot of the newest batch, which carries the
//!   header's epoch, or the tail while the epoch has no batch yet.
//!   Every head that a record below `L` needs is durable once the dirty
//!   span is: the next commit checkpoints that span in its level and
//!   moves `C` to `L`;
//! - **epoch** — what a batch stamps its records with. `open` advances
//!   it, in one persist, when a cut batch can have left records of it
//!   past the tail (`store/recovery.rs`), and holds the batch at `L`
//!   to it, so a record of a batch a crash cut never validates inside a
//!   later batch that reuses its slot;
//! - **keep bit** — the dirty span holds heads a reboot rebuilt from
//!   batches below `L`, so the next commit, whose level persists them,
//!   keeps `C` where it is instead of moving it to `L`;
//! - **long bit** — set (durably, before its records are written) by a
//!   batch of more than [`LONG_BATCH`] records: `open` then advances
//!   the epoch without looking past the tail. A shorter batch's header
//!   clears it;
//! - **dirty span** — the buckets whose heads commits flipped and no
//!   level has persisted yet.
//!
//! A record fills its 64-byte slot:
//!
//! ```text
//! 0      kind   (0 = unpublished or void, 1 = PUT, 2 = DELETE,
//!                3 = carried PUT — a compaction copy of a live record)
//! 1..4   served slot + 1 (0 for a bare batch's record)
//! 4..8   served claim: the one its execution took
//! 8..16  key
//! 16..24 value  (the stored value; for DELETE, the value removed)
//! 24..32 pid    (writer's process id)
//! 32..40 seq    (writer's operation tag)
//! 40..48 next   (offset of the chain's previous record, 0 = end)
//! 48..56 batch  (first slot of its batch, bits 0..32 | last, 32..64)
//! 56..64 stamp  (check, bits 0..32 | epoch, bits 32..64)
//! ```
//!
//! The stamp's check is a hash of the record's fields, its slot, its
//! generation, its batch word and its epoch, never 0. Every group
//! commit stamps its records; a compaction's carries leave batch and
//! stamp 0, so they never validate — they are never replayed. A batch
//! in `[C, tail)` replays only if every slot from its first to its last
//! holds a record stamped with that batch word and one epoch
//! (`PKvStore::logged_batch`), the header's own for the batch at `L`,
//! whose served records must also find their request-table slots
//! claimed (`store/recovery.rs`); a dropped batch is rewritten as
//! stamped voids (kind 0), which replay skips whole.
//!
//! A served record names the request-table slot it executed and the
//! claim that execution took, and the stamp covers both: a reboot
//! publishes the newest batch only if its slots' answer lines landed
//! with it. The batch's
//! first record's stamp word is what each of its answers records
//! ([`KvPendingBatch::answer_ref`](super::KvPendingBatch::answer_ref)).
//!
//! Records become visible only through a bucket-head publish, after
//! every field is durable, so no crash moment can expose a torn
//! record. Reserved-but-unpublished slots are orphans: invisible to
//! lookups, scans and the verifier alike.

use std::collections::BTreeMap;

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{Level, MemError, PMem, POffset};

use super::{GenerationInfo, PKvStore, VersionRecord};

pub(super) const KV_MAGIC: u64 = 0x5053_4B56_5354_4F33; // "PSKVSTO3" (stamped log)
/// The generational image before stamped records: refused by `open`.
pub(super) const KV_MAGIC_V2: u64 = 0x5053_4B56_5354_4F32; // "PSKVSTO2"
pub(super) const RECORD_STRIDE: u64 = 64;
/// The record's fields, without batch word and stamp.
const RECORD_LEN: usize = 48;
/// A record slot as written: fields, batch word, stamp.
pub(super) type RecordBytes = [u8; RECORD_STRIDE as usize];

/// Root block: magic, bucket count, then the generation pointer cell at
/// [`OFF_GEN_CELL`]. Offset 16 is reserved: zeroed by `format`, never
/// written or read — an older image's commit counter there is ignored,
/// so such images still open.
pub(super) const ROOT_LEN: u64 = 128;
pub(super) const OFF_MAGIC: u64 = 0;
pub(super) const OFF_NBUCKETS: u64 = 8;
pub(super) const OFF_GEN_CELL: u64 = 64;

/// Generation block header (see the module doc).
const GEN_MAGIC: u64 = 0x5053_4B56_4745_4E31; // "PSKVGEN1"
const GEN_HEADER_LEN: u64 = 64;
const GEN_OFF_MAGIC: u64 = 0;
const GEN_OFF_NUMBER: u64 = 8;
pub(super) const GEN_OFF_LOG_CAP: u64 = 16;
pub(super) const GEN_OFF_PREV: u64 = 24;
pub(super) const GEN_OFF_CARRIED: u64 = 32;
/// The commit words: log word, batch word, dirty word.
const GEN_OFF_WORDS: u64 = 40;
pub(super) const WORDS_LEN: usize = 24;
const LONG_BIT: u64 = 1 << 63;
const KEEP_BIT: u64 = 1 << 62;
const EPOCH_MASK: u32 = (1 << 30) - 1;
/// The most records a batch writes without setting the long bit, and
/// so the most slots `open` reads past the tail.
pub(super) const LONG_BATCH: u64 = 64;
/// Bytes 1..4 of a served record hold its slot + 1: at most this many
/// slots.
pub(crate) const MAX_SERVED_SLOTS: u32 = (1 << 24) - 1;

pub(super) const KIND_PUT: u8 = 1;
pub(super) const KIND_DEL: u8 = 2;
/// A compaction carry-over: a copy of a live PUT (or effective CAS)
/// record, original tag preserved.
pub(super) const KIND_CARRY: u8 = 3;

/// The commit words of a generation header, decoded (see the module
/// doc). Slots and buckets are indexes, not offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct LogHeader {
    /// The next free slot.
    pub(super) tail: u64,
    /// `C`: where `open` starts its replay.
    pub(super) replay_from: u64,
    /// `L`: the first slot of the newest batch.
    pub(super) last_batch: u64,
    /// What batches stamp their records with (30 bits).
    pub(super) epoch: u32,
    /// The dirty span holds heads rebuilt from batches below `L`: the
    /// next commit keeps `C`.
    pub(super) keep: bool,
    /// A batch longer than [`LONG_BATCH`] may have been cut past the
    /// tail: `open` advances the epoch.
    pub(super) long: bool,
    /// `[lo, hi]`: buckets whose heads commits left dirty.
    pub(super) dirty: Option<(u64, u64)>,
}

impl LogHeader {
    /// A generation with `tail` slots in use and every head durable.
    pub(super) fn settled(tail: u64, epoch: u32) -> Self {
        LogHeader {
            tail,
            replay_from: tail,
            last_batch: tail,
            epoch,
            keep: false,
            long: false,
            dirty: None,
        }
    }

    /// The next epoch, wrapping within its 30 bits.
    pub(super) fn next_epoch(&self) -> u32 {
        self.epoch.wrapping_add(1) & EPOCH_MASK
    }

    fn encode(&self) -> [u8; WORDS_LEN] {
        let log = self.tail | self.replay_from << 32;
        let batch = self.last_batch
            | u64::from(self.epoch & EPOCH_MASK) << 32
            | if self.keep { KEEP_BIT } else { 0 }
            | if self.long { LONG_BIT } else { 0 };
        let dirty = self.dirty.map_or(0, |(lo, hi)| lo | (hi + 1) << 32);
        let mut b = [0u8; WORDS_LEN];
        for (chunk, word) in b.chunks_exact_mut(8).zip([log, batch, dirty]) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        b
    }

    /// The words `b` hold, or `None` for a dirty word that is not 0 and
    /// names no span (its high half 0): an image no commit wrote.
    pub(super) fn decode(b: &[u8; WORDS_LEN]) -> Option<Self> {
        let word = |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let (log, batch, dirty) = (word(0), word(1), word(2));
        let low = |w: u64| w & u64::from(u32::MAX);
        let dirty = match dirty {
            0 => None,
            w => Some((low(w), (w >> 32).checked_sub(1)?)),
        };
        Some(LogHeader {
            tail: low(log),
            replay_from: log >> 32,
            last_batch: low(batch),
            epoch: (batch >> 32) as u32 & EPOCH_MASK,
            keep: batch & KEEP_BIT != 0,
            long: batch & LONG_BIT != 0,
            dirty,
        })
    }
}

/// Writes `header` into the commit words of the generation at
/// `gen_base` (volatile until a level persists [`header_range`]).
pub(super) fn write_header(pmem: &PMem, gen_base: u64, header: &LogHeader) -> Result<(), PError> {
    Ok(pmem.write(POffset::new(gen_base + GEN_OFF_WORDS), &header.encode())?)
}

/// The commit words' bytes, as a flight covers them.
pub(super) fn header_range(gen_base: u64) -> (POffset, usize) {
    (POffset::new(gen_base + GEN_OFF_WORDS), WORDS_LEN)
}

/// The bytes of the heads of buckets `[lo, hi]` of the generation at
/// `gen_base`: one flight over them coalesces their lines.
pub(super) fn heads_range(gen_base: u64, (lo, hi): (u64, u64)) -> (POffset, usize) {
    (
        POffset::new(gen_base + GEN_HEADER_LEN + lo * 8),
        ((hi - lo + 1) * 8) as usize,
    )
}

/// A record slot's bytes: fields, then batch word and stamp 0 (a
/// record that never validates — what a compaction writes; [`stamp`]
/// fills the last two words for a batch, after [`serve`] for a served
/// one).
pub(super) fn encode_record(
    kind: u8,
    key: u64,
    value: i64,
    (pid, seq): (u64, u64),
    next: u64,
) -> RecordBytes {
    let mut b = [0u8; RECORD_STRIDE as usize];
    b[0] = kind;
    b[8..16].copy_from_slice(&key.to_le_bytes());
    b[16..24].copy_from_slice(&value.to_le_bytes());
    b[24..32].copy_from_slice(&pid.to_le_bytes());
    b[32..40].copy_from_slice(&seq.to_le_bytes());
    b[40..48].copy_from_slice(&next.to_le_bytes());
    b
}

/// Marks `rec` as executed for request-table slot `slot` under claim
/// `claim` (bytes 1..8, which [`stamp`] then covers).
pub(super) fn serve(rec: &mut RecordBytes, slot: u32, claim: u32) {
    rec[1..4].copy_from_slice(&(slot + 1).to_le_bytes()[..3]);
    rec[4..8].copy_from_slice(&claim.to_le_bytes());
}

/// The `(slot, claim)` a served record names, `None` for a bare one.
pub(super) fn served(rec: &RecordBytes) -> Option<(u32, u32)> {
    let slot = u32::from_le_bytes([rec[1], rec[2], rec[3], 0]).checked_sub(1)?;
    Some((
        slot,
        u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")),
    ))
}

/// A record's stamp word (check | epoch): what an answer records of
/// its batch's first record.
pub(super) fn stamp_word(rec: &RecordBytes) -> u64 {
    field(rec, 56)
}

fn field(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// A record's fields: (kind, key, value, tag, next).
pub(super) fn decode_record(b: &[u8]) -> (u8, u64, i64, (u64, u64), u64) {
    (
        b[0],
        field(b, 8),
        field(b, 16) as i64,
        (field(b, 24), field(b, 32)),
        field(b, 40),
    )
}

/// The stamp's check over slot `off` of generation `gen` holding
/// `rec`'s fields and batch word, in `epoch`. Never 0, so an unstamped
/// slot never validates.
fn check(rec: &RecordBytes, off: u64, gen: u64, epoch: u32) -> u32 {
    let mut h = mix(off ^ gen.rotate_left(32));
    for at in (0..56).step_by(8) {
        h = mix(h ^ field(rec, at));
    }
    (mix(h ^ u64::from(epoch)) as u32) | 1
}

/// Stamps `rec`, in slot `off` of generation `gen`, as a record of the
/// batch `[first, last]` (slot indexes) in `epoch`.
pub(super) fn stamp(
    rec: &mut RecordBytes,
    off: u64,
    gen: u64,
    (first, last): (u64, u64),
    epoch: u32,
) {
    rec[48..56].copy_from_slice(&(first | last << 32).to_le_bytes());
    let stamp = u64::from(check(rec, off, gen, epoch)) | u64::from(epoch) << 32;
    rec[56..64].copy_from_slice(&stamp.to_le_bytes());
}

/// `Some((batch, epoch))` when `rec` in slot `off` of generation `gen`
/// carries a valid stamp: its batch `[first, last]` and epoch.
pub(super) fn stamped(rec: &RecordBytes, off: u64, gen: u64) -> Option<((u64, u64), u32)> {
    let stamp = field(rec, 56);
    let epoch = (stamp >> 32) as u32;
    if stamp as u32 == 0 || stamp as u32 != check(rec, off, gen, epoch) {
        return None;
    }
    let batch = field(rec, 48);
    Some(((batch & u64::from(u32::MAX), batch >> 32), epoch))
}

/// A loaded generation descriptor. The active generation's lives in
/// the region's index (`store/index.rs`), read from the root cell once
/// per boot and replaced by the compaction that swaps the cell, so no
/// handle goes stale across a swap; a retired one's is read from its
/// block by the walks that reach it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Gen {
    pub(super) base: u64,
    pub(super) number: u64,
    pub(super) log_cap: u64,
}

impl Gen {
    /// Where the generation's bucket array starts.
    pub(super) fn heads_off(&self) -> POffset {
        POffset::new(self.base + GEN_HEADER_LEN)
    }
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

/// [`gen_block_len`] of counts read back from NVRAM: `None` if they
/// overflow.
pub(super) fn checked_block_len(nbuckets: u64, log_cap: u64) -> Option<u64> {
    let prefix = nbuckets.checked_mul(8)?.checked_add(GEN_HEADER_LEN + 63)? & !63;
    prefix.checked_add(log_cap.checked_mul(RECORD_STRIDE)?)
}

/// A cursor down one chain of one generation, newest record first: each
/// hop reads one record and yields it with its offset. Within one
/// generation a chain runs from higher log offsets to lower (a record
/// links to the head it replaced, which was reserved before it), so a
/// `next` at or above its own record is [`PError::CorruptStack`], never
/// a cycle.
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
                .and_then(|(rec, next)| {
                    if next >= off {
                        return Err(PError::CorruptStack(format!(
                            "KV record at {off:#x} links up its chain, to {next:#x}"
                        )));
                    }
                    self.at = next;
                    Ok((off, rec))
                }),
        )
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

    /// Allocates a generation block, writes its header (commit words
    /// zero: the caller writes them, [`write_header`]) and zeroes its
    /// bucket array. Log slots are left untouched: they are unreachable
    /// until reserved, written in full and published. The allocation's
    /// switch is issued into `level` ([`PHeap::alloc_aligned_in`]); the
    /// block is volatile until the caller issues it into the same level
    /// and awaits it.
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

    /// The commit words of `gen`'s header, in one read; a dirty word no
    /// commit wrote is [`PError::CorruptStack`].
    pub(super) fn read_header(&self, gen: &Gen) -> Result<LogHeader, PError> {
        let mut b = [0u8; WORDS_LEN];
        self.pmem
            .read(POffset::new(gen.base + GEN_OFF_WORDS), &mut b)?;
        LogHeader::decode(&b).ok_or_else(|| {
            PError::CorruptStack(format!(
                "KV generation {} header's dirty word names no span",
                gen.number
            ))
        })
    }

    /// Loads the generation the root cell names: what `format` and
    /// `open` put in the region's index (`store/index.rs`), whose
    /// readers never read the cell again.
    pub(super) fn root_gen(&self) -> Result<Gen, PError> {
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

    /// The generations, newest first: the active one, from the index,
    /// then each `prev` in turn. Lazy — a retired generation's header is
    /// read only when the walk reaches it, so a scan that stops in the
    /// active generation reads no older one. A `prev` whose number does not go down is
    /// [`PError::CorruptStack`], never a cycle.
    pub(super) fn gens(&self) -> impl Iterator<Item = Result<Gen, PError>> + '_ {
        // The base and number of the generation yielded last: `None`
        // before the first, base 0 once an error has ended the walk.
        let mut last: Option<(u64, u64)> = None;
        std::iter::from_fn(move || {
            let gen = match last {
                None => self.active_gen(),
                Some((0, _)) => return None,
                Some((base, number)) => self.prev_gen(base, number).transpose()?,
            };
            last = Some(gen.as_ref().map_or((0, 0), |gen| (gen.base, gen.number)));
            Some(gen)
        })
    }

    /// The generation before generation `number` at `base`, `None` past
    /// the oldest.
    pub(super) fn prev_gen(&self, base: u64, number: u64) -> Result<Option<Gen>, PError> {
        let prev = self.pmem.read_u64(POffset::new(base + GEN_OFF_PREV))?;
        if prev == 0 {
            return Ok(None);
        }
        let gen = self.load_gen(prev)?;
        if gen.number >= number {
            let msg = format!("KV generation {number}'s prev is generation {}", gen.number);
            return Err(PError::CorruptStack(msg));
        }
        Ok(Some(gen))
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

    /// The bucket `key` hashes to.
    pub(super) fn bucket_of(&self, key: u64) -> u64 {
        mix(key) % self.nbuckets
    }

    pub(super) fn bucket_off_at(&self, gen: &Gen, bucket: u64) -> POffset {
        gen.heads_off() + bucket * 8
    }

    pub(super) fn record_off(&self, gen: &Gen, idx: u64) -> u64 {
        gen.base + gen_prefix_len(self.nbuckets) + idx * RECORD_STRIDE
    }

    pub(super) fn read_record(
        &self,
        off: u64,
        gen_number: u64,
    ) -> Result<(VersionRecord, u64), PError> {
        let mut b = [0u8; RECORD_LEN];
        self.pmem.read(POffset::new(off), &mut b)?;
        let (kind, key, value, (pid, seq), next) = decode_record(&b);
        if kind != KIND_PUT && kind != KIND_DEL && kind != KIND_CARRY {
            return Err(PError::CorruptStack(format!(
                "published KV record at {off:#x} has kind {kind}"
            )));
        }
        let rec = VersionRecord {
            key,
            value,
            pid,
            seq,
            is_delete: kind == KIND_DEL,
            compacted: kind == KIND_CARRY,
            gen: gen_number,
        };
        Ok((rec, next))
    }

    /// Reads a whole record slot: fields, batch word and stamp.
    pub(super) fn read_slot(&self, off: u64) -> Result<RecordBytes, PError> {
        let mut b = [0u8; RECORD_STRIDE as usize];
        self.pmem.read(POffset::new(off), &mut b)?;
        Ok(b)
    }

    /// Reads `n` whole record slots of `gen` from slot index `from`, in
    /// one access.
    pub(super) fn read_slots(
        &self,
        gen: &Gen,
        from: u64,
        n: u64,
    ) -> Result<Vec<RecordBytes>, PError> {
        let mut b = vec![0u8; (n * RECORD_STRIDE) as usize];
        self.pmem
            .read(POffset::new(self.record_off(gen, from)), &mut b)?;
        Ok(b.chunks_exact(RECORD_STRIDE as usize)
            .map(|rec| rec.try_into().expect("a whole slot"))
            .collect())
    }

    /// Writes a whole record slot (volatile until flushed).
    pub(super) fn write_slot(&self, off: u64, rec: &RecordBytes) -> Result<(), PError> {
        Ok(self.pmem.write(POffset::new(off), rec)?)
    }

    /// One bucket's published chain within one generation, oldest
    /// record first.
    pub(super) fn chain_in_gen(
        &self,
        gen: &Gen,
        bucket: u64,
    ) -> Result<Vec<VersionRecord>, PError> {
        let mut out = self
            .records_from(self.head_in(gen, bucket)?, gen.number)
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
    /// once, then each bucket's head is read once per retired
    /// generation; the active generation's heads are the index's.
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
                    reserved: self.read_header(gen)?.tail,
                    carried: self.pmem.read_u64(off + GEN_OFF_CARRIED)?,
                    retired: i < active,
                })
            })
            .collect()
    }
}
