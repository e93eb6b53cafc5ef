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
//!     48  bare word:  last bare batch's first slot L (bits 0..32) |
//!                     epoch (bits 32..63) | bare bit (bit 63)
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
//! level of the commit that writes them. A bare group commit leaves its
//! heads dirty: they persist with the shard's next commit, and until
//! then the log from `C` is what recovery trusts. So the words say:
//!
//! - **tail** — the next free slot; a batch reserves its slots in
//!   volatile memory and writes the tail once;
//! - **C** — every head that a record below `C` needs is durable, so
//!   `PKvStore::open` replays `[C, tail)`;
//! - **L** — the first slot of the newest bare batch, which carries the
//!   header's epoch, or the tail while the epoch has no batch yet.
//!   Every head that a record below `L` needs is durable once the dirty
//!   span is: the next bare commit checkpoints that span in its level
//!   and moves `C` to `L`;
//! - **epoch** — what a bare batch stamps its records with. `open`
//!   advances it whenever the bare bit is set, in the one level that
//!   also persists the heads it rebuilt, and holds the batch at `L` to
//!   it, so a record of a batch a crash cut never validates inside a
//!   later batch that reuses its slot;
//! - **bare bit** — set (durably, before any stamped record is written)
//!   while bare commits may run; a served window clears it, so a reboot
//!   of a served shard reads the words and persists nothing;
//! - **dirty span** — the buckets whose heads bare commits flipped and
//!   no level has persisted yet.
//!
//! A record fills its 64-byte slot:
//!
//! ```text
//! 0      kind   (0 = unpublished or void, 1 = PUT, 2 = DELETE,
//!                3 = carried PUT — a compaction copy of a live record)
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
//! generation, its batch word and its epoch, never 0. A bare batch
//! stamps every record; a window's records and a compaction's carries
//! leave batch and stamp 0, so they never validate — they are never
//! replayed. A batch in `[C, tail)` replays only if every slot from its
//! first to its last holds a record stamped with that batch word and
//! one epoch (`PKvStore::logged_batch`), the header's own for the batch
//! at `L`; a dropped bare batch is rewritten as stamped voids (kind 0),
//! which replay skips whole.
//!
//! Records become visible only through a bucket-head publish, after
//! every field is durable, so no crash moment can expose a torn
//! record. Reserved-but-unpublished slots are orphans: invisible to
//! lookups, scans and the verifier alike.

use std::collections::BTreeMap;
use std::ops::Range;

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
/// The commit words: log word, bare word, dirty word.
const GEN_OFF_WORDS: u64 = 40;
pub(super) const WORDS_LEN: usize = 24;
const BARE_BIT: u64 = 1 << 63;
const EPOCH_MASK: u32 = (1 << 31) - 1;

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
    /// `L`: the first slot of the last bare batch whose heads are
    /// dirty.
    pub(super) last_batch: u64,
    /// What bare batches stamp their records with (31 bits).
    pub(super) epoch: u32,
    /// Bare commits may run: `open` advances the epoch.
    pub(super) bare: bool,
    /// `[lo, hi]`: buckets whose heads bare commits left dirty.
    pub(super) dirty: Option<(u64, u64)>,
}

impl LogHeader {
    /// A generation with `tail` slots in use and every head durable.
    pub(super) fn settled(tail: u64, epoch: u32, bare: bool) -> Self {
        LogHeader {
            tail,
            replay_from: tail,
            last_batch: tail,
            epoch,
            bare,
            dirty: None,
        }
    }

    /// The next epoch, wrapping within its 31 bits.
    pub(super) fn next_epoch(&self) -> u32 {
        self.epoch.wrapping_add(1) & EPOCH_MASK
    }

    fn encode(&self) -> [u8; WORDS_LEN] {
        let log = self.tail | self.replay_from << 32;
        let bare = self.last_batch
            | u64::from(self.epoch & EPOCH_MASK) << 32
            | if self.bare { BARE_BIT } else { 0 };
        let dirty = self.dirty.map_or(0, |(lo, hi)| lo | (hi + 1) << 32);
        let mut b = [0u8; WORDS_LEN];
        for (chunk, word) in b.chunks_exact_mut(8).zip([log, bare, dirty]) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        b
    }

    /// The words `b` hold, or `None` for a dirty word that is not 0 and
    /// names no span (its high half 0): an image no commit wrote.
    pub(super) fn decode(b: &[u8; WORDS_LEN]) -> Option<Self> {
        let word = |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let (log, bare, dirty) = (word(0), word(1), word(2));
        let low = |w: u64| w & u64::from(u32::MAX);
        let dirty = match dirty {
            0 => None,
            w => Some((low(w), (w >> 32).checked_sub(1)?)),
        };
        Some(LogHeader {
            tail: low(log),
            replay_from: log >> 32,
            last_batch: low(bare),
            epoch: (bare >> 32) as u32 & EPOCH_MASK,
            bare: bare & BARE_BIT != 0,
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
/// record that never validates — what a window or a compaction
/// writes; [`stamp`] fills the last two words for a bare batch).
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
/// reports them): what the records ‖ header level persisted for it.
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

/// [`gen_block_len`] of counts read back from NVRAM: `None` if they
/// overflow.
pub(super) fn checked_block_len(nbuckets: u64, log_cap: u64) -> Option<u64> {
    let prefix = nbuckets.checked_mul(8)?.checked_add(GEN_HEADER_LEN + 63)? & !63;
    prefix.checked_add(log_cap.checked_mul(RECORD_STRIDE)?)
}

/// A cursor down one chain of one generation, newest record first: each
/// hop reads one record and yields it with its offset. A record links
/// only downward (see [`Records::reaches`]), so a `next` at or above
/// its own record is [`PError::CorruptStack`], never a cycle.
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
    /// no older one. A `prev` whose number does not go down is
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
    fn prev_gen(&self, base: u64, number: u64) -> Result<Option<Gen>, PError> {
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

    pub(super) fn bucket_off(&self, gen: &Gen, key: u64) -> POffset {
        self.bucket_off_at(gen, self.bucket_of(key))
    }

    /// The bucket `key` hashes to.
    pub(super) fn bucket_of(&self, key: u64) -> u64 {
        mix(key) % self.nbuckets
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
                    reserved: self.read_header(gen)?.tail,
                    carried: self.pmem.read_u64(off + GEN_OFF_CARRIED)?,
                    retired: i < active,
                })
            })
            .collect()
    }
}
