//! The persistent free-list allocator.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pstack_nvram::{Level, MemError, PMem, POffset};

use crate::HeapError;

/// Bytes of per-heap persistent metadata at the heap base.
const HEAP_HEADER_LEN: u64 = 32;

/// Bytes of per-block persistent metadata (size word + canary word).
pub const BLOCK_HEADER_LEN: u64 = 16;

/// Smallest representable block: header plus 16 payload bytes.
pub const MIN_BLOCK_LEN: u64 = 32;

const HEAP_MAGIC: u64 = 0x5053_5441_434B_4850; // "PSTACKHP"
const BLOCK_CANARY: u64 = 0xB10C_B10C_B10C_B10C;
const USED_BIT: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    size: u64,
    used: bool,
}

#[derive(Debug)]
struct HeapInner {
    /// Volatile mirror of the block headers, keyed by block start offset.
    /// Rebuilt from NVRAM on every open; never persisted itself.
    blocks: BTreeMap<u64, Block>,
    /// Retired extents (`start → len`): ranges a client declared to be
    /// retained recovery evidence ([`PHeap::register_retired_extent`]).
    /// [`PHeap::free`] rejects any payload inside one. Volatile like
    /// `blocks` — the owning store re-registers on every open, walking
    /// its retired-generation chain.
    retired: BTreeMap<u64, u64>,
}

/// A persistent heap carved out of a range of emulated NVRAM.
///
/// Cheap to clone; clones share the same allocator state. All methods
/// take `&self` and are thread-safe.
///
/// See the [crate-level documentation](crate) for the crash-consistency
/// argument and an example.
#[derive(Debug, Clone)]
pub struct PHeap {
    pmem: PMem,
    first_block: u64,
    end: u64,
    inner: Arc<Mutex<HeapInner>>,
}

/// Point-in-time usage summary returned by [`PHeap::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes of payload in live allocations.
    pub used_payload_bytes: u64,
    /// Bytes of payload available in free blocks.
    pub free_payload_bytes: u64,
    /// Number of live allocations.
    pub used_blocks: usize,
    /// Number of free blocks.
    pub free_blocks: usize,
    /// Payload capacity of the largest free block.
    pub largest_free_payload: u64,
}

impl PHeap {
    /// Formats a fresh heap over `[base, base + len)` and returns a
    /// handle to it. All previous content in the range is ignored.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidConfig`] if the range is too small to hold
    /// the header and one minimal block, or [`HeapError::Mem`] if the
    /// range is not valid NVRAM.
    pub fn format(pmem: PMem, base: POffset, len: u64) -> Result<Self, HeapError> {
        let (first_block, end) = Self::usable_range(base, len)?;
        // Heap header: magic, then the usable-range end for validation.
        pmem.write_u64(base, HEAP_MAGIC)?;
        pmem.write_u64(base + 8u64, end)?;
        pmem.write_u64(base + 16u64, first_block)?;
        pmem.write_u64(base + 24u64, 0)?;
        pmem.flush(base, HEAP_HEADER_LEN as usize)?;

        let total = end - first_block;
        write_header(&pmem, first_block, total, false)?;
        pmem.flush(POffset::new(first_block), BLOCK_HEADER_LEN as usize)?;

        let mut blocks = BTreeMap::new();
        blocks.insert(
            first_block,
            Block {
                size: total,
                used: false,
            },
        );
        Ok(PHeap {
            pmem,
            first_block,
            end,
            inner: Arc::new(Mutex::new(HeapInner {
                blocks,
                retired: BTreeMap::new(),
            })),
        })
    }

    /// Opens a heap previously formatted at `base`, rebuilding the
    /// volatile free list from the persistent block headers and
    /// re-coalescing any adjacent free blocks a crash may have left.
    ///
    /// # Errors
    ///
    /// [`HeapError::Corrupt`] if the header magic or any block header
    /// fails validation.
    pub fn open(pmem: PMem, base: POffset) -> Result<Self, HeapError> {
        let magic = pmem.read_u64(base)?;
        if magic != HEAP_MAGIC {
            return Err(HeapError::Corrupt(format!(
                "bad heap magic {magic:#x} at {base}"
            )));
        }
        let end = pmem.read_u64(base + 8u64)?;
        let first_block = pmem.read_u64(base + 16u64)?;
        let mut blocks = walk_blocks(&pmem, first_block, end)?;

        // Re-coalesce: a crash between "clear used bit" and "absorb
        // neighbour" legitimately leaves adjacent free blocks.
        let starts: Vec<u64> = blocks.keys().copied().collect();
        let mut i = 0;
        while i < starts.len() {
            let start = starts[i];
            // The block may have been absorbed into an earlier one.
            let Some(blk) = blocks.get(&start).copied() else {
                i += 1;
                continue;
            };
            if !blk.used {
                let mut size = blk.size;
                let mut next = start + size;
                while let Some(nb) = blocks.get(&next).copied() {
                    if nb.used {
                        break;
                    }
                    size += nb.size;
                    blocks.remove(&next);
                    next = start + size;
                }
                if size != blk.size {
                    write_header_word(&pmem, start, size, false)?;
                    blocks.insert(start, Block { size, used: false });
                }
            }
            i += 1;
        }

        Ok(PHeap {
            pmem,
            first_block,
            end,
            inner: Arc::new(Mutex::new(HeapInner {
                blocks,
                retired: BTreeMap::new(),
            })),
        })
    }

    fn usable_range(base: POffset, len: u64) -> Result<(u64, u64), HeapError> {
        if base.is_null() {
            return Err(HeapError::InvalidConfig(
                "heap base must not be null".into(),
            ));
        }
        let first_block = (base + HEAP_HEADER_LEN).align_up(16).get();
        let end = (base.get() + len) & !15;
        if end < first_block + MIN_BLOCK_LEN {
            return Err(HeapError::InvalidConfig(format!(
                "heap range of {len} bytes cannot hold one minimal block"
            )));
        }
        Ok((first_block, end))
    }

    /// The NVRAM region this heap allocates from.
    #[must_use]
    pub fn pmem(&self) -> &PMem {
        &self.pmem
    }

    /// Allocates `size` bytes with 16-byte alignment and returns the
    /// payload offset.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] when no free block fits, or a
    /// propagated NVRAM error.
    pub fn alloc(&self, size: usize) -> Result<POffset, HeapError> {
        self.alloc_aligned(size, 16)
    }

    /// Allocates `size` bytes whose payload offset is a multiple of
    /// `align` (a power of two, at least 16). Useful for data that must
    /// not cross cache-line borders, such as the recoverable-CAS cells.
    /// [`PHeap::alloc_aligned_in`] with a level of its own, awaited:
    /// the allocation is durable when this returns.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidConfig`] for a bad alignment,
    /// [`HeapError::OutOfMemory`] when nothing fits, or a propagated
    /// NVRAM error.
    pub fn alloc_aligned(&self, size: usize, align: u64) -> Result<POffset, HeapError> {
        let mut level = Level::default();
        let off = self.alloc_aligned_in(size, align, &mut level)?;
        level.await_all()?;
        Ok(off)
    }

    /// The one allocation path, as two dependence levels. The interior
    /// headers (the split-off tail, and the block's own header when
    /// alignment leaves a free front) are invisible to the block walk,
    /// which the old size word still drives: they are issued as one
    /// level and awaited here. The **switch** — the rewrite of that
    /// size word that makes the split visible — is then written and
    /// issued into the caller's `level`, unawaited.
    ///
    /// The allocation is durable once `level` is awaited. A caller that
    /// fills the block issues the fill into the same level: the switch
    /// and the block are unordered against each other, and only what
    /// publishes the block waits for both. A crash before the await
    /// leaves the block free (the switch lost) or allocated and
    /// unreachable (kept) — a leak, never a torn heap.
    ///
    /// # Errors
    ///
    /// As [`PHeap::alloc_aligned`].
    pub fn alloc_aligned_in(
        &self,
        size: usize,
        align: u64,
        level: &mut Level,
    ) -> Result<POffset, HeapError> {
        if !align.is_power_of_two() || align < 16 {
            return Err(HeapError::InvalidConfig(format!(
                "alignment {align} must be a power of two >= 16"
            )));
        }
        let req = round16(size.max(1) as u64);
        let mut inner = self.inner.lock();

        let candidates: Vec<(u64, u64)> = inner
            .blocks
            .iter()
            .filter(|(_, b)| !b.used)
            .map(|(s, b)| (*s, b.size))
            .collect();

        for (start, total) in candidates {
            let payload0 = start + BLOCK_HEADER_LEN;
            let mut aligned = align_up(payload0, align);
            if aligned != payload0 && aligned - payload0 < MIN_BLOCK_LEN {
                aligned = align_up(payload0 + MIN_BLOCK_LEN, align);
            }
            let front = aligned - payload0;
            if front + BLOCK_HEADER_LEN + req > total {
                continue;
            }
            let avail = total - front;
            let mut need = BLOCK_HEADER_LEN + req;
            let tail = avail - need;
            let tail = if tail < MIN_BLOCK_LEN {
                need = avail;
                0
            } else {
                tail
            };

            let alloc_start = start + front;
            // Level 1, awaited: the interior headers.
            let hdr = BLOCK_HEADER_LEN as usize;
            let mut interior = Level::default();
            if tail > 0 {
                write_header(&self.pmem, alloc_start + need, tail, false)?;
                interior.issue(&self.pmem, POffset::new(alloc_start + need), hdr)?;
            }
            if front > 0 {
                write_header(&self.pmem, alloc_start, need, true)?;
                interior.issue(&self.pmem, POffset::new(alloc_start), hdr)?;
            }
            interior.await_all()?;
            // Level 2, the caller's: the atomic switch — the old size
            // word shrinks to the free front, or marks the block used.
            let switch = if front > 0 { front } else { need | USED_BIT };
            self.pmem.write_u64(POffset::new(start), switch)?;
            level.issue(&self.pmem, POffset::new(start), 8)?;
            if front > 0 {
                inner.blocks.insert(
                    start,
                    Block {
                        size: front,
                        used: false,
                    },
                );
            }
            inner.blocks.insert(
                alloc_start,
                Block {
                    size: need,
                    used: true,
                },
            );
            if tail > 0 {
                inner.blocks.insert(
                    alloc_start + need,
                    Block {
                        size: tail,
                        used: false,
                    },
                );
            }
            return Ok(POffset::new(alloc_start + BLOCK_HEADER_LEN));
        }
        Err(HeapError::OutOfMemory { requested: size })
    }

    /// Allocates and zero-fills `size` bytes; the zeros are flushed, so
    /// the freshly allocated payload has a defined persistent state.
    ///
    /// # Errors
    ///
    /// Same as [`PHeap::alloc`].
    pub fn alloc_zeroed(&self, size: usize) -> Result<POffset, HeapError> {
        self.alloc_filled(size, 16, |_| Ok(()))
    }

    /// Allocates `size` bytes at alignment `align`, zeroes them and lets
    /// `fill` write the block's initial content over the zeros — every
    /// store buffered, none flushed. The block rides the allocation's
    /// switch: one level, awaited once, so a format waits two
    /// round-trips (the interior headers, then switch ‖ block). The
    /// block is allocated and durable when this returns.
    ///
    /// # Errors
    ///
    /// As [`PHeap::alloc_aligned`], or `fill`'s.
    pub fn alloc_filled(
        &self,
        size: usize,
        align: u64,
        fill: impl FnOnce(POffset) -> Result<(), MemError>,
    ) -> Result<POffset, HeapError> {
        let mut level = Level::default();
        let off = self.alloc_aligned_in(size, align, &mut level)?;
        self.pmem.fill(off, 0, size)?;
        fill(off)?;
        level.issue(&self.pmem, off, size)?;
        level.await_all()?;
        Ok(off)
    }

    /// Declares `[start, start + len)` a **retired extent**: retained
    /// recovery evidence (e.g. a retired KV generation block, chained
    /// via `prev`) that must never be reclaimed. [`PHeap::free`] of any
    /// payload inside the range fails with [`HeapError::RetiredExtent`]
    /// instead of silently handing evidence back to the allocator.
    ///
    /// The registry is volatile, like the free list itself: the owning
    /// store re-registers its retired ranges on every open/recovery.
    /// Registering the same extent twice is a no-op; overlapping
    /// registrations keep the widest coverage per start offset.
    pub fn register_retired_extent(&self, start: POffset, len: u64) {
        let mut inner = self.inner.lock();
        let entry = inner.retired.entry(start.get()).or_insert(0);
        *entry = (*entry).max(len);
    }

    /// Retired extents registered on this heap, as `(start, len)` pairs
    /// in address order.
    #[must_use]
    pub fn retired_extents(&self) -> Vec<(u64, u64)> {
        self.inner
            .lock()
            .retired
            .iter()
            .map(|(&s, &l)| (s, l))
            .collect()
    }

    /// Releases an allocation made by this heap, coalescing with free
    /// neighbours.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidFree`] if `payload` is not a live allocation
    /// (including double frees), [`HeapError::RetiredExtent`] if it
    /// lies inside a registered retired extent, or a propagated NVRAM
    /// error.
    pub fn free(&self, payload: POffset) -> Result<(), HeapError> {
        let start = payload
            .get()
            .checked_sub(BLOCK_HEADER_LEN)
            .ok_or(HeapError::InvalidFree {
                offset: payload.get(),
                reason: "offset precedes any possible block",
            })?;
        let mut inner = self.inner.lock();
        // Retired-generation guard: freeing retained recovery evidence
        // is a correctness bug, not an optimization — fail it loudly
        // here rather than silently and only catch it later in the
        // witness walk.
        if let Some((&ext_start, &ext_len)) = inner.retired.range(..=payload.get()).next_back() {
            if payload.get() < ext_start + ext_len {
                return Err(HeapError::RetiredExtent {
                    offset: payload.get(),
                    extent_start: ext_start,
                    extent_len: ext_len,
                });
            }
        }
        let blk = match inner.blocks.get(&start).copied() {
            Some(b) => b,
            None => {
                return Err(HeapError::InvalidFree {
                    offset: payload.get(),
                    reason: "offset is not the start of a block payload",
                })
            }
        };
        if !blk.used {
            return Err(HeapError::InvalidFree {
                offset: payload.get(),
                reason: "double free",
            });
        }

        write_header_word(&self.pmem, start, blk.size, false)?;
        inner.blocks.insert(
            start,
            Block {
                size: blk.size,
                used: false,
            },
        );

        // Absorb the next block if free.
        let mut cur_start = start;
        let mut cur_size = blk.size;
        let next = cur_start + cur_size;
        if let Some(nb) = inner.blocks.get(&next).copied() {
            if !nb.used {
                cur_size += nb.size;
                write_header_word(&self.pmem, cur_start, cur_size, false)?;
                inner.blocks.remove(&next);
                inner.blocks.insert(
                    cur_start,
                    Block {
                        size: cur_size,
                        used: false,
                    },
                );
            }
        }
        // Let a free predecessor absorb us.
        if let Some((&prev_start, &pb)) = inner.blocks.range(..cur_start).next_back() {
            if !pb.used && prev_start + pb.size == cur_start {
                let merged = pb.size + cur_size;
                write_header_word(&self.pmem, prev_start, merged, false)?;
                inner.blocks.remove(&cur_start);
                inner.blocks.insert(
                    prev_start,
                    Block {
                        size: merged,
                        used: false,
                    },
                );
                cur_start = prev_start;
                cur_size = merged;
            }
        }
        let _ = (cur_start, cur_size);
        Ok(())
    }

    /// Payload capacity in bytes of the allocation at `payload`.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidFree`] if `payload` is not a live allocation.
    pub fn payload_len(&self, payload: POffset) -> Result<u64, HeapError> {
        let start = payload.get().wrapping_sub(BLOCK_HEADER_LEN);
        let inner = self.inner.lock();
        match inner.blocks.get(&start) {
            Some(b) if b.used => Ok(b.size - BLOCK_HEADER_LEN),
            _ => Err(HeapError::InvalidFree {
                offset: payload.get(),
                reason: "offset is not a live allocation",
            }),
        }
    }

    /// Returns `true` if `off` lies within the heap's block area.
    #[must_use]
    pub fn contains(&self, off: POffset) -> bool {
        !off.is_null() && off.get() >= self.first_block && off.get() < self.end
    }

    /// Current usage summary.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        let inner = self.inner.lock();
        let mut s = HeapStats::default();
        for b in inner.blocks.values() {
            let payload = b.size - BLOCK_HEADER_LEN;
            if b.used {
                s.used_blocks += 1;
                s.used_payload_bytes += payload;
            } else {
                s.free_blocks += 1;
                s.free_payload_bytes += payload;
                s.largest_free_payload = s.largest_free_payload.max(payload);
            }
        }
        s
    }

    /// Validates that the persistent block headers parse cleanly, tile
    /// the heap exactly, and agree with the volatile mirror.
    ///
    /// # Errors
    ///
    /// [`HeapError::Corrupt`] describing the first mismatch found.
    pub fn check_consistency(&self) -> Result<(), HeapError> {
        let persistent = walk_blocks(&self.pmem, self.first_block, self.end)?;
        let inner = self.inner.lock();
        if persistent.len() != inner.blocks.len() {
            return Err(HeapError::Corrupt(format!(
                "persistent walk found {} blocks, volatile mirror has {}",
                persistent.len(),
                inner.blocks.len()
            )));
        }
        for (start, blk) in &persistent {
            match inner.blocks.get(start) {
                Some(v) if v == blk => {}
                other => {
                    return Err(HeapError::Corrupt(format!(
                        "block at {start:#x}: persistent {blk:?} vs volatile {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }
}

fn round16(v: u64) -> u64 {
    (v + 15) & !15
}

fn align_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

/// Writes a whole block header; the caller persists it.
fn write_header(pmem: &PMem, start: u64, size: u64, used: bool) -> Result<(), HeapError> {
    let word0 = size | (u64::from(used) * USED_BIT);
    let mut hdr = [0u8; 16];
    hdr[..8].copy_from_slice(&word0.to_le_bytes());
    hdr[8..].copy_from_slice(&BLOCK_CANARY.to_le_bytes());
    pmem.write(POffset::new(start), &hdr)?;
    Ok(())
}

fn write_header_word(pmem: &PMem, start: u64, size: u64, used: bool) -> Result<(), HeapError> {
    let word0 = size | (u64::from(used) * USED_BIT);
    pmem.write_u64(POffset::new(start), word0)?;
    pmem.flush(POffset::new(start), 8)?;
    Ok(())
}

fn walk_blocks(pmem: &PMem, first_block: u64, end: u64) -> Result<BTreeMap<u64, Block>, HeapError> {
    let mut blocks = BTreeMap::new();
    let mut pos = first_block;
    while pos < end {
        let word0 = pmem.read_u64(POffset::new(pos))?;
        let canary = pmem.read_u64(POffset::new(pos + 8))?;
        if canary != BLOCK_CANARY {
            return Err(HeapError::Corrupt(format!(
                "bad canary {canary:#x} in block header at {pos:#x}"
            )));
        }
        let used = word0 & USED_BIT != 0;
        let size = word0 & !15;
        if size < MIN_BLOCK_LEN || pos + size > end {
            return Err(HeapError::Corrupt(format!(
                "block at {pos:#x} has invalid size {size}"
            )));
        }
        blocks.insert(pos, Block { size, used });
        pos += size;
    }
    if pos != end {
        return Err(HeapError::Corrupt(format!(
            "blocks overrun the heap end: walk stopped at {pos:#x}, end is {end:#x}"
        )));
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, PMemBuilder, Survivors};

    fn heap(len: usize) -> (PMem, PHeap) {
        let pmem = PMemBuilder::new().len(len).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), len as u64).unwrap();
        (pmem, heap)
    }

    #[test]
    fn alloc_and_free_round_trip() {
        let (pmem, h) = heap(4096);
        let a = h.alloc(100).unwrap();
        pmem.write_u64(a, 7).unwrap();
        assert_eq!(pmem.read_u64(a).unwrap(), 7);
        assert!(h.payload_len(a).unwrap() >= 100);
        h.free(a).unwrap();
        h.check_consistency().unwrap();
    }

    #[test]
    fn freed_memory_is_reused() {
        let (_, h) = heap(4096);
        let a = h.alloc(64).unwrap();
        h.free(a).unwrap();
        let b = h.alloc(64).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let (_, h) = heap(8192);
        let offs: Vec<POffset> = (0..8).map(|_| h.alloc(100).unwrap()).collect();
        for (i, a) in offs.iter().enumerate() {
            for b in offs.iter().skip(i + 1) {
                let (lo, hi) = if a.get() < b.get() { (a, b) } else { (b, a) };
                assert!(lo.get() + 100 <= hi.get() - BLOCK_HEADER_LEN + 16);
                assert!(lo.get() + 112 <= hi.get());
            }
        }
        h.check_consistency().unwrap();
    }

    #[test]
    fn coalescing_restores_one_big_block() {
        let (_, h) = heap(4096);
        let initial = h.stats();
        assert_eq!(initial.free_blocks, 1);
        let a = h.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        let c = h.alloc(64).unwrap();
        // Free in an order that exercises next-absorb, prev-absorb and both.
        h.free(b).unwrap();
        h.free(a).unwrap();
        h.free(c).unwrap();
        let s = h.stats();
        assert_eq!(s.free_blocks, 1, "all fragments should coalesce: {s:?}");
        assert_eq!(s.free_payload_bytes, initial.free_payload_bytes);
        h.check_consistency().unwrap();
    }

    #[test]
    fn aligned_allocation_is_aligned() {
        let (_, h) = heap(16 * 1024);
        for align in [16u64, 32, 64, 128] {
            let a = h.alloc_aligned(48, align).unwrap();
            assert!(a.is_aligned(align), "offset {a} not aligned to {align}");
        }
        h.check_consistency().unwrap();
    }

    #[test]
    fn aligned_allocation_front_padding_stays_free() {
        let (_, h) = heap(16 * 1024);
        let _guard = h.alloc(16).unwrap(); // misalign the free space
        let a = h.alloc_aligned(64, 128).unwrap();
        assert!(a.is_aligned(128));
        h.check_consistency().unwrap();
        // The front padding must be allocatable.
        let small = h.alloc(16).unwrap();
        assert!(small.get() < a.get());
    }

    #[test]
    fn out_of_memory_is_reported() {
        let (_, h) = heap(256);
        assert!(matches!(
            h.alloc(10_000),
            Err(HeapError::OutOfMemory { requested: 10_000 })
        ));
    }

    #[test]
    fn exhaustion_then_free_then_alloc() {
        let (_, h) = heap(1024);
        let mut offs = Vec::new();
        while let Ok(o) = h.alloc(48) {
            offs.push(o);
        }
        assert!(!offs.is_empty());
        for o in offs {
            h.free(o).unwrap();
        }
        let s = h.stats();
        assert_eq!(s.free_blocks, 1);
        assert!(h.alloc(s.largest_free_payload as usize).is_ok());
    }

    #[test]
    fn double_free_is_rejected() {
        let (_, h) = heap(4096);
        let a = h.alloc(32).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(HeapError::InvalidFree { .. })));
    }

    #[test]
    fn bogus_free_is_rejected() {
        let (_, h) = heap(4096);
        let _a = h.alloc(32).unwrap();
        assert!(matches!(
            h.free(POffset::new(40)),
            Err(HeapError::InvalidFree { .. })
        ));
        assert!(matches!(
            h.free(POffset::new(4)),
            Err(HeapError::InvalidFree { .. })
        ));
    }

    #[test]
    fn free_inside_a_retired_extent_is_rejected() {
        // Negative control for the retired-generation guard: a block
        // registered as retained recovery evidence must refuse `free` —
        // at its start, in its middle, and after re-registration —
        // while unrelated blocks stay freeable.
        let (_, h) = heap(8192);
        let retired = h.alloc(256).unwrap();
        let live = h.alloc(64).unwrap();
        h.register_retired_extent(retired, 256);
        assert!(matches!(
            h.free(retired),
            Err(HeapError::RetiredExtent {
                offset,
                extent_start,
                extent_len: 256,
            }) if offset == retired.get() && extent_start == retired.get()
        ));
        // An extent *inside* the retired range (e.g. a bogus pointer
        // into the block) is shed by the same guard, before the
        // block-table lookup can misread it.
        assert!(matches!(
            h.free(retired + 128u64),
            Err(HeapError::RetiredExtent { .. })
        ));
        // Double registration is idempotent; unrelated frees still work.
        h.register_retired_extent(retired, 256);
        assert_eq!(h.retired_extents(), vec![(retired.get(), 256)]);
        h.free(live).unwrap();
        h.check_consistency().unwrap();
    }

    #[test]
    fn alloc_zeroed_is_zero_and_durable() {
        let (pmem, h) = heap(4096);
        let a = h.alloc(64).unwrap();
        pmem.write(a, &[0xFFu8; 64]).unwrap();
        pmem.flush(a, 64).unwrap();
        h.free(a).unwrap();
        let b = h.alloc_zeroed(64).unwrap();
        assert_eq!(b, a, "should reuse the dirtied block");
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        assert_eq!(pmem2.read_vec(b, 64).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn open_rebuilds_the_same_view() {
        let (pmem, h) = heap(4096);
        let a = h.alloc(100).unwrap();
        let _b = h.alloc(200).unwrap();
        h.free(a).unwrap();
        let before = h.stats();
        pmem.crash_now(0, 1.0); // keep everything, flushed or not
        let pmem2 = pmem.reopen().unwrap();
        let h2 = PHeap::open(pmem2, POffset::new(0)).unwrap();
        assert_eq!(h2.stats(), before);
        h2.check_consistency().unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let pmem = PMemBuilder::new().len(1024).build_in_memory();
        assert!(matches!(
            PHeap::open(pmem, POffset::new(0)),
            Err(HeapError::Corrupt(_))
        ));
    }

    #[test]
    fn format_rejects_tiny_ranges() {
        let pmem = PMemBuilder::new().len(64).build_in_memory();
        assert!(matches!(
            PHeap::format(pmem, POffset::new(0), 40),
            Err(HeapError::InvalidConfig(_))
        ));
    }

    #[test]
    fn allocations_survive_crash_and_reopen() {
        let (pmem, h) = heap(4096);
        let a = h.alloc(64).unwrap();
        pmem.write_u64(a, 4242).unwrap();
        pmem.flush(a, 8).unwrap();
        pmem.crash_now(0, 0.0); // metadata was flushed synchronously
        let pmem2 = pmem.reopen().unwrap();
        let h2 = PHeap::open(pmem2.clone(), POffset::new(0)).unwrap();
        assert_eq!(pmem2.read_u64(a).unwrap(), 4242);
        // The block is still allocated after recovery; freeing works.
        assert!(h2.payload_len(a).unwrap() >= 64);
        h2.free(a).unwrap();
        h2.check_consistency().unwrap();
    }

    #[test]
    fn crash_point_enumeration_alloc_free_never_corrupts() {
        // Count persistence events for one alloc+free, then crash before
        // each event in turn and verify the heap always reopens cleanly.
        let probe = || {
            let (pmem, h) = heap(2048);
            let warm = h.alloc(40).unwrap(); // stable starting shape
            (pmem, h, warm)
        };
        let events = sweep(
            || {
                let (pmem, h, warm) = probe();
                (pmem, (h, warm))
            },
            |(_, (h, warm))| -> Result<(), HeapError> {
                let x = h.alloc(100)?;
                h.free(x)?;
                h.free(*warm)
            },
            |(pmem, _), cut| {
                let h2 = PHeap::open(pmem, POffset::new(0))
                    .unwrap_or_else(|e| panic!("reopen failed after {cut}: {e}"));
                h2.check_consistency()
                    .unwrap_or_else(|e| panic!("inconsistent after {cut}: {e}"));
                // The heap must still be able to allocate.
                h2.alloc(32).unwrap();
            },
        );
        assert!(events[0] > 0);
    }

    #[test]
    fn an_aligned_allocation_is_two_levels_and_its_switch_rides_the_callers() {
        let (pmem, h) = heap(4096);
        h.alloc(16).unwrap(); // misalign the free space: a front and a tail
        let before = pmem.stats().snapshot();
        let mut level = Level::default();
        let a = h.alloc_aligned_in(200, 64, &mut level).unwrap();
        let d = pmem.stats().snapshot() - before;
        assert_eq!(d.persists, 2, "the interior headers, awaited");
        assert_eq!(
            pmem.inflight_tickets(),
            1,
            "the switch, in the caller's level"
        );
        pmem.fill(a, 0xAB, 200).unwrap();
        level.issue(&pmem, a, 200).unwrap();
        level.await_all().unwrap();
        let d = pmem.stats().snapshot() - before;
        assert_eq!((d.persists, d.async_flushes), (4, 4));
        h.check_consistency().unwrap();
    }

    #[test]
    fn alloc_aligned_in_cut_at_every_event_leaves_the_block_free_or_used_whole() {
        // The allocation both interior headers precede (a front and a
        // tail), then its switch and the block's fill in one level. Cut
        // at every event, keeping no dirty line, every one or a seeded
        // half: the heap reopens clean, and the block is either inside
        // free space (the same allocation is granted again) or a used
        // block of its full size.
        let probe = || {
            let (pmem, h) = heap(4096);
            h.alloc(16).unwrap();
            (pmem, h)
        };
        let run = |pmem: &PMem, h: &PHeap| -> Result<POffset, HeapError> {
            let mut level = Level::default();
            let off = h.alloc_aligned_in(200, 64, &mut level)?;
            pmem.fill(off, 0xAB, 200)?;
            level.issue(pmem, off, 200)?;
            level.await_all()?;
            Ok(off)
        };
        let (pmem, h) = probe();
        let want = run(&pmem, &h).unwrap();
        let len = h.payload_len(want).unwrap();

        // Per survivor choice: [left free, used whole].
        let mut seen = [[false; 2]; Survivors::EVERY.len()];
        sweep(
            probe,
            |(pmem, h)| run(pmem, h),
            |(pmem, _), cut| {
                let h2 = PHeap::open(pmem, POffset::new(0)).unwrap();
                h2.check_consistency()
                    .unwrap_or_else(|e| panic!("{cut}: {e}"));
                let used = h2.payload_len(want);
                if !cut.returned() {
                    let choice = Survivors::EVERY.iter().position(|&s| s == cut.survivors);
                    seen[choice.unwrap()][usize::from(used.is_ok())] = true;
                }
                match used {
                    Ok(got) => assert_eq!(got, len, "{cut}: a used block, whole"),
                    Err(_) => assert_eq!(h2.alloc_aligned(200, 64).unwrap(), want, "{cut}"),
                }
            },
        );
        for (survivors, seen) in Survivors::EVERY.iter().zip(seen) {
            assert!(
                seen[0],
                "survivors {survivors:?}: no cut left the block free"
            );
            let kept = *survivors != Survivors::None;
            assert_eq!(seen[1], kept, "survivors {survivors:?}: a kept switch");
        }
    }

    #[test]
    fn stats_track_usage() {
        let (_, h) = heap(4096);
        let s0 = h.stats();
        assert_eq!(s0.used_blocks, 0);
        let a = h.alloc(100).unwrap();
        let s1 = h.stats();
        assert_eq!(s1.used_blocks, 1);
        assert!(s1.used_payload_bytes >= 100);
        assert!(s1.free_payload_bytes < s0.free_payload_bytes);
        h.free(a).unwrap();
        assert_eq!(h.stats(), s0);
    }

    #[test]
    fn payload_len_errors_on_stale_offset() {
        let (_, h) = heap(4096);
        let a = h.alloc(32).unwrap();
        h.free(a).unwrap();
        assert!(h.payload_len(a).is_err());
    }

    #[test]
    fn contains_checks_range() {
        let (_, h) = heap(4096);
        let a = h.alloc(32).unwrap();
        assert!(h.contains(a));
        assert!(!h.contains(POffset::new(1 << 40)));
        assert!(!h.contains(POffset::NULL));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use pstack_nvram::PMemBuilder;

    #[derive(Debug, Clone)]
    enum Op {
        Alloc(usize),
        Free(usize), // index into live allocations, modulo
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1usize..200).prop_map(Op::Alloc),
            (0usize..16).prop_map(Op::Free),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random alloc/free interleavings keep the heap consistent,
        /// never hand out overlapping blocks, and survive reopen.
        #[test]
        fn random_alloc_free_is_consistent(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let pmem = PMemBuilder::new().len(16 * 1024).build_in_memory();
            let h = PHeap::format(pmem.clone(), POffset::new(0), 16 * 1024).unwrap();
            let mut live: Vec<(POffset, usize)> = Vec::new();
            for op in ops {
                match op {
                    Op::Alloc(n) => {
                        if let Ok(o) = h.alloc(n) {
                            // Overlap check against all live blocks.
                            for (other, m) in &live {
                                let a0 = o.get();
                                let a1 = a0 + n as u64;
                                let b0 = other.get();
                                let b1 = b0 + *m as u64;
                                prop_assert!(a1 <= b0 || b1 <= a0,
                                    "overlap: [{a0:#x},{a1:#x}) vs [{b0:#x},{b1:#x})");
                            }
                            live.push((o, n));
                        }
                    }
                    Op::Free(i) => {
                        if !live.is_empty() {
                            let (o, _) = live.swap_remove(i % live.len());
                            h.free(o).unwrap();
                        }
                    }
                }
                h.check_consistency().unwrap();
            }
            // Survives a clean crash/reopen with all metadata intact.
            pmem.crash_now(1, 0.0);
            let pmem2 = pmem.reopen().unwrap();
            let h2 = PHeap::open(pmem2, POffset::new(0)).unwrap();
            h2.check_consistency().unwrap();
            for (o, _) in &live {
                h2.free(*o).unwrap();
            }
            prop_assert_eq!(h2.stats().used_blocks, 0);
            prop_assert_eq!(h2.stats().free_blocks, 1);
        }
    }
}
