//! Linked-list-of-blocks persistent stack (Appendix A.3 of the paper).
//!
//! Frames live in heap blocks chained by *pointer frames* (`0xB`
//! preamble): when a frame does not fit in the current block, a new
//! block is allocated, the frame is written there, a pointer frame is
//! appended to the current block, and only then does the usual
//! end-marker flip linearize the push. Every block reserves headroom
//! for one pointer frame so the chain can always be extended.
//!
//! Each block starts with a 16-byte header: the offset of the previous
//! block (the paper's doubly-linked variant, used to find the
//! predecessor in O(1) on pop) and a magic word. A pop that empties the
//! top block flips the marker of the frame *before* the pointer frame
//! — atomically invalidating both the pointer frame and the whole top
//! block — and then deallocates the block. A crash between the flip
//! and the deallocation leaks the block, the same window the paper's
//! step 3 has.

use pstack_heap::PHeap;
use pstack_nvram::{FlushTicket, PMem, POffset};

use crate::frame::{
    encode_ordinary, encode_pointer, FrameMeta, MARKER_FRAME_END, MARKER_STACK_END,
    ORDINARY_OVERHEAD, POINTER_FRAME_LEN,
};
use crate::stack::{walk_frames, FrameIndex, PersistentStack, ReturnSlot, StackKind};
use crate::PError;

const LIST_MAGIC: u64 = 0x5053_4C49_5354_534B; // "PSLISTSK"
const LIST_BLOCK_MAGIC: u64 = 0x5053_424C_4F43_4B21; // "PSBLOCK!"

/// Bytes of per-block persistent metadata (prev offset + magic).
const BLOCK_HDR: u64 = 16;

/// Smallest usable block: header + dummy frame + pointer-frame headroom.
pub const MIN_LIST_BLOCK: u64 = BLOCK_HDR + ORDINARY_OVERHEAD + POINTER_FRAME_LEN;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    /// Heap payload offset of the block (its header starts here).
    payload: POffset,
    /// First offset past the block's usable bytes.
    limit: POffset,
    /// Index of the block's first frame; every block but the top one
    /// ends in a pointer frame to the next.
    first: usize,
}

/// A persistent stack spread over a linked list of heap blocks.
///
/// The persistent footprint outside the blocks is a 16-byte header
/// (magic word + first-block offset) at a caller-chosen location.
///
/// # Example
///
/// ```
/// use pstack_nvram::{PMemBuilder, POffset};
/// use pstack_heap::PHeap;
/// use pstack_core::stack::{ListStack, PersistentStack};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), POffset::new(64), (1 << 16) - 64)?;
/// let mut stack = ListStack::format(pmem, heap, POffset::new(0), 128)?;
/// for i in 0..50 {
///     stack.push(i, &[0u8; 16])?; // chains new blocks as needed
/// }
/// assert_eq!(stack.depth(), 50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ListStack {
    pmem: PMem,
    heap: PHeap,
    hdr: POffset,
    default_block: u64,
    /// Volatile block chain, bottom block first.
    blocks: Vec<Block>,
    index: FrameIndex,
    /// Blocks allocated (grown) and freed (shrunk) by this handle.
    blocks_chained: u64,
    blocks_released: u64,
}

impl ListStack {
    /// Formats a fresh list stack: allocates the first block, writes
    /// the dummy frame and persists the header at `hdr`.
    ///
    /// # Errors
    ///
    /// Heap exhaustion, invalid configuration, or NVRAM errors.
    pub fn format(
        pmem: PMem,
        heap: PHeap,
        hdr: POffset,
        default_block: u64,
    ) -> Result<Self, PError> {
        let default_block = default_block.max(MIN_LIST_BLOCK);
        let payload = heap.alloc(default_block as usize)?;
        write_block_header(&pmem, payload, POffset::NULL)?;
        let index = FrameIndex::format(&pmem, payload + BLOCK_HDR)?;
        pmem.write_u64(hdr, LIST_MAGIC)?;
        pmem.write_u64(hdr + 8u64, payload.get())?;
        pmem.flush(hdr, 16)?;
        let limit = payload + heap.payload_len(payload)?;
        Ok(ListStack {
            pmem,
            heap,
            hdr,
            default_block,
            blocks: vec![Block {
                payload,
                limit,
                first: 0,
            }],
            index,
            blocks_chained: 0,
            blocks_released: 0,
        })
    }

    /// Opens a previously formatted list stack from its header,
    /// re-walking the whole chain.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on bad magic, a broken chain, or
    /// unparseable frames.
    pub fn open(pmem: PMem, heap: PHeap, hdr: POffset) -> Result<Self, PError> {
        let magic = pmem.read_u64(hdr)?;
        if magic != LIST_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad list-stack magic {magic:#x} at {hdr}"
            )));
        }
        let first = POffset::new(pmem.read_u64(hdr + 8u64)?);
        let (blocks, frames) = walk_chain(&pmem, &heap, first)?;
        // Infer the default block size from the first block.
        let default_block = blocks[0].limit.distance_from(blocks[0].payload);
        Ok(ListStack {
            index: FrameIndex::open(frames)?,
            pmem,
            heap,
            hdr,
            default_block,
            blocks,
            blocks_chained: 0,
            blocks_released: 0,
        })
    }

    /// Number of blocks currently in the chain.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks chained (allocated) by this handle since it was opened.
    #[must_use]
    pub fn blocks_chained(&self) -> u64 {
        self.blocks_chained
    }

    /// Blocks released (freed) by this handle since it was opened.
    #[must_use]
    pub fn blocks_released(&self) -> u64 {
        self.blocks_released
    }

    fn top_block(&self) -> Block {
        *self.blocks.last().expect("chain keeps its first block")
    }
}

fn write_block_header(pmem: &PMem, payload: POffset, prev: POffset) -> Result<(), PError> {
    pmem.write_u64(payload, prev.get())?;
    pmem.write_u64(payload + 8u64, LIST_BLOCK_MAGIC)?;
    pmem.flush(payload, BLOCK_HDR as usize)?;
    Ok(())
}

/// The block at `payload`, checked to be a live heap allocation (before
/// any arithmetic on the offset: a pointer frame may name the null
/// one) whose header names `prev` as the block before it.
fn read_block(
    pmem: &PMem,
    heap: &PHeap,
    payload: POffset,
    prev: POffset,
    first: usize,
) -> Result<Block, PError> {
    let len = heap.payload_len(payload).map_err(|e| {
        PError::CorruptStack(format!(
            "list-stack block {payload} is not a live heap allocation: {e}"
        ))
    })?;
    let magic = pmem.read_u64(payload + 8u64)?;
    if magic != LIST_BLOCK_MAGIC {
        return Err(PError::CorruptStack(format!(
            "bad block magic {magic:#x} at {payload}"
        )));
    }
    let recorded = POffset::new(pmem.read_u64(payload)?);
    if recorded != prev {
        return Err(PError::CorruptStack(format!(
            "block at {payload} records prev {recorded}, expected {prev}"
        )));
    }
    Ok(Block {
        payload,
        limit: payload + len,
        first,
    })
}

fn walk_chain(
    pmem: &PMem,
    heap: &PHeap,
    first: POffset,
) -> Result<(Vec<Block>, Vec<FrameMeta>), PError> {
    let mut blocks = vec![read_block(pmem, heap, first, POffset::NULL, 0)?];
    let mut frames = Vec::new();
    let mut pos = first + BLOCK_HDR;
    loop {
        let block = blocks[blocks.len() - 1];
        let Some((_, next)) = walk_frames(pmem, pos, block.limit, &mut frames)? else {
            return Ok((blocks, frames));
        };
        blocks.push(read_block(pmem, heap, next, block.payload, frames.len())?);
        pos = next + BLOCK_HDR;
    }
}

impl PersistentStack for ListStack {
    fn kind(&self) -> StackKind {
        StackKind::List
    }

    fn push_issued(&mut self, func_id: u64, args: &[u8]) -> Result<Option<FlushTicket>, PError> {
        let frame = encode_ordinary(func_id, args, MARKER_STACK_END)?;
        let need = frame.len() as u64;
        let block = self.top_block();
        if self.index.top().end().get() + need + POINTER_FRAME_LEN <= block.limit.get() {
            // Fits in the current block: §3.4 protocol verbatim.
            return self.index.call(&self.pmem, func_id, &frame, None);
        }
        // Chain a new block (Appendix A.3): everything below is
        // invisible until the old top's marker flips.
        let block_len = self.default_block.max(BLOCK_HDR + need + POINTER_FRAME_LEN);
        let payload = self.heap.alloc(block_len as usize)?;
        write_block_header(&self.pmem, payload, block.payload)?;
        // Linearization: the old top's marker flip, once the frame in
        // the new block and the pointer frame that leads to it are
        // durable (the pointer frame usually shares the flip's line).
        let pointer = encode_pointer(payload, MARKER_FRAME_END);
        let chained = Some((payload + BLOCK_HDR, pointer.as_slice()));
        let ticket = self.index.call(&self.pmem, func_id, &frame, chained)?;
        self.blocks.push(Block {
            payload,
            limit: payload + self.heap.payload_len(payload)?,
            first: self.index.frames().len() - 1,
        });
        self.blocks_chained += 1;
        Ok(ticket)
    }

    fn pop_with(&mut self, completion: Option<ReturnSlot>) -> Result<(), PError> {
        // Flip the penultimate frame's marker: if the top frame was the
        // only one in its block, this single byte atomically invalidates
        // the pointer frame *and* the whole top block (Fig. 8).
        self.index.ret(&self.pmem, completion)?;
        let dead = self.top_block();
        if dead.first == self.index.frames().len() {
            // Crash here leaks the unreachable block; same window as
            // the paper's deallocation step.
            self.blocks.pop();
            self.heap.free(dead.payload)?;
            self.blocks_released += 1;
        }
        Ok(())
    }

    fn retire(&mut self, completion: ReturnSlot) -> Result<(), PError> {
        // A pop that empties a block frees it: that pop is persisted.
        if self.blocks.len() > 1 || !self.index.retire(&self.pmem, completion)? {
            return self.pop_with(Some(completion));
        }
        Ok(())
    }

    fn frame_count(&self) -> usize {
        self.index.frames().len()
    }

    fn pmem(&self) -> &PMem {
        &self.pmem
    }

    fn frame_meta(&self, index: usize) -> Result<FrameMeta, PError> {
        self.index.get(index)
    }

    fn check_consistency(&self) -> Result<(), PError> {
        let first = POffset::new(self.pmem.read_u64(self.hdr + 8u64)?);
        let (blocks, frames) = walk_chain(&self.pmem, &self.heap, first)?;
        if blocks != self.blocks {
            return Err(PError::CorruptStack(format!(
                "persistent chain has {} blocks, volatile index has {}",
                blocks.len(),
                self.blocks.len()
            )));
        }
        self.index.check(&frames)
    }

    fn used_bytes(&self) -> u64 {
        let frame_bytes: u64 = self.index.frames().iter().map(FrameMeta::total_len).sum();
        frame_bytes + (self.blocks.len() as u64 - 1) * POINTER_FRAME_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, Cut, PMemBuilder};

    fn setup(block: u64) -> (PMem, PHeap, ListStack) {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(64), (1 << 18) - 64).unwrap();
        let s = ListStack::format(pmem.clone(), heap.clone(), POffset::new(0), block).unwrap();
        (pmem, heap, s)
    }

    #[test]
    fn push_pop_within_one_block() {
        let (_, _, mut s) = setup(4096);
        s.push(1, b"one").unwrap();
        s.push(2, b"two").unwrap();
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.depth(), 2);
        s.check_consistency().unwrap();
        s.pop().unwrap();
        assert_eq!(s.frame_record(1).unwrap().args, b"one");
        s.check_consistency().unwrap();
    }

    #[test]
    fn chain_grows_and_shrinks() {
        let (_, _, mut s) = setup(96);
        for i in 0..30u64 {
            s.push(i, &[0u8; 24]).unwrap();
        }
        assert!(s.block_count() > 1, "small blocks must chain");
        assert!(s.blocks_chained() > 0);
        assert_eq!(s.depth(), 30);
        s.check_consistency().unwrap();
        for i in (0..30u64).rev() {
            assert_eq!(s.frame_record(s.top_index()).unwrap().func_id, i);
            s.pop().unwrap();
        }
        assert_eq!(s.block_count(), 1, "chain shrinks back to one block");
        assert!(s.blocks_released() > 0);
        assert_eq!(s.depth(), 0);
        s.check_consistency().unwrap();
    }

    #[test]
    fn oversized_frame_gets_dedicated_block() {
        let (_, _, mut s) = setup(96);
        s.push(1, &[0xAAu8; 500]).unwrap();
        assert_eq!(s.block_count(), 2);
        assert_eq!(s.frame_record(1).unwrap().args, vec![0xAAu8; 500]);
        s.pop().unwrap();
        assert_eq!(s.block_count(), 1);
        s.check_consistency().unwrap();
    }

    #[test]
    fn reopen_after_crash_sees_multi_block_stack() {
        let (pmem, _, mut s) = setup(96);
        for i in 0..20u64 {
            s.push(i, &[0u8; 24]).unwrap();
        }
        let blocks = s.block_count();
        assert!(blocks > 1);
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let heap2 = PHeap::open(pmem2.clone(), POffset::new(64)).unwrap();
        let s2 = ListStack::open(pmem2, heap2, POffset::new(0)).unwrap();
        assert_eq!(s2.depth(), 20);
        assert_eq!(s2.block_count(), blocks);
        for i in 0..20u64 {
            assert_eq!(s2.frame_record(1 + i as usize).unwrap().func_id, i);
        }
        s2.check_consistency().unwrap();
    }

    #[test]
    fn crash_point_enumeration_chaining_push_is_atomic() {
        let probe = || {
            let (pmem, heap, mut s) = setup(96);
            s.push(1, &[0u8; 24]).unwrap();
            s.push(2, &[0u8; 24]).unwrap();
            (pmem, heap, s)
        };
        // The third push must chain a new block.
        let (_, _, mut s) = probe();
        s.push(3, &[0u8; 24]).unwrap();
        assert!(s.block_count() > 1, "third push should chain");
        let events = sweep(
            || {
                let (pmem, _, s) = probe();
                (pmem, s)
            },
            |(_, s)| s.push(3, &[0u8; 24]),
            |(pmem, _), cut| {
                let s2 = reopen(pmem, cut);
                assert!(
                    s2.depth() == 2 || s2.depth() == 3,
                    "{cut} left depth {}",
                    s2.depth()
                );
                if s2.depth() == 3 {
                    assert_eq!(s2.frame_record(3).unwrap().func_id, 3);
                }
                s2.check_consistency().unwrap();
            },
        );
        assert_eq!(events, [14], "a chaining push's events");
    }

    #[test]
    fn crash_point_enumeration_cross_block_pop_is_atomic() {
        let probe = || {
            let (pmem, _, mut s) = setup(96);
            s.push(1, &[0u8; 24]).unwrap();
            s.push(2, &[0u8; 24]).unwrap();
            s.push(3, &[0u8; 24]).unwrap();
            assert!(s.block_count() > 1);
            (pmem, s)
        };
        let events = sweep(
            probe,
            |(_, s)| s.pop(),
            |(pmem, _), cut| {
                let s2 = reopen(pmem, cut);
                assert!(
                    s2.depth() == 2 || s2.depth() == 3,
                    "{cut} left depth {}",
                    s2.depth()
                );
                s2.check_consistency().unwrap();
            },
        );
        assert_eq!(events, [6], "a cross-block pop's events");
    }

    /// The stack and its heap, reopened after `cut`.
    fn reopen(pmem: PMem, cut: &Cut) -> ListStack {
        let heap = PHeap::open(pmem.clone(), POffset::new(64)).unwrap();
        ListStack::open(pmem, heap, POffset::new(0)).unwrap_or_else(|e| panic!("{cut}: {e}"))
    }

    #[test]
    fn open_rejects_bad_magic() {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(64), (1 << 16) - 64).unwrap();
        assert!(matches!(
            ListStack::open(pmem, heap, POffset::new(0)),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn open_refuses_a_pointer_frame_into_no_block() {
        // Bit 0 of the dummy's preamble reads it as a pointer frame whose
        // target is the dummy's function id, the null offset.
        let (pmem, heap, mut s) = setup(96);
        for i in 0..12u64 {
            s.push(i, &[0u8; 24]).unwrap();
        }
        assert!(s.block_count() > 3);
        let dummy = s.frame_meta(0).unwrap().start;
        pmem.write_u8(dummy, crate::frame::PREAMBLE_ORDINARY ^ 1)
            .unwrap();
        assert!(matches!(
            ListStack::open(pmem, heap, POffset::new(0)),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn return_slots_work_across_blocks() {
        let (_, _, mut s) = setup(96);
        s.push(1, &[0u8; 24]).unwrap();
        for i in 0..10u64 {
            s.push(10 + i, &[0u8; 24]).unwrap();
        }
        assert!(s.block_count() > 1);
        s.set_ret(1, ReturnSlot::Value(*b"crossblk")).unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Value(*b"crossblk"));
        s.set_ret(5, ReturnSlot::Unit).unwrap();
        assert_eq!(s.ret(5).unwrap(), ReturnSlot::Unit);
    }

    #[test]
    fn empty_pop_is_rejected() {
        let (_, _, mut s) = setup(4096);
        assert!(matches!(s.pop(), Err(PError::StackEmpty)));
    }

    #[test]
    fn min_block_is_enforced() {
        let (_, _, s) = setup(1);
        // format clamps to MIN_LIST_BLOCK; the dummy frame fits.
        assert_eq!(s.depth(), 0);
        s.check_consistency().unwrap();
    }
}
