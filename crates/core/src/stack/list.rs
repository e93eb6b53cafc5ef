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
use pstack_nvram::{PMem, POffset};

use crate::frame::{
    encode_ordinary, encode_pointer, parse_frame, FrameMeta, ParsedFrame, MARKER_FRAME_END,
    MARKER_STACK_END, ORDINARY_OVERHEAD, POINTER_FRAME_LEN,
};
use crate::registry::DUMMY_FUNC_ID;
use crate::stack::{
    persist_call, persist_ret, FlushPolicy, PersistentStack, ReturnSlot, StackKind,
};
use crate::PError;

const LIST_MAGIC: u64 = 0x5053_4C49_5354_534B; // "PSLISTSK"
const LIST_BLOCK_MAGIC: u64 = 0x5053_424C_4F43_4B21; // "PSBLOCK!"

/// Bytes of per-block persistent metadata (prev offset + magic).
const BLOCK_HDR: u64 = 16;

/// Smallest usable block: header + dummy frame + pointer-frame headroom.
pub const MIN_LIST_BLOCK: u64 = BLOCK_HDR + ORDINARY_OVERHEAD + POINTER_FRAME_LEN;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockInfo {
    /// Heap payload offset of the block (its header starts here).
    payload: POffset,
    /// First offset past the block's usable bytes.
    limit: POffset,
    /// Offset of the pointer frame chaining to the next block, if this
    /// is not the last block.
    pointer_frame: Option<POffset>,
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
    blocks: Vec<BlockInfo>,
    /// Volatile frame index: (block index, frame metadata), including
    /// the dummy frame at position 0.
    frames: Vec<(usize, FrameMeta)>,
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
        let dummy = encode_ordinary(DUMMY_FUNC_ID, &[], MARKER_STACK_END)?;
        pmem.write(payload + BLOCK_HDR, &dummy)?;
        pmem.flush(payload + BLOCK_HDR, dummy.len())?;
        pmem.write_u64(hdr, LIST_MAGIC)?;
        pmem.write_u64(hdr + 8u64, payload.get())?;
        pmem.flush(hdr, 16)?;
        let limit = payload + heap.payload_len(payload)?;
        Ok(ListStack {
            pmem,
            heap,
            hdr,
            default_block,
            blocks: vec![BlockInfo {
                payload,
                limit,
                pointer_frame: None,
            }],
            frames: vec![(
                0,
                FrameMeta {
                    start: payload + BLOCK_HDR,
                    func_id: DUMMY_FUNC_ID,
                    args_len: 0,
                },
            )],
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
        if frames[0].1.func_id != DUMMY_FUNC_ID {
            return Err(PError::CorruptStack(format!(
                "bottom frame of list stack at {first} is not the dummy frame"
            )));
        }
        // Infer the default block size from the first block.
        let default_block = blocks[0].limit.get() - blocks[0].payload.get();
        Ok(ListStack {
            pmem,
            heap,
            hdr,
            default_block,
            blocks,
            frames,
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

    fn top(&self) -> &(usize, FrameMeta) {
        self.frames.last().expect("dummy frame always present")
    }
}

fn write_block_header(pmem: &PMem, payload: POffset, prev: POffset) -> Result<(), PError> {
    pmem.write_u64(payload, prev.get())?;
    pmem.write_u64(payload + 8u64, LIST_BLOCK_MAGIC)?;
    pmem.flush(payload, BLOCK_HDR as usize)?;
    Ok(())
}

#[allow(clippy::type_complexity)]
fn walk_chain(
    pmem: &PMem,
    heap: &PHeap,
    first: POffset,
) -> Result<(Vec<BlockInfo>, Vec<(usize, FrameMeta)>), PError> {
    let mut blocks = Vec::new();
    let mut frames = Vec::new();

    let block_info = |payload: POffset, expect_prev: POffset| -> Result<BlockInfo, PError> {
        let magic = pmem.read_u64(payload + 8u64)?;
        if magic != LIST_BLOCK_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad block magic {magic:#x} at {payload}"
            )));
        }
        let prev = POffset::new(pmem.read_u64(payload)?);
        if prev != expect_prev {
            return Err(PError::CorruptStack(format!(
                "block at {payload} records prev {prev}, expected {expect_prev}"
            )));
        }
        let len = heap.payload_len(payload).map_err(|e| {
            PError::CorruptStack(format!(
                "list-stack block {payload} is not a live heap allocation: {e}"
            ))
        })?;
        Ok(BlockInfo {
            payload,
            limit: payload + len,
            pointer_frame: None,
        })
    };

    blocks.push(block_info(first, POffset::NULL)?);
    let mut pos = first + BLOCK_HDR;
    loop {
        let bidx = blocks.len() - 1;
        match parse_frame(pmem, pos, blocks[bidx].limit)? {
            ParsedFrame::Ordinary { meta, marker } => {
                pos = meta.end();
                frames.push((bidx, meta));
                if marker == MARKER_STACK_END {
                    break;
                }
            }
            ParsedFrame::Pointer {
                start,
                next_block,
                marker,
            } => {
                if marker == MARKER_STACK_END {
                    return Err(PError::CorruptStack(format!(
                        "pointer frame at {start} carries a stack-end marker"
                    )));
                }
                let cur_payload = blocks[bidx].payload;
                blocks[bidx].pointer_frame = Some(start);
                blocks.push(block_info(next_block, cur_payload)?);
                pos = next_block + BLOCK_HDR;
            }
        }
    }
    Ok((blocks, frames))
}

impl PersistentStack for ListStack {
    fn kind(&self) -> StackKind {
        StackKind::List
    }

    fn push(&mut self, func_id: u64, args: &[u8]) -> Result<(), PError> {
        let need = ORDINARY_OVERHEAD + args.len() as u64;
        let (top_bidx, top_meta) = *self.top();
        debug_assert_eq!(top_bidx, self.blocks.len() - 1, "top frame in last block");
        let tail = top_meta.end();
        let limit = self.blocks[top_bidx].limit;

        if tail.get() + need + POINTER_FRAME_LEN <= limit.get() {
            // Fits in the current block: §3.4 protocol verbatim.
            let buf = encode_ordinary(func_id, args, MARKER_STACK_END)?;
            persist_call(
                &self.pmem,
                &top_meta,
                None,
                (tail, &buf),
                FlushPolicy::default(),
            )?;
            self.frames.push((
                top_bidx,
                FrameMeta {
                    start: tail,
                    func_id,
                    args_len: args.len() as u32,
                },
            ));
            return Ok(());
        }

        // Chain a new block (Appendix A.3): everything below is
        // invisible until the old top's marker flips.
        let block_len = self.default_block.max(BLOCK_HDR + need + POINTER_FRAME_LEN);
        let new_payload = self.heap.alloc(block_len as usize)?;
        write_block_header(&self.pmem, new_payload, self.blocks[top_bidx].payload)?;
        let frame_start = new_payload + BLOCK_HDR;
        let buf = encode_ordinary(func_id, args, MARKER_STACK_END)?;
        let ptr = encode_pointer(new_payload, MARKER_FRAME_END);
        // Linearization: the old top's marker flip, once the frame in
        // the new block and the pointer frame that leads to it are
        // durable (the pointer frame usually shares the flip's line).
        persist_call(
            &self.pmem,
            &top_meta,
            Some((frame_start, &buf)),
            (tail, &ptr),
            FlushPolicy::default(),
        )?;

        let new_limit = new_payload + self.heap.payload_len(new_payload)?;
        self.blocks[top_bidx].pointer_frame = Some(tail);
        self.blocks.push(BlockInfo {
            payload: new_payload,
            limit: new_limit,
            pointer_frame: None,
        });
        self.frames.push((
            self.blocks.len() - 1,
            FrameMeta {
                start: frame_start,
                func_id,
                args_len: args.len() as u32,
            },
        ));
        self.blocks_chained += 1;
        Ok(())
    }

    fn pop_with(&mut self, completion: Option<ReturnSlot>) -> Result<(), PError> {
        if self.frames.len() < 2 {
            return Err(PError::StackEmpty);
        }
        let (top_bidx, _) = *self.top();
        let (penult_bidx, penult) = self.frames[self.frames.len() - 2];
        // Flip the penultimate frame's marker: if the top frame was the
        // only one in its block, this single byte atomically invalidates
        // the pointer frame *and* the whole top block (Fig. 8).
        persist_ret(&self.pmem, &penult, completion, FlushPolicy::default())?;
        self.frames.pop();
        if top_bidx != penult_bidx {
            // Crash here leaks the unreachable block; same window as
            // the paper's deallocation step.
            let dead = self.blocks.pop().expect("top block exists");
            self.heap.free(dead.payload)?;
            self.blocks
                .last_mut()
                .expect("chain keeps its first block")
                .pointer_frame = None;
            self.blocks_released += 1;
        }
        Ok(())
    }

    fn frame_count(&self) -> usize {
        self.frames.len()
    }

    fn pmem(&self) -> &PMem {
        &self.pmem
    }

    fn frame_meta(&self, index: usize) -> Result<FrameMeta, PError> {
        self.frames.get(index).map(|&(_, m)| m).ok_or_else(|| {
            PError::CorruptStack(format!(
                "frame index {index} out of range (frame count {})",
                self.frames.len()
            ))
        })
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
        if frames != self.frames {
            return Err(PError::CorruptStack(format!(
                "persistent walk found {} frames, volatile index has {}",
                frames.len(),
                self.frames.len()
            )));
        }
        Ok(())
    }

    fn used_bytes(&self) -> u64 {
        let frame_bytes: u64 = self.frames.iter().map(|(_, m)| m.total_len()).sum();
        let pointer_bytes: u64 = self
            .blocks
            .iter()
            .filter(|b| b.pointer_frame.is_some())
            .count() as u64
            * POINTER_FRAME_LEN;
        frame_bytes + pointer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{FailPlan, PMemBuilder};

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
        let (pmem, _, mut s) = probe();
        let e0 = pmem.events();
        s.push(3, &[0u8; 24]).unwrap();
        let chained = s.block_count() > 1;
        assert!(chained, "third push should chain");
        let total = pmem.events() - e0;

        for k in 0..total {
            let (pmem, _, mut s) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k).with_survivors(k, 0.5));
            let err = s.push(3, &[0u8; 24]).unwrap_err();
            assert!(err.is_crash(), "event {k}");
            let pmem2 = pmem.reopen().unwrap();
            let heap2 = PHeap::open(pmem2.clone(), POffset::new(64)).unwrap();
            let s2 = ListStack::open(pmem2, heap2, POffset::new(0))
                .unwrap_or_else(|e| panic!("reopen failed after crash at event {k}: {e}"));
            assert!(
                s2.depth() == 2 || s2.depth() == 3,
                "crash at event {k} left depth {}",
                s2.depth()
            );
            if s2.depth() == 3 {
                assert_eq!(s2.frame_record(3).unwrap().func_id, 3);
            }
            s2.check_consistency().unwrap();
        }
    }

    #[test]
    fn crash_point_enumeration_cross_block_pop_is_atomic() {
        let probe = || {
            let (pmem, heap, mut s) = setup(96);
            s.push(1, &[0u8; 24]).unwrap();
            s.push(2, &[0u8; 24]).unwrap();
            s.push(3, &[0u8; 24]).unwrap();
            assert!(s.block_count() > 1);
            (pmem, heap, s)
        };
        let (pmem, _, mut s) = probe();
        let e0 = pmem.events();
        s.pop().unwrap();
        let total = pmem.events() - e0;

        for k in 0..total {
            let (pmem, _, mut s) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k).with_survivors(k, 0.5));
            let err = s.pop().unwrap_err();
            assert!(err.is_crash(), "event {k}");
            let pmem2 = pmem.reopen().unwrap();
            let heap2 = PHeap::open(pmem2.clone(), POffset::new(64)).unwrap();
            let s2 = ListStack::open(pmem2, heap2, POffset::new(0))
                .unwrap_or_else(|e| panic!("reopen failed after crash at event {k}: {e}"));
            assert!(
                s2.depth() == 2 || s2.depth() == 3,
                "crash at event {k} left depth {}",
                s2.depth()
            );
            s2.check_consistency().unwrap();
        }
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
