//! Dynamically resizable persistent stack (Appendix A.2 of the paper).
//!
//! Along with the frame area we keep a single persistent pointer (an
//! offset, per §4.1) to the heap block holding the stack data. Growing
//! or shrinking allocates a new block, copies the live frames, flushes
//! the copy, and then *swings the pointer* with one 8-byte persist —
//! crash-atomic, because an 8-aligned word never crosses a cache line.
//! A crash before the swing leaves the old block authoritative; a crash
//! between the swing and the old block's deallocation leaks the old
//! block (the paper has the same window after its step 4).

use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

use crate::frame::{encode_ordinary, FrameMeta, MARKER_STACK_END, ORDINARY_OVERHEAD};
use crate::registry::DUMMY_FUNC_ID;
use crate::stack::{
    persist_call, persist_ret, walk_contiguous, FlushPolicy, PersistentStack, ReturnSlot, StackKind,
};
use crate::PError;

const VEC_MAGIC: u64 = 0x5053_5645_4353_544B; // "PSVECSTK"

/// Smallest capacity a resizable stack will use or shrink to.
pub const MIN_VEC_CAPACITY: u64 = 64;

/// Shrink when `capacity > SHRINK_RATIO * used` (the paper suggests 4).
const SHRINK_RATIO: u64 = 4;

/// A persistent stack backed by one relocatable heap block.
///
/// The persistent footprint outside the block is a 16-byte header
/// (magic word + block offset) at a caller-chosen, 8-aligned location.
///
/// # Example
///
/// ```
/// use pstack_nvram::{PMemBuilder, POffset};
/// use pstack_heap::PHeap;
/// use pstack_core::stack::{PersistentStack, VecStack};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), POffset::new(64), (1 << 16) - 64)?;
/// let mut stack = VecStack::format(pmem, heap, POffset::new(0), 128)?;
/// for i in 0..100 {
///     stack.push(i, &[0u8; 32])?; // grows as needed
/// }
/// assert_eq!(stack.depth(), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VecStack {
    pmem: PMem,
    heap: PHeap,
    hdr: POffset,
    block: POffset,
    capacity: u64,
    /// Volatile frame index (absolute offsets into the current block),
    /// including the dummy frame; rebased on relocation.
    frames: Vec<FrameMeta>,
    shrink: bool,
    relocations: u64,
}

impl VecStack {
    /// Formats a fresh resizable stack: allocates the initial block from
    /// `heap`, writes the dummy frame, and persists the header at `hdr`.
    ///
    /// # Errors
    ///
    /// Heap exhaustion, invalid configuration, or NVRAM errors.
    pub fn format(
        pmem: PMem,
        heap: PHeap,
        hdr: POffset,
        initial_capacity: u64,
    ) -> Result<Self, PError> {
        if !hdr.is_aligned(8) {
            return Err(PError::InvalidConfig(format!(
                "vec-stack header at {hdr} must be 8-aligned for the atomic pointer swing"
            )));
        }
        let capacity = initial_capacity.max(MIN_VEC_CAPACITY);
        let block = heap.alloc(capacity as usize)?;
        let dummy = encode_ordinary(DUMMY_FUNC_ID, &[], MARKER_STACK_END)?;
        pmem.write(block, &dummy)?;
        pmem.flush(block, dummy.len())?;
        pmem.write_u64(hdr, VEC_MAGIC)?;
        pmem.write_u64(hdr + 8u64, block.get())?;
        pmem.flush(hdr, 16)?;
        let capacity = heap.payload_len(block)?;
        Ok(VecStack {
            pmem,
            heap,
            hdr,
            block,
            capacity,
            frames: vec![FrameMeta {
                start: block,
                func_id: DUMMY_FUNC_ID,
                args_len: 0,
            }],
            shrink: true,
            relocations: 0,
        })
    }

    /// Opens a previously formatted stack from its header. The heap
    /// must already be open (the block is a live heap allocation).
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on bad magic or unparseable frames.
    pub fn open(pmem: PMem, heap: PHeap, hdr: POffset) -> Result<Self, PError> {
        let magic = pmem.read_u64(hdr)?;
        if magic != VEC_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad vec-stack magic {magic:#x} at {hdr}"
            )));
        }
        let block = POffset::new(pmem.read_u64(hdr + 8u64)?);
        let capacity = heap.payload_len(block).map_err(|e| {
            PError::CorruptStack(format!(
                "vec-stack block {block} is not a live heap allocation: {e}"
            ))
        })?;
        let frames = walk_contiguous(&pmem, block, block + capacity)?;
        if frames[0].func_id != DUMMY_FUNC_ID {
            return Err(PError::CorruptStack(format!(
                "bottom frame of vec-stack at {block} is not the dummy frame"
            )));
        }
        Ok(VecStack {
            pmem,
            heap,
            hdr,
            block,
            capacity,
            frames,
            shrink: true,
            relocations: 0,
        })
    }

    /// Enables or disables shrinking on pop (enabled by default).
    pub fn set_shrink(&mut self, shrink: bool) {
        self.shrink = shrink;
    }

    /// Current block capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of block relocations (grows and shrinks) this handle has
    /// performed — the Appendix A.2 cost the benchmarks measure.
    #[must_use]
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    fn top(&self) -> &FrameMeta {
        self.frames.last().expect("dummy frame always present")
    }

    /// Moves the stack to a new block of at least `new_capacity` bytes:
    /// copy, flush, swing the header pointer (atomic), free the old
    /// block, rebase the volatile index.
    fn relocate(&mut self, new_capacity: u64) -> Result<(), PError> {
        let used = self.used_bytes();
        debug_assert!(new_capacity >= used);
        let new_block = self.heap.alloc(new_capacity as usize)?;
        let data = self.pmem.read_vec(self.block, used as usize)?;
        self.pmem.write(new_block, &data)?;
        self.pmem.flush(new_block, used as usize)?;
        // The atomic pointer swing: after this single 8-byte persist the
        // new block is authoritative; before it, the old one is.
        self.pmem.write_u64(self.hdr + 8u64, new_block.get())?;
        self.pmem.flush(self.hdr + 8u64, 8)?;
        // Crash exactly here leaks the old block — same window as the
        // paper's "after that, we deallocate the old block".
        self.heap.free(self.block)?;
        let delta_base = self.block;
        for meta in &mut self.frames {
            meta.start = new_block + meta.start.distance_from(delta_base);
        }
        self.block = new_block;
        self.capacity = self.heap.payload_len(new_block)?;
        self.relocations += 1;
        Ok(())
    }
}

impl PersistentStack for VecStack {
    fn kind(&self) -> StackKind {
        StackKind::Vec
    }

    fn push(&mut self, func_id: u64, args: &[u8]) -> Result<(), PError> {
        let need = ORDINARY_OVERHEAD + args.len() as u64;
        let used = self.used_bytes();
        if used + need > self.capacity {
            let new_cap = (self.capacity * 2).max(used + need).max(MIN_VEC_CAPACITY);
            self.relocate(new_cap)?;
        }
        let caller = *self.top();
        let new_start = caller.end();
        let buf = encode_ordinary(func_id, args, MARKER_STACK_END)?;
        persist_call(
            &self.pmem,
            &caller,
            None,
            (new_start, &buf),
            FlushPolicy::default(),
        )?;
        self.frames.push(FrameMeta {
            start: new_start,
            func_id,
            args_len: args.len() as u32,
        });
        Ok(())
    }

    fn pop_with(&mut self, completion: Option<ReturnSlot>) -> Result<(), PError> {
        if self.frames.len() < 2 {
            return Err(PError::StackEmpty);
        }
        let penult = self.frames[self.frames.len() - 2];
        persist_ret(&self.pmem, &penult, completion, FlushPolicy::default())?;
        self.frames.pop();
        if self.shrink {
            let used = self.used_bytes();
            if self.capacity > SHRINK_RATIO * used && self.capacity / 2 >= MIN_VEC_CAPACITY {
                self.relocate((self.capacity / 2).max(used))?;
            }
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
        self.frames.get(index).copied().ok_or_else(|| {
            PError::CorruptStack(format!(
                "frame index {index} out of range (frame count {})",
                self.frames.len()
            ))
        })
    }

    fn check_consistency(&self) -> Result<(), PError> {
        let block = POffset::new(self.pmem.read_u64(self.hdr + 8u64)?);
        if block != self.block {
            return Err(PError::CorruptStack(format!(
                "persistent block pointer {block} disagrees with handle {}",
                self.block
            )));
        }
        let walked = walk_contiguous(&self.pmem, self.block, self.block + self.capacity)?;
        if walked != self.frames {
            return Err(PError::CorruptStack(format!(
                "persistent walk found {} frames, volatile index has {}",
                walked.len(),
                self.frames.len()
            )));
        }
        Ok(())
    }

    fn used_bytes(&self) -> u64 {
        self.top().end().get() - self.block.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{FailPlan, PMemBuilder};

    fn setup(initial: u64) -> (PMem, PHeap, VecStack) {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(64), (1 << 18) - 64).unwrap();
        let s = VecStack::format(pmem.clone(), heap.clone(), POffset::new(0), initial).unwrap();
        (pmem, heap, s)
    }

    #[test]
    fn push_pop_round_trip() {
        let (_, _, mut s) = setup(128);
        s.push(1, b"one").unwrap();
        s.push(2, b"two").unwrap();
        assert_eq!(s.depth(), 2);
        s.check_consistency().unwrap();
        s.pop().unwrap();
        assert_eq!(s.frame_record(1).unwrap().args, b"one");
        s.check_consistency().unwrap();
    }

    #[test]
    fn growth_preserves_frames() {
        let (_, _, mut s) = setup(64);
        for i in 0..64u64 {
            s.push(i, &i.to_le_bytes()).unwrap();
        }
        assert!(s.relocations() > 0, "small initial capacity must grow");
        assert_eq!(s.depth(), 64);
        for i in 0..64u64 {
            let rec = s.frame_record(1 + i as usize).unwrap();
            assert_eq!(rec.func_id, i);
            assert_eq!(rec.args, i.to_le_bytes());
        }
        s.check_consistency().unwrap();
    }

    #[test]
    fn shrink_happens_after_mass_pop() {
        let (_, _, mut s) = setup(64);
        for i in 0..64u64 {
            s.push(i, &[0u8; 40]).unwrap();
        }
        let grown = s.capacity();
        for _ in 0..64 {
            s.pop().unwrap();
        }
        assert!(
            s.capacity() < grown,
            "capacity {} should shrink below {grown}",
            s.capacity()
        );
        s.check_consistency().unwrap();
    }

    #[test]
    fn shrink_can_be_disabled() {
        let (_, _, mut s) = setup(64);
        s.set_shrink(false);
        for i in 0..64u64 {
            s.push(i, &[0u8; 40]).unwrap();
        }
        let grown = s.capacity();
        for _ in 0..64 {
            s.pop().unwrap();
        }
        assert_eq!(s.capacity(), grown);
    }

    #[test]
    fn reopen_after_crash_sees_stack() {
        let (pmem, _, mut s) = setup(64);
        for i in 0..32u64 {
            s.push(i, b"payload").unwrap();
        }
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let heap2 = PHeap::open(pmem2.clone(), POffset::new(64)).unwrap();
        let s2 = VecStack::open(pmem2, heap2, POffset::new(0)).unwrap();
        assert_eq!(s2.depth(), 32);
        assert_eq!(s2.frame_record(32).unwrap().func_id, 31);
        s2.check_consistency().unwrap();
    }

    #[test]
    fn crash_point_enumeration_growth_push_is_atomic() {
        // The growth path contains the copy and the pointer swing; a
        // crash anywhere inside must leave either the old or the new
        // state, never a torn stack.
        let probe = || {
            let (pmem, heap, mut s) = setup(64);
            for i in 0..3u64 {
                s.push(i, &[0u8; 8]).unwrap();
            }
            (pmem, heap, s)
        };
        let (pmem, _, mut s) = probe();
        let e0 = pmem.events();
        s.push(99, &[7u8; 64]).unwrap(); // forces relocation
        let total = pmem.events() - e0;
        assert!(total > 4, "relocation path should have many events");

        for k in 0..total {
            let (pmem, _, mut s) = probe();
            pmem.arm_failpoint(FailPlan::after_events(k).with_survivors(k, 0.5));
            let err = s.push(99, &[7u8; 64]).unwrap_err();
            assert!(err.is_crash(), "event {k}");
            let pmem2 = pmem.reopen().unwrap();
            let heap2 = PHeap::open(pmem2.clone(), POffset::new(64)).unwrap();
            let s2 = VecStack::open(pmem2, heap2, POffset::new(0))
                .unwrap_or_else(|e| panic!("reopen failed after crash at event {k}: {e}"));
            assert!(
                s2.depth() == 3 || s2.depth() == 4,
                "crash at event {k} left depth {}",
                s2.depth()
            );
            if s2.depth() == 4 {
                let rec = s2.frame_record(4).unwrap();
                assert_eq!(rec.func_id, 99);
                assert_eq!(rec.args, vec![7u8; 64]);
            }
            // Old frames intact in every outcome.
            for i in 0..3u64 {
                assert_eq!(s2.frame_record(1 + i as usize).unwrap().func_id, i);
            }
            s2.check_consistency().unwrap();
        }
    }

    #[test]
    fn header_must_be_aligned() {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(64), (1 << 16) - 64).unwrap();
        assert!(matches!(
            VecStack::format(pmem, heap, POffset::new(3), 64),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn open_rejects_bad_magic() {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(64), (1 << 16) - 64).unwrap();
        assert!(matches!(
            VecStack::open(pmem, heap, POffset::new(0)),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn return_slots_survive_relocation() {
        // A slot written while a child is live survives relocation (it
        // is copied with its frame); the push that starts a child
        // clears its caller's slot, relocating or not.
        let (_, _, mut s) = setup(64);
        s.push(1, b"parent").unwrap();
        s.push(2, b"child").unwrap();
        s.set_ret(1, ReturnSlot::Value(*b"EIGHTbyt")).unwrap();
        s.set_ret(2, ReturnSlot::Unit).unwrap();
        s.push(3, &[0u8; 32]).unwrap();
        assert_eq!(s.ret(2).unwrap(), ReturnSlot::Empty, "3's caller");
        for i in 0..32u64 {
            s.push(10 + i, &[0u8; 32]).unwrap();
        }
        assert!(s.relocations() > 0);
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Value(*b"EIGHTbyt"));

        // A returning pop lands in the relocated caller's slot.
        s.set_shrink(false);
        while s.depth() > 2 {
            s.pop().unwrap();
        }
        s.pop_with(Some(ReturnSlot::Value(*b"from-two"))).unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Value(*b"from-two"));
        s.check_consistency().unwrap();
    }

    #[test]
    fn empty_pop_is_rejected() {
        let (_, _, mut s) = setup(64);
        assert!(matches!(s.pop(), Err(PError::StackEmpty)));
    }
}
