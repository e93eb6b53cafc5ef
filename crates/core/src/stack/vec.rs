//! Dynamically resizable persistent stack (Appendix A.2 of the paper).
//!
//! A [`FixedStack`] over one heap block, plus a single persistent
//! pointer (an offset, per §4.1) to that block. Growing or shrinking
//! allocates a new block, copies the live frames, flushes the copy,
//! and then *swings the pointer* with one 8-byte persist —
//! crash-atomic, because an 8-aligned word never crosses a cache line.
//! A crash before the swing leaves the old block authoritative; a crash
//! between the swing and the old block's deallocation leaks the old
//! block (the paper has the same window after its step 4).

use pstack_heap::PHeap;
use pstack_nvram::{FlushTicket, PMem, POffset};

use crate::frame::{FrameMeta, ORDINARY_OVERHEAD};
use crate::stack::{FixedStack, PersistentStack, ReturnSlot, StackKind};
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
    /// The stack over the current block.
    stack: FixedStack,
    heap: PHeap,
    hdr: POffset,
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
        let block = heap.alloc(initial_capacity.max(MIN_VEC_CAPACITY) as usize)?;
        let stack = FixedStack::format(pmem.clone(), block, heap.payload_len(block)?)?;
        pmem.write_u64(hdr, VEC_MAGIC)?;
        pmem.write_u64(hdr + 8u64, block.get())?;
        pmem.flush(hdr, 16)?;
        Ok(VecStack {
            stack,
            heap,
            hdr,
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
        Ok(VecStack {
            stack: FixedStack::open(pmem, block, capacity)?,
            heap,
            hdr,
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
        self.stack.capacity()
    }

    /// Number of block relocations (grows and shrinks) this handle has
    /// performed — the Appendix A.2 cost the benchmarks measure.
    #[must_use]
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// The capacity a pop leaving `used` bytes live shrinks the block
    /// to, if it shrinks it at all.
    fn shrink_to(&self, used: u64) -> Option<u64> {
        let capacity = self.capacity();
        (self.shrink && capacity > SHRINK_RATIO * used && capacity / 2 >= MIN_VEC_CAPACITY)
            .then(|| (capacity / 2).max(used))
    }

    /// Moves the stack to a new block of at least `new_capacity` bytes:
    /// copy, flush, swing the header pointer (atomic), free the old
    /// block, rebase the stack.
    fn relocate(&mut self, new_capacity: u64) -> Result<(), PError> {
        let (pmem, old_block) = (self.stack.pmem(), self.stack.base());
        let used = self.stack.used_bytes();
        debug_assert!(new_capacity >= used);
        let new_block = self.heap.alloc(new_capacity as usize)?;
        let data = pmem.read_vec(old_block, used as usize)?;
        pmem.write(new_block, &data)?;
        pmem.flush(new_block, used as usize)?;
        // The atomic pointer swing: after this single 8-byte persist the
        // new block is authoritative; before it, the old one is.
        pmem.write_u64(self.hdr + 8u64, new_block.get())?;
        pmem.flush(self.hdr + 8u64, 8)?;
        // Crash exactly here leaks the old block — same window as the
        // paper's "after that, we deallocate the old block".
        self.heap.free(old_block)?;
        let capacity = self.heap.payload_len(new_block)?;
        self.stack.rebase(new_block, capacity);
        self.relocations += 1;
        Ok(())
    }
}

impl PersistentStack for VecStack {
    fn kind(&self) -> StackKind {
        StackKind::Vec
    }

    fn push_issued(&mut self, func_id: u64, args: &[u8]) -> Result<Option<FlushTicket>, PError> {
        let (used, capacity) = (self.used_bytes(), self.capacity());
        let need = ORDINARY_OVERHEAD + args.len() as u64;
        if used + need > capacity {
            // The copy is of the popped frames, and the pointer swing
            // makes it durable: a retired pop is durable with it, and
            // nothing of it is left in the old block to flush.
            self.relocate((capacity * 2).max(used + need).max(MIN_VEC_CAPACITY))?;
        }
        self.stack.push_issued(func_id, args)
    }

    fn pop_with(&mut self, completion: Option<ReturnSlot>) -> Result<(), PError> {
        self.stack.pop_with(completion)?;
        if let Some(capacity) = self.shrink_to(self.used_bytes()) {
            self.relocate(capacity)?;
        }
        Ok(())
    }

    fn retire(&mut self, completion: ReturnSlot) -> Result<(), PError> {
        // A pop that shrinks the block copies it: that pop is persisted.
        if self.depth() != 1 || self.shrink_to(ORDINARY_OVERHEAD).is_some() {
            return self.pop_with(Some(completion));
        }
        self.stack.retire(completion)
    }

    fn frame_count(&self) -> usize {
        self.stack.frame_count()
    }

    fn pmem(&self) -> &PMem {
        self.stack.pmem()
    }

    fn frame_meta(&self, index: usize) -> Result<FrameMeta, PError> {
        self.stack.frame_meta(index)
    }

    fn check_consistency(&self) -> Result<(), PError> {
        let block = POffset::new(self.pmem().read_u64(self.hdr + 8u64)?);
        if block != self.stack.base() {
            return Err(PError::CorruptStack(format!(
                "persistent block pointer {block} disagrees with handle {}",
                self.stack.base()
            )));
        }
        self.stack.check_consistency()
    }

    fn used_bytes(&self) -> u64 {
        self.stack.used_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, PMemBuilder};

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
        let events = sweep(
            || {
                let (pmem, _, s) = probe();
                (pmem, s)
            },
            |(_, s)| s.push(99, &[7u8; 64]), // forces relocation
            |(pmem, _), cut| {
                let heap = PHeap::open(pmem.clone(), POffset::new(64)).unwrap();
                let s2 = VecStack::open(pmem, heap, POffset::new(0))
                    .unwrap_or_else(|e| panic!("{cut}: {e}"));
                assert!(
                    s2.depth() == 3 || s2.depth() == 4,
                    "{cut} left depth {}",
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
            },
        );
        assert!(events[0] > 4, "relocation path should have many events");
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
