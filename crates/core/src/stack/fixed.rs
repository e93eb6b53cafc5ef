//! Fixed-capacity contiguous persistent stack (§3.3–3.4 of the paper).

use pstack_nvram::{FlushTicket, PMem, POffset};

use crate::frame::{encode_ordinary, FrameMeta, MARKER_STACK_END, ORDINARY_OVERHEAD};
use crate::stack::{walk_contiguous, FrameIndex, PersistentStack, ReturnSlot, StackKind};
use crate::PError;

/// A persistent stack in a contiguous NVRAM region of constant size.
///
/// # Example
///
/// ```
/// use pstack_nvram::{PMemBuilder, POffset};
/// use pstack_core::stack::{FixedStack, PersistentStack};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let pmem = PMemBuilder::new().len(4096).build_in_memory();
/// let mut stack = FixedStack::format(pmem, POffset::new(0), 4096)?;
/// stack.push(42, b"args")?;
/// assert_eq!(stack.depth(), 1);
/// assert_eq!(stack.frame_record(1)?.func_id, 42);
/// stack.pop()?;
/// assert_eq!(stack.depth(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FixedStack {
    pmem: PMem,
    base: POffset,
    capacity: u64,
    index: FrameIndex,
}

impl FixedStack {
    /// Formats a fresh stack over `[base, base + capacity)`, writing
    /// and flushing the dummy frame the paper requires at the bottom.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if the capacity cannot hold the dummy
    /// frame, or a propagated NVRAM error.
    pub fn format(pmem: PMem, base: POffset, capacity: u64) -> Result<Self, PError> {
        if capacity < ORDINARY_OVERHEAD {
            return Err(PError::InvalidConfig(format!(
                "stack capacity {capacity} cannot hold the dummy frame"
            )));
        }
        let index = FrameIndex::format(&pmem, base)?;
        Ok(FixedStack {
            pmem,
            base,
            capacity,
            index,
        })
    }

    /// Opens a previously formatted stack, rebuilding the volatile
    /// frame index from the persistent bytes (this is what a recovery
    /// boot does).
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] if the bytes do not parse as a dummy
    /// frame followed by well-formed frames ending in a stack-end
    /// marker within `capacity`.
    pub fn open(pmem: PMem, base: POffset, capacity: u64) -> Result<Self, PError> {
        let index = FrameIndex::open(walk_contiguous(&pmem, base, base + capacity)?)?;
        Ok(FixedStack {
            pmem,
            base,
            capacity,
            index,
        })
    }

    /// The stack's base offset.
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// The stack's capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Moves the stack to `[base, base + capacity)`, which holds a
    /// durable copy of its frames: a resizable stack's relocation.
    pub(super) fn rebase(&mut self, base: POffset, capacity: u64) {
        self.index.rebase(self.base, base);
        self.base = base;
        self.capacity = capacity;
    }
}

impl PersistentStack for FixedStack {
    fn kind(&self) -> StackKind {
        StackKind::Fixed
    }

    fn push_issued(&mut self, func_id: u64, args: &[u8]) -> Result<Option<FlushTicket>, PError> {
        let frame = encode_ordinary(func_id, args, MARKER_STACK_END)?;
        let (needed, available) = (
            frame.len() as u64,
            (self.base + self.capacity).distance_from(self.index.top().end()),
        );
        if needed > available {
            return Err(PError::StackOverflow { needed, available });
        }
        self.index.call(&self.pmem, func_id, &frame, None)
    }

    fn pop_with(&mut self, completion: Option<ReturnSlot>) -> Result<(), PError> {
        self.index.ret(&self.pmem, completion)
    }

    fn retire(&mut self, completion: ReturnSlot) -> Result<(), PError> {
        if !self.index.retire(&self.pmem, completion)? {
            self.pop_with(Some(completion))?;
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
        self.index.check(&walk_contiguous(
            &self.pmem,
            self.base,
            self.base + self.capacity,
        )?)
    }

    fn used_bytes(&self) -> u64 {
        self.index.top().end().distance_from(self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::FlushPolicy;
    use pstack_nvram::{sweep, FailPlan, MemError, PMemBuilder};

    fn stack(cap: u64) -> (PMem, FixedStack) {
        let pmem = PMemBuilder::new().len(cap as usize + 64).build_in_memory();
        let s = FixedStack::format(pmem.clone(), POffset::new(0), cap).unwrap();
        (pmem, s)
    }

    #[test]
    fn push_pop_depth() {
        let (_, mut s) = stack(1024);
        assert_eq!(s.depth(), 0);
        s.push(1, b"a").unwrap();
        s.push(2, b"bb").unwrap();
        assert_eq!(s.depth(), 2);
        assert_eq!(s.frame_record(2).unwrap().func_id, 2);
        assert_eq!(s.frame_record(2).unwrap().args, b"bb");
        s.pop().unwrap();
        assert_eq!(s.depth(), 1);
        assert_eq!(s.frame_record(1).unwrap().func_id, 1);
        s.check_consistency().unwrap();
    }

    #[test]
    fn pop_on_empty_is_rejected_and_dummy_survives() {
        let (_, mut s) = stack(1024);
        assert!(matches!(s.pop(), Err(PError::StackEmpty)));
        s.push(1, &[]).unwrap();
        s.pop().unwrap();
        assert!(matches!(s.pop(), Err(PError::StackEmpty)));
        s.check_consistency().unwrap();
    }

    #[test]
    fn overflow_reports_sizes() {
        let (_, mut s) = stack(64);
        // Dummy takes 23 bytes; a frame with 30-byte args takes 53 and
        // cannot fit in the remaining 41.
        match s.push(1, &[0u8; 30]) {
            Err(PError::StackOverflow { needed, available }) => {
                assert_eq!(needed, 53);
                assert_eq!(available, 41);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
        // The failed push must not have changed the stack.
        assert_eq!(s.depth(), 0);
        s.check_consistency().unwrap();
    }

    #[test]
    fn open_rebuilds_after_clean_crash() {
        let (pmem, mut s) = stack(1024);
        s.push(7, b"seven").unwrap();
        s.push(8, b"eight").unwrap();
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let s2 = FixedStack::open(pmem, POffset::new(0), 1024).unwrap();
        assert_eq!(s2.depth(), 2);
        assert_eq!(s2.frame_record(1).unwrap().args, b"seven");
        assert_eq!(s2.frame_record(2).unwrap().args, b"eight");
        s2.check_consistency().unwrap();
    }

    #[test]
    fn open_after_pop_sees_popped_frame_gone() {
        let (pmem, mut s) = stack(1024);
        s.push(7, b"x").unwrap();
        s.push(8, b"y").unwrap();
        s.pop().unwrap();
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let s2 = FixedStack::open(pmem, POffset::new(0), 1024).unwrap();
        assert_eq!(s2.depth(), 1);
        assert_eq!(s2.frame_record(1).unwrap().func_id, 7);
    }

    #[test]
    fn open_rejects_unformatted_region() {
        let pmem = PMemBuilder::new().len(1024).build_in_memory();
        assert!(matches!(
            FixedStack::open(pmem, POffset::new(0), 1024),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn open_rejects_missing_dummy() {
        let pmem = PMemBuilder::new().len(1024).build_in_memory();
        // A well-formed frame that is not the dummy.
        let buf = encode_ordinary(5, b"zz", MARKER_STACK_END).unwrap();
        pmem.write(POffset::new(0), &buf).unwrap();
        assert!(matches!(
            FixedStack::open(pmem, POffset::new(0), 1024),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn return_slot_round_trip() {
        let (_, mut s) = stack(1024);
        s.push(1, &[]).unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Empty);
        s.set_ret(1, ReturnSlot::Value([9u8; 8])).unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Value([9u8; 8]));
        s.set_ret(1, ReturnSlot::Unit).unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Unit);
        s.set_ret(1, ReturnSlot::Empty).unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Empty);
    }

    #[test]
    fn return_slot_survives_crash_when_flushed() {
        let (pmem, mut s) = stack(1024);
        s.push(1, &[]).unwrap();
        s.set_ret(0, ReturnSlot::Value(*b"RESULT!!")).unwrap();
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let s2 = FixedStack::open(pmem, POffset::new(0), 1024).unwrap();
        assert_eq!(s2.ret(0).unwrap(), ReturnSlot::Value(*b"RESULT!!"));
    }

    #[test]
    fn out_of_range_frame_index() {
        let (_, mut s) = stack(1024);
        assert!(s.frame_record(1).is_err());
        assert!(s.ret(5).is_err());
        assert!(s.set_ret(5, ReturnSlot::Unit).is_err());
    }

    #[test]
    fn deep_push_pop_round_trip() {
        let (_, mut s) = stack(64 * 1024);
        for i in 0..500u64 {
            s.push(i, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(s.depth(), 500);
        s.check_consistency().unwrap();
        for i in (0..500u64).rev() {
            assert_eq!(s.frame_record(s.top_index()).unwrap().func_id, i);
            s.pop().unwrap();
        }
        assert_eq!(s.depth(), 0);
        s.check_consistency().unwrap();
    }

    #[test]
    fn crash_before_marker_flip_hides_partial_frame() {
        // E3: a long frame (args far larger than one cache line) is cut
        // by a crash mid-flush. The stack must recover to its pre-push
        // state: the partial frame sits after the stack-end marker.
        let (pmem, mut s) = stack(8 * 1024);
        s.push(1, b"base").unwrap();
        // Frame writing is 1 write event; its flush covers multiple
        // lines. Crash after 3 events = during the frame flush, before
        // the marker flip.
        pmem.arm_failpoint(FailPlan::after_events(2).with_survivors(7, 0.5));
        let err = s.push(2, &[0xEE; 500]).unwrap_err();
        assert!(err.is_crash());
        let pmem = pmem.reopen().unwrap();
        let s2 = FixedStack::open(pmem, POffset::new(0), 8 * 1024).unwrap();
        assert_eq!(s2.depth(), 1, "partial frame must be invisible");
        assert_eq!(s2.frame_record(1).unwrap().args, b"base");
        s2.check_consistency().unwrap();
    }

    #[test]
    fn crash_point_enumeration_push_is_atomic() {
        // E1: for every persistence event inside push, a crash leaves
        // the stack in either the pre-push or the post-push state.
        let events = sweep(
            || stack(4 * 1024),
            |(_, s)| s.push(9, &[0xAB; 100]),
            |(pmem, _), cut| {
                let s2 = FixedStack::open(pmem, POffset::new(0), 4 * 1024)
                    .unwrap_or_else(|e| panic!("{cut}: {e}"));
                assert!(
                    s2.depth() == 0 || s2.depth() == 1,
                    "{cut} left depth {}",
                    s2.depth()
                );
                if s2.depth() == 1 {
                    // If the push linearized, the frame must be complete.
                    let rec = s2.frame_record(1).unwrap();
                    assert_eq!(rec.func_id, 9);
                    assert_eq!(rec.args, vec![0xAB; 100]);
                }
                s2.check_consistency().unwrap();
            },
        );
        assert!(
            events[0] >= 3,
            "write frame, flush frame, write+flush marker"
        );
    }

    #[test]
    fn crash_point_enumeration_pop_is_atomic() {
        // E2: same exhaustive treatment for pop.
        let probe = || {
            let (pmem, mut s) = stack(4 * 1024);
            s.push(1, b"one").unwrap();
            s.push(2, b"two").unwrap();
            (pmem, s)
        };
        let events = sweep(
            probe,
            |(_, s)| s.pop(),
            |(pmem, _), cut| {
                let s2 = FixedStack::open(pmem, POffset::new(0), 4 * 1024).unwrap();
                assert!(
                    s2.depth() == 1 || s2.depth() == 2,
                    "{cut} left depth {}",
                    s2.depth()
                );
                s2.check_consistency().unwrap();
            },
        );
        assert_eq!(events, [2], "pop is one marker write plus one flush");
    }

    #[test]
    fn violating_invariant_1_loses_frame() {
        // E4 / Fig. 6a: skip the frame flush before the marker flip.
        // With an adversarial crash that persists the marker's line but
        // drops the frame's lines, recovery sees garbage where the top
        // frame should be.
        let (pmem, mut s) = stack(4 * 1024);
        s.push(1, b"anchor").unwrap();
        // The new frame's bytes start past the old top frame. With args
        // of 200 bytes the frame spans lines that hold no other data, so
        // survival_prob 0 drops the frame but the marker flush already
        // persisted the flip.
        FlushPolicy {
            flush_frame_before_advance: false,
            flush_markers: true,
        }
        .during(|| s.push(2, &[0xCD; 200]))
        .unwrap();
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let result = FixedStack::open(pmem, POffset::new(0), 4 * 1024);
        // The flip is durable but the frame is not: the walk must fail
        // (zeros where frame 2 should be) — the frame was lost.
        assert!(
            matches!(result, Err(PError::CorruptStack(_))),
            "violating invariant 1 must corrupt recovery, got {result:?}"
        );
    }

    #[test]
    fn violating_invariant_2_misses_frame() {
        // E4 / Fig. 6b: skip the marker flush. The frame itself is
        // durable but the flip is not, so after a crash recovery does
        // not consider the new top frame part of the stack.
        let (pmem, mut s) = stack(4 * 1024);
        s.push(1, b"anchor").unwrap();
        FlushPolicy {
            flush_frame_before_advance: true,
            flush_markers: false,
        }
        .during(|| s.push(2, b"will-be-missed"))
        .unwrap();
        pmem.crash_now(0, 0.0);
        let pmem = pmem.reopen().unwrap();
        let s2 = FixedStack::open(pmem, POffset::new(0), 4 * 1024).unwrap();
        assert_eq!(
            s2.depth(),
            1,
            "violating invariant 2 must make recovery miss frame 2"
        );
        assert_eq!(s2.frame_record(1).unwrap().func_id, 1);
    }

    #[test]
    fn marker_flip_is_single_line_flush() {
        // E13: the linearization step of push and pop persists exactly
        // one cache line.
        let (pmem, mut s) = stack(4 * 1024);
        s.push(1, b"x").unwrap();
        let before = pmem.stats().snapshot();
        s.pop().unwrap();
        let d = pmem.stats().snapshot() - before;
        assert_eq!(d.lines_persisted, 1);
        assert_eq!(d.writes, 1);
        assert_eq!(d.bytes_written, 1);

        // So does the step that carries the return slot: a push that
        // clears it, a pop that fills it (slot and marker share line 0).
        let before = pmem.stats().snapshot();
        s.push(1, b"x").unwrap();
        s.pop_with(Some(ReturnSlot::Value(*b"returned"))).unwrap();
        let d = pmem.stats().snapshot() - before;
        assert_eq!((d.persists, d.lines_persisted), (2, 2));
        assert_eq!(s.ret(0).unwrap(), ReturnSlot::Value(*b"returned"));
    }

    #[test]
    fn push_flush_cost_scales_with_frame_lines() {
        let (pmem, mut s) = stack(16 * 1024);
        let before = pmem.stats().snapshot();
        s.push(1, &[0u8; 256]).unwrap();
        let d = pmem.stats().snapshot() - before;
        // 23 + 256 = 279 bytes spanning at least 5 lines, plus 1 marker line.
        assert!(d.lines_persisted >= 6, "persisted {}", d.lines_persisted);
        assert_eq!(d.flush_calls, 2, "frame flush + marker flush");
    }

    #[test]
    fn crashed_stack_propagates_crash_errors() {
        let (pmem, mut s) = stack(1024);
        pmem.crash_now(0, 0.0);
        assert!(matches!(
            s.push(1, &[]),
            Err(PError::Mem(MemError::Crashed))
        ));
    }
}
