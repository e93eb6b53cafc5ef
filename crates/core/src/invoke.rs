//! The invocation machinery: persistent `CALL`/`RET` (§3.2, §4.2).
//!
//! [`PContext::call`] is the persistent analogue of an x86 `CALL`:
//!
//! 1. `CALL` — [`PersistentStack::push`]: write the callee's frame past
//!    the stack end, then clear the caller's return slot and flip the
//!    caller's end marker, slot and marker in **one** persist;
//! 2. run the callee body;
//! 3. `RET` — [`PersistentStack::pop_with`]: store the small return
//!    value and the completion flag into the **caller's** slot (§4.2)
//!    and flip the caller's marker back, again in one persist.
//!
//! # What the two persists rest on
//!
//! §3.4 asks for two invariants: *flush the new frame before the stack
//! end moves* and *flush every end-marker flip*. A frame's tail is
//! `[ret_flag][ret_val][marker]`, ten adjacent bytes, and
//! [`PMem::flush`] persists a cache line atomically — so when slot and
//! marker share a line, the slot write and the flip are one destination
//! and one round-trip makes both durable or neither. Before that
//! round-trip a crash may still keep the line (the survivor lottery),
//! with whatever prefix of the stores it had taken; the store order is
//! therefore the order of dependence — frame → slot clear → flip for a
//! call, value → flag → flip for a return — and every prefix is a state
//! the protocol already had: *frame written but invisible*, *slot
//! cleared, child not started*, *completion recorded, frame not yet
//! popped*. The same order is what keeps an eager region (every store
//! durable as issued) correct with no second code path. The two states
//! that must never be durable are *pushed over a stale completion* (the
//! caller's recover dual would take an earlier child's result for this
//! child's) and *popped with the completion record lost* (the caller
//! would re-run a child that completed); each needs the flip durable
//! without a store issued before it in the same line, which a line
//! cannot do.
//!
//! When the new frame lies wholly in the caller's tail line — a root
//! task of up to ~40 argument bytes does: 23-byte dummy frame, stack
//! base 64-aligned — invariant 1 is vacuous: there is no moment at
//! which the flip is durable and the frame is not, because they are the
//! same line, and `CALL` is that one persist. Otherwise the frame is
//! flushed first, exactly §3.4 — in one flush with the slot clear,
//! which it neighbours and does not depend on — and `CALL` is two. A
//! `RET` whose caller's slot and marker straddle a line falls back to
//! slot-then-marker, two persists (three if the boundary runs through
//! the slot itself: value, flag, marker). Which case applies is decided
//! from the frame offsets and [`PMem::line_size`] alone, by the one
//! rule the three layouts share (`persist_in_order` in
//! [`crate::stack`]): a stage of stores rides the next stage's persist
//! when one line holds them both, and is flushed ahead of it when not.
//! There is no setting.
//!
//! A crash anywhere in this sequence leaves the stack describing
//! exactly the invocations that must be re-examined: recovery
//! ([`recover_stack`]) walks the frames top-to-bottom, invoking each
//! function's recover dual and completing it with the same `RET` step
//! (§4.3).
//!
//! Return values larger than 8 bytes go through the NVRAM heap instead:
//! the caller allocates a cell, passes its *offset* in the arguments
//! (offsets, never pointers — §4.1), and the callee persists the big
//! value there before returning. [`PContext`] exposes the heap for
//! exactly that pattern.
//!
//! [`PMem::flush`]: pstack_nvram::PMem::flush
//! [`PMem::line_size`]: pstack_nvram::PMem::line_size

use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

use crate::registry::FunctionRegistry;
use crate::stack::{PersistentStack, ReturnSlot};
use crate::PError;

/// Small return value transported through a frame's return slot (§4.2
/// limits these to 8 bytes; bigger results go through the heap).
pub type RetBytes = [u8; 8];

/// What a frame's return slot says about the most recently invoked
/// child of that frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildStatus {
    /// No completion recorded: the child either never linearized or its
    /// result write was lost — recovery must re-examine it.
    NotCompleted,
    /// The child completed; its return value (if any) is durable.
    Completed(Option<RetBytes>),
}

/// Execution context handed to every [`RecoverableFunction`]. Wraps the
/// worker's persistent stack together with the NVRAM region, heap,
/// registry and identity of the executing process.
///
/// [`RecoverableFunction`]: crate::registry::RecoverableFunction
pub struct PContext<'a> {
    /// The NVRAM region (cheap cloned handle).
    pub pmem: PMem,
    /// The persistent heap, for big return values and application data.
    pub heap: PHeap,
    /// Identity of the executing worker (the paper's process id `p`).
    pub pid: usize,
    registry: &'a FunctionRegistry,
    stack: &'a mut dyn PersistentStack,
    user_root: POffset,
}

impl std::fmt::Debug for PContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PContext")
            .field("pid", &self.pid)
            .field("depth", &self.stack.depth())
            .field("user_root", &self.user_root)
            .finish()
    }
}

impl<'a> PContext<'a> {
    /// Builds a context around a worker's stack.
    pub fn new(
        pmem: PMem,
        heap: PHeap,
        registry: &'a FunctionRegistry,
        stack: &'a mut dyn PersistentStack,
        pid: usize,
        user_root: POffset,
    ) -> Self {
        PContext {
            pmem,
            heap,
            pid,
            registry,
            stack,
            user_root,
        }
    }

    /// The application's persistent root offset (set via
    /// [`Runtime::set_user_root`](crate::runtime::Runtime::set_user_root)).
    #[must_use]
    pub fn user_root(&self) -> POffset {
        self.user_root
    }

    /// Current invocation depth (frames above the dummy frame).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.depth()
    }

    /// Invokes the registered function `func_id` with `args` as a
    /// nested persistent call: pushes a frame (clearing the caller's
    /// return slot with the marker flip), runs the body, and pops the
    /// frame with the return value stored into the caller's slot.
    ///
    /// # Errors
    ///
    /// * a propagated crash — the frame stays on the stack for recovery;
    /// * any application error — the frame is popped (*abort*: the
    ///   callee's partial effects are **not** rolled back; roll-back is
    ///   the application's job, as in the paper's transactional-loop
    ///   example) and the error propagates;
    /// * [`PError::UnknownFunction`] before anything is pushed.
    pub fn call(&mut self, func_id: u64, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let f = self.registry.get(func_id)?;
        // The push clears the caller's slot, so its recover dual can
        // tell "this child completed" from a stale completion record.
        self.stack.push(func_id, args)?;
        match f.call(self, args) {
            Ok(ret) => {
                self.finish_top_frame(ret)?;
                Ok(ret)
            }
            Err(e) if e.is_crash() => Err(e),
            Err(e) => {
                // Abort: unwind this frame so the stack stays balanced
                // for the caller.
                self.stack.pop()?;
                Err(e)
            }
        }
    }

    /// `RET`: pops the top frame with `ret` recorded in its caller's
    /// slot — the completion step shared by `call` and recovery.
    fn finish_top_frame(&mut self, ret: Option<RetBytes>) -> Result<(), PError> {
        self.stack
            .pop_with(Some(ret.map_or(ReturnSlot::Unit, ReturnSlot::Value)))
    }

    /// Reads the executing function's own return slot: did the child it
    /// most recently invoked complete? Recover duals use this to decide
    /// whether to re-invoke children.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn child_status(&self) -> Result<ChildStatus, PError> {
        let slot = self.stack.ret(self.stack.top_index())?;
        Ok(match slot.completion() {
            None => ChildStatus::NotCompleted,
            Some(v) => ChildStatus::Completed(v),
        })
    }

    /// Read-only view of the underlying stack (diagnostics, tests).
    #[must_use]
    pub fn stack(&self) -> &dyn PersistentStack {
        &*self.stack
    }
}

/// Statistics from recovering one worker stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackRecovery {
    /// Number of interrupted invocations whose recover dual ran.
    pub frames_recovered: usize,
}

/// Recovers one worker's stack (§4.3): repeatedly take the top frame,
/// invoke its function's recover dual with the original arguments, and
/// pop it with the recovered return value stored into the parent's slot
/// — until only the dummy frame remains.
///
/// Recover duals may push nested frames of their own; if a repeated
/// failure hits, the next recovery simply starts from the new top. A
/// frame popped by a completed recover dual is never recovered twice,
/// which is the paper's progress argument for repeated failures.
///
/// # Errors
///
/// A propagated crash (leaving the remaining frames for the next
/// recovery attempt), [`PError::UnknownFunction`] if a frame references
/// an unregistered function, or an application error from a recover
/// dual.
pub fn recover_stack(ctx: &mut PContext<'_>) -> Result<StackRecovery, PError> {
    let mut stats = StackRecovery::default();
    while ctx.stack.top_index() > 0 {
        let top = ctx.stack.top_index();
        let rec = ctx.stack.frame_record(top)?;
        let f = ctx.registry.get(rec.func_id)?;
        let ret = f.recover(ctx, &rec.args)?;
        // The recover dual returned balanced; its frame is again on top.
        ctx.finish_top_frame(ret)?;
        stats.frames_recovered += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FunctionRegistry;
    use crate::stack::FixedStack;
    use pstack_nvram::PMemBuilder;

    fn fixture() -> (PMem, PHeap, FixedStack) {
        let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(1 << 16), 1 << 16).unwrap();
        let stack = FixedStack::format(pmem.clone(), POffset::new(0), 16 * 1024).unwrap();
        (pmem, heap, stack)
    }

    fn ctx<'a>(
        pmem: &PMem,
        heap: &PHeap,
        registry: &'a FunctionRegistry,
        stack: &'a mut FixedStack,
    ) -> PContext<'a> {
        PContext::new(
            pmem.clone(),
            heap.clone(),
            registry,
            stack,
            0,
            POffset::new(1 << 17),
        )
    }

    #[test]
    fn call_balances_stack_and_returns_value() {
        let (pmem, heap, mut stack) = fixture();
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            1,
            |_c, args| {
                let x = u64::from_le_bytes(args[..8].try_into().unwrap());
                Ok(Some((x * 2).to_le_bytes()))
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        let ret = c.call(1, &21u64.to_le_bytes()).unwrap();
        assert_eq!(ret, Some(42u64.to_le_bytes()));
        assert_eq!(c.depth(), 0);
        // The dummy frame's slot holds the completion record.
        assert_eq!(
            c.child_status().unwrap(),
            ChildStatus::Completed(Some(42u64.to_le_bytes()))
        );
    }

    #[test]
    fn nested_calls_run_at_increasing_depth() {
        let (pmem, heap, mut stack) = fixture();
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            1,
            |c, _| {
                assert_eq!(c.depth(), 1);
                let inner = c.call(2, &[])?;
                assert_eq!(inner, Some(7u64.to_le_bytes()));
                assert_eq!(c.depth(), 1);
                Ok(None)
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        reg.register_pair(
            2,
            |c, _| {
                assert_eq!(c.depth(), 2);
                Ok(Some(7u64.to_le_bytes()))
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        c.call(1, &[]).unwrap();
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn a_value_returning_nested_call_is_three_persists() {
        // Once six (clear the caller's slot, frame, flip, value, flag,
        // pop flip): now the frame, then slot clear + flip, then value +
        // flag + pop flip. `call` adds nothing to the stack's two steps.
        let (pmem, heap, mut stack) = fixture();
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            1,
            |c, _| {
                let before = c.pmem.stats().snapshot();
                let v = c.call(2, &[7u8; 100])?;
                let d = c.pmem.stats().snapshot() - before;
                assert_eq!((d.persists, d.flush_calls), (3, 3));
                Ok(v)
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        reg.register_pair(2, |_c, _| Ok(Some(*b"8 bytes!")), |_c, _| Ok(None))
            .unwrap();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        let before = pmem.stats().snapshot();
        assert_eq!(c.call(1, &[]).unwrap(), Some(*b"8 bytes!"));
        // The root frame shares the dummy frame's line: CALL and RET
        // are one persist each around the nested three.
        let d = pmem.stats().snapshot() - before;
        assert_eq!((d.persists, d.redundant_persists), (5, 0));
    }

    #[test]
    fn unknown_function_pushes_nothing() {
        let (pmem, heap, mut stack) = fixture();
        let reg = FunctionRegistry::new();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        assert!(matches!(c.call(9, &[]), Err(PError::UnknownFunction(9))));
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn application_error_aborts_and_unwinds() {
        let (pmem, heap, mut stack) = fixture();
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            1,
            |_c, _| Err(PError::Task("boom".into())),
            |_c, _| Ok(None),
        )
        .unwrap();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        assert!(matches!(c.call(1, &[]), Err(PError::Task(_))));
        assert_eq!(c.depth(), 0, "aborted frame must be unwound");
        // The caller's slot still says "not completed".
        assert_eq!(c.child_status().unwrap(), ChildStatus::NotCompleted);
    }

    #[test]
    fn nested_application_error_unwinds_every_level() {
        let (pmem, heap, mut stack) = fixture();
        let mut reg = FunctionRegistry::new();
        reg.register_pair(1, |c, _| c.call(2, &[]), |_c, _| Ok(None))
            .unwrap();
        reg.register_pair(
            2,
            |_c, _| Err(PError::Task("inner".into())),
            |_c, _| Ok(None),
        )
        .unwrap();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        assert!(c.call(1, &[]).is_err());
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn crash_leaves_frames_for_recovery() {
        let (pmem, heap, mut stack) = fixture();
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            1,
            |c, _| {
                c.pmem.crash_now(0, 0.0);
                // The next access observes the crash.
                c.pmem.read_u8(POffset::new(0))?;
                unreachable!("read after crash must fail");
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        let err = c.call(1, &[]).unwrap_err();
        assert!(err.is_crash());
        // Frame intentionally left on the stack (volatile index still
        // knows it; the persistent bytes do too).
        assert_eq!(stack.depth(), 1);
    }

    #[test]
    fn recover_stack_completes_interrupted_work() {
        let (pmem, heap, mut stack) = fixture();
        // Build a stack with two interrupted frames by pushing manually.
        use crate::stack::PersistentStack;
        stack.push(1, &5u64.to_le_bytes()).unwrap();
        stack.push(2, &6u64.to_le_bytes()).unwrap();

        let mut reg = FunctionRegistry::new();
        // Each recover dual writes its argument into a distinct heap
        // cell so the test can observe the order of recovery.
        let cell = heap.alloc_zeroed(32).unwrap();
        let cell2 = cell;
        reg.register_pair(
            1,
            |_c, _| Ok(None),
            move |c, args| {
                // Runs second (bottom frame): child must be completed.
                assert_eq!(
                    c.child_status().unwrap(),
                    ChildStatus::Completed(Some(66u64.to_le_bytes()))
                );
                let x = u64::from_le_bytes(args[..8].try_into().unwrap());
                c.pmem.write_u64(cell2, x * 11)?;
                c.pmem.flush(cell2, 8)?;
                Ok(Some((x * 11).to_le_bytes()))
            },
        )
        .unwrap();
        let cell3 = cell;
        reg.register_pair(
            2,
            |_c, _| Ok(None),
            move |c, args| {
                let x = u64::from_le_bytes(args[..8].try_into().unwrap());
                c.pmem.write_u64(cell3 + 8u64, x * 11)?;
                c.pmem.flush(cell3 + 8u64, 8)?;
                Ok(Some((x * 11).to_le_bytes()))
            },
        )
        .unwrap();

        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        let stats = recover_stack(&mut c).unwrap();
        assert_eq!(stats.frames_recovered, 2);
        assert_eq!(c.depth(), 0);
        assert_eq!(pmem.read_u64(cell).unwrap(), 55);
        assert_eq!(pmem.read_u64(cell + 8u64).unwrap(), 66);
    }

    #[test]
    fn recover_stack_on_clean_stack_is_noop() {
        let (pmem, heap, mut stack) = fixture();
        let reg = FunctionRegistry::new();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        let stats = recover_stack(&mut c).unwrap();
        assert_eq!(stats.frames_recovered, 0);
    }

    #[test]
    fn recover_dual_may_call_nested_functions() {
        let (pmem, heap, mut stack) = fixture();
        use crate::stack::PersistentStack;
        stack.push(1, &[]).unwrap();

        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            1,
            |_c, _| Ok(None),
            |c, _| {
                // Recovery completes the operation by re-invoking the
                // helper as a fresh nested persistent call.
                let v = c.call(2, &[])?;
                Ok(v)
            },
        )
        .unwrap();
        reg.register_pair(2, |_c, _| Ok(Some(9u64.to_le_bytes())), |_c, _| Ok(None))
            .unwrap();

        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        let stats = recover_stack(&mut c).unwrap();
        assert_eq!(stats.frames_recovered, 1);
        assert_eq!(
            c.child_status().unwrap(),
            ChildStatus::Completed(Some(9u64.to_le_bytes()))
        );
    }

    #[test]
    fn big_return_values_go_through_the_heap() {
        // §4.2: caller allocates a cell, passes its offset; callee
        // persists the big value there.
        let (pmem, heap, mut stack) = fixture();
        let mut reg = FunctionRegistry::new();
        reg.register_pair(
            1,
            |c, _| {
                let cell = c.heap.alloc(64)?;
                let v = c.call(2, &cell.get().to_le_bytes())?;
                assert_eq!(v, None);
                let big = c.pmem.read_vec(cell, 64)?;
                assert_eq!(big, vec![0x5A; 64]);
                c.heap.free(cell)?;
                Ok(None)
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        reg.register_pair(
            2,
            |c, args| {
                let cell = POffset::new(u64::from_le_bytes(args[..8].try_into().unwrap()));
                c.pmem.write(cell, &[0x5A; 64])?;
                c.pmem.flush(cell, 64)?;
                Ok(None)
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        c.call(1, &[]).unwrap();
    }
}
