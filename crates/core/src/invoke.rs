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
//!    and flip the caller's marker back, again in one persist — which a
//!    task's root frame leaves to its worker's next `CALL` (below).
//!
//! A root frame's `CALL` is issued, not awaited
//! ([`PersistentStack::push_issued`]), and awaited where the body needs
//! it — before the body starts, unless the function awaits it itself
//! (below).
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
//! popped*. The two states that must never be durable are *pushed
//! over a stale completion* (the caller's recover dual would take an
//! earlier child's result for this child's) and *popped with the
//! completion record lost* (the caller would re-run a child that
//! completed); each needs the flip durable without a store issued
//! before it in the same line, which a line cannot do.
//!
//! When the new frame lies wholly in the caller's tail line — a root
//! task of up to 18 argument bytes does: 23-byte dummy frame, stack
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
//! # A task's root frame: `RET` retired into the next `CALL`
//!
//! The root frames the runtime's workers push for their tasks do not
//! pay for their `RET`. When such a call returns,
//! [`PersistentStack::retire`] writes its completion into the dummy
//! frame's slot and flips the dummy frame's marker back, and flushes
//! neither: the same worker's next push makes the pop durable, riding
//! that push's one persist when the new frame lies in the dummy frame's
//! line, flushed before any of its bytes are written otherwise. Nested
//! calls, the abort unwind and [`recover_stack`]'s pops persist as
//! before, so a frame popped by a completed recover dual is still never
//! recovered twice. Until the next push a crash may keep the completed
//! frame live, and recovery then replays its recover dual — the state a
//! crash between a body and its `RET` could always leave; what retiring
//! adds is the length of that interval. Three things make it safe.
//!
//! **(a) Every root function's recover dual is safe to run after its
//! call completed** — and after whatever ran in between: the main
//! thread's acks that recycle request slots, its admission, a harness's
//! reads, and other workers' tasks. The root functions there are:
//!
//! * `KvServeFunction` (`pstack-kv`, the served window): the replay
//!   reads every slot its frame names. An answered slot is only
//!   re-collected — a completed window awaited its answers with the
//!   heads they report, so the replay's check (an answer whose commit's
//!   heads did not all land is voided and re-executed) finds
//!   every one settled. A slot holding request id 0 — never used, or caught
//!   between the two stores of a recycle — is skipped. A slot recycled
//!   since, whose new descriptor is durable, is executed through
//!   `recover_batch`, exactly once: its evidence scan finds no earlier
//!   effect, and nothing else executed the new request — a push by
//!   this worker would have made the pop durable, and another worker's
//!   frame naming the slot is (c). A recycled slot whose descriptor is
//!   not durable reverts to its old, answered occupant.
//! * `KvCompactFunction`: the evidence is the shard's root cell. A
//!   completed compaction moved the shard past `from_gen`, so the
//!   replay only re-registers the retired generations with the heap; a request
//!   from a generation the shard never reached answers without effect,
//!   as its call did.
//! * `CasTaskFunction` and `QueueTaskFunction` (`pstack-recoverable`):
//!   the dual reads the descriptor table first, where a completed
//!   call's answer is durable, and returns it.
//! * `CounterTaskFunction`: the process's counter slot carries the tag
//!   of its last increment, which is this task's — a later increment by
//!   the same process needs a later push — so nothing is added twice.
//! * [`TxnLoop`](crate::TxnLoop): the root frame's dual rolls item 0
//!   back only for the current epoch and only if it has not committed.
//!   A completed transaction committed; once the next one `begin`s, the
//!   completed one's undo record carries an older epoch.
//! * The test and example registries: each task writes a value that
//!   depends on its arguments alone into a cell of its own, or counts
//!   under a per-item mark, so a replay rewrites what is there.
//!
//! **(b) `pending_tasks`' premise still holds**: a request pending after
//! stack recovery has published nothing — it may have begun, in a
//! window whose level was cut, but no head reaches a record of it. A
//! served window's records name the claim its execution took, which
//! lands only in the slot's answer line, and a reboot publishes the
//! newest batch only if every slot it names holds that claim or a later
//! one: so a published record's request is answered (or its slot
//! recycled after an answer that was shown), preloaded descriptor or
//! not, and `apply_batch` — no evidence scan — is a pending request's
//! one execution. A pop becomes durable — by the next push's persist or
//! by surviving a crash unflushed — only after its stores are written,
//! and they are written when the body has returned: for a window, after
//! its level is durable. So no popped frame ever names a slot its window
//! left unanswered.
//!
//! **(c) Two frames may name one pending slot** (or one whose answer a
//! replay voids): an idle worker's retired frame whose slot was
//! recycled, and the in-flight window over the slot's new occupant.
//! Recovery replays both — concurrently under
//! [`RecoveryMode::Parallel`] — and both go through `recover_batch`. On a
//! batched shard (every serving shard) its evidence scan runs under the
//! shard's gate, which the group commit it begins holds until its last
//! level is awaited, so the second replay finds the first one's record
//! and the effect stays single.
//!
//! [`RecoveryMode::Parallel`]: crate::RecoveryMode::Parallel
//!
//! # A root frame is awaited where its body publishes
//!
//! A frame must be durable before its call's effects can be *seen* —
//! a crash that keeps an effect must find the frame to replay — not
//! before its body starts computing. So a root frame's `CALL` (a push
//! over the dummy frame: a task's, or any call a context makes at depth
//! 0) is issued as a flight, and [`PContext::frame_durable`] awaits it.
//! The runtime awaits it before the body unless the function declares
//! [`awaits_own_frame`], and in every case before a nested call (no
//! frame is built on one in flight), before the abort unwind and before
//! the `RET` or its retire (no frame is popped before it is durable).
//! A frame's flight is therefore open only while its own body runs, and
//! the one state this adds is *body begun, frame lost*: the power
//! failure replays nothing, so whatever the body did must be invisible.
//! A retired pop that rode the lost line comes back live with it, which
//! (a) covers.
//!
//! `KvServeFunction` is the function that declares it. Its window reads
//! its slots and stages every shard's group commit — after the evidence
//! scan on a recovery window — then issues one level beside its `CALL`:
//! every shard's slots (descriptor and answer), records, header and the
//! heads its previous commit flipped; it awaits the frame and the level,
//! and flips the heads on the receipt. A served round blocks on one
//! round-trip. A crash before the level lands leaves each shard's batch
//! unpublished — a reboot publishes a batch only with its slots' claims,
//! and counts an answer only over its published batch — so its requests
//! are pending and unpublished: a retry or `pending_tasks` executes each
//! exactly once, (b). The frame may be lost under a level that landed:
//! the answers are durable then, and a retry finds them.
//!
//! [`awaits_own_frame`]: crate::RecoverableFunction::awaits_own_frame
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
use pstack_nvram::{FlushTicket, PMem, POffset};

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
    /// The last `CALL`'s flight, issued and not yet awaited — outside
    /// `invoke`, only a root frame's whose function awaits it itself.
    frame: Option<FlushTicket>,
}

impl std::fmt::Debug for PContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PContext")
            .field("pid", &self.pid)
            .field("depth", &self.stack.depth())
            .field("user_root", &self.user_root)
            .field("frame_in_flight", &self.frame.is_some())
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
            frame: None,
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
        self.invoke(func_id, args, false)
    }

    /// A task's root call, as the runtime's workers make it:
    /// [`PContext::call`] with the `RET` retired into the worker's next
    /// `CALL` ([`PersistentStack::retire`]; the module docs say why a
    /// root frame may).
    pub(crate) fn call_task(
        &mut self,
        func_id: u64,
        args: &[u8],
    ) -> Result<Option<RetBytes>, PError> {
        self.invoke(func_id, args, true)
    }

    fn invoke(
        &mut self,
        func_id: u64,
        args: &[u8],
        retire: bool,
    ) -> Result<Option<RetBytes>, PError> {
        let f = self.registry.get(func_id)?;
        // No frame is built on one still in flight.
        self.frame_durable()?;
        // The push clears the caller's slot, so its recover dual can
        // tell "this child completed" from a stale completion record.
        // Only a root frame whose function awaits it itself stays in
        // flight into the body.
        let root = self.stack.depth() == 0;
        self.frame = self.stack.push_issued(func_id, args)?;
        if !(root && f.awaits_own_frame()) {
            self.frame_durable()?;
        }
        let out = f.call(self, args);
        if !out.as_ref().is_err_and(PError::is_crash) {
            // The RET, or the abort unwind, pops the frame: never one
            // that is not yet durable.
            self.frame_durable()?;
        }
        match out {
            Ok(ret) if retire => {
                self.stack.retire(completion(ret))?;
                Ok(ret)
            }
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

    /// Awaits the root frame's `CALL` if it is still in flight — a
    /// function that [awaits its own frame] calls this before anything
    /// it publishes can be seen. Once it returns, the frame is durable:
    /// a power failure replays it. Idempotent, and free when nothing is
    /// in flight.
    ///
    /// # Errors
    ///
    /// A propagated crash (the frame's flight was cut).
    ///
    /// [awaits its own frame]: crate::RecoverableFunction::awaits_own_frame
    pub fn frame_durable(&mut self) -> Result<(), PError> {
        if let Some(ticket) = self.frame.take() {
            self.stack.pmem().await_ticket(&ticket)?;
        }
        Ok(())
    }

    /// `RET`: pops the top frame with `ret` recorded in its caller's
    /// slot — the completion step shared by `call` and recovery.
    fn finish_top_frame(&mut self, ret: Option<RetBytes>) -> Result<(), PError> {
        self.stack.pop_with(Some(completion(ret)))
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

/// What a returning invocation records in its caller's slot.
fn completion(ret: Option<RetBytes>) -> ReturnSlot {
    ret.map_or(ReturnSlot::Unit, ReturnSlot::Value)
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
    use crate::registry::{FunctionRegistry, RecoverableFunction};
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

    /// A root function that declares it awaits its own frame and never
    /// calls [`PContext::frame_durable`]: `body` runs with its `CALL`
    /// in flight.
    struct NeverAwaits<F>(F);

    impl<F> RecoverableFunction for NeverAwaits<F>
    where
        F: Fn(&mut PContext<'_>) -> Result<Option<RetBytes>, PError> + Send + Sync,
    {
        fn call(&self, c: &mut PContext<'_>, _: &[u8]) -> Result<Option<RetBytes>, PError> {
            (self.0)(c)
        }

        fn recover(&self, _: &mut PContext<'_>, _: &[u8]) -> Result<Option<RetBytes>, PError> {
            Ok(None)
        }

        fn awaits_own_frame(&self) -> bool {
            true
        }
    }

    #[test]
    fn a_root_frame_is_durable_before_its_body_unless_it_awaits_its_own() {
        let (pmem, heap, mut stack) = fixture();
        let mut reg = FunctionRegistry::new();
        let in_flight = |c: &mut PContext<'_>| Ok(Some(c.pmem.inflight_tickets().to_le_bytes()));
        reg.register_pair(1, move |c, _| in_flight(c), |_c, _| Ok(None))
            .unwrap();
        reg.register(2, std::sync::Arc::new(NeverAwaits(in_flight)))
            .unwrap();
        let mut c = ctx(&pmem, &heap, &reg, &mut stack);
        let before = pmem.stats().snapshot();
        assert_eq!(c.call(1, &[]).unwrap(), Some(0u64.to_le_bytes()));
        assert_eq!(
            c.call(2, &[]).unwrap(),
            Some(1u64.to_le_bytes()),
            "its CALL"
        );
        assert_eq!(pmem.inflight_tickets(), 0, "and awaited before its RET");
        // Either way the CALL is one flight, the RET one persist.
        let d = pmem.stats().snapshot() - before;
        assert_eq!((d.persists, d.async_flushes), (4, 2));
    }

    #[test]
    fn a_root_frame_that_never_awaits_itself_is_durable_before_anything_pops_or_builds_on_it() {
        // The body arms a power failure at the next persistence event —
        // the retire's, the nested push's or the unwind's first store —
        // and leaves its own CALL in flight. Every dirty line is lost,
        // so the frame survives only if the runtime awaited it first.
        type Body = fn(&mut PContext<'_>) -> Result<Option<RetBytes>, PError>;
        let cases: [(&str, Body); 3] = [
            ("retired RET", |_c| Ok(None)),
            ("nested push", |c| c.call(9, &[])),
            ("abort unwind", |_c| Err(PError::Task("abort".into()))),
        ];
        for (what, body) in cases {
            let (pmem, heap, mut stack) = fixture();
            let mut reg = FunctionRegistry::new();
            reg.register(
                1,
                std::sync::Arc::new(NeverAwaits(move |c: &mut PContext<'_>| {
                    assert_eq!(
                        c.pmem.inflight_tickets(),
                        1,
                        "{what}: the body runs under its CALL"
                    );
                    c.pmem
                        .arm_failpoint(pstack_nvram::FailPlan::after_events(0));
                    body(c)
                })),
            )
            .unwrap();
            reg.register_pair(9, |_c, _| Ok(None), |_c, _| Ok(None))
                .unwrap();
            let mut c = ctx(&pmem, &heap, &reg, &mut stack);
            assert!(c.call_task(1, &[]).unwrap_err().is_crash(), "{what}");

            let pmem = pmem.reopen().unwrap();
            let stack = FixedStack::open(pmem, POffset::new(0), 16 * 1024).unwrap();
            assert_eq!(stack.depth(), 1, "{what}: the root frame was lost");
            assert_eq!(stack.frame_record(1).unwrap().func_id, 1, "{what}");
        }
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
