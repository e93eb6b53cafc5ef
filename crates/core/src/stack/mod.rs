//! Persistent stack variants (§3 and Appendix A of the paper).
//!
//! Three layouts implement the shared [`PersistentStack`] trait:
//!
//! * [`FixedStack`] — a contiguous NVRAM region of constant capacity
//!   (§3.3), the layout the paper's body describes;
//! * [`VecStack`] — a dynamically resizable array (Appendix A.2): a
//!   fixed stack over one heap block, relocated with a copy and an
//!   atomic 8-byte swing of one persistent pointer when capacity
//!   changes;
//! * [`ListStack`] — a linked list of heap blocks (Appendix A.3) where
//!   pointer frames (`0xB`) chain blocks together.
//!
//! The layouts share one volatile frame index (`FrameIndex`): the
//! frames, dummy first, a pending retired pop, and the bookkeeping of
//! `CALL`, `RET` and retire over the persist steps below. They differ
//! only in where a frame's bytes go — a fixed region checks overflow,
//! a resizable array relocates, a list chains and frees blocks — and
//! [`StackKind`] is the one place that builds a layout by name.
//!
//! All variants linearize a push at the `0x1 → 0x0` end-marker flip of
//! the previous top frame, and a pop at the `0x0 → 0x1` flip of the
//! penultimate frame. The flip's line persists atomically, and each
//! step carries the flipped frame's return slot in that same persist:
//! a push clears it, a returning pop fills it (`persist_in_order` is
//! the one rule that says when a store rides the next one's line and
//! when it is flushed ahead of it).
//!
//! Every flip is durable before the next step that depends on it —
//! the paper's invariant 2 (§3.4). A push may leave its flip in flight
//! ([`PersistentStack::push_issued`]): the flip's line is the last
//! persist of `CALL`, issued as an asynchronous flush whose ticket the
//! caller awaits before anything builds on the frame ([`push`] is that
//! issue and its await). A nested pop's flip is flushed by the pop
//! itself. A root frame's pop may instead be *retired*
//! ([`PersistentStack::retire`]): written, not flushed, and made
//! durable by the same handle's next push, whose own persist flips the
//! same marker back — the retired pop is one more stage ahead of the
//! push's stages, riding their line or flushed ahead of them by the
//! same rule. Nothing reads a root frame's pop in between: its
//! completion lands in the dummy frame's slot, which no recover dual
//! consults, and a crash before the push leaves the frame live for
//! its recover dual, as a crash between its body and `RET` always
//! could.
//!
//! Frames are addressed by *index*: index 0 is the dummy frame that the
//! paper introduces so that push and pop always have a predecessor
//! frame to flip; indices `1..=depth` are live invocation frames.
//!
//! [`push`]: PersistentStack::push

mod dump;
mod fixed;
mod list;
mod vec;

pub use dump::dump_stack;
pub use fixed::FixedStack;
pub use list::ListStack;
pub use vec::VecStack;

use pstack_heap::PHeap;
use pstack_nvram::{Durable, FlushTicket, PMem, POffset};

use crate::frame::{
    encode_ordinary, parse_frame, FrameMeta, ParsedFrame, MARKER_FRAME_END, MARKER_STACK_END,
    ORDINARY_OVERHEAD, RET_COMPLETED_UNIT, RET_COMPLETED_VALUE, RET_EMPTY,
};
use crate::registry::DUMMY_FUNC_ID;
use crate::PError;

/// Identifies a stack layout; persisted in the runtime superblock so a
/// recovery boot opens stacks with the layout they were created with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StackKind {
    /// Contiguous fixed-capacity region (§3.3).
    #[default]
    Fixed,
    /// Dynamically resizable array (Appendix A.2).
    Vec,
    /// Linked list of blocks (Appendix A.3).
    List,
}

impl StackKind {
    /// Encodes the kind as one byte for the superblock.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            StackKind::Fixed => 0,
            StackKind::Vec => 1,
            StackKind::List => 2,
        }
    }

    /// Decodes a kind from its superblock byte.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] for an unknown encoding.
    pub fn from_u8(v: u8) -> Result<Self, PError> {
        match v {
            0 => Ok(StackKind::Fixed),
            1 => Ok(StackKind::Vec),
            2 => Ok(StackKind::List),
            other => Err(PError::CorruptStack(format!(
                "unknown stack kind encoding {other}"
            ))),
        }
    }

    /// Bytes of one stack's area in the runtime's layout: a fixed
    /// region of `capacity` rounded up to a line, or the 64 bytes that
    /// hold an unbounded layout's header (its blocks are in the heap).
    /// `None` if the rounding overflows.
    #[must_use]
    pub fn area(self, capacity: u64) -> Option<u64> {
        match self {
            StackKind::Fixed => capacity.checked_next_multiple_of(64),
            StackKind::Vec | StackKind::List => Some(64),
        }
    }

    /// Formats a stack of this layout at `base`: a fixed region of
    /// `capacity` bytes, or a header whose first block of `capacity`
    /// bytes (an array's initial one, a list's default one) `heap`
    /// allocates.
    ///
    /// # Errors
    ///
    /// As the layout's `format`.
    pub fn format(
        self,
        pmem: &PMem,
        heap: &PHeap,
        base: POffset,
        capacity: u64,
    ) -> Result<Box<dyn PersistentStack>, PError> {
        let (pmem, heap) = (pmem.clone(), heap.clone());
        Ok(match self {
            StackKind::Fixed => Box::new(FixedStack::format(pmem, base, capacity)?),
            StackKind::Vec => Box::new(VecStack::format(pmem, heap, base, capacity)?),
            StackKind::List => Box::new(ListStack::format(pmem, heap, base, capacity)?),
        })
    }

    /// Opens the stack [`StackKind::format`] formatted at `base`, with
    /// the same `capacity` (which only a fixed region reads back).
    ///
    /// # Errors
    ///
    /// As the layout's `open`.
    pub fn open(
        self,
        pmem: &PMem,
        heap: &PHeap,
        base: POffset,
        capacity: u64,
    ) -> Result<Box<dyn PersistentStack>, PError> {
        let (pmem, heap) = (pmem.clone(), heap.clone());
        Ok(match self {
            StackKind::Fixed => Box::new(FixedStack::open(pmem, base, capacity)?),
            StackKind::Vec => Box::new(VecStack::open(pmem, heap, base)?),
            StackKind::List => Box::new(ListStack::open(pmem, heap, base)?),
        })
    }
}

impl std::fmt::Display for StackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackKind::Fixed => write!(f, "fixed"),
            StackKind::Vec => write!(f, "vec"),
            StackKind::List => write!(f, "list"),
        }
    }
}

/// A copied-out view of one frame: which function it belongs to and the
/// serialized arguments it was invoked with. This is what recovery
/// hands to the function's recover dual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRecord {
    /// Registered id of the invoked function.
    pub func_id: u64,
    /// The serialized argument blob.
    pub args: Vec<u8>,
}

/// Content of a frame's return slot (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReturnSlot {
    /// No child completion recorded since the slot was last cleared.
    #[default]
    Empty,
    /// The most recent child completed and returned no value.
    Unit,
    /// The most recent child completed and returned these 8 bytes.
    Value([u8; 8]),
}

impl ReturnSlot {
    /// The child-completion view: `None` if no completion is recorded.
    #[must_use]
    pub fn completion(self) -> Option<Option<[u8; 8]>> {
        match self {
            ReturnSlot::Empty => None,
            ReturnSlot::Unit => Some(None),
            ReturnSlot::Value(v) => Some(Some(v)),
        }
    }
}

/// The persistent program stack of one worker thread.
///
/// Implementations are **not** internally synchronized: the paper gives
/// each thread its own stack, and the runtime upholds that. (They are
/// `Send`, so a recovery thread may adopt another thread's stack.)
pub trait PersistentStack: Send {
    /// The layout of this stack.
    fn kind(&self) -> StackKind;

    /// `CALL`: pushes a frame for an invocation of `func_id` with
    /// serialized `args`. Linearizes at the end-marker flip of the
    /// previous top frame; a crash before that flip leaves the stack
    /// logically unchanged (the partially written frame is invisible).
    /// The persist that flips the marker also clears that frame's
    /// return slot, so a frame with a live child never shows an earlier
    /// child's completion. Costs one persist when the new frame shares
    /// the old top's tail line, two when it does not — and, after a
    /// [`retire`](PersistentStack::retire), one more when it does not:
    /// the retired pop rides this persist, or is flushed before any of
    /// the new frame's bytes are written.
    ///
    /// [`push_issued`](PersistentStack::push_issued), then its await:
    /// the frame is durable on return.
    ///
    /// # Errors
    ///
    /// [`PError::StackOverflow`] (fixed layout), heap exhaustion
    /// (unbounded layouts), or a propagated crash.
    fn push(&mut self, func_id: u64, args: &[u8]) -> Result<(), PError> {
        if let Some(ticket) = self.push_issued(func_id, args)? {
            self.pmem().await_ticket(&ticket)?;
        }
        Ok(())
    }

    /// `CALL` with its last persist — the one that carries the marker
    /// flip — issued as an asynchronous flush and **not awaited**. Every
    /// earlier stage is durable on return (a retired pop that does not
    /// ride the flip's line, a frame past it), and so is the flip once
    /// the returned ticket is awaited (`None` only under a test's
    /// negative control that skips the flip's flush).
    /// Until then a crash leaves the stack before the push or pushed,
    /// by the survival of the flip's one line — and a retired pop that
    /// rides that line shares its fate: lost with it, the retired frame
    /// is live again, as a crash before its `RET` could always leave it.
    ///
    /// The handle's index counts the frame at once, but nothing may
    /// build on it — no push or pop on this handle — before the ticket
    /// is awaited: [`PContext`](crate::PContext) awaits a root frame
    /// before a nested call, the abort unwind and the `RET`.
    ///
    /// # Errors
    ///
    /// As [`push`](PersistentStack::push).
    fn push_issued(&mut self, func_id: u64, args: &[u8]) -> Result<Option<FlushTicket>, PError>;

    /// `RET`: pops the top frame by flipping the penultimate frame's
    /// marker to stack-end, after storing `completion` (what the popped
    /// invocation returned) into that frame's return slot — one persist
    /// when slot and marker share a line, slot-then-marker when they do
    /// not, so a frame is never popped with its completion record lost.
    /// `None` unwinds an aborted invocation: the slot stays as the push
    /// cleared it. The dummy frame cannot be popped.
    ///
    /// # Errors
    ///
    /// [`PError::StackEmpty`] if only the dummy frame remains, or a
    /// propagated crash.
    fn pop_with(&mut self, completion: Option<ReturnSlot>) -> Result<(), PError>;

    /// Pops the top frame and records no completion:
    /// [`pop_with`](PersistentStack::pop_with)`(None)`, one persist.
    ///
    /// # Errors
    ///
    /// As [`pop_with`](PersistentStack::pop_with).
    fn pop(&mut self) -> Result<(), PError> {
        self.pop_with(None)
    }

    /// `RET` of a root frame, retired into this handle's next
    /// [`push`](PersistentStack::push): the stores of
    /// [`pop_with`](PersistentStack::pop_with)`(Some(completion))`, in
    /// its order, but the marker flip is written and **not flushed**
    /// (the slot stores still ride the flip's line or are flushed
    /// ahead of it, so the pop is never durable without its
    /// completion). Until the next push, a crash leaves the frame live —
    /// its slot `Empty` or `completion` — or popped, line by line: the
    /// state a crash between a body and its `RET` could always leave.
    /// So only a frame whose recover dual is safe to run after its call
    /// completed may be retired; the runtime retires exactly the root
    /// frames its workers push (the argument is in [`crate::invoke`]).
    ///
    /// A pop that is not the root's, or that frees or moves stack
    /// memory (a list block, a shrinking array), is [`pop_with`]'s
    /// instead.
    ///
    /// # Errors
    ///
    /// As [`pop_with`](PersistentStack::pop_with).
    ///
    /// [`pop_with`]: PersistentStack::pop_with
    fn retire(&mut self, completion: ReturnSlot) -> Result<(), PError>;

    /// Number of frames including the dummy frame (always ≥ 1).
    fn frame_count(&self) -> usize;

    /// The NVRAM region the stack lives in.
    fn pmem(&self) -> &PMem;

    /// Where frame `index` (0 = dummy) lies in NVRAM. Absolute offsets:
    /// stale once a resizable stack relocates.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] if `index` is out of range.
    fn frame_meta(&self, index: usize) -> Result<FrameMeta, PError>;

    /// Copies out the function id and arguments of frame `index`
    /// (0 = dummy).
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] if `index` is out of range.
    fn frame_record(&self, index: usize) -> Result<FrameRecord, PError> {
        let meta = self.frame_meta(index)?;
        Ok(FrameRecord {
            func_id: meta.func_id,
            args: crate::frame::read_args(self.pmem(), &meta)?,
        })
    }

    /// Writes and flushes the return slot of frame `index`, apart from
    /// any push or pop (`CALL` and `RET` carry the slot themselves;
    /// this is for tests and tools).
    ///
    /// # Errors
    ///
    /// Out-of-range index or a propagated crash.
    fn set_ret(&mut self, index: usize, slot: ReturnSlot) -> Result<(), PError> {
        let meta = self.frame_meta(index)?;
        let stores = slot_stores(&meta, &slot);
        persist_in_order(self.pmem(), slot_stages(&stores), LastStage::Flushed)?;
        Ok(())
    }

    /// Reads the return slot of frame `index`.
    ///
    /// # Errors
    ///
    /// Out-of-range index or a propagated crash.
    fn ret(&self, index: usize) -> Result<ReturnSlot, PError> {
        read_ret_slot(self.pmem(), &self.frame_meta(index)?)
    }

    /// Re-walks the persistent bytes and verifies they describe exactly
    /// the frames this handle believes exist.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] describing the first mismatch.
    fn check_consistency(&self) -> Result<(), PError>;

    /// Persistent bytes currently occupied by live frames (diagnostic).
    fn used_bytes(&self) -> u64;

    /// Number of live invocation frames (excluding the dummy frame).
    fn depth(&self) -> usize {
        self.frame_count() - 1
    }

    /// Index of the top frame (the dummy frame when the stack is empty).
    fn top_index(&self) -> usize {
        self.frame_count() - 1
    }
}

/// One store: `data` at an offset.
type Store<'a> = (POffset, &'a [u8]);

/// One stage of a linearization step: stores that do not depend on each
/// other, all of which the next stage's stores depend on.
pub(crate) struct Stage<'a> {
    pub stores: &'a [Store<'a>],
    /// `false` for stores written by an earlier step and left pending
    /// there — a retired pop — which this step only makes durable.
    pub write: bool,
    /// Whether the step persists this stage: `false` for a retired
    /// pop's flip, left to the next push, and under a test's Fig. 6
    /// negative control.
    pub flush: bool,
}

impl Stage<'_> {
    /// The range `(start, len)` one flush must cover to persist every
    /// store of the stage.
    fn hull(&self) -> (POffset, usize) {
        let start = self.stores.iter().map(|(off, _)| off.get()).min();
        let end = self
            .stores
            .iter()
            .map(|(off, data)| off.get() + data.len() as u64)
            .max();
        let (start, end) = (start.unwrap_or(0), end.unwrap_or(0));
        (POffset::new(start), (end - start) as usize)
    }
}

/// How [`persist_in_order`] persists its last stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LastStage {
    /// Flushed before it returns, like every earlier stage.
    Flushed,
    /// Issued as a flight ([`PMem::flush_async`]) whose ticket it
    /// returns: nothing the step orders comes after the last stage, so
    /// only its caller knows what waits for it.
    Issued,
}

/// Applies `stages` in order such that no store can be durable without
/// every store of every earlier stage, at the fewest persists the
/// offsets allow: a stage lying in the one line the next stage also
/// lies in is not flushed — [`PMem::flush`] persists a line atomically,
/// so it rides the next stage's persist ([`Durable::same_line`]) — and
/// any other stage is made durable by one flush over its hull before
/// the next is written, which takes its receipt. A crash before a
/// shared persist keeps, per line, a prefix of the stores, which is why
/// the order inside a stage is also an order every prefix of which is a
/// legal state. The last stage is flushed or issued as `last` says; the
/// ticket of an issued one is returned.
pub(crate) fn persist_in_order<'a>(
    pmem: &PMem,
    stages: impl IntoIterator<Item = Stage<'a>>,
    last: LastStage,
) -> Result<Option<FlushTicket>, PError> {
    let mut stages = stages.into_iter().peekable();
    let mut ticket = None;
    // The previous stage's hull and receipt; none when the stage was
    // left unpersisted.
    let mut before: Option<((POffset, usize), Durable)> = None;
    while let Some(stage) = stages.next() {
        if stage.write {
            if let Some(((off, len), receipt)) = &before {
                receipt.check(pmem, *off, *len);
            }
            for (off, data) in stage.stores {
                pmem.write(*off, data)?;
            }
        }
        let hull = stage.hull();
        let next = stages.peek();
        let riding = next.and_then(|n| Durable::same_line(pmem, hull, n.hull()));
        before = match riding {
            _ if !stage.flush => None,
            Some(riding) => Some((hull, riding)),
            None if next.is_none() && last == LastStage::Issued => {
                ticket = Some(pmem.flush_async(hull.0, hull.1)?);
                None
            }
            None => Some((hull, pmem.flush(hull.0, hull.1)?)),
        };
    }
    Ok(ticket)
}

/// The stores that record `slot` in `meta`'s frame, each a stage of its
/// own: the value (if any) before the flag that vouches for it.
fn slot_stores<'a>(meta: &FrameMeta, slot: &'a ReturnSlot) -> [Option<Store<'a>>; 2] {
    let flag = |byte: &'static [u8]| Some((meta.ret_flag_off(), byte));
    match slot {
        ReturnSlot::Empty => [None, flag(&[RET_EMPTY])],
        ReturnSlot::Unit => [None, flag(&[RET_COMPLETED_UNIT])],
        ReturnSlot::Value(v) => [
            Some((meta.ret_val_off(), v.as_slice())),
            flag(&[RET_COMPLETED_VALUE]),
        ],
    }
}

fn slot_stages<'a>(stores: &'a [Option<Store<'a>>; 2]) -> impl Iterator<Item = Stage<'a>> {
    stores.iter().flatten().map(|store| Stage {
        stores: std::slice::from_ref(store),
        write: true,
        flush: true,
    })
}

/// The flip that pops the frame after `caller`: `caller`'s marker back
/// to stack-end.
fn pop_flip(caller: &FrameMeta) -> [Store<'static>; 1] {
    [(caller.marker_off(), &[MARKER_STACK_END])]
}

/// The paper's two flushing invariants (§3.4, Fig. 6) as `CALL` and
/// `RET` keep them: whether what a flip publishes is flushed before the
/// flip (invariant 1), and whether the flip itself is flushed before
/// the next step (invariant 2). Both, always: only a test's negative
/// control drops one (`FlushPolicy`).
#[cfg(not(test))]
fn invariants() -> (bool, bool) {
    (true, true)
}

#[cfg(test)]
fn invariants() -> (bool, bool) {
    let policy = FLUSH_POLICY.get();
    (policy.flush_frame_before_advance, policy.flush_markers)
}

/// Which of the paper's two flushing invariants (§3.4, Fig. 6) `CALL`
/// and `RET` honour on the current thread. The seed of the Fig. 6
/// negative controls (experiment E4): dropping either one makes
/// recovery lose or miss a frame, which shows that each is
/// load-bearing.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushPolicy {
    /// Invariant 1: flush the new frame **before** moving the stack end
    /// forward. If violated, a crash can persist the marker flip but
    /// lose the frame it points at (Fig. 6a). Vacuous — and no flush is
    /// issued either way — for a frame lying wholly in the line of the
    /// marker that flips: the two persist together or not at all.
    pub flush_frame_before_advance: bool,
    /// Invariant 2: every end-marker flip durable before the next step
    /// that depends on it. If violated, a crash can lose the flip, so
    /// recovery never sees the topmost frame (Fig. 6b).
    pub flush_markers: bool,
}

#[cfg(test)]
thread_local! {
    static FLUSH_POLICY: std::cell::Cell<FlushPolicy> = const {
        std::cell::Cell::new(FlushPolicy {
            flush_frame_before_advance: true,
            flush_markers: true,
        })
    };
}

#[cfg(test)]
impl FlushPolicy {
    /// Runs `f` with this thread's `CALL` and `RET` keeping only the
    /// invariants `self` keeps.
    pub(crate) fn during<T>(self, f: impl FnOnce() -> T) -> T {
        let kept = FLUSH_POLICY.replace(self);
        let out = f();
        FLUSH_POLICY.set(kept);
        out
    }
}

/// `CALL`'s linearization step, shared by the three layouts. Before
/// `caller`'s marker flips to frame-end, what the flip publishes must
/// be durable — `appended`, written right after `caller`'s frame (the
/// new frame, or the pointer frame of a chaining [`ListStack`] push),
/// and `detached`, that push's frame in its fresh block — and so must
/// the clearing of `caller`'s return slot, or recovery would read an
/// earlier child's completion as this one's. The slot and `appended`
/// are ten bytes apart and need no order between them, so they share a
/// stage: one flush, or none when the flip's line holds them both.
///
/// `retired` says a [`retire_ret`] left `caller`'s pop flip pending. It
/// is the first stage: `appended` overwrites the popped frame's bytes,
/// so the pop must be durable before any of them can be — it rides
/// the next stage's persist when they share its line (every per-line
/// prefix of the stores is then a legal state: frame live, popped, or
/// the new frame pushed) and is flushed ahead of them otherwise.
///
/// The flip's persist is issued, not awaited: its ticket is returned
/// ([`PersistentStack::push_issued`]).
pub(crate) fn persist_call(
    pmem: &PMem,
    caller: &FrameMeta,
    retired: bool,
    detached: Option<Store<'_>>,
    appended: Store<'_>,
) -> Result<Option<FlushTicket>, PError> {
    let (frame_first, flip_flushed) = invariants();
    let published = |stores| Stage {
        stores,
        write: true,
        flush: frame_first,
    };
    let popped = pop_flip(caller);
    let tail = [appended, (caller.ret_flag_off(), &[RET_EMPTY])];
    let flip = [(caller.marker_off(), [MARKER_FRAME_END].as_slice())];
    let stages = [
        Stage {
            stores: if retired { &popped } else { &[] },
            write: false,
            flush: flip_flushed,
        },
        published(detached.as_slice()),
        published(&tail),
        Stage {
            stores: &flip,
            write: true,
            flush: flip_flushed,
        },
    ];
    persist_in_order(
        pmem,
        stages.into_iter().filter(|stage| !stage.stores.is_empty()),
        LastStage::Issued,
    )
}

/// `RET`'s linearization step, shared by the three layouts: the popped
/// invocation's `completion` must be durable in `caller`'s return slot
/// before `caller`'s marker flips back to stack-end.
pub(crate) fn persist_ret(
    pmem: &PMem,
    caller: &FrameMeta,
    completion: Option<ReturnSlot>,
) -> Result<(), PError> {
    let slot = completion
        .as_ref()
        .map_or([None, None], |slot| slot_stores(caller, slot));
    let flip = pop_flip(caller);
    persist_in_order(
        pmem,
        slot_stages(&slot).chain([Stage {
            stores: &flip,
            write: true,
            flush: invariants().1,
        }]),
        LastStage::Flushed,
    )?;
    Ok(())
}

/// A retired `RET` ([`PersistentStack::retire`]), shared by the three
/// layouts: [`persist_ret`]'s stages with the flip's own flush left to
/// the next [`persist_call`] over the same `caller`. The slot stages
/// keep the rule — they ride the flip's line or are flushed ahead of
/// it — so only the flip is pending.
pub(crate) fn retire_ret(
    pmem: &PMem,
    caller: &FrameMeta,
    completion: ReturnSlot,
) -> Result<(), PError> {
    let slot = slot_stores(caller, &completion);
    let flip = pop_flip(caller);
    persist_in_order(
        pmem,
        slot_stages(&slot).chain([Stage {
            stores: &flip,
            write: true,
            flush: false,
        }]),
        LastStage::Flushed,
    )?;
    Ok(())
}

/// Shared implementation: read a frame's return slot.
fn read_ret_slot(pmem: &PMem, meta: &FrameMeta) -> Result<ReturnSlot, PError> {
    let flag = pmem.read_u8(meta.ret_flag_off())?;
    match flag {
        RET_EMPTY => Ok(ReturnSlot::Empty),
        RET_COMPLETED_UNIT => Ok(ReturnSlot::Unit),
        RET_COMPLETED_VALUE => {
            let mut v = [0u8; 8];
            pmem.read(meta.ret_val_off(), &mut v)?;
            Ok(ReturnSlot::Value(v))
        }
        other => Err(PError::CorruptStack(format!(
            "invalid return-slot flag {other:#x} in frame at {}",
            meta.start
        ))),
    }
}

/// The volatile frame index the three layouts share: every live frame,
/// the dummy frame at index 0, and whether a retired root pop is
/// pending. It keeps `CALL`, `RET` and retire's bookkeeping over
/// [`persist_call`], [`persist_ret`] and [`retire_ret`]; a layout only
/// places frames. Rebuilt from NVRAM when a stack opens.
#[derive(Debug)]
pub(crate) struct FrameIndex {
    frames: Vec<FrameMeta>,
    /// A retired root pop is written and not yet durable; the next
    /// push makes it so.
    retired: bool,
}

impl FrameIndex {
    /// Writes and flushes, at `start`, the dummy frame the paper
    /// requires at the bottom of a stack: a fresh stack's index.
    pub(crate) fn format(pmem: &PMem, start: POffset) -> Result<Self, PError> {
        let dummy = encode_ordinary(DUMMY_FUNC_ID, &[], MARKER_STACK_END)?;
        pmem.write(start, &dummy)?;
        pmem.flush(start, dummy.len())?;
        Self::open(vec![FrameMeta {
            start,
            func_id: DUMMY_FUNC_ID,
            args_len: 0,
        }])
    }

    /// The index of the frames a walk found, bottom first; refused
    /// unless the bottom one is the dummy frame.
    pub(crate) fn open(walked: Vec<FrameMeta>) -> Result<Self, PError> {
        let bottom = *walked.first().expect("a walk stops at a frame");
        if bottom.func_id != DUMMY_FUNC_ID {
            return Err(PError::CorruptStack(format!(
                "bottom frame at {} is not the dummy frame (func_id {:#x})",
                bottom.start, bottom.func_id
            )));
        }
        Ok(FrameIndex {
            frames: walked,
            retired: false,
        })
    }

    pub(crate) fn frames(&self) -> &[FrameMeta] {
        &self.frames
    }

    pub(crate) fn top(&self) -> FrameMeta {
        *self.frames.last().expect("dummy frame always present")
    }

    /// Frame `index`, bounds-checked.
    pub(crate) fn get(&self, index: usize) -> Result<FrameMeta, PError> {
        self.frames.get(index).copied().ok_or_else(|| {
            PError::CorruptStack(format!(
                "frame index {index} out of range (frame count {})",
                self.frames.len()
            ))
        })
    }

    /// `CALL` over the top frame (Fig. 3): `frame`, `func_id`'s frame as
    /// [`encode_ordinary`] writes it, goes where it is invisible, past
    /// the stack-end marker, and then the top frame's marker flips. It
    /// goes right after the top frame, or, when `chained` is a new
    /// block's first frame offset and the pointer frame that leads
    /// there, at that offset with the pointer frame after the top frame.
    pub(crate) fn call(
        &mut self,
        pmem: &PMem,
        func_id: u64,
        frame: &[u8],
        chained: Option<(POffset, &[u8])>,
    ) -> Result<Option<FlushTicket>, PError> {
        let caller = self.top();
        let (start, detached, appended) = match chained {
            None => (caller.end(), None, (caller.end(), frame)),
            Some((start, pointer)) => (start, Some((start, frame)), (caller.end(), pointer)),
        };
        let ticket = persist_call(pmem, &caller, self.retired, detached, appended)?;
        self.retired = false;
        self.frames.push(FrameMeta {
            start,
            func_id,
            args_len: (frame.len() as u64 - ORDINARY_OVERHEAD) as u32,
        });
        Ok(ticket)
    }

    /// `RET` (Fig. 4): pops the top frame by flipping its caller's
    /// marker back to stack-end; the popped frame is then invalid data
    /// past the stack end.
    pub(crate) fn ret(
        &mut self,
        pmem: &PMem,
        completion: Option<ReturnSlot>,
    ) -> Result<(), PError> {
        let [.., caller, _] = self.frames[..] else {
            return Err(PError::StackEmpty);
        };
        persist_ret(pmem, &caller, completion)?;
        self.frames.pop();
        Ok(())
    }

    /// Retires the root frame's `RET`; `false`, with nothing done, when
    /// the top frame is not the root.
    pub(crate) fn retire(&mut self, pmem: &PMem, completion: ReturnSlot) -> Result<bool, PError> {
        if self.frames.len() != 2 {
            return Ok(false);
        }
        retire_ret(pmem, &self.frames[0], completion)?;
        self.retired = true;
        self.frames.pop();
        Ok(true)
    }

    /// Moves every frame from a block at `from` to its durable copy at
    /// `to`, which holds any retired pop too.
    pub(crate) fn rebase(&mut self, from: POffset, to: POffset) {
        for meta in &mut self.frames {
            meta.start = to + meta.start.distance_from(from);
        }
        self.retired = false;
    }

    /// Refuses a walk of the persistent bytes that found other frames
    /// than the index holds.
    pub(crate) fn check(&self, walked: &[FrameMeta]) -> Result<(), PError> {
        if walked != self.frames {
            return Err(PError::CorruptStack(format!(
                "persistent walk found {} frames, volatile index has {}",
                walked.len(),
                self.frames.len()
            )));
        }
        Ok(())
    }
}

/// Walks the ordinary frames from `start` onto `frames`, bounds-checked
/// by `limit`, until a stack-end marker (`None`) or a pointer frame:
/// its offset and the block it leads to. A list walks each of its
/// blocks this way.
pub(crate) fn walk_frames(
    pmem: &PMem,
    start: POffset,
    limit: POffset,
    frames: &mut Vec<FrameMeta>,
) -> Result<Option<(POffset, POffset)>, PError> {
    let mut pos = start;
    loop {
        match parse_frame(pmem, pos, limit)? {
            ParsedFrame::Ordinary { meta, marker } => {
                pos = meta.end();
                frames.push(meta);
                if marker == MARKER_STACK_END {
                    return Ok(None);
                }
            }
            ParsedFrame::Pointer {
                start,
                marker: MARKER_STACK_END,
                ..
            } => {
                return Err(PError::CorruptStack(format!(
                    "pointer frame at {start} carries a stack-end marker"
                )));
            }
            ParsedFrame::Pointer {
                start, next_block, ..
            } => return Ok(Some((start, next_block))),
        }
    }
}

/// Walks a contiguous run of ordinary frames from `start`: the fixed
/// and resizable-array layouts.
pub(crate) fn walk_contiguous(
    pmem: &PMem,
    start: POffset,
    limit: POffset,
) -> Result<Vec<FrameMeta>, PError> {
    let mut frames = Vec::new();
    match walk_frames(pmem, start, limit, &mut frames)? {
        None => Ok(frames),
        Some((pointer, _)) => Err(PError::CorruptStack(format!(
            "unexpected pointer frame at {pointer} in a contiguous stack"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_kind_round_trips() {
        for k in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
            assert_eq!(StackKind::from_u8(k.as_u8()).unwrap(), k);
            assert!(!k.to_string().is_empty());
        }
        assert!(StackKind::from_u8(99).is_err());
    }

    #[test]
    fn return_slot_completion_view() {
        assert_eq!(ReturnSlot::Empty.completion(), None);
        assert_eq!(ReturnSlot::Unit.completion(), Some(None));
        assert_eq!(ReturnSlot::Value([1; 8]).completion(), Some(Some([1; 8])));
    }

    #[test]
    fn default_kind_is_fixed() {
        assert_eq!(StackKind::default(), StackKind::Fixed);
    }
}
