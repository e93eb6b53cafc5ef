//! Persistent stack variants (§3 and Appendix A of the paper).
//!
//! Three layouts implement the shared [`PersistentStack`] trait:
//!
//! * [`FixedStack`] — a contiguous NVRAM region of constant capacity
//!   (§3.3), the layout the paper's body describes;
//! * [`VecStack`] — a dynamically resizable array (Appendix A.2): one
//!   persistent pointer to a heap block, relocated with a copy and an
//!   atomic 8-byte pointer swing when capacity changes;
//! * [`ListStack`] — a linked list of heap blocks (Appendix A.3) where
//!   pointer frames (`0xB`) chain blocks together.
//!
//! All variants linearize a push at the `0x1 → 0x0` end-marker flip of
//! the previous top frame, and a pop at the `0x0 → 0x1` flip of the
//! penultimate frame. The flip's line persists atomically, and each
//! step carries the flipped frame's return slot in that same persist:
//! a push clears it, a returning pop fills it (`persist_in_order` is
//! the one rule that says when a store rides the next one's line and
//! when it is flushed ahead of it).
//!
//! Frames are addressed by *index*: index 0 is the dummy frame that the
//! paper introduces so that push and pop always have a predecessor
//! frame to flip; indices `1..=depth` are live invocation frames.

mod dump;
mod fixed;
mod list;
mod vec;

pub use dump::dump_stack;
pub use fixed::{FixedStack, FlushPolicy};
pub use list::ListStack;
pub use vec::VecStack;

use pstack_nvram::{PMem, POffset};

use crate::frame::{
    FrameMeta, MARKER_FRAME_END, MARKER_STACK_END, RET_COMPLETED_UNIT, RET_COMPLETED_VALUE,
    RET_EMPTY,
};
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
    /// the old top's tail line, two when it does not.
    ///
    /// # Errors
    ///
    /// [`PError::StackOverflow`] (fixed layout), heap exhaustion
    /// (unbounded layouts), or a propagated crash.
    fn push(&mut self, func_id: u64, args: &[u8]) -> Result<(), PError>;

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
        persist_in_order(self.pmem(), slot_stages(&slot_stores(&meta, &slot)))
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
    /// Whether the step may persist this stage: always `true` except
    /// under [`FlushPolicy`]'s negative controls.
    pub flush: bool,
}

impl Stage<'_> {
    /// The byte range `[start, end)` one flush must cover to persist
    /// every store of the stage.
    fn hull(&self) -> (u64, u64) {
        let start = self.stores.iter().map(|(off, _)| off.get()).min();
        let end = self
            .stores
            .iter()
            .map(|(off, data)| off.get() + data.len() as u64)
            .max();
        (start.unwrap_or(0), end.unwrap_or(0))
    }
}

/// Applies `stages` in order such that no store can be durable without
/// every store of every earlier stage, at the fewest persists the
/// offsets allow: a stage lying in the one line the next stage also
/// lies in is not flushed — [`PMem::flush`] persists a line atomically,
/// so it rides the next stage's persist — and any other stage is made
/// durable by one flush over its hull before the next is issued. A
/// crash before a shared persist keeps, per line, a prefix of the
/// stores, which is why the order inside a stage is also an order every
/// prefix of which is a legal state.
pub(crate) fn persist_in_order<'a>(
    pmem: &PMem,
    stages: impl IntoIterator<Item = Stage<'a>>,
) -> Result<(), PError> {
    let line = pmem.line_size() as u64;
    let only_line = |stage: &Stage<'_>| {
        let (start, end) = stage.hull();
        (start / line == end.saturating_sub(1) / line).then_some(start / line)
    };
    let mut stages = stages.into_iter().peekable();
    while let Some(stage) = stages.next() {
        for (off, data) in stage.stores {
            pmem.write(*off, data)?;
        }
        let line_of_stage = only_line(&stage);
        let rides = line_of_stage.is_some()
            && stages
                .peek()
                .is_some_and(|next| only_line(next) == line_of_stage);
        if stage.flush && !rides {
            let (start, end) = stage.hull();
            pmem.flush(POffset::new(start), (end - start) as usize)?;
        }
    }
    Ok(())
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
        flush: true,
    })
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
pub(crate) fn persist_call(
    pmem: &PMem,
    caller: &FrameMeta,
    detached: Option<Store<'_>>,
    appended: Store<'_>,
    policy: FlushPolicy,
) -> Result<(), PError> {
    let published = |stores| Stage {
        stores,
        flush: policy.flush_frame_before_advance,
    };
    let tail = [appended, (caller.ret_flag_off(), &[RET_EMPTY])];
    let flip = [(caller.marker_off(), [MARKER_FRAME_END].as_slice())];
    let stages = [
        published(detached.as_slice()),
        published(&tail),
        Stage {
            stores: &flip,
            flush: policy.flush_markers,
        },
    ];
    persist_in_order(
        pmem,
        stages.into_iter().filter(|stage| !stage.stores.is_empty()),
    )
}

/// `RET`'s linearization step, shared by the three layouts: the popped
/// invocation's `completion` must be durable in `caller`'s return slot
/// before `caller`'s marker flips back to stack-end.
pub(crate) fn persist_ret(
    pmem: &PMem,
    caller: &FrameMeta,
    completion: Option<ReturnSlot>,
    policy: FlushPolicy,
) -> Result<(), PError> {
    let slot = completion
        .as_ref()
        .map_or([None, None], |slot| slot_stores(caller, slot));
    let flip = [(caller.marker_off(), [MARKER_STACK_END].as_slice())];
    persist_in_order(
        pmem,
        slot_stages(&slot).chain([Stage {
            stores: &flip,
            flush: policy.flush_markers,
        }]),
    )
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

/// Walks a contiguous run of ordinary frames starting at `start` until
/// a stack-end marker, bounds-checked by `limit`. Used by the fixed and
/// resizable-array layouts, and per block by the linked-list layout.
pub(crate) fn walk_contiguous(
    pmem: &PMem,
    start: POffset,
    limit: POffset,
) -> Result<Vec<FrameMeta>, PError> {
    let mut frames = Vec::new();
    let mut pos = start;
    loop {
        match crate::frame::parse_frame(pmem, pos, limit)? {
            crate::frame::ParsedFrame::Ordinary { meta, marker } => {
                pos = meta.end();
                frames.push(meta);
                if marker == crate::frame::MARKER_STACK_END {
                    return Ok(frames);
                }
            }
            crate::frame::ParsedFrame::Pointer { start, .. } => {
                return Err(PError::CorruptStack(format!(
                    "unexpected pointer frame at {start} in a contiguous stack"
                )));
            }
        }
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
