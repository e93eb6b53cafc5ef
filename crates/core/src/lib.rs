//! Persistent call stack and runtime for NVRAM programs.
//!
//! This crate implements the contribution of *"Execution of NVRAM
//! Programs with Persistent Stack"* (Aksenov et al., PACT 2021):
//!
//! * [`stack`] — the persistent stack itself, in the three layouts the
//!   paper describes: a fixed-capacity contiguous region (§3), a
//!   dynamically resizable array (Appendix A.2) and a linked list of
//!   blocks (Appendix A.3). All share one frame codec and one trait,
//!   [`PersistentStack`]. Push linearizes at a single-byte end-marker
//!   flip (`0x1 → 0x0` on the previous top frame); pop at the reverse
//!   flip on the penultimate frame. Both are crash-atomic because a
//!   single byte never crosses a cache line, and the flipped frame's
//!   return slot — cleared by a push, filled by a returning pop — rides
//!   the same line-atomic persist.
//! * [`registry`] — the table of recoverable functions: every function
//!   `F` registered with the runtime comes with its dual `F.Recover`
//!   (§2.3), invoked during recovery with the same arguments.
//! * [`invoke`] — the invocation machinery replacing x86 `CALL`/`RET`
//!   (§3.2 explains why the hardware stack cannot be reused): `CALL`
//!   pushes a frame and clears the parent's return slot in one step,
//!   the body runs, `RET` writes the return value through the
//!   persistent slot (§4.2) and pops in one step — two or three
//!   persists a call, §3.4's two invariants and nothing more.
//! * [`runtime`] — the system of §4.3: a main thread in standard or
//!   recovery mode, N worker threads with per-thread persistent stacks
//!   fed from a producer-consumer queue, and parallel recovery that
//!   walks each stack top-to-bottom calling recover duals. The
//!   [`StripedRuntime`] variant spans a control region plus a stripe of
//!   data regions under whole-system crash semantics: a crash in any
//!   region trips them all, runs are attributed to the tripping region
//!   ([`CrashSite`]), and recovery fans per-shard preludes out before
//!   replaying interrupted frames.
//! * [`txn`] — the transactional for-loop of Appendix A.1 as a reusable
//!   combinator: one persistent frame per item, crash ⇒ reverse-order
//!   rollback, commit at the final unwind.
//!
//! See the `pstack` facade crate for a complete quickstart.

pub mod admission;
pub mod frame;
pub mod invoke;
pub mod registry;
pub mod runtime;
pub mod stack;
pub mod txn;

mod error;
mod macros;

pub use admission::{Admission, AdmissionQueue};
pub use error::PError;
pub use frame::{FrameMeta, ParsedFrame, MARKER_FRAME_END, MARKER_STACK_END};
pub use invoke::{recover_stack, ChildStatus, PContext, RetBytes, StackRecovery};
pub use registry::{FnPair, FunctionRegistry, RecoverableFunction, DUMMY_FUNC_ID};
pub use runtime::{
    CrashRegion, CrashSite, RecoveryMode, RecoveryReport, RunReport, Runtime, RuntimeConfig,
    StripedRuntime, Task, TaskQueue,
};
pub use stack::{
    FixedStack, FlushPolicy, FrameRecord, ListStack, PersistentStack, ReturnSlot, StackKind,
    VecStack,
};
pub use txn::{TxnLoop, TxnStep, U64CellStep};
