//! Persistent heap allocator for emulated NVRAM.
//!
//! The persistent-stack runtime needs a heap in NVRAM for three things
//! the paper calls out explicitly: return values larger than 8 bytes
//! (§4.2), the blocks of the unbounded stack variants (Appendix A), and
//! application data such as the recoverable-CAS register and matrix.
//!
//! # Crash-consistency design
//!
//! The only *persistent* allocator metadata is the per-block header: a
//! size word whose low bit is the used flag, plus a canary word. The
//! free list itself is **volatile** and rebuilt on every open by walking
//! the block headers — so there is no free-list pointer to corrupt.
//!
//! Every metadata transition is a single 8-byte header-word persist
//! (crash-atomic, since a 16-byte-aligned word never crosses a cache
//! line), and the transitions are ordered so that the block walk parses
//! a consistent heap at **every** intermediate crash point:
//!
//! * *allocation with a split* first writes the interior headers (still
//!   invisible to the walk, which is driven by the old size word) and
//!   persists them as one level, and only then rewrites the original
//!   size word — the atomic switch — as a flight of the caller's level
//!   ([`PHeap::alloc_aligned_in`]), beside the block's own fill: a
//!   block allocated, filled and published waits three round-trips
//!   (interior headers, switch ‖ fill, publish);
//! * *free* clears the used bit, then absorbs free neighbours by
//!   rewriting one size word at a time.
//!
//! If a crash lands between "clear used" and "absorb", the walk sees two
//! adjacent free blocks; [`PHeap::open`] re-coalesces them. A block that
//! was allocated but whose owner crashed before publishing it anywhere
//! is *leaked*, not corrupted — the paper's recovery model re-executes
//! the owning function, which allocates afresh (documented trade-off,
//! identical to Makalu-style allocators without GC).
//!
//! # Example
//!
//! ```
//! use pstack_nvram::{PMemBuilder, POffset};
//! use pstack_heap::PHeap;
//!
//! # fn main() -> Result<(), pstack_heap::HeapError> {
//! let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
//! let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16)?;
//! let a = heap.alloc(100)?;
//! pmem.write_u64(a, 42)?;
//! pmem.flush(a, 8)?;
//! heap.free(a)?;
//! # Ok(())
//! # }
//! ```

mod error;
mod heap;

pub use error::HeapError;
pub use heap::{HeapStats, PHeap, BLOCK_HEADER_LEN, MIN_BLOCK_LEN};
