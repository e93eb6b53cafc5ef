//! Emulated NVRAM for executing and testing persistent-memory programs.
//!
//! This crate is the hardware substrate of the persistent-stack runtime
//! described in *"Execution of NVRAM Programs with Persistent Stack"*
//! (Aksenov et al., PACT 2021). It models the two properties of real
//! NVRAM systems that the paper's protocols defend against:
//!
//! 1. **A volatile cache in front of persistence.** Writes land in a
//!    volatile buffer of cache lines. Data only becomes durable when its
//!    line is explicitly flushed — or, nondeterministically, when a line
//!    is "evicted" before a crash. A crash discards every dirty line that
//!    was not (explicitly or nondeterministically) persisted.
//! 2. **Per-line atomic flush.** Flushing one cache line is atomic: after
//!    a crash the line is either entirely persistent or entirely lost. A
//!    flush is one flight over its lines, issued and awaited; a crash
//!    that cuts it before the flight completes leaves its lines to the
//!    survivor lottery like any un-completed flight, so any subset of a
//!    multi-line flush may persist.
//!
//! All persistent references are [`POffset`] values — offsets from the
//! start of the region — never raw addresses, because the mapping address
//! may change across restarts (§4.1 of the paper). The API makes this
//! discipline impossible to violate: no raw pointers are ever exposed.
//!
//! Behind every region is one emulated device: its image kept in
//! memory, or written through to a file, which emulates the paper's
//! HDD-based `mmap` deployment and survives real process restarts.
//!
//! # Example
//!
//! ```
//! use pstack_nvram::{PMem, PMemBuilder, POffset};
//!
//! # fn main() -> Result<(), pstack_nvram::MemError> {
//! let pmem = PMemBuilder::new().len(4096).build_in_memory();
//! let off = POffset::new(128);
//! pmem.write_u64(off, 0xDEAD_BEEF)?;
//! pmem.flush(off, 8)?;
//! assert_eq!(pmem.read_u64(off)?, 0xDEAD_BEEF);
//!
//! // A crash with survival probability 0 wipes everything unflushed,
//! // but the flushed word survives.
//! pmem.crash_now(42, 0.0);
//! let pmem = pmem.reopen()?;
//! assert_eq!(pmem.read_u64(off)?, 0xDEAD_BEEF);
//! # Ok(())
//! # }
//! ```

mod backend;
mod builder;
mod durable;
mod error;
mod failpoint;
mod level;
mod offset;
mod pmem;
pub mod psan;
mod rootswap;
mod stats;
mod stripe;
mod sweep;
mod typed;
mod volatile;

pub use builder::{PMemBuilder, DEFAULT_CACHE_LINE, DEFAULT_REGION_LEN};
pub use durable::{Durable, FlushTicket};
pub use error::MemError;
pub use failpoint::FailPlan;
pub use level::Level;
pub use offset::POffset;
pub use pmem::{PMem, QuiesceGuard};
pub use psan::{op_label, OpLabelGuard, PsanViolation, PsanViolationKind, ShadowState};
pub use rootswap::{RootCell, ROOT_CELL_LEN};
pub use stats::{MemStats, StatsSnapshot};
pub use stripe::PMemStripe;
pub use sweep::{sweep, Cut, Image, Survivors, Sweep};
