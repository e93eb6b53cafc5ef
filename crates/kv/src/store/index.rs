//! The volatile index: the active generation's descriptor and one head
//! per bucket, in DRAM.
//!
//! A bucket head is traversal state, which the stamped log can rebuild
//! (NVTraverse's rule), and the active generation is what the root cell
//! names: neither needs to be read back from NVRAM on every operation.
//! So each store region keeps one [`KvIndex`] beside its image
//! ([`PMem::volatile`], keyed by the store's base): every handle on the
//! region's boot shares it — clones and independent `open`s, as they
//! share the exclusive section ([`PMem::quiesce`]) — and a reboot
//! starts without it.
//!
//! - **Built** by `PKvStore::open`, after the replay and in the same
//!   exclusive section: the root cell's generation (`PKvStore::root_gen`,
//!   the store's one reader of
//!   [`RootCell::current`](pstack_nvram::RootCell::current)) and one
//!   bulk read of its bucket array. `PKvStore::format` reads the bucket
//!   array of the generation it made the same way.
//! - **Kept** by the group commit: `KvPendingBatch::publish` stores each
//!   head right after its NVRAM CAS, on the same receipt, so a reader
//!   sees a head only once the records it reaches are durable.
//! - **Replaced** by compaction, in its exclusive section, right after
//!   the root swap: the new generation and the heads of its carries.
//!
//! The NVRAM heads are still written, CASed and persisted as before:
//! they are what `open` replays into and the retired generations'
//! evidence, which every reader of a retired generation, and the
//! replay, keep reading from the image. A read of the index on a
//! crashed region fails with [`MemError::Crashed`], as an NVRAM read
//! would: a dead machine never answers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use pstack_core::PError;
use pstack_nvram::{MemError, PMem};

use super::layout::Gen;
use super::PKvStore;

/// The active generation and its heads (absolute record offsets, 0 for
/// an empty bucket).
pub(super) struct Active {
    pub(super) gen: Gen,
    heads: Box<[AtomicU64]>,
}

impl Active {
    pub(super) fn new(gen: Gen, heads: impl IntoIterator<Item = u64>) -> Arc<Self> {
        Arc::new(Active {
            gen,
            heads: heads.into_iter().map(AtomicU64::new).collect(),
        })
    }

    /// `bucket`'s head. Acquire pairs with [`Active::set_head`]'s
    /// Release: a reader that sees a head sees the record writes made
    /// before its publish.
    pub(super) fn head(&self, bucket: u64) -> u64 {
        self.heads[bucket as usize].load(Ordering::Acquire)
    }

    /// Publishes `bucket`'s head; the caller's NVRAM CAS made it so.
    pub(super) fn set_head(&self, bucket: u64, head: u64) {
        self.heads[bucket as usize].store(head, Ordering::Release);
    }
}

/// One store region's index (see the module doc). A reader takes the
/// active generation whole, so a compaction that swaps it under the
/// reader leaves the reader on the generation it started in, as a swap
/// between two reads of the image did.
pub(super) struct KvIndex {
    active: RwLock<Arc<Active>>,
}

impl std::fmt::Debug for KvIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvIndex")
            .field("gen", &self.active().gen)
            .finish_non_exhaustive()
    }
}

impl KvIndex {
    /// An index of no generation yet: what `format` and `open` find on
    /// a region's first use, and fill before they hand out a handle.
    pub(super) fn empty() -> Self {
        let gen = Gen {
            base: 0,
            number: 0,
            log_cap: 0,
        };
        KvIndex {
            active: RwLock::new(Active::new(gen, [])),
        }
    }

    /// Makes `active` the active generation.
    pub(super) fn replace(&self, active: Arc<Active>) {
        *self.active.write().unwrap_or_else(PoisonError::into_inner) = active;
    }

    fn active(&self) -> Arc<Active> {
        Arc::clone(&self.active.read().unwrap_or_else(PoisonError::into_inner))
    }
}

impl PKvStore {
    /// The active generation and its heads, from the index; on a crashed
    /// region, the crash.
    pub(super) fn active(&self) -> Result<Arc<Active>, PError> {
        if self.pmem.is_crashed() {
            return Err(PError::Mem(MemError::Crashed));
        }
        Ok(self.index.active())
    }

    /// The active generation's descriptor, from the index.
    pub(super) fn active_gen(&self) -> Result<Gen, PError> {
        Ok(self.active()?.gen)
    }

    /// `bucket`'s head in `gen`: from the index while `gen` is active,
    /// from the image once it is retired.
    pub(super) fn head_in(&self, gen: &Gen, bucket: u64) -> Result<u64, PError> {
        let active = self.active()?;
        if active.gen.base == gen.base {
            return Ok(active.head(bucket));
        }
        Ok(self.pmem.read_u64(self.bucket_off_at(gen, bucket))?)
    }

    /// `gen` and its bucket array, read in one access: what `format`
    /// and `open` install in the region's index.
    pub(super) fn read_active(pmem: &PMem, gen: Gen, nbuckets: u64) -> Result<Arc<Active>, PError> {
        let mut b = vec![0u8; (nbuckets * 8) as usize];
        pmem.read(gen.heads_off(), &mut b)?;
        let heads = b
            .chunks_exact(8)
            .map(|h| u64::from_le_bytes(h.try_into().expect("8 bytes")));
        Ok(Active::new(gen, heads))
    }
}
