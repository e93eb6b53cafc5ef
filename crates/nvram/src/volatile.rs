//! Volatile state a program keeps in DRAM beside a region: what
//! recovery can rebuild from the image need not be read back from it
//! on every access (NVTraverse's rule for traversal state). Like the
//! quiesce gate it belongs to the region's boot — every handle on it
//! shares it, clones and independent opens alike — is never part of
//! the image, and [`PMem::reopen`] starts without it.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError};

use crate::PMem;

/// A boot's volatile slots, by type and key.
pub(crate) type Slots = HashMap<(TypeId, u64), Arc<dyn Any + Send + Sync>>;

impl PMem {
    /// The region's volatile `T` under `key` (a program's own name for
    /// it, e.g. the base offset of the structure it indexes), made by
    /// `init` on this boot's first call. It reads and counts nothing:
    /// whatever the program fills it with, it reads from the region
    /// through the counted accessors.
    pub fn volatile<T: Any + Send + Sync>(&self, key: u64, init: impl FnOnce() -> T) -> Arc<T> {
        let mut slots = self
            .volatile_slots()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let slot = slots
            .entry((TypeId::of::<T>(), key))
            .or_insert_with(|| Arc::new(init()));
        Arc::clone(slot)
            .downcast()
            .expect("a slot keyed by its type holds that type")
    }
}

#[cfg(test)]
mod tests {
    use crate::PMemBuilder;

    #[test]
    fn handles_of_one_boot_share_a_slot_and_a_reboot_starts_without_it() {
        let pmem = PMemBuilder::new().len(1024).build_in_memory();
        let a = pmem.volatile(8, || 1u64);
        let b = pmem.clone().volatile(8, || 2u64);
        assert_eq!((*a, *b), (1, 1), "one slot per boot and key");
        assert_eq!(*pmem.volatile(16, || 3u64), 3, "another key, another slot");
        assert_eq!(*pmem.volatile(8, || 4u32), 4, "another type, another slot");
        pmem.crash_now(0, 0.0);
        let next = pmem.reopen().unwrap();
        assert_eq!(*next.volatile(8, || 5u64), 5, "the reboot made its own");
    }
}
