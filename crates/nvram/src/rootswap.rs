//! The persisted root-swap primitive: a double-buffered pointer cell
//! whose update commits with a single-line selector flip.
//!
//! Reallocating a persistent object (compacting a log into a fresh
//! segment, resharding a region, growing a table) always ends the same
//! way: a new copy of the object exists somewhere else, and *one*
//! persisted store must atomically re-root every future boot onto it.
//! A multi-word root (sequence number + pointer) cannot be updated
//! atomically by a single write, so [`RootCell`] uses the classic A/B
//! scheme: two slots, each holding a `(seq, ptr)` pair, plus a one-word
//! selector naming the live slot. [`RootCell::swap`] writes the whole
//! next root into the *inactive* slot and only then flips the selector;
//! the selector's persist is the commit:
//!
//! ```text
//!  base+0   magic
//!  base+8   selector           (0 or 1 — the single-line commit point)
//!  base+16  slot 0: seq, ptr
//!  base+32  slot 1: seq, ptr
//! ```
//!
//! Because the selector is one 8-byte word inside one cache line, it
//! persists atomically under this crate's crash model: a crash at *any*
//! moment of a swap leaves the cell naming either the complete old root
//! or the complete new root — never a mix. That is the whole crash
//! contract a generational store needs: everything reachable from the
//! new root must be durable before `swap` is called — `swap` takes its
//! [`Durable`] receipt — and recovery reads whichever root won.
//!
//! When the inactive slot shares the selector's line — every slot of a
//! cell formatted at a 64-aligned base on 64-byte lines — the swap is
//! **one** persist of that line: a line persists whole and the slot is
//! written first, so no crash state holds the flipped selector without
//! the slot (under a prefix model too, since the slot's store precedes
//! the selector's). A slot on another line is persisted before the
//! selector is written: two persists.

use crate::{Durable, MemError, PMem, POffset};

const ROOTSWAP_MAGIC: u64 = 0x5053_524F_4F54_5357; // "PSROOTSW"

const OFF_MAGIC: u64 = 0;
const OFF_SELECTOR: u64 = 8;
const OFF_SLOTS: u64 = 16;
const SLOT_STRIDE: u64 = 16;

/// Bytes of NVRAM a [`RootCell`] occupies (keep it line-aligned so the
/// selector flip is single-line).
pub const ROOT_CELL_LEN: u64 = 64;

/// A crash-atomic `(seq, ptr)` root: double-buffered slots committed by
/// a single persisted selector flip. Cheap to clone; clones share the
/// cell. See the [module docs](self) for the layout and crash contract.
///
/// # Example
///
/// ```
/// use pstack_nvram::{PMemBuilder, POffset, RootCell};
///
/// # fn main() -> Result<(), pstack_nvram::MemError> {
/// let pmem = PMemBuilder::new().len(4096).build_in_memory();
/// let cell = RootCell::format(pmem.clone(), POffset::new(128), 0, 0x400)?;
/// assert_eq!(cell.current()?, (0, 0x400));
/// // The new block, durable before the root names it.
/// pmem.write(POffset::new(0x800), &[7; 64])?;
/// let block = pmem.flush(POffset::new(0x800), 64)?;
/// cell.swap(1, 0x800, 64, &block)?;
/// assert_eq!(cell.current()?, (1, 0x800));
/// // The committed root survives a crash.
/// pmem.crash_now(7, 0.0);
/// let cell = RootCell::open(pmem.reopen()?, POffset::new(128))?;
/// assert_eq!(cell.current()?, (1, 0x800));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RootCell {
    pmem: PMem,
    base: POffset,
}

impl RootCell {
    /// Formats a cell at `base` holding the initial root `(seq, ptr)`
    /// in slot 0, and persists it.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn format(pmem: PMem, base: POffset, seq: u64, ptr: u64) -> Result<Self, MemError> {
        pmem.write_u64(base + OFF_SELECTOR, 0)?;
        pmem.write_u64(base + OFF_SLOTS, seq)?;
        pmem.write_u64(base + (OFF_SLOTS + 8), ptr)?;
        pmem.write_u64(base + OFF_MAGIC, ROOTSWAP_MAGIC)?;
        pmem.flush(base, ROOT_CELL_LEN as usize)?;
        Ok(RootCell { pmem, base })
    }

    /// Re-attaches to a cell previously formatted at `base`.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidConfig`] on a bad magic word or an
    /// out-of-range selector.
    pub fn open(pmem: PMem, base: POffset) -> Result<Self, MemError> {
        let magic = pmem.read_u64(base + OFF_MAGIC)?;
        if magic != ROOTSWAP_MAGIC {
            return Err(MemError::InvalidConfig(format!(
                "bad root-cell magic {magic:#x} at {base}"
            )));
        }
        let cell = RootCell { pmem, base };
        cell.selector()?;
        Ok(cell)
    }

    /// The cell's base offset.
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    fn selector(&self) -> Result<u64, MemError> {
        let sel = self.pmem.read_u64(self.base + OFF_SELECTOR)?;
        if sel > 1 {
            return Err(MemError::InvalidConfig(format!(
                "root cell at {} has selector {sel} (corrupt)",
                self.base
            )));
        }
        Ok(sel)
    }

    fn slot_off(&self, slot: u64) -> POffset {
        self.base + (OFF_SLOTS + slot * SLOT_STRIDE)
    }

    /// The committed root `(seq, ptr)`.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors, or [`MemError::InvalidConfig`] on a
    /// corrupt selector.
    pub fn current(&self) -> Result<(u64, u64), MemError> {
        let slot = self.slot_off(self.selector()?);
        Ok((self.pmem.read_u64(slot)?, self.pmem.read_u64(slot + 8u64)?))
    }

    /// Commits a new root: writes `(seq, ptr)` into the inactive slot,
    /// then flips and persists the selector. The flip is the commit
    /// point — a crash anywhere in this method leaves the cell naming
    /// either the old root or the new one, complete. One persist when
    /// the slot shares the selector's line (the line carries both), two
    /// when it does not (the slot persisted before the flip is written).
    ///
    /// `block` is the receipt for `[ptr, ptr + len)`, the whole block
    /// the new root makes reachable: it was durable before the call,
    /// and the cell orders only its own writes. The receipt is checked
    /// ([`Durable::check`]) and, under PSan, every line of the block is
    /// checked at the flip.
    ///
    /// # Errors
    ///
    /// A propagated crash (re-read [`RootCell::current`] after restart
    /// to learn which root won), or other NVRAM errors.
    pub fn swap(&self, seq: u64, ptr: u64, len: usize, block: &Durable) -> Result<(), MemError> {
        block.check(&self.pmem, POffset::new(ptr), len);
        let next = 1 - self.selector()?;
        let slot = self.slot_off(next);
        self.pmem.write_u64(slot, seq)?;
        self.pmem.write_u64(slot + 8u64, ptr)?;
        let selector = self.base + OFF_SELECTOR;
        let line = self.pmem.line_size() as u64;
        let slot_end = slot.get() + SLOT_STRIDE;
        // A slot in the selector's line rides the flip's persist; a slot
        // on another line is persisted ahead of the flip.
        let flip_len = if selector.get() / line == (slot_end - 1) / line {
            slot_end - selector.get()
        } else {
            self.pmem.flush(slot, SLOT_STRIDE as usize)?;
            8
        };
        // The selector flip below is the commit point: under PSan, the
        // block the new root names must be durable *now*.
        self.pmem.psan_check_durable(POffset::new(ptr), len);
        self.pmem.write_u64(selector, next)?;
        self.pmem.flush(selector, flip_len as usize)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PMemBuilder, Survivors, Sweep};

    /// Writes and flushes the block a test swap publishes.
    fn block(p: &PMem, ptr: u64) -> Durable {
        p.write(POffset::new(ptr), &[7; 64]).unwrap();
        p.flush(POffset::new(ptr), 64).unwrap()
    }

    fn buffered() -> PMem {
        // PSan shadows every rootswap test: the cell's own protocol
        // must never trip the sanitizer.
        PMemBuilder::new()
            .len(4096)
            .line_size(64)
            .psan(true)
            .build_in_memory()
    }

    #[test]
    fn format_open_swap_round_trip() {
        let p = buffered();
        let cell = RootCell::format(p.clone(), POffset::new(64), 3, 300).unwrap();
        assert_eq!(cell.current().unwrap(), (3, 300));
        cell.swap(4, 1024, 64, &block(&p, 1024)).unwrap();
        cell.swap(5, 2048, 64, &block(&p, 2048)).unwrap();
        assert_eq!(cell.current().unwrap(), (5, 2048));
        let cell2 = RootCell::open(p, POffset::new(64)).unwrap();
        assert_eq!(cell2.current().unwrap(), (5, 2048));
        assert_eq!(cell2.base(), POffset::new(64));
    }

    #[test]
    fn open_rejects_garbage() {
        let p = buffered();
        assert!(matches!(
            RootCell::open(p, POffset::new(0)),
            Err(MemError::InvalidConfig(_))
        ));
    }

    /// Persists of one swap into a cell at `base`.
    fn swap_persists(cell: &RootCell, p: &PMem, seq: u64, ptr: u64) -> u64 {
        let new = block(p, ptr);
        let before = p.stats().snapshot();
        cell.swap(seq, ptr, 64, &new).unwrap();
        (p.stats().snapshot() - before).persists
    }

    #[test]
    fn a_one_line_swap_is_one_persist_and_a_slot_across_lines_two() {
        // Line-aligned: both slots share the selector's line.
        let p = buffered();
        let cell = RootCell::format(p.clone(), POffset::new(64), 0, 0).unwrap();
        assert_eq!(swap_persists(&cell, &p, 1, 1024), 1);
        assert_eq!(swap_persists(&cell, &p, 2, 2048), 1);
        // At offset 32 slot 1 lies on the next line: slot first, then
        // the selector. Slot 0 shares the selector's line.
        let p = buffered();
        let cell = RootCell::format(p.clone(), POffset::new(32), 0, 0).unwrap();
        assert_eq!(swap_persists(&cell, &p, 1, 1024), 2, "into slot 1");
        assert_eq!(swap_persists(&cell, &p, 2, 2048), 1, "into slot 0");
        assert_eq!(cell.current().unwrap(), (2, 2048));
        assert!(p.psan_violations().is_empty());
    }

    #[test]
    fn swap_crash_points_leave_old_or_new_root_never_a_mix() {
        // Enumerate every persistence event inside swap(), for a cell
        // on one line and one whose target slot lies on the next line,
        // keeping no dirty line, every one, or seeded halves: after any
        // crash the reopened cell must read a *complete* root — the old
        // pair or the new pair, never old seq with new ptr.
        for base in [64u64, 32] {
            let probe = || {
                let p = buffered();
                let cell = RootCell::format(p.clone(), POffset::new(base), 7, 700).unwrap();
                let new = block(&p, 1024);
                (p, (cell, new))
            };
            // The half model under eight seeds: one seed rarely keeps
            // the one line of a two-line flight that would tear it.
            let survivors = Survivors::halves(8);
            // Per survivor choice: [kept the old root, showed the new].
            let mut seen = vec![[false; 2]; survivors.len()];
            let events = Sweep::new().survivors(&survivors).run(
                probe,
                |(_, (cell, new))| cell.swap(8, 1024, 64, new),
                |(p2, _), cut| {
                    let at = format!("base {base}, {cut}");
                    let cell2 = RootCell::open(p2.clone(), POffset::new(base)).unwrap();
                    let got = cell2.current().unwrap();
                    assert!(
                        got == (7, 700) || got == (8, 1024),
                        "{at}: torn root {got:?}"
                    );
                    let choice = survivors.iter().position(|&s| s == cut.survivors);
                    seen[choice.unwrap()][usize::from(got == (8, 1024))] = true;
                    cut.assert_psan_clean(p2.psan_violations());
                },
            );
            assert!(
                events[0] >= 3,
                "base {base}: slot writes + selector write + its line"
            );
            for (survivors, seen) in survivors.iter().zip(seen) {
                assert!(
                    seen[0],
                    "base {base}, survivors {survivors:?}: no cut kept the old root"
                );
                if *survivors == Survivors::All {
                    assert!(
                        seen[1],
                        "base {base}: a kept flip never showed the new root"
                    );
                }
            }
        }
    }

    #[test]
    fn psan_catches_a_swap_over_a_dirty_commit_extent() {
        let p = buffered();
        let cell = RootCell::format(p.clone(), POffset::new(64), 0, 0).unwrap();
        // New-generation block flushed, then written again...
        let receipt = p.flush(POffset::new(1024), 128).unwrap();
        p.write(POffset::new(1024), &[7u8; 128]).unwrap();
        // ...and committed on the stale receipt: the sanitizer objects.
        cell.swap(1, 1024, 128, &receipt).unwrap();
        let v = p.psan_violations();
        assert!(
            v.iter().any(
                |x| matches!(x.kind, crate::psan::PsanViolationKind::UnorderedCommit)
                    && x.offset == 1024
            ),
            "expected an unordered-commit violation at 1024: {v:?}"
        );
        // The same swap with the extent flushed first is clean.
        let p = buffered();
        let cell = RootCell::format(p.clone(), POffset::new(64), 0, 0).unwrap();
        p.write(POffset::new(1024), &[7u8; 128]).unwrap();
        let receipt = p.flush(POffset::new(1024), 128).unwrap();
        cell.swap(1, 1024, 128, &receipt).unwrap();
        assert!(p.psan_violations().is_empty());
    }

    #[test]
    fn stripe_exposes_per_shard_cells() {
        let stripe = PMemBuilder::new().len(4096).build_striped(3);
        for s in 0..3u64 {
            RootCell::format(
                stripe.region(s as usize).clone(),
                POffset::new(64),
                s,
                100 * s,
            )
            .unwrap();
        }
        for s in 0..3u64 {
            let cell = stripe.root_cell(s as usize, POffset::new(64)).unwrap();
            assert_eq!(cell.current().unwrap(), (s, 100 * s));
            let new = block(stripe.region(s as usize), 1024 + 64 * s);
            cell.swap(s + 1, 1024 + 64 * s, 64, &new).unwrap();
        }
        assert_eq!(
            stripe
                .root_cell(1, POffset::new(64))
                .unwrap()
                .current()
                .unwrap(),
            (2, 1088)
        );
    }
}
