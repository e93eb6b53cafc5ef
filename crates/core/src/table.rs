//! The one durable descriptor table of §5.2's loop: step 7 re-enqueues
//! what is still pending after a restart, step 9 reads every answer, and
//! a served system keeps the same table as the durable half of
//! exactly-once execution.
//!
//! A 64-byte header (the codec's magic, the slot count) precedes one
//! slot per descriptor, each one cache line ([`SLOT_LEN`]). Every slot
//! keeps its kind at byte 0 ([`F_KIND`]), the done flag at byte 1, its
//! answer's flag at byte 2 ([`F_FLAG`]) and the executing worker at
//! bytes 4..8 ([`F_EXEC`]); the rest of the line is the codec's —
//! `pstack-recoverable`'s `TaskTable` (§5 tasks) or `pstack-kv`'s
//! `KvRequestTable` (KV requests, with their admission lifecycle).
//!
//! Every ordering argument rests on one fact: a slot is one line, and a
//! line persists atomically. So a region with shorter lines is refused,
//! and a crash leaves a slot answered with its whole payload or still
//! pending, never a done flag over a missing answer.

use pstack_heap::PHeap;
use pstack_nvram::{Level, MemError, PMem, POffset};

use crate::PError;

/// Bytes of one slot: one cache line.
pub const SLOT_LEN: usize = 64;
/// The header keeps slot 0 line-aligned.
const HEADER_LEN: u64 = 64;
/// Byte 0 of a slot: the codec's kind of descriptor.
pub const F_KIND: u64 = 0;
/// Byte 1: the done flag, written by [`DescriptorTable::answer`] alone.
const F_DONE: u64 = 1;
const DONE: u8 = 1;
/// Byte 2: the answer's flag (swapped, stored, found …).
pub const F_FLAG: u64 = 2;
/// Bytes 4..8: the worker that executed the descriptor.
pub const F_EXEC: u64 = 4;

/// Which codec a table's slots hold, named by its header's magic word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// §5 CAS, enqueue and dequeue descriptors (`TaskTable`).
    Task,
    /// KV requests keyed by request id (`KvRequestTable`).
    Request,
}

impl Codec {
    const fn magic(self) -> u64 {
        match self {
            Codec::Task => 0x5053_5441_534B_5433,    // "PSTASKT3"
            Codec::Request => 0x5053_4B56_5251_5431, // "PSKVRQT1"
        }
    }
}

/// An answered slot, as [`DescriptorTable::answered`] reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answered {
    /// The slot's offset, for the codec's own fields.
    pub at: POffset,
    /// The worker that executed the descriptor.
    pub executor: u32,
    /// The answer's flag.
    pub flag: bool,
    /// The descriptor's kind.
    pub kind: u8,
}

/// A durable table of one-line descriptor slots (see the module docs).
#[derive(Debug, Clone)]
pub struct DescriptorTable {
    pmem: PMem,
    base: POffset,
    slots: u32,
}

impl DescriptorTable {
    /// Bytes of NVRAM needed for `slots` slots.
    #[must_use]
    pub fn required_len(slots: usize) -> usize {
        HEADER_LEN as usize + slots * SLOT_LEN
    }

    /// Allocates a `codec` table of `slots` slots from `heap`, whose
    /// region is `pmem`: zeroed, the header written and `fill(slot
    /// offset, slot)` run for each slot, all riding the allocation's
    /// switch level, awaited once ([`PHeap::alloc_filled`]).
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for no slots or a line shorter than a
    /// slot; heap, NVRAM or `fill`'s errors.
    pub fn format(
        pmem: PMem,
        heap: &PHeap,
        codec: Codec,
        slots: u32,
        mut fill: impl FnMut(POffset, u32) -> Result<(), MemError>,
    ) -> Result<Self, PError> {
        check_line(&pmem)?;
        if slots == 0 {
            let msg = "a descriptor table needs at least one slot";
            return Err(PError::InvalidConfig(msg.into()));
        }
        let base = heap.alloc_filled(
            Self::required_len(slots as usize),
            SLOT_LEN as u64,
            |base| {
                pmem.write_u64(base, codec.magic())?;
                pmem.write_u64(base + 8u64, u64::from(slots))?;
                (0..slots).try_for_each(|slot| fill(slot_off(base, slot), slot))
            },
        )?;
        Ok(DescriptorTable { pmem, base, slots })
    }

    /// Re-attaches to a `codec` table at `base`, reading its header
    /// alone.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for a line shorter than a slot;
    /// [`PError::CorruptStack`] on a bad magic word or a slot count that
    /// overruns the region; NVRAM errors.
    pub fn open(pmem: PMem, base: POffset, codec: Codec) -> Result<Self, PError> {
        check_line(&pmem)?;
        let magic = pmem.read_u64(base)?;
        if magic != codec.magic() {
            let msg = format!("bad {codec:?} table magic {magic:#x} at {base}");
            return Err(PError::CorruptStack(msg));
        }
        let slots = u32::try_from(pmem.read_u64(base + 8u64)?)
            .ok()
            .filter(|&n| base.get() + Self::required_len(n as usize) as u64 <= pmem.len() as u64)
            .ok_or_else(|| PError::CorruptStack(format!("{codec:?} table overruns its region")))?;
        Ok(DescriptorTable { pmem, base, slots })
    }

    /// The region the table lives in.
    #[must_use]
    pub fn pmem(&self) -> &PMem {
        &self.pmem
    }

    /// The table's base offset (persist it to find the table again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// Number of slots.
    #[must_use]
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Slot `slot`'s offset.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for a slot out of range.
    pub fn slot(&self, slot: u32) -> Result<POffset, PError> {
        if slot >= self.slots {
            let msg = format!("slot {slot} out of range ({} slots)", self.slots);
            return Err(PError::InvalidConfig(msg));
        }
        Ok(slot_off(self.base, slot))
    }

    /// Slot `slot`'s line, in one read; [`line_done`] reads its flag.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn read_slot(&self, slot: u32) -> Result<[u8; SLOT_LEN], PError> {
        let mut line = [0u8; SLOT_LEN];
        self.pmem.read(self.slot(slot)?, &mut line)?;
        Ok(line)
    }

    /// The extent `(offset, bytes)` covering `slots`' lines, empty for
    /// none: one flush over it is one round-trip (clean lines in between
    /// persist nothing).
    ///
    /// # Errors
    ///
    /// Out-of-range slot.
    pub fn span(&self, slots: impl IntoIterator<Item = u32>) -> Result<(POffset, usize), PError> {
        let mut span = None;
        for slot in slots {
            span = widen(span, self.slot(slot)?);
        }
        Ok(self.extent(span))
    }

    fn extent(&self, span: Option<(u64, u64)>) -> (POffset, usize) {
        span.map_or((self.base, 0), |(lo, hi)| {
            (POffset::new(lo), (hi - lo) as usize + SLOT_LEN)
        })
    }

    /// The answer rule: per `(slot, payload)`, `write(slot offset,
    /// payload)` stores the answer and then the done flag is stored;
    /// then every slot is issued as **one** flight of `level`, durable
    /// once the caller awaits it.
    ///
    /// # Errors
    ///
    /// Out-of-range slot, NVRAM or `write`'s errors.
    pub fn answer<P>(
        &self,
        entries: impl IntoIterator<Item = (u32, P)>,
        level: &mut Level,
        mut write: impl FnMut(POffset, P) -> Result<(), MemError>,
    ) -> Result<(), PError> {
        let mut span = None;
        for (slot, payload) in entries {
            let e = self.slot(slot)?;
            write(e, payload)?;
            self.pmem.write_u8(e + F_DONE, DONE)?;
            span = widen(span, e);
        }
        let (lo, len) = self.extent(span);
        Ok(level.issue(&self.pmem, lo, len)?)
    }

    /// Takes slot `slot`'s answer back: clears its done flag and
    /// persists its line, awaited — for an answer its reader found was
    /// never shown, so that no later crash can make it count again.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn unanswer(&self, slot: u32) -> Result<(), PError> {
        let e = self.slot(slot)?;
        self.pmem.write_u8(e + F_DONE, 0)?;
        self.pmem.flush(e, SLOT_LEN)?;
        Ok(())
    }

    /// Whether slot `slot` is answered.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn is_done(&self, slot: u32) -> Result<bool, PError> {
        Ok(self.pmem.read_u8(self.slot(slot)? + F_DONE)? == DONE)
    }

    /// Slot `slot`'s answer, if it is answered; nothing but the done
    /// flag is read from a pending slot.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn answered(&self, slot: u32) -> Result<Option<Answered>, PError> {
        if !self.is_done(slot)? {
            return Ok(None);
        }
        let at = slot_off(self.base, slot);
        Ok(Some(Answered {
            at,
            executor: self.pmem.read_u32(at + F_EXEC)?,
            flag: self.pmem.read_u8(at + F_FLAG)? != 0,
            kind: self.pmem.read_u8(at + F_KIND)?,
        }))
    }

    /// Step 7: in slot order, the slots `occupied` accepts (handed the
    /// slot's offset) that are not answered.
    ///
    /// # Errors
    ///
    /// NVRAM or `occupied`'s errors.
    pub fn pending(
        &self,
        mut occupied: impl FnMut(POffset) -> Result<bool, MemError>,
    ) -> Result<Vec<u32>, PError> {
        let mut out = Vec::new();
        for slot in 0..self.slots {
            let e = slot_off(self.base, slot);
            if occupied(e)? && self.pmem.read_u8(e + F_DONE)? != DONE {
                out.push(slot);
            }
        }
        Ok(out)
    }
}

/// Whether a line [`DescriptorTable::read_slot`] read is answered.
#[must_use]
pub fn line_done(line: &[u8; SLOT_LEN]) -> bool {
    line[F_DONE as usize] == DONE
}

/// `span`, the lowest and highest slot offsets seen, grown by `e`.
fn widen(span: Option<(u64, u64)>, e: POffset) -> Option<(u64, u64)> {
    let e = e.get();
    Some(span.map_or((e, e), |(lo, hi)| (lo.min(e), hi.max(e))))
}

fn slot_off(base: POffset, slot: u32) -> POffset {
    base + (HEADER_LEN + u64::from(slot) * SLOT_LEN as u64)
}

/// Line sizes are powers of two, so a line of at least [`SLOT_LEN`]
/// bytes holds whole slots.
fn check_line(pmem: &PMem) -> Result<(), PError> {
    let line = pmem.line_size();
    if line < SLOT_LEN {
        let msg = format!("a {line}-byte line would split a {SLOT_LEN}-byte descriptor slot");
        return Err(PError::InvalidConfig(msg));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, PMemBuilder, Survivors};

    fn region(line: usize) -> (PMem, PHeap) {
        let pmem = PMemBuilder::new()
            .len(1 << 16)
            .line_size(line)
            .build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        (pmem, heap)
    }

    fn table(slots: u32) -> (PMem, PHeap, DescriptorTable) {
        let (pmem, heap) = region(64);
        let fill = |e, slot| pmem.write_u8(e + F_KIND, slot as u8);
        let t = DescriptorTable::format(pmem.clone(), &heap, Codec::Task, slots, fill).unwrap();
        (pmem, heap, t)
    }

    /// Answers `slots` with executor `exec` and a set flag, awaited.
    fn answer(t: &DescriptorTable, slots: &[u32], exec: u32) {
        let pmem = t.pmem().clone();
        let mut level = Level::default();
        let entries = slots.iter().map(|&s| (s, exec));
        t.answer(entries, &mut level, |e, exec| {
            pmem.write(e + F_FLAG, &[1, 0, exec as u8, 0, 0, 0])
        })
        .unwrap();
        level.await_all().unwrap();
    }

    #[test]
    fn slots_are_lines_after_a_line_of_header() {
        let (_, _, t) = table(3);
        assert_eq!(t.base().get() % SLOT_LEN as u64, 0);
        for slot in 0..3 {
            assert_eq!(t.slot(slot).unwrap(), t.base() + 64 * (u64::from(slot) + 1));
        }
        assert!(matches!(t.slot(3), Err(PError::InvalidConfig(_))));
        assert_eq!(DescriptorTable::required_len(3), 4 * 64);
    }

    #[test]
    fn format_fills_each_slot_and_reopens() {
        let (pmem, _, t) = table(4);
        let t2 = DescriptorTable::open(pmem, t.base(), Codec::Task).unwrap();
        assert_eq!(t2.slots(), 4);
        for slot in 0..4 {
            assert_eq!(t2.read_slot(slot).unwrap()[F_KIND as usize], slot as u8);
        }
        assert_eq!(t2.pending(|_| Ok(true)).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn open_checks_magic_codec_overrun_and_line() {
        let (pmem, _, t) = table(2);
        let open = |base, codec| DescriptorTable::open(pmem.clone(), base, codec);
        let corrupt = |r: Result<_, PError>| matches!(r, Err(PError::CorruptStack(_)));
        assert!(corrupt(open(t.base(), Codec::Request)));
        assert!(corrupt(open(POffset::new(4096), Codec::Task)));
        // A count that overruns the region is refused before any scan.
        for count in [1 << 20, u64::MAX] {
            pmem.write_u64(t.base() + 8u64, count).unwrap();
            assert!(corrupt(open(t.base(), Codec::Task)), "count {count}");
        }

        let invalid = |r: Result<_, PError>| matches!(r, Err(PError::InvalidConfig(_)));
        let fill = |_, _| Ok(());
        let (short, heap) = region(32);
        let format = DescriptorTable::format(short.clone(), &heap, Codec::Task, 1, fill);
        assert!(invalid(format));
        assert!(invalid(DescriptorTable::open(
            short,
            POffset::new(0),
            Codec::Task
        )));
        let (pmem, heap) = region(64);
        assert!(invalid(DescriptorTable::format(
            pmem,
            &heap,
            Codec::Task,
            0,
            fill
        )));
    }

    #[test]
    fn answers_are_one_flight_and_read_back() {
        let (pmem, _, t) = table(4);
        let before = pmem.stats().snapshot();
        answer(&t, &[1, 3], 7);
        let d = pmem.stats().snapshot() - before;
        assert_eq!(
            (d.persists, d.lines_persisted),
            (1, 2),
            "one flight, two lines"
        );
        assert_eq!(t.pending(|_| Ok(true)).unwrap(), vec![0, 2]);
        assert_eq!(t.pending(|e| Ok(e != t.slot(0).unwrap())).unwrap(), vec![2]);
        let a = t.answered(3).unwrap().unwrap();
        assert_eq!(
            (a.at, a.executor, a.flag, a.kind),
            (t.slot(3).unwrap(), 7, true, 3)
        );
        assert_eq!(t.answered(0).unwrap(), None);
        assert!(line_done(&t.read_slot(1).unwrap()));
        assert!(!line_done(&t.read_slot(2).unwrap()));
        assert!(t
            .answer([(4, ())], &mut Level::default(), |_, ()| Ok(()))
            .is_err());
    }

    #[test]
    fn an_answer_is_whole_or_absent_at_every_crash_point() {
        let mut answered = 0;
        let events = sweep(
            || {
                let (pmem, _, t) = table(2);
                (pmem, t)
            },
            |(pmem, t)| -> Result<(), PError> {
                let mut level = Level::default();
                t.answer([(0, ()), (1, ())], &mut level, |e, ()| {
                    pmem.write(e + F_FLAG, &[1, 0, 5, 0, 0, 0])
                })?;
                level.await_all()?;
                Ok(())
            },
            |(pmem, t), cut| {
                let t2 = DescriptorTable::open(pmem, t.base(), Codec::Task).unwrap();
                for slot in 0..2 {
                    match t2.answered(slot).unwrap() {
                        None => assert!(!cut.returned(), "{cut}: an awaited answer lost"),
                        Some(a) => {
                            assert!(
                                cut.survivors != Survivors::None || cut.returned(),
                                "{cut}: an un-awaited flight kept a line"
                            );
                            assert_eq!((a.executor, a.flag), (5, true), "{cut}");
                            answered += 1;
                        }
                    }
                }
            },
        );
        assert_eq!(events, [6], "two answers' events");
        assert!(
            answered > 0,
            "surviving lines must reach the answered state"
        );
    }
}
