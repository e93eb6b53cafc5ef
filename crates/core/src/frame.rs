//! Persistent stack frame codec (§3.3 and Appendix A.3 of the paper).
//!
//! Every frame ends with a one-byte *end marker*: [`MARKER_STACK_END`]
//! (`0x1`) on the last frame of the stack, [`MARKER_FRAME_END`] (`0x0`)
//! on every other frame. Anything after the stack-end marker is invalid
//! data and is never interpreted — that is what makes partially written
//! frames harmless (Fig. 5 of the paper).
//!
//! Two frame kinds exist, distinguished by a one-byte preamble
//! (Appendix A.3): *ordinary* frames (`0xA`) describe one in-flight
//! function invocation; *pointer* frames (`0xB`) redirect the stack to
//! its next linked-list block. The fixed and resizable-array stack
//! variants only ever contain ordinary frames; they still carry the
//! preamble so all three variants share this codec (one byte per frame
//! of overhead — a documented deviation from the paper's minimal
//! layout).
//!
//! Ordinary frame layout (`23 + args_len` bytes):
//!
//! ```text
//! [0xA][func_id: u64][args_len: u32][args][ret_flag: u8][ret_val: 8B][marker: u8]
//! ```
//!
//! The `ret_flag`/`ret_val` pair is the frame's *return slot* (§4.2),
//! and it sits next to the marker on purpose: the slot and the marker
//! are the ten-byte tail both linearization steps write. A push clears
//! the old top's flag and flips its marker to frame-end; a returning
//! pop stores the child's small (≤ 8 byte) result and the flag into its
//! parent's slot and flips the parent's marker back to stack-end — in
//! that store order, and in **one** persist whenever the tail lies in
//! one cache line (a line persists atomically). A tail that straddles
//! a line boundary is persisted in store order instead, slot before
//! marker. Either way the value is durable by the time the child's
//! completion linearizes, and a frame that has a live child never shows
//! an earlier child's completion. The protocol and its argument are in
//! [`crate::invoke`].
//!
//! Pointer frame layout (10 bytes):
//!
//! ```text
//! [0xB][next_block: u64][marker: u8]
//! ```

use pstack_nvram::{PMem, POffset};

use crate::PError;

/// End-marker value on the topmost (last) frame of a stack.
pub const MARKER_STACK_END: u8 = 0x1;

/// End-marker value on every frame except the topmost one.
pub const MARKER_FRAME_END: u8 = 0x0;

/// Preamble byte of an ordinary (function invocation) frame.
pub const PREAMBLE_ORDINARY: u8 = 0xA;

/// Preamble byte of a pointer frame redirecting to the next block.
pub const PREAMBLE_POINTER: u8 = 0xB;

/// Fixed bytes of an ordinary frame beyond its arguments.
pub const ORDINARY_OVERHEAD: u64 = 23;

/// Total length of a pointer frame.
pub const POINTER_FRAME_LEN: u64 = 10;

/// Maximum encodable argument length in bytes.
pub const MAX_ARGS_LEN: usize = 1 << 20;

/// Return-slot flag: no completed child recorded.
pub const RET_EMPTY: u8 = 0;
/// Return-slot flag: child completed and returned no value.
pub const RET_COMPLETED_UNIT: u8 = 1;
/// Return-slot flag: child completed and returned the 8-byte value.
pub const RET_COMPLETED_VALUE: u8 = 2;

/// Volatile metadata describing one ordinary frame in place.
///
/// Holds absolute offsets, so it becomes stale if the stack's block is
/// relocated (the resizable-array variant does this); stack
/// implementations rebase their indices on relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Offset of the frame's first byte (the preamble).
    pub start: POffset,
    /// Registered id of the invoked function.
    pub func_id: u64,
    /// Length of the serialized argument blob.
    pub args_len: u32,
}

impl FrameMeta {
    /// Total encoded length of the frame in bytes.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        ORDINARY_OVERHEAD + u64::from(self.args_len)
    }

    /// Offset of the argument blob.
    #[must_use]
    pub fn args_off(&self) -> POffset {
        self.start + 13u64
    }

    /// Offset of the return-slot flag byte.
    #[must_use]
    pub fn ret_flag_off(&self) -> POffset {
        self.start + (13u64 + u64::from(self.args_len))
    }

    /// Offset of the 8-byte return-slot value.
    #[must_use]
    pub fn ret_val_off(&self) -> POffset {
        self.start + (14u64 + u64::from(self.args_len))
    }

    /// Offset of the end-marker byte.
    #[must_use]
    pub fn marker_off(&self) -> POffset {
        self.start + (self.total_len() - 1)
    }

    /// Offset of the first byte after the frame (where a pushed frame
    /// would begin).
    #[must_use]
    pub fn end(&self) -> POffset {
        self.start + self.total_len()
    }
}

/// Result of parsing one frame out of NVRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedFrame {
    /// An ordinary invocation frame and its end-marker value.
    Ordinary {
        /// Frame metadata (offsets and lengths).
        meta: FrameMeta,
        /// The end-marker byte as read from NVRAM.
        marker: u8,
    },
    /// A pointer frame redirecting to another block.
    Pointer {
        /// Offset of the pointer frame itself.
        start: POffset,
        /// Offset of the next block's payload.
        next_block: POffset,
        /// The end-marker byte as read from NVRAM.
        marker: u8,
    },
}

/// Encodes an ordinary frame into a fresh buffer, with an empty return
/// slot and the given end marker.
///
/// # Errors
///
/// [`PError::ArgsTooLong`] if `args` exceeds [`MAX_ARGS_LEN`].
pub fn encode_ordinary(func_id: u64, args: &[u8], marker: u8) -> Result<Vec<u8>, PError> {
    if args.len() > MAX_ARGS_LEN {
        return Err(PError::ArgsTooLong {
            len: args.len(),
            max: MAX_ARGS_LEN,
        });
    }
    let mut buf = Vec::with_capacity(ORDINARY_OVERHEAD as usize + args.len());
    buf.push(PREAMBLE_ORDINARY);
    buf.extend_from_slice(&func_id.to_le_bytes());
    buf.extend_from_slice(&(args.len() as u32).to_le_bytes());
    buf.extend_from_slice(args);
    buf.push(RET_EMPTY);
    buf.extend_from_slice(&[0u8; 8]);
    buf.push(marker);
    Ok(buf)
}

/// Encodes a pointer frame redirecting to `next_block`.
#[must_use]
pub fn encode_pointer(next_block: POffset, marker: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(POINTER_FRAME_LEN as usize);
    buf.push(PREAMBLE_POINTER);
    buf.extend_from_slice(&next_block.get().to_le_bytes());
    buf.push(marker);
    buf
}

/// Parses the frame starting at `off`, bounds-checked against `limit`
/// (the first offset past the containing region or block).
///
/// # Errors
///
/// [`PError::CorruptStack`] if the preamble is unknown, a length field
/// is implausible, the frame overruns `limit`, or the marker byte is
/// neither [`MARKER_FRAME_END`] nor [`MARKER_STACK_END`].
pub fn parse_frame(pmem: &PMem, off: POffset, limit: POffset) -> Result<ParsedFrame, PError> {
    if off.get() >= limit.get() {
        return Err(PError::CorruptStack(format!(
            "frame at {off} starts at or past the region limit {limit}"
        )));
    }
    let preamble = pmem.read_u8(off)?;
    match preamble {
        PREAMBLE_ORDINARY => {
            if off.get() + ORDINARY_OVERHEAD > limit.get() {
                return Err(PError::CorruptStack(format!(
                    "ordinary frame at {off} overruns the limit {limit}"
                )));
            }
            let func_id = pmem.read_u64(off + 1u64)?;
            let args_len = pmem.read_u32(off + 9u64)?;
            if args_len as usize > MAX_ARGS_LEN {
                return Err(PError::CorruptStack(format!(
                    "frame at {off} claims {args_len} argument bytes"
                )));
            }
            let meta = FrameMeta {
                start: off,
                func_id,
                args_len,
            };
            if meta.end().get() > limit.get() {
                return Err(PError::CorruptStack(format!(
                    "frame at {off} of {} bytes overruns the limit {limit}",
                    meta.total_len()
                )));
            }
            let marker = pmem.read_u8(meta.marker_off())?;
            if marker != MARKER_FRAME_END && marker != MARKER_STACK_END {
                return Err(PError::CorruptStack(format!(
                    "frame at {off} has invalid end marker {marker:#x}"
                )));
            }
            Ok(ParsedFrame::Ordinary { meta, marker })
        }
        PREAMBLE_POINTER => {
            if off.get() + POINTER_FRAME_LEN > limit.get() {
                return Err(PError::CorruptStack(format!(
                    "pointer frame at {off} overruns the limit {limit}"
                )));
            }
            let next = pmem.read_u64(off + 1u64)?;
            let marker = pmem.read_u8(off + (POINTER_FRAME_LEN - 1))?;
            if marker != MARKER_FRAME_END && marker != MARKER_STACK_END {
                return Err(PError::CorruptStack(format!(
                    "pointer frame at {off} has invalid end marker {marker:#x}"
                )));
            }
            Ok(ParsedFrame::Pointer {
                start: off,
                next_block: POffset::new(next),
                marker,
            })
        }
        other => Err(PError::CorruptStack(format!(
            "unknown frame preamble {other:#x} at {off}"
        ))),
    }
}

/// Reads the argument blob of a parsed frame.
///
/// # Errors
///
/// Propagates NVRAM read failures.
pub fn read_args(pmem: &PMem, meta: &FrameMeta) -> Result<Vec<u8>, PError> {
    Ok(pmem.read_vec(meta.args_off(), meta.args_len as usize)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::PMemBuilder;

    fn pmem() -> PMem {
        PMemBuilder::new().len(4096).build_in_memory()
    }

    #[test]
    fn ordinary_round_trip() {
        let p = pmem();
        let args = [1u8, 2, 3, 4, 5];
        let buf = encode_ordinary(0xABCD, &args, MARKER_STACK_END).unwrap();
        assert_eq!(buf.len() as u64, ORDINARY_OVERHEAD + 5);
        p.write(POffset::new(100), &buf).unwrap();
        let parsed = parse_frame(&p, POffset::new(100), POffset::new(4096)).unwrap();
        match parsed {
            ParsedFrame::Ordinary { meta, marker } => {
                assert_eq!(meta.func_id, 0xABCD);
                assert_eq!(meta.args_len, 5);
                assert_eq!(marker, MARKER_STACK_END);
                assert_eq!(read_args(&p, &meta).unwrap(), args);
                assert_eq!(meta.end().get(), 100 + buf.len() as u64);
                assert_eq!(meta.marker_off().get(), meta.end().get() - 1);
            }
            other => panic!("expected ordinary frame, got {other:?}"),
        }
    }

    #[test]
    fn empty_args_round_trip() {
        let p = pmem();
        let buf = encode_ordinary(7, &[], MARKER_FRAME_END).unwrap();
        assert_eq!(buf.len() as u64, ORDINARY_OVERHEAD);
        p.write(POffset::new(0), &buf).unwrap();
        let ParsedFrame::Ordinary { meta, marker } =
            parse_frame(&p, POffset::new(0), POffset::new(4096)).unwrap()
        else {
            panic!("expected ordinary frame")
        };
        assert_eq!(meta.args_len, 0);
        assert_eq!(marker, MARKER_FRAME_END);
        assert!(read_args(&p, &meta).unwrap().is_empty());
    }

    #[test]
    fn pointer_round_trip() {
        let p = pmem();
        let buf = encode_pointer(POffset::new(0x1234), MARKER_FRAME_END);
        assert_eq!(buf.len() as u64, POINTER_FRAME_LEN);
        p.write(POffset::new(50), &buf).unwrap();
        let parsed = parse_frame(&p, POffset::new(50), POffset::new(4096)).unwrap();
        assert_eq!(
            parsed,
            ParsedFrame::Pointer {
                start: POffset::new(50),
                next_block: POffset::new(0x1234),
                marker: MARKER_FRAME_END,
            }
        );
    }

    #[test]
    fn args_too_long_is_rejected() {
        let args = vec![0u8; MAX_ARGS_LEN + 1];
        assert!(matches!(
            encode_ordinary(1, &args, MARKER_STACK_END),
            Err(PError::ArgsTooLong { .. })
        ));
    }

    #[test]
    fn unknown_preamble_is_corrupt() {
        let p = pmem();
        p.write_u8(POffset::new(0), 0x7F).unwrap();
        assert!(matches!(
            parse_frame(&p, POffset::new(0), POffset::new(4096)),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn frame_overrunning_limit_is_corrupt() {
        let p = pmem();
        let buf = encode_ordinary(1, &[0u8; 64], MARKER_STACK_END).unwrap();
        p.write(POffset::new(0), &buf).unwrap();
        // Limit cuts through the middle of the frame.
        assert!(matches!(
            parse_frame(&p, POffset::new(0), POffset::new(40)),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn huge_args_len_field_is_corrupt() {
        let p = pmem();
        let mut buf = encode_ordinary(1, &[], MARKER_STACK_END).unwrap();
        buf[9..13].copy_from_slice(&(u32::MAX).to_le_bytes());
        p.write(POffset::new(0), &buf).unwrap();
        assert!(matches!(
            parse_frame(&p, POffset::new(0), POffset::new(4096)),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn invalid_marker_is_corrupt() {
        let p = pmem();
        let mut buf = encode_ordinary(1, &[], MARKER_STACK_END).unwrap();
        let last = buf.len() - 1;
        buf[last] = 0x55;
        p.write(POffset::new(0), &buf).unwrap();
        assert!(matches!(
            parse_frame(&p, POffset::new(0), POffset::new(4096)),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn parse_at_limit_is_corrupt() {
        let p = pmem();
        assert!(matches!(
            parse_frame(&p, POffset::new(4096), POffset::new(4096)),
            Err(PError::CorruptStack(_))
        ));
    }

    #[test]
    fn slot_offsets_are_consistent() {
        let meta = FrameMeta {
            start: POffset::new(1000),
            func_id: 1,
            args_len: 10,
        };
        assert_eq!(meta.args_off().get(), 1013);
        assert_eq!(meta.ret_flag_off().get(), 1023);
        assert_eq!(meta.ret_val_off().get(), 1024);
        assert_eq!(meta.marker_off().get(), 1032);
        assert_eq!(meta.end().get(), 1033);
        assert_eq!(meta.total_len(), 33);
    }
}
