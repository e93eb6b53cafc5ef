//! Tagged values: making CAS writes distinguishable.
//!
//! The recoverable-CAS recovery procedure must decide whether *its own*
//! write is (or was) in the register. Logical values can repeat — the
//! paper's narrow-range experiment draws from `[-10, 10]` precisely to
//! force duplicates — so every write is tagged with the writing process
//! and a per-operation sequence number, making the written *pair*
//! unique. The serializability verifier later strips the tags and works
//! on logical values.

use pstack_nvram::{MemError, PMem, POffset};

/// Encoded byte length of a [`TaggedValue`].
pub const TAGGED_LEN: usize = 24;

/// Process-id tag of the initial register value (written by no process).
pub const INIT_PID: u64 = u64::MAX;

/// A logical value tagged with its writer and operation sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TaggedValue {
    /// The logical register value.
    pub value: i64,
    /// Writing process id, or [`INIT_PID`] for the initial value.
    pub pid: u64,
    /// Writer-chosen sequence number making the pair unique.
    pub seq: u64,
}

impl TaggedValue {
    /// The initial register content.
    #[must_use]
    pub fn initial(value: i64) -> Self {
        TaggedValue {
            value,
            pid: INIT_PID,
            seq: 0,
        }
    }

    /// Encodes to [`TAGGED_LEN`] little-endian bytes.
    #[must_use]
    pub fn encode(&self) -> [u8; TAGGED_LEN] {
        let mut buf = [0u8; TAGGED_LEN];
        buf[..8].copy_from_slice(&self.value.to_le_bytes());
        buf[8..16].copy_from_slice(&self.pid.to_le_bytes());
        buf[16..24].copy_from_slice(&self.seq.to_le_bytes());
        buf
    }

    /// Decodes from [`TAGGED_LEN`] little-endian bytes.
    #[must_use]
    pub fn decode(buf: &[u8; TAGGED_LEN]) -> Self {
        TaggedValue {
            value: i64::from_le_bytes(buf[..8].try_into().expect("slice length 8")),
            pid: u64::from_le_bytes(buf[8..16].try_into().expect("slice length 8")),
            seq: u64::from_le_bytes(buf[16..24].try_into().expect("slice length 8")),
        }
    }

    /// Reads a tagged value from NVRAM with a persist-load
    /// ([`PMem::read_persist`]): the value returned is durable, so a
    /// caller may act on it — overwrite it, record it as evidence,
    /// answer from it — even when the write that put it there has not
    /// been flushed by its own writer yet.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn read_from(pmem: &PMem, off: POffset) -> Result<Self, MemError> {
        let mut buf = [0u8; TAGGED_LEN];
        pmem.read_persist(off, &mut buf)?;
        Ok(Self::decode(&buf))
    }

    /// Writes a tagged value to NVRAM with a persist-store
    /// ([`PMem::write_persist`]).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn write_to(&self, pmem: &PMem, off: POffset) -> Result<(), MemError> {
        pmem.write_persist(off, &self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::PMemBuilder;

    #[test]
    fn encode_decode_round_trip() {
        let v = TaggedValue {
            value: -42,
            pid: 3,
            seq: 17,
        };
        assert_eq!(TaggedValue::decode(&v.encode()), v);
    }

    #[test]
    fn initial_value_uses_sentinel_pid() {
        let v = TaggedValue::initial(5);
        assert_eq!(v.pid, INIT_PID);
        assert_eq!(v.value, 5);
        assert_eq!(v.seq, 0);
    }

    #[test]
    fn nvram_round_trip() {
        let pmem = PMemBuilder::new().len(1024).build_in_memory();
        let v = TaggedValue {
            value: i64::MIN,
            pid: 1,
            seq: u64::MAX,
        };
        v.write_to(&pmem, POffset::new(64)).unwrap();
        assert_eq!(TaggedValue::read_from(&pmem, POffset::new(64)).unwrap(), v);
    }

    #[test]
    fn same_logical_value_different_tags_differ() {
        let a = TaggedValue {
            value: 7,
            pid: 0,
            seq: 1,
        };
        let b = TaggedValue {
            value: 7,
            pid: 0,
            seq: 2,
        };
        assert_ne!(a.encode(), b.encode());
    }
}
