//! Typed accessors over [`PMem::read`] and [`PMem::write`]: bytes,
//! little-endian integers, vectors and fills. Each fails as the access
//! it makes does, and what it writes is volatile until flushed.

use crate::{MemError, PMem, POffset};

impl PMem {
    /// Reads one byte.
    pub fn read_u8(&self, off: POffset) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        self.read(off, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte.
    pub fn write_u8(&self, off: POffset, v: u8) -> Result<(), MemError> {
        self.write(off, &[v])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, off: POffset) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(off, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&self, off: POffset, v: u32) -> Result<(), MemError> {
        self.write(off, &v.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, off: POffset) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&self, off: POffset, v: u64) -> Result<(), MemError> {
        self.write(off, &v.to_le_bytes())
    }

    /// Reads a little-endian `i64`.
    pub fn read_i64(&self, off: POffset) -> Result<i64, MemError> {
        let mut b = [0u8; 8];
        self.read(off, &mut b)?;
        Ok(i64::from_le_bytes(b))
    }

    /// Writes a little-endian `i64`.
    pub fn write_i64(&self, off: POffset, v: i64) -> Result<(), MemError> {
        self.write(off, &v.to_le_bytes())
    }

    /// Reads `len` bytes into a freshly allocated vector.
    pub fn read_vec(&self, off: POffset, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len];
        self.read(off, &mut v)?;
        Ok(v)
    }

    /// Writes `len` copies of `byte`.
    pub fn fill(&self, off: POffset, byte: u8, len: usize) -> Result<(), MemError> {
        self.write(off, &vec![byte; len])
    }
}
