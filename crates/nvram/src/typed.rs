//! Typed accessors over [`PMem::read`] and [`PMem::write`]: bytes,
//! little-endian integers, vectors and fills. Each fails as the access
//! it makes does, and what it writes is volatile until flushed — but
//! for §5's persist-store and persist-load, which pair the access with
//! its flush.

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

    /// The **persist-store**: writes, then flushes the written lines —
    /// §5's "flush each written cache line immediately after the
    /// corresponding write". Between the two, other threads can already
    /// read the value; [`PMem::read_persist`] is what keeps them from
    /// acting on it before it is durable.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::write`] and [`PMem::flush`].
    pub fn write_persist(&self, off: POffset, data: &[u8]) -> Result<(), MemError> {
        self.write(off, data)?;
        self.flush(off, data.len()).map(drop)
    }

    /// The **persist-load**: reads, then persists the lines read if a
    /// writer left them dirty ([`PMem::persist_if_dirty`]) — FliT's
    /// load half, so a value a reader acts on has survived any crash
    /// from the moment this returns. The read comes first: flushing
    /// first would leave a window for a writer to dirty the line again
    /// before the read. Free on lines nobody left dirty.
    ///
    /// # Errors
    ///
    /// Same as [`PMem::read`] and [`PMem::flush`].
    pub fn read_persist(&self, off: POffset, buf: &mut [u8]) -> Result<(), MemError> {
        self.read(off, buf)?;
        self.persist_if_dirty(off, buf.len())?;
        Ok(())
    }
}
