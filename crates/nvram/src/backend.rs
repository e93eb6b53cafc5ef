//! Durable storage behind the emulated NVRAM.
//!
//! The persistent *image* of the region lives in DRAM for speed, but a
//! backend mirrors every persisted line to its durable home:
//!
//! * [`MemBackend`] keeps nothing extra — the in-DRAM image *is* the
//!   durable truth. Crashes are simulated in-process, so this is exact
//!   for every test and benchmark that does not kill the real process.
//! * [`FileBackend`] writes every persisted line through to a file,
//!   emulating the paper's HDD-backed `mmap` deployment (§5.2). A real
//!   process restart can then reopen the file and recover.
//!
//! A backend has one write hook, [`Backend::persist_lines`]: a
//! completed flight hands it all its lines at once, and so does a
//! crash for the lines that survive it. On unix the file backend
//! writes them with the positional `FileExt::write_all_at` (no seek,
//! safe under concurrent clones of the handle); elsewhere it falls back
//! to portable seek-then-write, which is equivalent here because every
//! write happens inside the region's critical section.

use std::fs::{File, OpenOptions};
use std::io::Read;
#[cfg(unix)]
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::MemError;

/// Identifies which durable backend a region uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendKind {
    /// In-process memory image only.
    Memory,
    /// Write-through file at the given path.
    File(PathBuf),
}

pub(crate) trait Backend: Send {
    /// Mirrors a batch of persisted lines to durable storage in one
    /// call: line index `lines[i]` holds the `i`-th `line_size` bytes
    /// of `bytes`.
    fn persist_lines(
        &mut self,
        line_size: usize,
        lines: &[usize],
        bytes: &[u8],
    ) -> Result<(), MemError>;

    /// Loads the durable image into `buf` when the region is (re)opened.
    fn load(&mut self, buf: &mut [u8]) -> Result<(), MemError>;

    fn kind(&self) -> BackendKind;
}

/// Backend with no durable home beyond the in-process image.
#[derive(Debug, Default)]
pub(crate) struct MemBackend;

impl Backend for MemBackend {
    fn persist_lines(&mut self, _: usize, _: &[usize], _: &[u8]) -> Result<(), MemError> {
        Ok(())
    }

    fn load(&mut self, _buf: &mut [u8]) -> Result<(), MemError> {
        Ok(())
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }
}

/// Write-through file backend emulating an HDD/SSD-backed mapping.
#[derive(Debug)]
pub(crate) struct FileBackend {
    file: File,
    path: PathBuf,
}

impl FileBackend {
    /// Opens (creating and zero-extending if needed) the backing file.
    pub(crate) fn open(path: &Path, len: usize) -> Result<Self, MemError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let current = file.metadata()?.len();
        if current < len as u64 {
            file.set_len(len as u64)?;
        }
        Ok(FileBackend {
            file,
            path: path.to_path_buf(),
        })
    }
}

impl Backend for FileBackend {
    fn persist_lines(
        &mut self,
        line_size: usize,
        lines: &[usize],
        bytes: &[u8],
    ) -> Result<(), MemError> {
        for (&li, data) in lines.iter().zip(bytes.chunks_exact(line_size)) {
            let offset = (li * line_size) as u64;
            #[cfg(unix)]
            self.file.write_all_at(data, offset)?;
            #[cfg(not(unix))]
            {
                use std::io::{Seek, SeekFrom, Write};
                self.file.seek(SeekFrom::Start(offset))?;
                self.file.write_all(data)?;
            }
        }
        Ok(())
    }

    fn load(&mut self, buf: &mut [u8]) -> Result<(), MemError> {
        let mut whole = Vec::new();
        let mut f = self.file.try_clone()?;
        use std::io::Seek;
        f.seek(std::io::SeekFrom::Start(0))?;
        f.read_to_end(&mut whole)?;
        let n = whole.len().min(buf.len());
        buf[..n].copy_from_slice(&whole[..n]);
        Ok(())
    }

    fn kind(&self) -> BackendKind {
        BackendKind::File(self.path.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pstack-backend-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn mem_backend_is_inert() {
        let mut b = MemBackend;
        b.persist_lines(4, &[0], &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        b.load(&mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
        assert_eq!(b.kind(), BackendKind::Memory);
    }

    #[test]
    fn file_backend_round_trips_lines() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = FileBackend::open(&path, 256).unwrap();
            b.persist_lines(64, &[1], &[7u8; 64]).unwrap();
        }
        {
            let mut b = FileBackend::open(&path, 256).unwrap();
            let mut buf = vec![0u8; 256];
            b.load(&mut buf).unwrap();
            assert_eq!(&buf[64..128], &[7u8; 64]);
            assert_eq!(&buf[0..64], &[0u8; 64]);
            assert!(matches!(b.kind(), BackendKind::File(_)));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_zero_extends() {
        let path = tmp_path("extend");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, [9u8; 16]).unwrap();
        let mut b = FileBackend::open(&path, 128).unwrap();
        let mut buf = vec![0xFFu8; 128];
        b.load(&mut buf).unwrap();
        assert_eq!(&buf[..16], &[9u8; 16]);
        assert_eq!(&buf[16..], &vec![0u8; 112][..]);
        let _ = std::fs::remove_file(&path);
    }
}
