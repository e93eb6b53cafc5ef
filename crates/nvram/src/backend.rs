//! The emulated device behind a region.
//!
//! A [`PMem`](crate::PMem) is the program's view of persistent memory:
//! its accesses, persistence events, fail-points, stats and PSan hooks.
//! Behind it sits one [`Device`], which owns everything the hardware
//! would: the durable line image, the volatile cache of dirty lines,
//! the queue of flights with their deadlines, the step that completes a
//! flight and the survivor lottery of a crash.
//!
//! The image lives in process memory. A device may also write through
//! to a file, emulating the paper's HDD-backed `mmap` deployment
//! (§5.2): every line that becomes durable — a completed flight's, or a
//! crash survivor's — is written to its offset in the file, so a real
//! process restart can open the file again and recover. The device
//! holds the file's one handle and every device call runs inside the
//! region's critical section, so it seeks, then reads or writes.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::MemError;

/// The one device a region runs on.
pub(crate) struct Device {
    line: usize,
    /// The durable image: what survives a crash.
    image: Vec<u8>,
    /// Volatile cache: line index → the line's one volatile record.
    dirty: HashMap<usize, DirtyLine, BuildHasherDefault<LineHasher>>,
    /// The flush queue. There is no device thread: completions are
    /// applied lazily, in issue order, by the application threads that
    /// await, fence or flush, once a flight's deadline has passed —
    /// which keeps seeded campaign executions deterministic.
    queue: VecDeque<Flight>,
    /// The buffers of the last applied one-line flight — every
    /// persist-store's — emptied, for the next one-line flight to
    /// fill: the hot single-line persist allocates nothing. Bigger
    /// flights allocate their own and free them, so the region never
    /// holds more than one line's buffers.
    spare: (Vec<usize>, Vec<u8>),
    /// Device time of a flight: the command once, then each line.
    flush_latency: Duration,
    persist_delay: Duration,
    /// Write-through home of the image, if any.
    file: Option<File>,
}

/// Hashes a line index with one multiply and a fold, for the volatile
/// cache that every access and every flushed line looks up. Its keys
/// are line indexes of the region, computed by the program — never
/// input from outside it.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the volatile cache is keyed by line index")
    }

    fn write_usize(&mut self, li: usize) {
        self.0 = (li as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A line written since it was last made durable.
struct DirtyLine {
    /// The full line content, as reads see it.
    content: Vec<u8>,
    /// Serial of the un-completed flight holding a snapshot of the
    /// current content; 0 when none does (never staged, or re-dirtied
    /// since — the snapshot is stale).
    staged: u64,
}

/// One flush command: the line snapshots it promised to make durable
/// and the wall-clock deadline at which the device completes it (`None`
/// with no device time configured — completes on the next await).
pub(crate) struct Flight {
    pub(crate) serial: u64,
    deadline: Option<Instant>,
    /// Line index of each snapshot, in issue order.
    lines: Vec<usize>,
    /// The snapshots, one line each, back to back in `lines` order. One
    /// buffer per flight, not one per line: a completed flight then
    /// returns one block to the allocator (a one-line flight's to
    /// `Device::spare`) instead of a run of line-sized chunks
    /// (ROADMAP, "`peak_rss_mb` and `calloc`").
    bytes: Vec<u8>,
}

impl Device {
    /// A zeroed device of `len` bytes in `line`-byte lines, its image in
    /// process memory only. Zero durations charge no device time.
    pub(crate) fn new(
        len: usize,
        line: usize,
        flush_latency: Duration,
        persist_delay: Duration,
    ) -> Device {
        Device {
            line,
            image: vec![0u8; len],
            dirty: HashMap::default(),
            queue: VecDeque::new(),
            spare: Default::default(),
            flush_latency,
            persist_delay,
            file: None,
        }
    }

    /// Makes the device write through to `path`, creating the file and
    /// zero-extending it to the region's length if needed, and loads
    /// the image from it.
    pub(crate) fn write_through(mut self, path: &Path) -> Result<Device, MemError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if file.metadata()?.len() < self.image.len() as u64 {
            file.set_len(self.image.len() as u64)?;
        }
        self.file = Some(file);
        self.restart()?;
        Ok(self)
    }

    /// Starts the device afresh, as a boot finds it: no dirty line, no
    /// flight, and — when it writes through — the image read back from
    /// the file, exactly the region's length of it.
    pub(crate) fn restart(&mut self) -> Result<(), MemError> {
        self.dirty = HashMap::default();
        self.queue = VecDeque::new();
        self.spare = Default::default();
        if let Some(mut file) = self.file.as_ref() {
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut self.image)?;
        }
        Ok(())
    }

    /// Writes durable lines through to the file: line `lines[i]` holds
    /// the `i`-th line of `bytes`.
    fn write_lines(&self, lines: &[usize], bytes: &[u8]) -> Result<(), MemError> {
        let Some(mut file) = self.file.as_ref() else {
            return Ok(());
        };
        for (&li, data) in lines.iter().zip(bytes.chunks_exact(self.line)) {
            file.seek(SeekFrom::Start((li * self.line) as u64))?;
            file.write_all(data)?;
        }
        Ok(())
    }

    /// Region length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.image.len()
    }

    /// Line size in bytes.
    pub(crate) fn line_size(&self) -> usize {
        self.line
    }

    /// Reads `buf.len()` bytes at `start`, the volatile cache over the
    /// durable image.
    #[inline]
    pub(crate) fn read(&self, start: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self.image[start..start + buf.len()]);
        if self.dirty.is_empty() {
            return;
        }
        let line = self.line;
        let first_line = start / line;
        let last_line = (start + buf.len().max(1) - 1) / line;
        for li in first_line..=last_line {
            if let Some(DirtyLine { content, .. }) = self.dirty.get(&li) {
                let line_start = li * line;
                let copy_from = start.max(line_start);
                let copy_to = (start + buf.len()).min(line_start + line);
                if copy_from < copy_to {
                    buf[copy_from - start..copy_to - start]
                        .copy_from_slice(&content[copy_from - line_start..copy_to - line_start]);
                }
            }
        }
    }

    /// Writes `data` at `start` into the volatile cache.
    #[inline]
    pub(crate) fn write(&mut self, start: usize, data: &[u8]) {
        let line = self.line;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = start + pos;
            let li = abs / line;
            let line_start = li * line;
            let within = abs - line_start;
            let n = (line - within).min(data.len() - pos);
            let image = &self.image;
            let dirty = self.dirty.entry(li).or_insert_with(|| DirtyLine {
                content: image[line_start..line_start + line].to_vec(),
                staged: 0,
            });
            // Re-dirtying a line staged in an in-flight flush: the
            // flight's snapshot is stale, so later flushes of this line
            // must persist anew instead of riding it.
            dirty.staged = 0;
            dirty.content[within..within + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    /// `true` if a line in `first..=last` is dirty — written since its
    /// last persist, or staged in an un-completed flight (staged lines
    /// stay in the cache until their flight completes).
    pub(crate) fn any_dirty(&self, first: usize, last: usize) -> bool {
        (first..=last).any(|li| self.dirty.contains_key(&li))
    }

    /// Flights issued and not yet completed.
    pub(crate) fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// An empty flight `serial`, for lines `first..=last` to be staged
    /// into one by one.
    #[inline]
    pub(crate) fn begin_flight(&mut self, serial: u64, first: usize, last: usize) -> Flight {
        // Sized up front to the lines this flight stages — grown by
        // doubling, each flight would also free a run of small outgrown
        // buffers — and not to the span: a heads flight spans a shard's
        // whole touched bucket range for the few lines a batch dirtied.
        let staging = (first..=last)
            .filter(|li| self.dirty.get(li).is_some_and(|d| d.staged == 0))
            .count();
        let (mut lines, mut bytes) = if staging == 1 {
            std::mem::take(&mut self.spare)
        } else {
            Default::default()
        };
        lines.reserve_exact(staging);
        bytes.reserve_exact(staging * self.line);
        Flight {
            serial,
            deadline: None,
            lines,
            bytes,
        }
    }

    /// Stages line `li` into `flight` and returns the serial whose
    /// completion makes the line durable: the flight's own when the
    /// line is staged now, an older flight's when the line already
    /// rides one un-completed (and was not re-dirtied since — its
    /// snapshot is current), or `None` for a clean line.
    #[inline]
    pub(crate) fn stage(&mut self, flight: &mut Flight, li: usize) -> Option<u64> {
        let dirty = self.dirty.get_mut(&li)?;
        if dirty.staged != 0 {
            return Some(dirty.staged);
        }
        dirty.staged = flight.serial;
        flight.lines.push(li);
        flight.bytes.extend_from_slice(&dirty.content);
        Some(flight.serial)
    }

    /// Queues `flight`, its deadline charged with its device time, and
    /// returns that charge — or `None`, queueing nothing, when no line
    /// was staged into it.
    #[inline]
    pub(crate) fn queue(&mut self, mut flight: Flight) -> Option<Duration> {
        if flight.lines.is_empty() {
            return None;
        }
        let charge = self.flush_latency + self.persist_delay * flight.lines.len() as u32;
        flight.deadline = (!charge.is_zero()).then(|| Instant::now() + charge);
        self.queue.push_back(flight);
        Some(charge)
    }

    /// The latest deadline among the flights up to `serial`.
    #[inline]
    pub(crate) fn deadline(&self, serial: u64) -> Option<Instant> {
        self.queue
            .iter()
            .take_while(|f| f.serial <= serial)
            .filter_map(|f| f.deadline)
            .max()
    }

    /// Completes the oldest queued flight if its serial is at most
    /// `upto`: writes its snapshots through and into the image, and
    /// retires the cache entries they still match. Returns its serial
    /// and how many lines it made durable.
    #[inline]
    pub(crate) fn complete(&mut self, upto: u64) -> Result<Option<(u64, u64)>, MemError> {
        if !self.queue.front().is_some_and(|f| f.serial <= upto) {
            return Ok(None);
        }
        let mut flight = self.queue.pop_front().expect("checked front");
        self.write_lines(&flight.lines, &flight.bytes)?;
        let line = self.line;
        for (&li, content) in flight.lines.iter().zip(flight.bytes.chunks_exact(line)) {
            self.image[li * line..(li + 1) * line].copy_from_slice(content);
            if let Entry::Occupied(dirty) = self.dirty.entry(li) {
                // Not re-dirtied since issue: the snapshot is the live
                // content, so the cache entry retires.
                if dirty.get().staged == flight.serial {
                    dirty.remove();
                }
            }
        }
        let persisted = flight.lines.len() as u64;
        if persisted == 1 {
            flight.lines.clear();
            flight.bytes.clear();
            self.spare = (flight.lines, flight.bytes);
        }
        Ok(Some((flight.serial, persisted)))
    }

    /// A power failure: each dirty line independently survives with
    /// probability `survival_prob`, drawn from `seed` and its index,
    /// and the rest are lost; un-completed flights die with the cache,
    /// their staged lines having taken the lottery like any other.
    /// Returns each dirty line's outcome, by index, and how many
    /// flights were cut.
    pub(crate) fn crash(&mut self, seed: u64, survival_prob: f64) -> (Vec<(usize, bool)>, usize) {
        let line = self.line;
        let mut dirty: Vec<(usize, DirtyLine)> = self.dirty.drain().collect();
        dirty.sort_unstable_by_key(|&(li, _)| li);
        let mut outcomes = Vec::with_capacity(dirty.len());
        let mut survivors = Vec::new();
        let mut bytes = Vec::new();
        for (li, DirtyLine { content, .. }) in dirty {
            let draw =
                || SmallRng::seed_from_u64(seed ^ (li as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let survives =
                survival_prob >= 1.0 || (survival_prob > 0.0 && draw().random_bool(survival_prob));
            if survives {
                self.image[li * line..(li + 1) * line].copy_from_slice(&content);
                survivors.push(li);
                bytes.extend_from_slice(&content);
            }
            outcomes.push((li, survives));
        }
        // A failed write-through is ignored: the crash wins, and the
        // image stays authoritative for an in-process reopen.
        let _ = self.write_lines(&survivors, &bytes);
        let cut = self.queue.len();
        self.queue.clear();
        (outcomes, cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PMemBuilder, POffset};

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pstack-backend-{name}-{}", std::process::id()));
        p
    }

    /// Writes `data` at line `li` and persists it through one flight.
    fn persist_line(dev: &mut Device, li: usize, data: &[u8]) {
        dev.write(li * dev.line_size(), data);
        let mut flight = dev.begin_flight(1, li, li);
        assert_eq!(dev.stage(&mut flight, li), Some(flight.serial));
        assert!(dev.queue(flight).is_some());
        assert!(dev.complete(u64::MAX).unwrap().is_some());
    }

    #[test]
    fn mem_backend_is_inert() {
        let mut dev = Device::new(8, 4, Duration::ZERO, Duration::ZERO);
        persist_line(&mut dev, 0, &[1, 2, 3, 4]);
        assert!(dev.file.is_none());
        // A restart keeps the in-memory image: there is nothing to
        // read it back from.
        dev.restart().unwrap();
        let mut buf = [0u8; 8];
        dev.read(0, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 0, 0, 0, 0]);
    }

    #[test]
    fn file_backend_round_trips_lines() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let open = || {
            Device::new(256, 64, Duration::ZERO, Duration::ZERO)
                .write_through(&path)
                .unwrap()
        };
        persist_line(&mut open(), 1, &[7u8; 64]);
        let dev = open();
        let mut buf = vec![0u8; 256];
        dev.read(0, &mut buf);
        assert_eq!(&buf[64..128], &[7u8; 64]);
        assert_eq!(&buf[0..64], &[0u8; 64]);
        assert!(dev.file.is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_zero_extends() {
        let path = tmp_path("extend");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, [9u8; 16]).unwrap();
        let dev = Device::new(128, 64, Duration::ZERO, Duration::ZERO)
            .write_through(&path)
            .unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 128);
        let mut buf = vec![0xFFu8; 128];
        dev.read(0, &mut buf);
        assert_eq!(&buf[..16], &[9u8; 16]);
        assert_eq!(&buf[16..], &vec![0u8; 112][..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_keeps_crash_survivors_and_completed_flights() {
        // Per region: line 0 an awaited flight, line 1 a flight issued
        // and never awaited, line 2 a plain dirty line. The file must
        // hold what a completed flight applied and what the lottery
        // kept — nothing else.
        for (name, survival, kept) in [("all", 1.0, [1, 2, 3]), ("none", 0.0, [1, 0, 0])] {
            let path = tmp_path(&format!("crash-{name}"));
            let _ = std::fs::remove_file(&path);
            let build = || PMemBuilder::new().len(4096).build_file(&path).unwrap();
            let p = build();
            p.write_u64(POffset::new(0), 1).unwrap();
            let awaited = p.flush_async(POffset::new(0), 8).unwrap();
            p.await_ticket(&awaited).unwrap();
            p.write_u64(POffset::new(64), 2).unwrap();
            let _cut = p.flush_async(POffset::new(64), 8).unwrap();
            p.write_u64(POffset::new(128), 3).unwrap();
            p.crash_now(5, survival);
            drop(p);
            let p = build();
            let read = [0, 64, 128].map(|off| p.read_u64(POffset::new(off)).unwrap());
            assert_eq!(read, kept, "survival {survival}");
            let _ = std::fs::remove_file(&path);
        }
    }
}
