//! Configuring a region and starting its first boot.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::backend::Device;
use crate::psan::PsanCell;
use crate::{MemError, PMem};

/// Default cache-line size in bytes, matching x86.
pub const DEFAULT_CACHE_LINE: usize = 64;

/// Default region length: 1 MiB.
pub const DEFAULT_REGION_LEN: usize = 1 << 20;

/// Configures and creates [`PMem`] regions.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
///
/// let pmem = PMemBuilder::new()
///     .len(64 * 1024)
///     .line_size(64)
///     .build_in_memory();
/// assert_eq!(pmem.len(), 64 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct PMemBuilder {
    len: usize,
    line_size: usize,
    jitter: Option<Jitter>,
    persist_delay: Duration,
    flush_latency: Duration,
    psan: bool,
}

/// Scheduling-noise configuration: after a mutating access, the calling
/// thread occasionally pauses until other threads have made progress,
/// modelling OS preemption and slow persistence hardware. See
/// [`PMemBuilder::access_jitter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Jitter {
    pub(crate) prob: f64,
    pub(crate) pause_events: u64,
}

impl Default for PMemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PMemBuilder {
    /// Starts a builder with default length and 64-byte lines.
    #[must_use]
    pub fn new() -> Self {
        PMemBuilder {
            len: DEFAULT_REGION_LEN,
            line_size: DEFAULT_CACHE_LINE,
            jitter: None,
            persist_delay: Duration::ZERO,
            flush_latency: Duration::ZERO,
            psan: false,
        }
    }

    /// Enables PSan, the persist-order sanitizer, on the region: every
    /// line gets a shadow state machine (`Clean → Dirty → Flushed →
    /// Durable`) and publish/commit/ghost-read ordering checks record
    /// attributable violations (see the [`psan`](crate::psan) module).
    /// The shadow survives crash/reopen cycles. Off by default; when
    /// off, every hook is a single pointer-is-null check.
    #[must_use]
    pub fn psan(mut self, enabled: bool) -> Self {
        self.psan = enabled;
        self
    }

    /// Adds a fixed latency to every persist **round-trip** (a flight
    /// that makes at least one line durable), charged once per flight
    /// into its deadline and slept by whoever awaits it — the
    /// command/fence cost of a real device, as opposed to
    /// [`PMemBuilder::persist_delay`]'s per-line bandwidth cost.
    ///
    /// This is the knob that makes the two scaling levers measurable
    /// in wall-clock even on a single core: striping a store over `N`
    /// regions lets `N` round-trips overlap (each region is its own
    /// device), and group commit divides the number of round-trips
    /// outright.
    #[must_use]
    pub fn flush_latency(mut self, latency: Duration) -> Self {
        self.flush_latency = latency;
        self
    }

    /// Adds a fixed latency to every line persist, emulating the slow
    /// persistence of the paper's HDD-backed deployment (or an SSD /
    /// pessimistic NVRAM write). A flight of `n` lines charges `n ×
    /// delay` into its deadline, on top of
    /// [`PMemBuilder::flush_latency`], so its await sleeps the device's
    /// bandwidth cost along with its command cost.
    ///
    /// Real kills land *mid-operation* because persists are slow; with
    /// the default zero-latency emulation a whole workload can finish
    /// before any wall-clock kill fires. The real-`kill` harness uses
    /// this knob to restore the paper's timing regime.
    #[must_use]
    pub fn persist_delay(mut self, delay: Duration) -> Self {
        self.persist_delay = delay;
        self
    }

    /// Enables scheduling noise: after each mutating access, with
    /// probability `prob`, the calling thread pauses until `pause_events`
    /// further persistence events have happened (necessarily performed
    /// by *other* threads), bounded by a 5 ms deadline so a system
    /// where everyone pauses cannot deadlock.
    ///
    /// Real deployments (the paper emulates NVRAM with HDD-backed
    /// `mmap`) have slow persists and OS preemption, so a thread can sit
    /// arbitrarily long between two of its own accesses while others
    /// proceed — exactly the windows crash campaigns must exercise. In
    /// the simulator, threads otherwise interleave in near-lockstep and
    /// those windows stay unrealistically narrow. Pausing on *event*
    /// progress rather than wall-clock time keeps the interleaving
    /// pressure independent of machine load. Jittered regions are
    /// **not** deterministic; leave this off (the default) for
    /// reproducible tests.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    #[must_use]
    pub fn access_jitter(mut self, prob: f64, pause_events: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.jitter = (prob > 0.0 && pause_events > 0).then_some(Jitter { prob, pause_events });
        self
    }

    /// Sets the region length in bytes.
    #[must_use]
    pub fn len(mut self, len: usize) -> Self {
        self.len = len;
        self
    }

    /// Sets the cache-line size in bytes (must be a power of two).
    ///
    /// Small lines (e.g. 8 bytes) are useful in tests: they make "frame
    /// does not fit in one line" scenarios (§3.4, *Flushing long frames*)
    /// easy to trigger.
    #[must_use]
    pub fn line_size(mut self, line_size: usize) -> Self {
        self.line_size = line_size;
        self
    }

    /// Builds a region whose durable image lives only in process memory.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero length, or a line
    /// size that is zero or not a power of two).
    #[must_use]
    pub fn build_in_memory(self) -> PMem {
        self.start(None).expect("invalid PMem configuration")
    }

    /// Builds a region backed by a write-through file, creating and
    /// zero-extending the file if necessary. Reopening the same path
    /// later (even from another process) sees all persisted data.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] for invalid parameters and
    /// [`MemError::Io`] if the file cannot be opened or read.
    pub fn build_file(self, path: impl AsRef<Path>) -> Result<PMem, MemError> {
        self.start(Some(path.as_ref()))
    }

    /// Checks the configuration and starts the region's first boot, on
    /// a device that writes through to `path` when there is one.
    fn start(self, path: Option<&Path>) -> Result<PMem, MemError> {
        if self.len == 0 {
            return Err(MemError::InvalidConfig(
                "region length must be positive".into(),
            ));
        }
        if self.line_size == 0 || !self.line_size.is_power_of_two() {
            return Err(MemError::InvalidConfig(
                "line size must be a positive power of two".into(),
            ));
        }
        let mut device = Device::new(
            self.len,
            self.line_size,
            self.flush_latency,
            self.persist_delay,
        );
        if let Some(path) = path {
            device = device.write_through(path)?;
        }
        let psan = self.psan.then(|| Arc::new(PsanCell::new(self.line_size)));
        let tlabel = pstack_telemetry::intern("region");
        Ok(PMem::start(device, self.jitter, psan, tlabel))
    }
}
