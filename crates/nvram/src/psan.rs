//! PSan: a persist-order sanitizer over the emulated NVRAM.
//!
//! Every durability argument in this workspace — evidence-scan
//! recovery, group-commit all-or-nothing batches, the single-line
//! [`RootCell`](crate::RootCell) commit point — reduces to an ordering
//! obligation of the form *"X must be durable before Y is published"*.
//! Crash campaigns only catch a violated obligation when a kill lands
//! inside the vulnerable window; PSan checks the obligation on **every**
//! execution by shadowing each cache line with a tiny state machine:
//!
//! ```text
//!            write              flight issued           flight completes
//!   Clean ─────────▶ Dirty ──────────────────▶ Flushed ─────────────────▶ Durable
//!     ▲                │ crash (line dropped)     │ crash (line dropped)
//!     └────────────────┴──────────────────────────┘
//! ```
//!
//! Every persist is a flight ([`PMem::flush`](crate::PMem::flush) is one
//! issued and awaited at once), so a line is `Flushed` exactly while its
//! snapshot rides an un-completed flight. On a crash, Dirty and Flushed
//! lines either revert to Clean (content lost — the shadow forgets
//! them) or, when the crash model lets them survive "by luck", their
//! never-durable bytes are remembered as **ghosts**.
//!
//! Violation classes:
//!
//! - **early publish** — a CAS inside a registered publish range
//!   installs a pointer whose target lines are not yet durable;
//! - **unordered commit** — a root swap happens while lines in the
//!   block it publishes — the extent its [`Durable`](crate::Durable)
//!   receipt names — are still dirty (a group commit checks its
//!   receipts' ranges the same way);
//! - **ghost read** — a post-crash boot reads bytes that were never
//!   durable before the crash (data that only exists because the
//!   emulator's survivor model was generous);
//! - **redundant persist** — diagnostic only: a flush call over lines
//!   that were all clean (counted in
//!   [`StatsSnapshot::redundant_persists`](crate::StatsSnapshot), not
//!   reported as a violation).
//!
//! The sanitizer is enabled per region via
//! [`PMemBuilder::psan`](crate::PMemBuilder::psan); when disabled every
//! hook is a single `Option` check. Violations accumulate across
//! crash/reopen cycles (the shadow survives
//! [`PMem::reopen`](crate::PMem::reopen)) and are collected with
//! [`PMem::psan_violations`](crate::PMem::psan_violations).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;

use parking_lot::Mutex;

use crate::{PMem, POffset};

/// Longest shadow history kept per line (oldest entries are dropped).
const HISTORY_CAP: usize = 8;

thread_local! {
    static OP_LABELS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Pushes an operation label for the current thread; the label is
/// attached to every PSan violation raised while the guard lives, so a
/// report reads "early publish … during `kv.apply_batch`" instead of
/// a bare offset. Guards nest; the innermost (most specific) label
/// wins. Cheap enough to call unconditionally — a thread-local `Vec`
/// push/pop, no locking, no allocation.
///
/// While the flight recorder is recording, the guard
/// doubles as a telemetry span: enter/exit events land in the calling
/// thread's ring, and the collector turns them into per-op latency
/// histograms and persist attribution.
#[must_use = "the label is popped when the guard drops"]
pub fn op_label(label: &'static str) -> OpLabelGuard {
    OP_LABELS.with(|l| l.borrow_mut().push(label));
    OpLabelGuard {
        label,
        span: pstack_telemetry::span_enter(label),
    }
}

/// The label of the innermost live [`op_label`] guard on this thread,
/// or `"unlabeled"`.
#[must_use]
pub fn current_op_label() -> &'static str {
    OP_LABELS.with(|l| l.borrow().last().copied().unwrap_or("unlabeled"))
}

/// RAII guard returned by [`op_label`]; pops the label on drop.
#[derive(Debug)]
pub struct OpLabelGuard {
    label: &'static str,
    /// True when the enter event was recorded — the exit is emitted
    /// only then, so toggling recording mid-span never unbalances a
    /// trace.
    span: bool,
}

impl Drop for OpLabelGuard {
    fn drop(&mut self) {
        if self.span {
            pstack_telemetry::span_exit(self.label);
        }
        OP_LABELS.with(|l| {
            l.borrow_mut().pop();
        });
    }
}

/// The per-line shadow states. See the [module docs](self) for the
/// transition diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowState {
    /// No un-persisted content (also: line never written).
    Clean,
    /// Written, not yet handed to a persist operation.
    Dirty,
    /// A flight carries a snapshot of the line, but has not completed
    /// (its await, a later flush on the region or a fence completes
    /// it).
    Flushed,
    /// Content guaranteed to survive a crash.
    Durable,
}

/// What kind of ordering violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsanViolationKind {
    /// A CAS in a registered publish range installed `published` while
    /// the flagged line of its target extent was still dirty.
    EarlyPublish {
        /// The pointer value the CAS made reachable.
        published: u64,
    },
    /// A root swap / commit point ran while the flagged line of the
    /// extent it publishes was still dirty.
    UnorderedCommit,
    /// A read returned bytes that were never durable before the last
    /// crash (survivor-model luck, not a program guarantee).
    GhostRead,
}

impl PsanViolationKind {
    fn discriminant(self) -> u8 {
        match self {
            PsanViolationKind::EarlyPublish { .. } => 0,
            PsanViolationKind::UnorderedCommit => 1,
            PsanViolationKind::GhostRead => 2,
        }
    }

    /// Short kebab-case name, for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PsanViolationKind::EarlyPublish { .. } => "early-publish",
            PsanViolationKind::UnorderedCommit => "unordered-commit",
            PsanViolationKind::GhostRead => "ghost-read",
        }
    }
}

/// One detected persist-order violation, with `CrashSite`-style
/// attribution: which region, which offset range, what the line's
/// recent shadow history was, and which labeled operation was running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsanViolation {
    /// The violation class (and class-specific payload).
    pub kind: PsanViolationKind,
    /// Label of the region that raised it (see
    /// [`PMem::set_label`](crate::PMem::set_label)).
    pub region: String,
    /// Start of the offending byte range.
    pub offset: u64,
    /// Length of the offending byte range.
    pub len: usize,
    /// The innermost [`op_label`] live on the detecting thread.
    pub op_label: &'static str,
    /// Recent shadow transitions of the offending line, oldest first,
    /// rendered as `what@event [label]`.
    pub history: Vec<String>,
    /// The region's persistence-event counter at detection time.
    pub events: u64,
}

impl fmt::Display for PsanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "psan[{}] {} at {:#x}..{:#x} during `{}` (event {})",
            self.region,
            self.kind.name(),
            self.offset,
            self.offset + self.len as u64,
            self.op_label,
            self.events,
        )?;
        if let PsanViolationKind::EarlyPublish { published } = self.kind {
            write!(f, " published={published:#x}")?;
        }
        if !self.history.is_empty() {
            write!(f, " history=[{}]", self.history.join(", "))?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct HistEntry {
    what: &'static str,
    event: u64,
    label: &'static str,
}

impl HistEntry {
    fn render(self) -> String {
        format!("{}@{} [{}]", self.what, self.event, self.label)
    }
}

#[derive(Debug)]
struct ShadowLine {
    state: ShadowState,
    /// Bitmask of bytes written since the line was last durable.
    mask: Vec<u64>,
    hist: Vec<HistEntry>,
}

impl ShadowLine {
    fn new(line_size: usize) -> Self {
        ShadowLine {
            state: ShadowState::Clean,
            mask: vec![0; line_size.div_ceil(64)],
            hist: Vec::new(),
        }
    }

    fn push_hist(&mut self, what: &'static str, event: u64) {
        if self.hist.len() == HISTORY_CAP {
            self.hist.remove(0);
        }
        self.hist.push(HistEntry {
            what,
            event,
            label: current_op_label(),
        });
    }

    fn mark_bytes(&mut self, from: usize, to: usize) {
        for b in from..to {
            self.mask[b / 64] |= 1 << (b % 64);
        }
    }

    fn clear_mask(&mut self) {
        self.mask.iter_mut().for_each(|w| *w = 0);
    }

    fn rendered_hist(&self) -> Vec<String> {
        self.hist.iter().map(|h| h.render()).collect()
    }
}

/// Bytes of a surviving-by-luck line that were never durable, kept
/// across the reopen so post-crash reads of them can be flagged.
#[derive(Debug)]
struct GhostLine {
    mask: Vec<u64>,
    hist: Vec<HistEntry>,
}

#[derive(Debug, Clone, Copy)]
struct PublishRange {
    start: u64,
    len: u64,
    /// How many bytes past a published pointer must be durable.
    extent: u64,
}

#[derive(Debug)]
struct ShadowInner {
    line_size: usize,
    region: String,
    lines: HashMap<usize, ShadowLine>,
    ghosts: HashMap<usize, GhostLine>,
    /// Staged lines per un-completed flight, promoted by
    /// [`PsanCell::note_ticket_complete`] when that flight applies —
    /// no other flight's completion promotes them, so publishing
    /// against an un-awaited ticket stays an attributable early-publish.
    ticket_pending: HashMap<u64, Vec<usize>>,
    publish: Vec<PublishRange>,
    violations: Vec<PsanViolation>,
    reported: HashSet<(u8, usize)>,
}

impl ShadowInner {
    fn line_range(&self, start: u64, len: usize) -> std::ops::Range<usize> {
        if len == 0 {
            return 0..0;
        }
        let first = (start as usize) / self.line_size;
        let last = (start as usize + len - 1) / self.line_size;
        first..last + 1
    }

    fn violate(&mut self, kind: PsanViolationKind, li: usize, events: u64) {
        if !self.reported.insert((kind.discriminant(), li)) {
            return;
        }
        let history = match (self.lines.get(&li), self.ghosts.get(&li)) {
            (Some(line), _) => line.rendered_hist(),
            (None, Some(g)) => g.hist.iter().map(|h| h.render()).collect(),
            (None, None) => Vec::new(),
        };
        self.violations.push(PsanViolation {
            kind,
            region: self.region.clone(),
            offset: (li * self.line_size) as u64,
            len: self.line_size,
            op_label: current_op_label(),
            history,
            events,
        });
    }

    fn check_span_durable(&mut self, start: u64, len: u64, kind: PsanViolationKind, events: u64) {
        for li in self.line_range(start, len as usize) {
            // `Flushed` is as bad as `Dirty` at a commit point: the
            // line rides an un-completed flight (a synchronous flush
            // awaits its flight before returning, so an in-thread
            // observer never sees its transient `Flushed`). Publishing
            // against an un-awaited ticket is the early-publish bug
            // class.
            if self
                .lines
                .get(&li)
                .is_some_and(|l| matches!(l.state, ShadowState::Dirty | ShadowState::Flushed))
            {
                self.violate(kind, li, events);
            }
        }
    }
}

/// Per-region shadow memory; owned by `Inner` behind an `Arc` so it
/// survives `reopen()` (the whole point: ghosts and violations must
/// outlive a crash).
#[derive(Debug)]
pub(crate) struct PsanCell {
    inner: Mutex<ShadowInner>,
}

impl PsanCell {
    pub(crate) fn new(line_size: usize) -> Self {
        PsanCell {
            inner: Mutex::new(ShadowInner {
                line_size,
                region: "region".to_string(),
                lines: HashMap::new(),
                ghosts: HashMap::new(),
                ticket_pending: HashMap::new(),
                publish: Vec::new(),
                violations: Vec::new(),
                reported: HashSet::new(),
            }),
        }
    }

    pub(crate) fn set_label(&self, label: &str) {
        self.inner.lock().region = label.to_string();
    }

    /// A write dirties its lines (byte-granular mask, for ghosts) and
    /// clears any ghost bytes it overwrites — this boot now owns them.
    pub(crate) fn note_write(&self, start: u64, len: usize, events: u64) {
        if len == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let ls = inner.line_size;
        for li in inner.line_range(start, len) {
            let line_start = li * ls;
            let from = (start as usize).max(line_start) - line_start;
            let to = ((start as usize + len).min(line_start + ls)) - line_start;
            let line = inner.lines.entry(li).or_insert_with(|| ShadowLine::new(ls));
            line.state = ShadowState::Dirty;
            line.mark_bytes(from, to);
            line.push_hist("write", events);
            if let Some(g) = inner.ghosts.get_mut(&li) {
                for b in from..to {
                    g.mask[b / 64] &= !(1 << (b % 64));
                }
                if g.mask.iter().all(|&w| w == 0) {
                    inner.ghosts.remove(&li);
                }
            }
        }
    }

    /// A flight snapshotted line `li` as flight `serial`: `Dirty →
    /// Flushed`, and promotion waits for **that flight's** completion.
    /// The written-bytes mask is kept: if a crash's survivor lottery
    /// keeps the line before the flight completes, its bytes were never
    /// durable — ghosts.
    pub(crate) fn note_persist_line_ticket(&self, li: usize, serial: u64, events: u64) {
        let mut inner = self.inner.lock();
        if let Some(line) = inner.lines.get_mut(&li) {
            if line.state == ShadowState::Dirty {
                line.state = ShadowState::Flushed;
                line.push_hist("persist", events);
                inner.ticket_pending.entry(serial).or_default().push(li);
            }
        }
    }

    /// Flight `serial` applied: its staged lines — unless re-dirtied
    /// since issue — are durable.
    pub(crate) fn note_ticket_complete(&self, serial: u64, events: u64) {
        let mut inner = self.inner.lock();
        let Some(pending) = inner.ticket_pending.remove(&serial) else {
            return;
        };
        for li in pending {
            if let Some(line) = inner.lines.get_mut(&li) {
                if line.state == ShadowState::Flushed {
                    line.state = ShadowState::Durable;
                    line.clear_mask();
                    line.push_hist("durable", events);
                }
            }
        }
    }

    /// Registers `[start, start+len)` as a publish range: any 8-byte
    /// CAS inside it is treated as publishing a pointer whose target
    /// must be durable for `extent` bytes.
    pub(crate) fn register_publish_range(&self, start: u64, len: u64, extent: u64) {
        let mut inner = self.inner.lock();
        let exists = inner
            .publish
            .iter()
            .any(|r| r.start == start && r.len == len && r.extent == extent);
        if !exists {
            inner.publish.push(PublishRange { start, len, extent });
        }
    }

    /// Early-publish check: a successful CAS at `off` installing `new`.
    pub(crate) fn note_cas_publish(&self, off: u64, new: &[u8], events: u64) {
        if new.len() != 8 {
            return;
        }
        let mut inner = self.inner.lock();
        let Some(range) = inner
            .publish
            .iter()
            .copied()
            .find(|r| off >= r.start && off + 8 <= r.start + r.len)
        else {
            return;
        };
        let published = u64::from_le_bytes(new.try_into().expect("checked 8 bytes"));
        if published == 0 {
            return;
        }
        let kind = PsanViolationKind::EarlyPublish { published };
        inner.check_span_durable(published, range.extent, kind, events);
    }

    /// Commit-ordering check (a root swap's flip, or a group commit
    /// whose heads' flight was just awaited): `[start, start+len)` must
    /// hold no dirty lines.
    pub(crate) fn check_durable(&self, start: u64, len: u64, events: u64) {
        self.inner.lock().check_span_durable(
            start,
            len,
            PsanViolationKind::UnorderedCommit,
            events,
        );
    }

    /// Crash-time shadow update. `outcomes` lists every dirty line the
    /// crash adjudicated — staged ones included, their flights never
    /// completed: survivors keep their content *without ever having
    /// been durable* — their un-persisted bytes become ghosts — while
    /// dropped lines revert to `Clean` (the image still holds their
    /// last durable content).
    pub(crate) fn note_crash(&self, outcomes: &[(usize, bool)], events: u64) {
        let mut inner = self.inner.lock();
        for &(li, survived) in outcomes {
            let Some(mut line) = inner.lines.remove(&li) else {
                continue;
            };
            match line.state {
                // A `Flushed` line is staged in a flight that never
                // completed, so surviving the lottery is as ghostly as
                // a plain dirty survivor (the mask is retained at
                // staging time for exactly this).
                ShadowState::Dirty | ShadowState::Flushed if survived => {
                    line.push_hist("crash-survive", events);
                    let prior = inner.ghosts.remove(&li);
                    let mut mask = line.mask;
                    if let Some(g) = prior {
                        for (w, p) in mask.iter_mut().zip(g.mask.iter()) {
                            *w |= p;
                        }
                    }
                    inner.ghosts.insert(
                        li,
                        GhostLine {
                            mask,
                            hist: line.hist,
                        },
                    );
                }
                ShadowState::Dirty | ShadowState::Flushed => {
                    // Reverted: content lost, line reads as its last
                    // durable bytes — shadow forgets it (Clean).
                }
                _ => {
                    // Durable lines are not in the dirty set;
                    // defensive: treat as durable.
                }
            }
        }
        // Un-completed flights died with the cache; their worklists
        // were adjudicated by the lottery above.
        inner.ticket_pending.clear();
    }

    /// Ghost-read check for `[start, start+len)`.
    pub(crate) fn note_read(&self, start: u64, len: usize, events: u64) {
        let mut inner = self.inner.lock();
        if inner.ghosts.is_empty() || len == 0 {
            return;
        }
        let ls = inner.line_size;
        for li in inner.line_range(start, len) {
            let Some(g) = inner.ghosts.get(&li) else {
                continue;
            };
            let line_start = li * ls;
            let from = (start as usize).max(line_start) - line_start;
            let to = ((start as usize + len).min(line_start + ls)) - line_start;
            if (from..to).any(|b| g.mask[b / 64] & (1 << (b % 64)) != 0) {
                inner.violate(PsanViolationKind::GhostRead, li, events);
            }
        }
    }

    pub(crate) fn violations(&self) -> Vec<PsanViolation> {
        self.inner.lock().violations.clone()
    }

    pub(crate) fn violation_count(&self) -> usize {
        self.inner.lock().violations.len()
    }

    /// Test/debug accessor: the shadow state of the line containing
    /// `addr` (`Clean` when untracked).
    pub(crate) fn state_of(&self, addr: u64) -> ShadowState {
        let inner = self.inner.lock();
        let li = (addr as usize) / inner.line_size;
        inner.lines.get(&li).map_or(ShadowState::Clean, |l| l.state)
    }

    /// Test/debug accessor: whether any ghost bytes are tracked for the
    /// line containing `addr`.
    #[cfg(test)]
    pub(crate) fn has_ghost(&self, addr: u64) -> bool {
        let inner = self.inner.lock();
        let li = (addr as usize) / inner.line_size;
        inner.ghosts.contains_key(&li)
    }
}

/// PSan on a region. All of these are no-ops unless the region was
/// built with [`PMemBuilder::psan`](crate::PMemBuilder::psan);
/// application layers call them unconditionally.
impl PMem {
    /// `true` if PSan shadows this region.
    #[must_use]
    pub fn psan_enabled(&self) -> bool {
        self.psan().is_some()
    }

    /// Registers `[start, start+len)` as a **publish range**: any
    /// successful 8-byte CAS inside it is treated as publishing a
    /// pointer into this region, and the `extent` bytes at the pointer
    /// must already be durable (else an *early-publish* violation).
    /// Typical use: a store registers its bucket-head array so head
    /// CASes are checked against the records they link in.
    pub fn psan_register_publish_range(&self, start: POffset, len: usize, extent: usize) {
        if let Some(psan) = self.psan() {
            psan.register_publish_range(start.get(), len as u64, extent as u64);
        }
    }

    /// Immediate commit-ordering check: records an *unordered-commit*
    /// violation for every still-dirty line in `[start, start+len)`.
    /// Used at commit points: a root swap's flip, and a group commit
    /// once its heads' flight is awaited.
    pub fn psan_check_durable(&self, start: POffset, len: usize) {
        if let Some(psan) = self.psan() {
            psan.check_durable(start.get(), len as u64, self.events());
        }
    }

    /// All violations recorded so far (across reopen boots).
    #[must_use]
    pub fn psan_violations(&self) -> Vec<PsanViolation> {
        self.psan().map(|p| p.violations()).unwrap_or_default()
    }

    /// Number of violations recorded so far.
    #[must_use]
    pub fn psan_violation_count(&self) -> usize {
        self.psan().map_or(0, |p| p.violation_count())
    }

    /// Shadow state of the line containing `addr` (`None` when PSan is
    /// off). Test/debug accessor.
    #[doc(hidden)]
    #[must_use]
    pub fn psan_line_state(&self, addr: POffset) -> Option<ShadowState> {
        self.psan().map(|p| p.state_of(addr.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> PsanCell {
        PsanCell::new(64)
    }

    #[test]
    fn write_moves_clean_to_dirty() {
        let c = cell();
        assert_eq!(c.state_of(64), ShadowState::Clean);
        c.note_write(64, 8, 1);
        assert_eq!(c.state_of(64), ShadowState::Dirty);
        // A second write on the same line stays Dirty.
        c.note_write(72, 8, 2);
        assert_eq!(c.state_of(64), ShadowState::Dirty);
    }

    #[test]
    fn persist_then_round_trip_reaches_durable() {
        let c = cell();
        c.note_write(0, 8, 1);
        c.note_persist_line_ticket(0, 1, 2);
        assert_eq!(c.state_of(0), ShadowState::Flushed);
        c.note_ticket_complete(1, 2);
        assert_eq!(c.state_of(0), ShadowState::Durable);
    }

    #[test]
    fn fence_promotes_flushed_to_durable() {
        let p = crate::PMemBuilder::new()
            .len(1024)
            .line_size(64)
            .psan(true)
            .build_in_memory();
        let off = crate::POffset::new(0);
        p.write_u64(off, 7).unwrap();
        let _t = p.flush_async(off, 8).unwrap();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Flushed));
        p.fence();
        assert_eq!(p.psan_line_state(off), Some(ShadowState::Durable));
    }

    #[test]
    fn durable_line_rewritten_goes_dirty_again() {
        let c = cell();
        c.note_write(0, 8, 1);
        c.note_persist_line_ticket(0, 1, 2);
        c.note_ticket_complete(1, 2);
        c.note_write(0, 8, 3);
        assert_eq!(c.state_of(0), ShadowState::Dirty);
    }

    #[test]
    fn crash_reverts_dropped_dirty_lines_to_clean() {
        let c = cell();
        c.note_write(0, 8, 1);
        c.note_crash(&[(0, false)], 2);
        assert_eq!(c.state_of(0), ShadowState::Clean);
        assert!(!c.has_ghost(0));
        // Reading the reverted line is fine: it holds durable content.
        c.note_read(0, 8, 3);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn crash_mid_flush_leaves_persisted_lines_durable() {
        let c = cell();
        // Flight 1 over line 0 completes before the crash ...
        c.note_write(0, 8, 1);
        c.note_persist_line_ticket(0, 1, 2);
        c.note_ticket_complete(1, 2);
        // ... flight 2 over lines 2 and 3 does not: both take the
        // lottery, line 2 dropped, line 3 a lucky survivor.
        c.note_write(128, 8, 3);
        c.note_write(192, 8, 4);
        c.note_persist_line_ticket(2, 2, 5);
        c.note_persist_line_ticket(3, 2, 6);
        c.note_crash(&[(2, false), (3, true)], 7);
        assert_eq!(c.state_of(0), ShadowState::Durable);
        assert_eq!(c.state_of(128), ShadowState::Clean);
        assert!(!c.has_ghost(128));
        assert!(c.has_ghost(192));
        // The cut flight never completes.
        c.note_ticket_complete(2, 8);
        assert_eq!(c.state_of(192), ShadowState::Clean);
    }

    #[test]
    fn lucky_survivor_bytes_become_ghosts_and_reads_are_flagged() {
        let c = cell();
        c.note_write(64, 8, 1);
        c.note_crash(&[(1, true)], 2);
        assert!(c.has_ghost(64));
        // Reading a different, untouched part of the line is fine.
        c.note_read(80, 8, 3);
        assert!(c.violations().is_empty());
        // Reading the ghost bytes fires, once.
        c.note_read(64, 8, 4);
        c.note_read(64, 8, 5);
        let v = c.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, PsanViolationKind::GhostRead);
        assert_eq!(v[0].offset, 64);
    }

    #[test]
    fn overwriting_ghost_bytes_clears_them() {
        let c = cell();
        c.note_write(64, 8, 1);
        c.note_crash(&[(1, true)], 2);
        c.note_write(64, 8, 3); // this boot rewrites the bytes
        assert!(!c.has_ghost(64));
        c.note_read(64, 8, 4);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn early_publish_fires_on_dirty_target_and_passes_on_durable() {
        let c = cell();
        c.register_publish_range(0, 64, 64);
        // Target record at 256 written but not persisted.
        c.note_write(256, 48, 1);
        c.note_cas_publish(8, &256u64.to_le_bytes(), 2);
        let v = c.violations();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0].kind,
            PsanViolationKind::EarlyPublish { published: 256 }
        ));
        assert_eq!(v[0].offset, 256);

        // Once durable, the same publish is clean.
        let c = cell();
        c.register_publish_range(0, 64, 64);
        c.note_write(256, 48, 1);
        c.note_persist_line_ticket(4, 1, 2);
        c.note_ticket_complete(1, 2);
        c.note_cas_publish(8, &256u64.to_le_bytes(), 3);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn cas_outside_publish_ranges_is_ignored() {
        let c = cell();
        c.register_publish_range(0, 64, 64);
        c.note_write(256, 48, 1);
        // CAS at offset 128 is outside the registered range.
        c.note_cas_publish(128, &256u64.to_le_bytes(), 2);
        assert!(c.violations().is_empty());
        // Null publishes are ignored too.
        c.note_cas_publish(8, &0u64.to_le_bytes(), 3);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn root_swap_checks_declared_commit_extents() {
        // The extent is the swap's receipt: every line of it is checked
        // at the flip, not just the line at the pointer.
        let p = crate::PMemBuilder::new()
            .len(4096)
            .line_size(64)
            .psan(true)
            .build_in_memory();
        let cell = crate::RootCell::format(p.clone(), crate::POffset::new(64), 0, 0).unwrap();
        let mut level = crate::Level::default();
        level.forge(&p, crate::POffset::new(512), 128);
        let receipt = level.await_all().unwrap();
        p.write(crate::POffset::new(512), &[1; 128]).unwrap();
        cell.swap(1, 512, 128, &receipt).unwrap();
        let v = p.psan_violations();
        assert_eq!(v.len(), 2, "both dirty lines of the extent flagged");
        assert!(v
            .iter()
            .all(|x| x.kind == PsanViolationKind::UnorderedCommit));
    }

    #[test]
    fn check_durable_flags_dirty_spans() {
        let c = cell();
        c.note_write(128, 64, 1);
        c.check_durable(128, 64, 2);
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].kind, PsanViolationKind::UnorderedCommit);
    }

    #[test]
    fn op_labels_nest_and_attach_to_violations() {
        assert_eq!(current_op_label(), "unlabeled");
        let c = cell();
        {
            let _outer = op_label("outer");
            assert_eq!(current_op_label(), "outer");
            {
                let _inner = op_label("inner");
                assert_eq!(current_op_label(), "inner");
                c.note_write(128, 8, 1);
                c.check_durable(128, 8, 2);
            }
            assert_eq!(current_op_label(), "outer");
        }
        assert_eq!(current_op_label(), "unlabeled");
        let v = c.violations();
        assert_eq!(v[0].op_label, "inner");
        assert!(v[0].history.iter().any(|h| h.contains("[inner]")));
    }

    #[test]
    fn violation_display_is_readable() {
        let c = cell();
        c.set_label("shard-3");
        let _g = op_label("kv.compact");
        c.note_write(256, 8, 7);
        c.check_durable(256, 8, 9);
        let s = c.violations()[0].to_string();
        assert!(s.contains("psan[shard-3]"), "{s}");
        assert!(s.contains("unordered-commit"), "{s}");
        assert!(s.contains("kv.compact"), "{s}");
        assert!(s.contains("0x100"), "{s}");
    }
}
