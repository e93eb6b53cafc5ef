//! The recoverable CAS algorithm (paper §5; algorithm from Attiya,
//! Ben-Baruch & Hendler, PODC'18 — the paper's reference 8).
//!
//! The register `C` holds a [`TaggedValue`] — the logical value plus
//! the writer's process id and operation sequence number. Alongside it
//! lives an N×N matrix `R`. To `CAS(old → new)`, process `p`:
//!
//! 1. reads `C = (v, q, s)`; if `v ≠ old`, returns *false*;
//! 2. writes the pair it is about to overwrite into `R[q][p]` and
//!    flushes it — this is the *evidence* that `q`'s write was in the
//!    register and got overwritten;
//! 3. attempts the hardware CAS `C: (v,q,s) → (new,p,seq)`; on success
//!    flushes `C` and returns *true*, otherwise retries from step 1.
//!
//! Recovery for an interrupted `CAS(old → new)` by `p` with tag `seq`:
//! if `C` still holds `(new, p, seq)` the CAS took effect; if any
//! `R[p][j]` holds `(new, p, seq)`, it took effect and was later
//! overwritten (the overwriter saved the evidence *before* its own
//! CAS); otherwise it **cannot** have taken effect, and is safely
//! re-executed.
//!
//! Every value read in step 1 and in the recovery scans is persisted
//! before it is used ([`TaggedValue::read_from`]): on a region with a
//! cache, `q`'s pair can be in the register before `q` flushed it, and
//! `p` must not record it as evidence, or answer *false* because of it,
//! while a crash could still take it back.
//!
//! [`CasVariant::NoMatrix`] omits steps 2 and the row scan — the bug
//! the paper injects in §5.2. Recovery then re-executes CAS operations
//! that already took effect (double application) or reports *false* for
//! operations that succeeded, and the serializability verifier catches
//! the resulting histories.

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{PMem, POffset};

use crate::cell::{TaggedValue, INIT_PID, TAGGED_LEN};

/// Byte stride between matrix cells (padded so a cell never crosses a
/// cache-line border).
const CELL_STRIDE: u64 = 32;

/// Offset of the matrix relative to the object base (the register cell
/// occupies its own cache line).
const MATRIX_OFF: u64 = 64;

/// Which CAS algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CasVariant {
    /// The correct algorithm with the evidence matrix `R`.
    #[default]
    Nsrl,
    /// §5.2's injected bug: "we have removed the matrix R from the CAS
    /// algorithm". Recovery can double-apply or drop operations.
    NoMatrix,
}

impl CasVariant {
    /// One-byte encoding for persistent configuration records.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            CasVariant::Nsrl => 0,
            CasVariant::NoMatrix => 1,
        }
    }

    /// Decodes [`CasVariant::as_u8`].
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for unknown encodings.
    pub fn from_u8(v: u8) -> Result<Self, PError> {
        match v {
            0 => Ok(CasVariant::Nsrl),
            1 => Ok(CasVariant::NoMatrix),
            other => Err(PError::InvalidConfig(format!(
                "unknown CAS variant encoding {other}"
            ))),
        }
    }
}

/// A recoverable compare-and-swap register for `n` processes, under
/// the crate's one persistence rule (see the crate docs).
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_recoverable::{CasVariant, RecoverableCas};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 16)?;
/// let cas = RecoverableCas::format(pmem, &heap, 4, 100, CasVariant::Nsrl)?;
/// assert!(cas.cas(0, 100, 200, 1)?);
/// assert!(!cas.cas(1, 100, 300, 2)?);
/// assert_eq!(cas.read()?, 200);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RecoverableCas {
    pmem: PMem,
    base: POffset,
    n: usize,
    variant: CasVariant,
}

impl RecoverableCas {
    /// Bytes of NVRAM the object needs for `n` processes.
    #[must_use]
    pub fn required_len(n: usize) -> usize {
        (MATRIX_OFF + (n as u64 * n as u64) * CELL_STRIDE) as usize
    }

    /// Allocates the register + matrix from `heap`, initializes the
    /// register to `init` and zeroes the matrix.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if `n` is zero; heap or NVRAM errors
    /// otherwise.
    pub fn format(
        pmem: PMem,
        heap: &PHeap,
        n: usize,
        init: i64,
        variant: CasVariant,
    ) -> Result<Self, PError> {
        if n == 0 {
            return Err(PError::InvalidConfig("need at least one process".into()));
        }
        let initial = TaggedValue::initial(init).encode();
        let base =
            heap.alloc_filled(Self::required_len(n), 64, |base| pmem.write(base, &initial))?;
        Ok(RecoverableCas {
            pmem,
            base,
            n,
            variant,
        })
    }

    /// Re-attaches to an object previously created by
    /// [`RecoverableCas::format`] at `base` (recovery boot).
    #[must_use]
    pub fn open(pmem: PMem, base: POffset, n: usize, variant: CasVariant) -> Self {
        RecoverableCas {
            pmem,
            base,
            n,
            variant,
        }
    }

    /// The object's base offset (persist this to find it after restart).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// Number of participating processes.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.n
    }

    /// The variant this handle runs.
    #[must_use]
    pub fn variant(&self) -> CasVariant {
        self.variant
    }

    fn matrix_cell(&self, row: u64, col: u64) -> POffset {
        self.base + (MATRIX_OFF + (row * self.n as u64 + col) * CELL_STRIDE)
    }

    /// Reads the current logical register value.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn read(&self) -> Result<i64, PError> {
        Ok(TaggedValue::read_from(&self.pmem, self.base)?.value)
    }

    /// Executes `CAS(old → new)` as process `pid` with unique tag `seq`.
    /// Returns whether the CAS took effect.
    ///
    /// # Errors
    ///
    /// A propagated crash (the operation is then completed by
    /// [`RecoverableCas::recover`] after restart).
    ///
    /// # Panics
    ///
    /// Panics if `pid >= n`.
    pub fn cas(&self, pid: usize, old: i64, new: i64, seq: u64) -> Result<bool, PError> {
        assert!(
            pid < self.n,
            "pid {pid} out of range ({} processes)",
            self.n
        );
        let desired = TaggedValue {
            value: new,
            pid: pid as u64,
            seq,
        };
        loop {
            let cur = TaggedValue::read_from(&self.pmem, self.base)?;
            if cur.value != old {
                return Ok(false);
            }
            if self.variant == CasVariant::Nsrl && cur.pid != INIT_PID {
                // Evidence first, durable: q's pair was in the register
                // and is about to be overwritten.
                cur.write_to(&self.pmem, self.matrix_cell(cur.pid, pid as u64))?;
            }
            if self
                .pmem
                .compare_exchange(self.base, &cur.encode(), &desired.encode())?
            {
                self.pmem.flush(self.base, TAGGED_LEN)?;
                return Ok(true);
            }
            // Lost a race: re-read and retry.
        }
    }

    /// Completes an interrupted `CAS(old → new)` by `pid` with tag
    /// `seq`, per the NSRL recovery procedure (see module docs).
    ///
    /// # Errors
    ///
    /// A propagated crash; recovery is then re-run after restart.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= n`.
    pub fn recover(&self, pid: usize, old: i64, new: i64, seq: u64) -> Result<bool, PError> {
        assert!(
            pid < self.n,
            "pid {pid} out of range ({} processes)",
            self.n
        );
        let mine = TaggedValue {
            value: new,
            pid: pid as u64,
            seq,
        };
        let cur = TaggedValue::read_from(&self.pmem, self.base)?;
        if cur == mine {
            return Ok(true);
        }
        if self.variant == CasVariant::Nsrl {
            for j in 0..self.n as u64 {
                let evidence = TaggedValue::read_from(&self.pmem, self.matrix_cell(pid as u64, j))?;
                if evidence == mine {
                    return Ok(true);
                }
            }
        }
        // The write is neither current nor recorded as overwritten: it
        // never linearized (correct variant) — or we cannot tell (buggy
        // variant) — so (re-)execute.
        self.cas(pid, old, new, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::{sweep, PMemBuilder};
    use pstack_verify::{check_serializability, CasHistory, CasOp};

    fn fixture(n: usize, init: i64, variant: CasVariant) -> (PMem, PHeap, RecoverableCas) {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let cas = RecoverableCas::format(pmem.clone(), &heap, n, init, variant).unwrap();
        (pmem, heap, cas)
    }

    #[test]
    fn successful_and_failed_cas() {
        let (_, _, cas) = fixture(2, 10, CasVariant::Nsrl);
        assert!(cas.cas(0, 10, 20, 1).unwrap());
        assert!(!cas.cas(1, 10, 30, 2).unwrap());
        assert!(cas.cas(1, 20, 30, 3).unwrap());
        assert_eq!(cas.read().unwrap(), 30);
    }

    #[test]
    fn recover_sees_value_still_in_register() {
        let (_, _, cas) = fixture(2, 0, CasVariant::Nsrl);
        assert!(cas.cas(0, 0, 5, 1).unwrap());
        // Crash "happened" right after: recovery confirms success.
        assert!(cas.recover(0, 0, 5, 1).unwrap());
        assert_eq!(cas.read().unwrap(), 5);
    }

    #[test]
    fn recover_sees_overwritten_value_in_matrix() {
        let (_, _, cas) = fixture(2, 0, CasVariant::Nsrl);
        assert!(cas.cas(0, 0, 5, 1).unwrap());
        assert!(cas.cas(1, 5, 9, 2).unwrap()); // overwrites p0's value
                                               // p0's recovery must still report success via R[0][1].
        assert!(cas.recover(0, 0, 5, 1).unwrap());
        // And must not have re-executed: register still holds 9.
        assert_eq!(cas.read().unwrap(), 9);
    }

    #[test]
    fn recover_reexecutes_unlinearized_cas() {
        let (_, _, cas) = fixture(2, 0, CasVariant::Nsrl);
        // Never ran: recovery re-executes and succeeds.
        assert!(cas.recover(0, 0, 5, 1).unwrap());
        assert_eq!(cas.read().unwrap(), 5);
    }

    #[test]
    fn recover_reexecution_can_fail() {
        let (_, _, cas) = fixture(2, 0, CasVariant::Nsrl);
        assert!(cas.cas(1, 0, 7, 1).unwrap());
        // p0's CAS(0 → 5) never linearized and now cannot: value is 7.
        assert!(!cas.recover(0, 0, 5, 2).unwrap());
        assert_eq!(cas.read().unwrap(), 7);
    }

    #[test]
    fn buggy_variant_double_applies_after_overwrite() {
        // The §5.2 bug demonstration, as a deterministic unit test:
        // p0's CAS(0 → 5) succeeds and is overwritten by p1 (5 → 0 —
        // note it restores the old value). Without the matrix, p0's
        // recovery cannot see its success and re-executes, applying the
        // CAS a second time.
        let (_, _, cas) = fixture(2, 0, CasVariant::NoMatrix);
        assert!(cas.cas(0, 0, 5, 1).unwrap());
        assert!(cas.cas(1, 5, 0, 2).unwrap());
        assert!(cas.recover(0, 0, 5, 1).unwrap());
        assert_eq!(
            cas.read().unwrap(),
            5,
            "double application: the register moved twice for one op"
        );
        // The correct variant, in the same scenario, does not re-execute.
        let (_, _, cas) = fixture(2, 0, CasVariant::Nsrl);
        assert!(cas.cas(0, 0, 5, 1).unwrap());
        assert!(cas.cas(1, 5, 0, 2).unwrap());
        assert!(cas.recover(0, 0, 5, 1).unwrap());
        assert_eq!(cas.read().unwrap(), 0, "correct variant: no re-execution");
    }

    #[test]
    fn crash_point_enumeration_cas_recovery_is_exact() {
        // For every crash point inside a CAS, recovery must return the
        // truth: true iff the operation's effect is in the history.
        // With a single process and distinct values, the register tells
        // us directly whether the op applied.
        let events = sweep(
            || {
                let (pmem, _, cas) = fixture(1, 0, CasVariant::Nsrl);
                (pmem, cas)
            },
            |(_, cas)| cas.cas(0, 0, 5, 1),
            |(pmem, cas), cut| {
                let cas2 = RecoverableCas::open(pmem, cas.base(), 1, CasVariant::Nsrl);
                let result = cas2.recover(0, 0, 5, 1).unwrap();
                assert!(
                    result,
                    "{cut}: recovery must complete the op (re-executing if needed)"
                );
                assert_eq!(cas2.read().unwrap(), 5, "{cut}");
            },
        );
        assert!(events[0] >= 1);
    }

    #[test]
    fn concurrent_cas_chain_applies_each_op_once() {
        // 4 threads race to apply a chain 0→1→2→…→N; exactly one thread
        // wins each step, every op eventually succeeds exactly once.
        let (_, _, cas) = fixture(4, 0, CasVariant::Nsrl);
        let n_steps = 64i64;
        std::thread::scope(|s| {
            for pid in 0..4usize {
                let cas = cas.clone();
                s.spawn(move || {
                    for step in 0..n_steps {
                        // Everyone contends on every step until the
                        // chain has moved past it; exactly one CAS per
                        // step can succeed (values never repeat).
                        loop {
                            let cur = cas.read().unwrap();
                            if cur > step {
                                break;
                            }
                            if cur == step {
                                let _ = cas.cas(
                                    pid,
                                    step,
                                    step + 1,
                                    (step * 4 + pid as i64) as u64 + 1,
                                );
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        assert_eq!(cas.read().unwrap(), n_steps);
    }

    #[test]
    fn cas_never_answers_from_a_register_value_a_crash_takes_back() {
        // p's CAS(0 → 1) has written the register but not flushed it
        // when q's whole CAS(1 → 5) runs over it. While q's first
        // persist is on the device, p lands CAS(1 → 0) the same way, so
        // q's hardware CAS fails, q re-reads and answers false. Then the
        // power fails with no survivors. Every value q read must have
        // been durable before q acted on it: a plain read lets q's
        // evidence vouch for a p value the crash erased, and a flush
        // ahead of the read lets q answer from p's second, unflushed
        // value — either history is not serializable.
        let (p, q) = (0, 1);
        let pmem = PMemBuilder::new()
            .len(1 << 16)
            .flush_latency(std::time::Duration::from_millis(50))
            .build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let cas = RecoverableCas::format(pmem.clone(), &heap, 2, 0, CasVariant::Nsrl).unwrap();
        let tagged = |value, seq| TaggedValue {
            value,
            pid: p as u64,
            seq,
        };
        let stage = |from: TaggedValue, to: TaggedValue| {
            pmem.compare_exchange(cas.base(), &from.encode(), &to.encode())
                .unwrap()
        };
        assert!(stage(TaggedValue::initial(0), tagged(1, 1)));
        let persists = pmem.stats().snapshot().persists;
        let answer = std::thread::scope(|s| {
            let q_run = s.spawn(|| cas.cas(q, 1, 5, 1).unwrap());
            while pmem.stats().snapshot().persists == persists {
                std::thread::yield_now();
            }
            assert!(stage(tagged(1, 1), tagged(0, 2)), "q's CAS won the race");
            q_run.join().unwrap()
        });
        assert!(!answer, "q's CAS(1 → 5) lost to p's CAS(1 → 0)");
        pmem.crash_now(0, 0.0);
        let cas = RecoverableCas::open(pmem.reopen().unwrap(), cas.base(), 2, CasVariant::Nsrl);
        assert_eq!(
            cas.recover(q, 1, 5, 1).unwrap(),
            answer,
            "q's recovery must give the answer q already gave"
        );
        let mut ops: Vec<CasOp> = [(1, 0, 1), (2, 1, 0)]
            .map(|(seq, old, new)| CasOp {
                pid: p,
                old,
                new,
                success: cas.recover(p, old, new, seq).unwrap(),
            })
            .into();
        ops.push(CasOp {
            pid: q,
            old: 1,
            new: 5,
            success: answer,
        });
        let history = CasHistory::new(0, cas.read().unwrap(), ops);
        assert!(
            check_serializability(&history).is_serializable(),
            "{history:?}"
        );
    }

    #[test]
    fn variant_encoding_round_trips() {
        for v in [CasVariant::Nsrl, CasVariant::NoMatrix] {
            assert_eq!(CasVariant::from_u8(v.as_u8()).unwrap(), v);
        }
        assert!(CasVariant::from_u8(9).is_err());
    }

    #[test]
    fn required_len_covers_matrix() {
        assert_eq!(RecoverableCas::required_len(1), 64 + 32);
        assert_eq!(RecoverableCas::required_len(4), 64 + 16 * 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pid_bounds_are_enforced() {
        let (_, _, cas) = fixture(2, 0, CasVariant::Nsrl);
        let _ = cas.cas(2, 0, 1, 1);
    }
}
