//! The transactional for-loop of Appendix A.1, as a reusable library
//! combinator.
//!
//! The paper motivates unbounded stacks with a *transactional loop*:
//! update items `a₁ … aₙ` so that a crash anywhere in the middle rolls
//! every update back. The loop is a recursive function `F(i)` — save
//! `aᵢ`'s old value, update `aᵢ`, call `F(i + 1)` — whose recover dual
//! rolls `aᵢ` back; because recovery walks frames top-down, rollbacks
//! run in reverse order. [`TxnLoop`] packages that recursion: the
//! application supplies a [`TxnStep`] (how to apply and roll back one
//! item), the combinator owns the frame-per-item machinery.
//!
//! # Two subtleties the paper's sketch leaves open
//!
//! Both were found by the crash-point enumeration tests of this module
//! (which sweep *every* persistence event of a transaction) and both
//! are resolved by [`U64CellStep`]'s epoch discipline:
//!
//! 1. **Commit must be a single event.** In the naive sketch the
//!    transaction is "committed" once the recursion has unwound — but
//!    the unwind pops one frame at a time. A crash in the middle of
//!    the unwind leaves frames `F(0) … F(i)` on the stack while items
//!    `i+1 …` were applied by already-popped frames; rolling back just
//!    the prefix tears the transaction. The combinator therefore calls
//!    [`TxnStep::commit`] in the **deepest** frame (`i == count`),
//!    *before* any frame pops: a persistent committed-epoch flag, one
//!    atomic flush. Pre-commit crashes find every applied item's frame
//!    still on the stack (full rollback); post-commit crashes find the
//!    flag and roll back nothing.
//! 2. **Undo records go stale.** Recovery of frame `F(i)` may run
//!    before `F(i)`'s body saved its undo record (the frame linearizes
//!    at the push marker flip; the undo write happens strictly later).
//!    If the undo area still holds a record from a previous, committed
//!    transaction, a naive rollback restores a stale value. Undo
//!    records are therefore tagged with the transaction epoch bumped by
//!    [`U64CellStep::begin`]; rollback honours only current-epoch
//!    records.
//!
//! Depth equals the item count, so large transactions need the
//! unbounded stacks of Appendix A ([`StackKind::Vec`] /
//! [`StackKind::List`]) — and, because every persistent frame is
//! mirrored by a host (Rust) stack frame during forward execution, a
//! large *volatile* thread stack as well
//! ([`Runtime::host_stack_size`](crate::Runtime::host_stack_size)).
//! Recovery is iterative and needs no extra host stack.
//!
//! [`StackKind::Vec`]: crate::StackKind::Vec
//! [`StackKind::List`]: crate::StackKind::List

use std::sync::Arc;

use pstack_nvram::POffset;

use crate::invoke::PContext;
use crate::registry::{FunctionRegistry, RecoverableFunction};
use crate::runtime::Task;
use crate::{PError, RetBytes};

/// One item-wise step of a transactional loop.
///
/// `apply` must persist enough undo state *before* mutating the item
/// for `rollback` to restore it; `rollback` must be idempotent (repeated
/// failures can run it more than once) and must ignore undo state left
/// by previous transactions (see the module docs on epochs —
/// [`U64CellStep`] shows the pattern).
pub trait TxnStep: Send + Sync {
    /// Applies step `i`: persist the undo record, then mutate item `i`.
    ///
    /// # Errors
    ///
    /// A propagated crash, or an application error (which aborts the
    /// recursion; already-applied items are *not* rolled back on
    /// abort — they are rolled back only by crash recovery).
    fn apply(&self, ctx: &mut PContext<'_>, i: u64) -> Result<(), PError>;

    /// Rolls step `i` back if (and only if) this transaction's `apply`
    /// persisted an undo record for it **and** the transaction has not
    /// committed (see [`TxnStep::commit`]).
    ///
    /// # Errors
    ///
    /// A propagated crash (recovery re-runs after restart), or an
    /// application error.
    fn rollback(&self, ctx: &mut PContext<'_>, i: u64) -> Result<(), PError>;

    /// Marks the transaction committed, with a single atomic persist.
    /// The combinator calls this in the deepest frame, before any frame
    /// of the chain pops — this is the transaction's linearization
    /// point (see the module docs on why the unwind itself cannot be
    /// the commit).
    ///
    /// # Errors
    ///
    /// A propagated crash, or an application error.
    fn commit(&self, ctx: &mut PContext<'_>) -> Result<(), PError>;
}

fn encode_args(i: u64, count: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&i.to_le_bytes());
    v.extend_from_slice(&count.to_le_bytes());
    v
}

fn decode_args(args: &[u8]) -> Result<(u64, u64), PError> {
    if args.len() < 16 {
        return Err(PError::Task(
            "transactional-loop frame args must hold (index, count)".into(),
        ));
    }
    let i = u64::from_le_bytes(args[..8].try_into().expect("slice length"));
    let count = u64::from_le_bytes(args[8..16].try_into().expect("slice length"));
    Ok((i, count))
}

struct TxnLoopFunction {
    func_id: u64,
    step: Arc<dyn TxnStep>,
}

impl RecoverableFunction for TxnLoopFunction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let (i, count) = decode_args(args)?;
        if i >= count {
            // Deepest frame: every item is applied and every frame of
            // the chain is still on the stack — commit here, in one
            // atomic persist, before the unwind starts popping frames.
            self.step.commit(ctx)?;
            return Ok(None);
        }
        self.step.apply(ctx, i)?;
        ctx.call(self.func_id, &encode_args(i + 1, count))?;
        Ok(None)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let (i, count) = decode_args(args)?;
        if i < count {
            // Deeper frames were already rolled back (recovery walks
            // top-down), so undoing item i keeps the suffix intact.
            self.step.rollback(ctx, i)?;
        }
        Ok(None)
    }
}

/// The registered transactional-loop combinator. Create with
/// [`TxnLoop::register`], then submit [`TxnLoop::task`]s (or invoke
/// [`TxnLoop::run`] from inside another recoverable function).
///
/// # Example
///
/// See the `transactional_update` example and the tests of this module;
/// the short form is:
///
/// ```
/// use std::sync::Arc;
/// use pstack_core::{FunctionRegistry, Runtime, RuntimeConfig, TxnLoop, U64CellStep};
/// use pstack_nvram::PMemBuilder;
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
/// let stub = FunctionRegistry::new();
/// let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &stub)?;
/// let step = U64CellStep::format(&rt, 8, Arc::new(|v| v + 1))?;
/// let mut registry = FunctionRegistry::new();
/// let txn = TxnLoop::register(&mut registry, 77, Arc::new(step.clone()))?;
/// let rt = Runtime::open(pmem, &registry)?;
///
/// step.begin()?; // bump the undo epoch, then run the transaction
/// let report = rt.run_tasks(vec![txn.task(8)]);
/// assert_eq!(report.completed, 1);
/// assert_eq!(step.read_item(0)?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TxnLoop {
    func_id: u64,
}

impl TxnLoop {
    /// Registers the recursion machinery under `func_id`, driving
    /// `step`.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if `func_id` is already registered.
    pub fn register(
        registry: &mut FunctionRegistry,
        func_id: u64,
        step: Arc<dyn TxnStep>,
    ) -> Result<Self, PError> {
        registry.register(func_id, Arc::new(TxnLoopFunction { func_id, step }))?;
        Ok(TxnLoop { func_id })
    }

    /// The function id the combinator was registered under.
    #[must_use]
    pub fn func_id(&self) -> u64 {
        self.func_id
    }

    /// Builds the root task executing items `0 .. count` transactionally.
    #[must_use]
    pub fn task(&self, count: u64) -> Task {
        Task::new(self.func_id, encode_args(0, count))
    }

    /// Runs the loop as a nested persistent call from inside another
    /// recoverable function.
    ///
    /// # Errors
    ///
    /// Propagated crash or application errors.
    pub fn run(&self, ctx: &mut PContext<'_>, count: u64) -> Result<(), PError> {
        ctx.call(self.func_id, &encode_args(0, count))?;
        Ok(())
    }
}

const CELL_MAGIC: u64 = 0x5053_5458_4E43_4C31; // "PSTXNCL1"

/// A batteries-included [`TxnStep`] over an array of `u64` cells in the
/// NVRAM heap, applying a pure update function to every cell with
/// epoch-tagged undo records (see the module docs).
///
/// Layout (allocated by [`U64CellStep::format`]):
///
/// ```text
/// header   magic u64, epoch u64, count u64, committed-epoch u64
///          (one cache line)
/// items    count × u64
/// undo     count × (old u64, epoch u64)
/// ```
///
/// The transaction of epoch `e` is committed iff `committed-epoch = e`;
/// rollback is a no-op for committed transactions.
#[derive(Clone)]
pub struct U64CellStep {
    pmem: pstack_nvram::PMem,
    base: POffset,
    count: u64,
    update: Arc<dyn Fn(u64) -> u64 + Send + Sync>,
}

impl std::fmt::Debug for U64CellStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("U64CellStep")
            .field("base", &self.base)
            .field("count", &self.count)
            .finish()
    }
}

const HEADER_LEN: u64 = 64;

impl U64CellStep {
    /// Bytes of NVRAM needed for `count` cells.
    #[must_use]
    pub fn required_len(count: u64) -> usize {
        (HEADER_LEN + count * 8 + count * 16) as usize
    }

    /// Allocates the header, items (zero-initialized) and undo area
    /// from the runtime's heap.
    ///
    /// # Errors
    ///
    /// Heap or NVRAM errors, or [`PError::InvalidConfig`] for zero
    /// `count`.
    pub fn format(
        rt: &crate::Runtime,
        count: u64,
        update: Arc<dyn Fn(u64) -> u64 + Send + Sync>,
    ) -> Result<Self, PError> {
        if count == 0 {
            return Err(PError::InvalidConfig("cell count must be positive".into()));
        }
        let pmem = rt.pmem().clone();
        let base = rt
            .heap()
            .alloc_filled(Self::required_len(count), 64, |base| {
                pmem.write_u64(base, CELL_MAGIC)?;
                pmem.write_u64(base + 16u64, count)?;
                // No transaction has committed yet; MAX is never a real epoch.
                pmem.write_u64(base + 24u64, u64::MAX)
            })?;
        Ok(U64CellStep {
            pmem,
            base,
            count,
            update,
        })
    }

    /// Re-attaches to an area created by [`U64CellStep::format`] at
    /// `base` (recovery boot). The update function is code, not data —
    /// supply the same one.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad magic word.
    pub fn open(
        rt: &crate::Runtime,
        base: POffset,
        update: Arc<dyn Fn(u64) -> u64 + Send + Sync>,
    ) -> Result<Self, PError> {
        let pmem = rt.pmem().clone();
        let magic = pmem.read_u64(base)?;
        if magic != CELL_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad cell-step magic {magic:#x} at {base}"
            )));
        }
        let count = pmem.read_u64(base + 16u64)?;
        Ok(U64CellStep {
            pmem,
            base,
            count,
            update,
        })
    }

    /// The area's base offset (persist it to find the cells again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// Number of cells.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    fn item_off(&self, i: u64) -> POffset {
        self.base + (HEADER_LEN + i * 8)
    }

    fn undo_off(&self, i: u64) -> POffset {
        self.base + (HEADER_LEN + self.count * 8 + i * 16)
    }

    fn epoch(&self) -> Result<u64, PError> {
        Ok(self.pmem.read_u64(self.base + 8u64)?)
    }

    fn committed_epoch(&self) -> Result<u64, PError> {
        Ok(self.pmem.read_u64(self.base + 24u64)?)
    }

    /// `true` if the current transaction has committed.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn is_committed(&self) -> Result<bool, PError> {
        Ok(self.committed_epoch()? == self.epoch()?)
    }

    /// Starts a new transaction: bumps and persists the undo epoch so
    /// stale undo records from previous (committed or rolled-back)
    /// transactions are never replayed. Call once before each
    /// [`TxnLoop::task`] over this step; do not run two transactions
    /// over one step concurrently.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn begin(&self) -> Result<(), PError> {
        let e = self.epoch()?;
        self.pmem.write_u64(self.base + 8u64, e + 1)?;
        self.pmem.flush(self.base + 8u64, 8)?;
        Ok(())
    }

    /// Reads cell `i`.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn read_item(&self, i: u64) -> Result<u64, PError> {
        assert!(
            i < self.count,
            "cell {i} out of range ({} cells)",
            self.count
        );
        Ok(self.pmem.read_u64(self.item_off(i))?)
    }

    /// Writes and persists cell `i` (setup helper for tests/examples).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn write_item(&self, i: u64, v: u64) -> Result<(), PError> {
        assert!(
            i < self.count,
            "cell {i} out of range ({} cells)",
            self.count
        );
        self.pmem.write_u64(self.item_off(i), v)?;
        self.pmem.flush(self.item_off(i), 8)?;
        Ok(())
    }

    /// Reads all cells.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn read_all(&self) -> Result<Vec<u64>, PError> {
        (0..self.count).map(|i| self.read_item(i)).collect()
    }
}

impl TxnStep for U64CellStep {
    fn apply(&self, _ctx: &mut PContext<'_>, i: u64) -> Result<(), PError> {
        if i >= self.count {
            return Err(PError::Task(format!(
                "transaction item {i} out of range ({} cells)",
                self.count
            )));
        }
        let epoch = self.epoch()?;
        let old = self.pmem.read_u64(self.item_off(i))?;
        // Undo record first: value, then the epoch word that validates
        // it. Both in one 16-byte record; persist before mutating.
        self.pmem.write_u64(self.undo_off(i), old)?;
        self.pmem.write_u64(self.undo_off(i) + 8u64, epoch)?;
        self.pmem.flush(self.undo_off(i), 16)?;
        self.pmem.write_u64(self.item_off(i), (self.update)(old))?;
        self.pmem.flush(self.item_off(i), 8)?;
        Ok(())
    }

    fn rollback(&self, _ctx: &mut PContext<'_>, i: u64) -> Result<(), PError> {
        if i >= self.count {
            return Ok(());
        }
        let epoch = self.epoch()?;
        if self.committed_epoch()? == epoch {
            // The transaction committed before the crash; the remaining
            // frames are just an interrupted unwind. Nothing to undo.
            return Ok(());
        }
        let rec_epoch = self.pmem.read_u64(self.undo_off(i) + 8u64)?;
        if rec_epoch == epoch {
            let old = self.pmem.read_u64(self.undo_off(i))?;
            self.pmem.write_u64(self.item_off(i), old)?;
            self.pmem.flush(self.item_off(i), 8)?;
            // Leave the record in place: restoring twice writes the
            // same old value — rollback is naturally idempotent.
        }
        Ok(())
    }

    fn commit(&self, _ctx: &mut PContext<'_>) -> Result<(), PError> {
        let epoch = self.epoch()?;
        self.pmem.write_u64(self.base + 24u64, epoch)?;
        self.pmem.flush(self.base + 24u64, 8)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{RecoveryMode, Runtime, RuntimeConfig};
    use crate::stack::StackKind;
    use pstack_nvram::{sweep, FailPlan, PMem, PMemBuilder};

    const TXN_FN: u64 = 0x7871;

    fn setup(
        kind: StackKind,
        count: u64,
    ) -> (PMem, Runtime, U64CellStep, TxnLoop, FunctionRegistry) {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        let rt = Runtime::format(
            pmem.clone(),
            RuntimeConfig::new(1).stack_kind(kind).stack_capacity(512),
            &stub,
        )
        .unwrap();
        let step = U64CellStep::format(&rt, count, Arc::new(|v| v * 2 + 1)).unwrap();
        for i in 0..count {
            step.write_item(i, 100 + i).unwrap();
        }
        let mut registry = FunctionRegistry::new();
        let txn = TxnLoop::register(&mut registry, TXN_FN, Arc::new(step.clone())).unwrap();
        let rt = Runtime::open(pmem.clone(), &registry).unwrap();
        (pmem, rt, step, txn, registry)
    }

    /// Recovery boot: reopen the region and rebuild the registry around
    /// a step bound to the *new* region handle (a real restart would do
    /// exactly this — the old handles died with the process).
    fn reopen(pmem: &PMem, step_base: POffset) -> (PMem, Runtime, U64CellStep) {
        let pmem2 = pmem.reopen().unwrap();
        let (rt2, step2) = attach(&pmem2, step_base);
        (pmem2, rt2, step2)
    }

    /// The runtime and the step over a reopened region.
    fn attach(pmem: &PMem, step_base: POffset) -> (Runtime, U64CellStep) {
        let stub = FunctionRegistry::new();
        let rt_probe = Runtime::open(pmem.clone(), &stub).unwrap();
        let step = U64CellStep::open(&rt_probe, step_base, Arc::new(|v| v * 2 + 1)).unwrap();
        let mut registry = FunctionRegistry::new();
        TxnLoop::register(&mut registry, TXN_FN, Arc::new(step.clone())).unwrap();
        (Runtime::open(pmem.clone(), &registry).unwrap(), step)
    }

    /// Runs one transaction of `count` items; a power failure, wherever
    /// it lands, is an error.
    fn run_txn(pmem: &PMem, rt: &Runtime, txn: &TxnLoop, count: u64) -> Result<(), PError> {
        let report = rt.run_tasks(vec![txn.task(count)]);
        if report.crashed || pmem.is_crashed() {
            return Err(PError::Mem(pstack_nvram::MemError::Crashed));
        }
        assert_eq!(report.completed, 1);
        Ok(())
    }

    #[test]
    fn clean_transaction_commits_all_items() {
        let (_, rt, step, txn, _) = setup(StackKind::Fixed, 8);
        step.begin().unwrap();
        let report = rt.run_tasks(vec![txn.task(8)]);
        assert_eq!(report.completed, 1);
        let expected: Vec<u64> = (0..8).map(|i| (100 + i) * 2 + 1).collect();
        assert_eq!(step.read_all().unwrap(), expected);
    }

    #[test]
    fn zero_count_transaction_is_a_noop() {
        let (_, rt, step, txn, _) = setup(StackKind::Fixed, 4);
        step.begin().unwrap();
        let before = step.read_all().unwrap();
        let report = rt.run_tasks(vec![txn.task(0)]);
        assert_eq!(report.completed, 1);
        assert_eq!(step.read_all().unwrap(), before);
    }

    #[test]
    fn crash_mid_transaction_rolls_back_everything() {
        let (pmem, rt, step, txn, _) = setup(StackKind::List, 16);
        let before = step.read_all().unwrap();
        step.begin().unwrap();
        pmem.arm_failpoint(FailPlan::after_events(120));
        let report = rt.run_tasks(vec![txn.task(16)]);
        assert!(report.crashed, "fail-point must cut the transaction");
        let (_, rt2, step2) = reopen(&pmem, step.base());
        rt2.recover(RecoveryMode::Parallel).unwrap();
        assert_eq!(step2.read_all().unwrap(), before, "all-or-nothing violated");
    }

    #[test]
    fn crash_point_sweep_is_all_or_nothing() {
        // The central Appendix-A claim, exhaustively: crash after every
        // k-th persistence event of the whole transaction; after
        // recovery the array is either fully updated (commit happened)
        // or fully restored. Both unbounded stack layouts.
        let count = 6u64;
        for (kind, pinned) in [(StackKind::Vec, 127), (StackKind::List, 91)] {
            let (_, _, step, ..) = setup(kind, count);
            let before = step.read_all().unwrap();
            let after: Vec<u64> = before.iter().map(|v| v * 2 + 1).collect();
            let probe = || {
                let (pmem, rt, step, txn, _) = setup(kind, count);
                step.begin().unwrap();
                (pmem, (rt, step, txn))
            };
            let events = sweep(
                probe,
                |(pmem, (rt, _, txn))| run_txn(pmem, rt, txn, count),
                |(pmem, (_, step, _)), cut| {
                    let (rt, step) = attach(&pmem, step.base());
                    rt.recover(RecoveryMode::Parallel).unwrap();
                    let got = step.read_all().unwrap();
                    assert!(
                        got == before || got == after,
                        "{kind}: {cut}: torn state {got:?}"
                    );
                    assert!(
                        !cut.returned() || got == after,
                        "{kind}: {cut}: commit lost"
                    );
                },
            );
            assert_eq!(events, [pinned], "{kind}: a transaction's events");
        }
    }

    #[test]
    fn repeated_failures_during_rollback_still_restore() {
        let count = 10u64;
        let (pmem, rt, step, txn, _) = setup(StackKind::List, count);
        let before = step.read_all().unwrap();
        step.begin().unwrap();
        pmem.arm_failpoint(FailPlan::after_events(90));
        let report = rt.run_tasks(vec![txn.task(count)]);
        assert!(report.crashed);

        // Crash the recovery itself a few times at staggered points;
        // every boot rebuilds the registry on the fresh region handle.
        pmem.crash_now(0, 1.0); // idempotent if already crashed
        let mut cur = pmem;
        for attempt in 0..20u64 {
            let (pmem2, rt2, _) = reopen(&cur, step.base());
            cur = pmem2;
            if attempt < 3 {
                cur.arm_failpoint(FailPlan::after_events(7 + attempt * 5));
            }
            match rt2.recover(RecoveryMode::Parallel) {
                Ok(_) => {
                    cur.disarm_failpoint();
                    break;
                }
                Err(e) => {
                    assert!(e.is_crash(), "unexpected error: {e}");
                    if !cur.is_crashed() {
                        cur.crash_now(0, 1.0);
                    }
                }
            }
        }
        cur.crash_now(0, 1.0);
        let (_, rt2, step2) = reopen(&cur, step.base());
        assert_eq!(rt2.recover(RecoveryMode::Serial).unwrap().total_frames(), 0);
        assert_eq!(step2.read_all().unwrap(), before);
    }

    #[test]
    fn stale_undo_from_committed_transaction_is_ignored() {
        // Transaction 1 commits. Transaction 2 crashes after pushing
        // F(0) but before its apply persisted a fresh undo record; the
        // rollback must NOT replay transaction 1's record for item 0.
        let committed = || {
            let (pmem, rt, step, txn, _) = setup(StackKind::Fixed, 4);
            step.begin().unwrap();
            assert_eq!(rt.run_tasks(vec![txn.task(4)]).completed, 1);
            let values = step.read_all().unwrap();
            (values, (pmem, (rt, step, txn)))
        };
        let probe = || {
            let (_, system) = committed();
            system.1 .1.begin().unwrap();
            system
        };
        let committed = committed().0;
        let after2: Vec<u64> = committed.iter().map(|v| v * 2 + 1).collect();
        // Every event of transaction 2, its frame push the first of
        // them: the frame-pushed-but-no-undo point among them.
        let events = sweep(
            probe,
            |(pmem, (rt, _, txn))| run_txn(pmem, rt, txn, 4),
            |(pmem, (_, step, _)), cut| {
                let (rt, step) = attach(&pmem, step.base());
                rt.recover(RecoveryMode::Parallel).unwrap();
                let got = step.read_all().unwrap();
                // All-or-nothing relative to transaction 2; never a
                // replay of transaction 1's old values.
                assert!(
                    got == committed || got == after2,
                    "{cut}: stale undo replayed: {got:?} (committed {committed:?})"
                );
            },
        );
        assert_eq!(events, [62], "transaction 2's events");
    }

    #[test]
    fn application_error_aborts_without_rollback() {
        // Abort ≠ crash: the paper's model rolls back on *recovery*;
        // an application error unwinds frames without running recover
        // duals. Items updated before the error stay updated.
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &stub).unwrap();
        let step = U64CellStep::format(&rt, 4, Arc::new(|v| v + 1)).unwrap();

        struct FailingStep {
            inner: U64CellStep,
        }
        impl TxnStep for FailingStep {
            fn apply(&self, ctx: &mut PContext<'_>, i: u64) -> Result<(), PError> {
                if i == 2 {
                    return Err(PError::Task("step 2 rejects".into()));
                }
                self.inner.apply(ctx, i)
            }
            fn rollback(&self, ctx: &mut PContext<'_>, i: u64) -> Result<(), PError> {
                self.inner.rollback(ctx, i)
            }
            fn commit(&self, ctx: &mut PContext<'_>) -> Result<(), PError> {
                self.inner.commit(ctx)
            }
        }

        let mut registry = FunctionRegistry::new();
        let txn = TxnLoop::register(
            &mut registry,
            TXN_FN,
            Arc::new(FailingStep {
                inner: step.clone(),
            }),
        )
        .unwrap();
        let rt = Runtime::open(pmem, &registry).unwrap();
        step.begin().unwrap();
        let report = rt.run_tasks(vec![txn.task(4)]);
        assert_eq!(report.task_errors, 1);
        assert_eq!(step.read_all().unwrap(), vec![1, 1, 0, 0]);
        assert_eq!(rt.open_stack(0).unwrap().depth(), 0, "frames unwound");
    }

    #[test]
    fn txn_loop_composes_as_nested_call() {
        // A parent recoverable function runs a transactional loop as a
        // nested persistent call.
        const PARENT: u64 = 0x7070;
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &stub).unwrap();
        let step = U64CellStep::format(&rt, 4, Arc::new(|v| v + 10)).unwrap();
        let mut registry = FunctionRegistry::new();
        let txn = TxnLoop::register(&mut registry, TXN_FN, Arc::new(step.clone())).unwrap();
        registry
            .register_pair(
                PARENT,
                move |ctx: &mut PContext<'_>, _args: &[u8]| {
                    txn.run(ctx, 4)?;
                    Ok(None)
                },
                |_ctx, _args| Ok(None),
            )
            .unwrap();
        let rt = Runtime::open(pmem, &registry).unwrap();
        step.begin().unwrap();
        let report = rt.run_tasks(vec![Task::new(PARENT, vec![])]);
        assert_eq!(report.completed, 1);
        assert_eq!(step.read_all().unwrap(), vec![10, 10, 10, 10]);
    }

    #[test]
    fn format_and_open_round_trip() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(1), &stub).unwrap();
        let step = U64CellStep::format(&rt, 3, Arc::new(|v| v)).unwrap();
        step.write_item(1, 42).unwrap();
        let step2 = U64CellStep::open(&rt, step.base(), Arc::new(|v| v)).unwrap();
        assert_eq!(step2.count(), 3);
        assert_eq!(step2.read_item(1).unwrap(), 42);
        let junk = rt.heap().alloc_zeroed(64).unwrap();
        assert!(matches!(
            U64CellStep::open(&rt, junk, Arc::new(|v| v)),
            Err(PError::CorruptStack(_))
        ));
        assert!(U64CellStep::format(&rt, 0, Arc::new(|v| v)).is_err());
    }

    #[test]
    fn deep_transactions_need_and_get_big_host_stacks() {
        // One persistent frame = one host frame during forward
        // execution; Runtime::host_stack_size provisions workers for
        // deep recursion. (Without it, thousands of frames overflow
        // the platform default — found by the soak suite.)
        let count = 3_000u64;
        let pmem = PMemBuilder::new().len(1 << 23).build_in_memory();
        let stub = FunctionRegistry::new();
        let rt = Runtime::format(
            pmem.clone(),
            RuntimeConfig::new(1)
                .stack_kind(StackKind::List)
                .stack_capacity(1024),
            &stub,
        )
        .unwrap();
        let step = U64CellStep::format(&rt, count, Arc::new(|v| v + 1)).unwrap();
        let mut registry = FunctionRegistry::new();
        let txn = TxnLoop::register(&mut registry, TXN_FN, Arc::new(step.clone())).unwrap();
        let rt = Runtime::open(pmem, &registry)
            .unwrap()
            .host_stack_size(128 << 20);
        step.begin().unwrap();
        let report = rt.run_tasks(vec![txn.task(count)]);
        assert_eq!(report.completed, 1);
        assert_eq!(step.read_item(count - 1).unwrap(), 1);
        assert!(step.is_committed().unwrap());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        let rt = Runtime::format(pmem, RuntimeConfig::new(1), &stub).unwrap();
        let step = U64CellStep::format(&rt, 2, Arc::new(|v| v)).unwrap();
        let mut registry = FunctionRegistry::new();
        TxnLoop::register(&mut registry, 1, Arc::new(step.clone())).unwrap();
        assert!(TxnLoop::register(&mut registry, 1, Arc::new(step)).is_err());
    }
}
