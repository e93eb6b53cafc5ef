//! Sequential-consistency checking for CAS histories.
//!
//! The paper's future-work direction 2 asks about verifying executions
//! against linearizability *and sequential consistency*. Sequential
//! consistency sits between serializability and linearizability: the
//! serial order must respect each process's *program order*, but not
//! real time across processes. This module provides the decision
//! procedure for small histories (DFS over per-process positions with
//! memoization), complementing [`check_linearizability`] and
//! [`check_serializability`].
//!
//! [`check_linearizability`]: crate::check_linearizability
//! [`check_serializability`]: crate::check_serializability

use std::collections::HashSet;

use crate::history::CasOp;

/// A history for sequential-consistency checking: each process's
/// operations in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramOrderHistory {
    /// Register value before any operation.
    pub init: i64,
    /// `per_process[p]` is process `p`'s operations, oldest first.
    pub per_process: Vec<Vec<CasOp>>,
}

impl ProgramOrderHistory {
    /// Builds a history from per-process program orders.
    #[must_use]
    pub fn new(init: i64, per_process: Vec<Vec<CasOp>>) -> Self {
        ProgramOrderHistory { init, per_process }
    }

    fn total_ops(&self) -> usize {
        self.per_process.iter().map(Vec::len).sum()
    }
}

/// Result of [`check_sequential_consistency`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScVerdict {
    /// A witness interleaving exists: `(pid, index-within-process)` in
    /// serial order.
    SequentiallyConsistent {
        /// The witness interleaving.
        order: Vec<(usize, usize)>,
    },
    /// No program-order-respecting interleaving explains the answers.
    NotSequentiallyConsistent,
}

impl ScVerdict {
    /// `true` for the consistent verdict.
    #[must_use]
    pub fn is_sequentially_consistent(&self) -> bool {
        matches!(self, ScVerdict::SequentiallyConsistent { .. })
    }
}

/// Decides sequential consistency of a CAS history (≤ ~30 total
/// operations; the search is exponential in the worst case).
///
/// # Example
///
/// ```
/// use pstack_verify::{check_sequential_consistency, CasOp, ProgramOrderHistory};
///
/// // p0 saw its CAS(1→2) succeed although it ran "before" p1's
/// // CAS(0→1) in real time — legal under SC (p0's op may be ordered
/// // later), illegal under linearizability.
/// let h = ProgramOrderHistory::new(0, vec![
///     vec![CasOp { pid: 0, old: 1, new: 2, success: true }],
///     vec![CasOp { pid: 1, old: 0, new: 1, success: true }],
/// ]);
/// assert!(check_sequential_consistency(&h).is_sequentially_consistent());
/// ```
#[must_use]
pub fn check_sequential_consistency(history: &ProgramOrderHistory) -> ScVerdict {
    let total = history.total_ops();
    assert!(
        total <= 30 && history.per_process.len() <= 8,
        "the SC search is exponential; keep histories small"
    );
    let mut memo: HashSet<(Vec<usize>, i64)> = HashSet::new();
    let mut positions = vec![0usize; history.per_process.len()];
    let mut order = Vec::with_capacity(total);
    if dfs(history, &mut positions, history.init, &mut memo, &mut order) {
        ScVerdict::SequentiallyConsistent { order }
    } else {
        ScVerdict::NotSequentiallyConsistent
    }
}

fn dfs(
    history: &ProgramOrderHistory,
    positions: &mut Vec<usize>,
    register: i64,
    memo: &mut HashSet<(Vec<usize>, i64)>,
    order: &mut Vec<(usize, usize)>,
) -> bool {
    if positions
        .iter()
        .zip(&history.per_process)
        .all(|(&pos, ops)| pos == ops.len())
    {
        return true;
    }
    if !memo.insert((positions.clone(), register)) {
        return false;
    }
    for p in 0..history.per_process.len() {
        let pos = positions[p];
        let Some(op) = history.per_process[p].get(pos) else {
            continue;
        };
        let next_register = if op.success {
            if register != op.old {
                continue;
            }
            op.new
        } else {
            if register == op.old {
                continue;
            }
            register
        };
        positions[p] += 1;
        order.push((p, pos));
        if dfs(history, positions, next_register, memo, order) {
            return true;
        }
        order.pop();
        positions[p] -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::CasHistory;
    use crate::serializability::check_serializability;

    fn op(pid: usize, old: i64, new: i64, success: bool) -> CasOp {
        CasOp {
            pid,
            old,
            new,
            success,
        }
    }

    #[test]
    fn empty_history_is_sc() {
        let h = ProgramOrderHistory::new(3, vec![]);
        assert!(check_sequential_consistency(&h).is_sequentially_consistent());
    }

    #[test]
    fn single_process_respects_program_order() {
        // In program order the ops only work as 0→1 then 1→2.
        let ok = ProgramOrderHistory::new(0, vec![vec![op(0, 0, 1, true), op(0, 1, 2, true)]]);
        assert!(check_sequential_consistency(&ok).is_sequentially_consistent());
        // Reversed program order cannot be fixed by reordering: SC must
        // keep p0's order, so this fails.
        let bad = ProgramOrderHistory::new(0, vec![vec![op(0, 1, 2, true), op(0, 0, 1, true)]]);
        assert!(!check_sequential_consistency(&bad).is_sequentially_consistent());
        // ... although the same multiset is serializable.
        let flat = CasHistory::new(0, 2, vec![op(0, 1, 2, true), op(0, 0, 1, true)]);
        assert!(check_serializability(&flat).is_serializable());
    }

    #[test]
    fn cross_process_reordering_is_allowed() {
        let h = ProgramOrderHistory::new(0, vec![vec![op(0, 1, 2, true)], vec![op(1, 0, 1, true)]]);
        match check_sequential_consistency(&h) {
            ScVerdict::SequentiallyConsistent { order } => {
                assert_eq!(order, vec![(1, 0), (0, 0)]);
            }
            other => panic!("expected SC, got {other:?}"),
        }
    }

    #[test]
    fn failed_ops_constrain_sc() {
        // p0: fail CAS(0→9) then succeed CAS(0→1). The failure needs the
        // register ≠ 0 before p0's success — impossible for a single
        // process alone...
        let alone = ProgramOrderHistory::new(0, vec![vec![op(0, 0, 9, false), op(0, 0, 1, true)]]);
        assert!(!check_sequential_consistency(&alone).is_sequentially_consistent());
        // ...but another process can take the register away and back.
        let helped = ProgramOrderHistory::new(
            0,
            vec![
                vec![op(0, 0, 9, false), op(0, 0, 1, true)],
                vec![op(1, 0, 5, true), op(1, 5, 0, true)],
            ],
        );
        assert!(check_sequential_consistency(&helped).is_sequentially_consistent());
    }

    #[test]
    fn double_application_is_not_sc() {
        let h = ProgramOrderHistory::new(0, vec![vec![op(0, 0, 5, true)], vec![op(1, 0, 5, true)]]);
        assert!(!check_sequential_consistency(&h).is_sequentially_consistent());
    }

    #[test]
    fn sc_implies_serializable() {
        // Any SC witness yields a serializable flat history with the
        // final value read off the witness.
        let h = ProgramOrderHistory::new(
            2,
            vec![
                vec![op(0, 2, 4, true), op(0, 9, 9, false)],
                vec![op(1, 4, 2, true)],
            ],
        );
        let ScVerdict::SequentiallyConsistent { order } = check_sequential_consistency(&h) else {
            panic!("expected SC")
        };
        let mut reg = h.init;
        let mut flat = Vec::new();
        for (p, i) in order {
            let o = h.per_process[p][i];
            if o.success {
                reg = o.new;
            }
            flat.push(o);
        }
        let flat_history = CasHistory::new(h.init, reg, flat);
        assert!(check_serializability(&flat_history).is_serializable());
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn oversized_history_panics() {
        let ops = vec![op(0, 0, 0, true); 31];
        let h = ProgramOrderHistory::new(0, vec![ops]);
        let _ = check_sequential_consistency(&h);
    }
}
