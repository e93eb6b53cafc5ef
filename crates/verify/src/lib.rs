//! Execution verifiers for recoverable-CAS histories (§5 of the paper).
//!
//! Given an execution — initial register value, final register value,
//! and every `CAS(old → new)` operation with its answer — the paper
//! (§5.1) verifies **serializability** in polynomial time: build a
//! multigraph whose edges are the successful CAS transitions and look
//! for an Eulerian path from the initial to the final value; failed
//! operations serialize at any moment when the register differs from
//! their expected value.
//!
//! This crate implements that checker ([`check_serializability`]),
//! returning either a complete serial **witness order** (validated by
//! [`replay_witness`]) or a machine-readable reason for rejection. As
//! extensions addressing the paper's future-work direction 2, a
//! [`check_linearizability`] decision procedure (Wing–Gong style DFS
//! with memoization) handles small timed histories, a
//! [`check_sequential_consistency`] procedure handles per-process
//! program orders, and [`brute_force_serializable`] cross-checks the
//! polynomial checker on tiny inputs. Two further object-specific
//! witness checkers follow the same extract-the-witness strategy:
//! [`check_fifo`] for recoverable-queue executions and
//! [`check_kv_sharded_gen`] for key-value executions against the
//! sequential map spec ([`KvSpec`]), over the store's own chains, key
//! router and generation numbers.

mod brute;
mod fifo;
mod history;
mod kv;
mod linearizability;
mod sequential;
mod serializability;
mod witness;

pub use brute::brute_force_serializable;
pub use fifo::{
    check_fifo, FifoVerdict, FifoViolation, QueueAnswer, QueueHistory, QueueOp, QueueOpKind,
    SlotWitness,
};
pub use history::{CasHistory, CasOp, TimedHistory, TimedOp};
pub use kv::{
    check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvSpec, KvVerdict,
    KvViolation, KvWitnessRecord,
};
pub use linearizability::{check_linearizability, LinVerdict};
pub use sequential::{check_sequential_consistency, ProgramOrderHistory, ScVerdict};
pub use serializability::{check_serializability, NonSerializableReason, SerialVerdict};
pub use witness::{replay_witness, WitnessError};
