//! Recoverable (NSRL) primitives built on the persistent-stack runtime.
//!
//! §5 of *"Execution of NVRAM Programs with Persistent Stack"* uses the
//! runtime to implement and verify the **recoverable CAS** algorithm of
//! Attiya, Ben-Baruch and Hendler (PODC'18, reference 8 of the
//! paper). This crate provides:
//!
//! * [`RecoverableCas`] — the CAS algorithm with its N×N matrix `R` of
//!   overwrite evidence, plus the paper's deliberately *buggy* variant
//!   with the matrix removed ([`CasVariant::NoMatrix`]), which §5.2
//!   shows produces non-serializable executions;
//! * [`RecoverableCounter`], [`RecoverableRegister`],
//!   [`RecoverableQueue`] and [`RecoverableTas`] — further NSRL-style
//!   primitives (the paper's future-work direction 1), including the
//!   queue's own injected-bug variant ([`QueueVariant::NoScan`]) for
//!   the §5.2-style negative control;
//! * [`TaskTable`] — the §5 codec (CAS, enqueue, dequeue and their
//!   answers) over `pstack-core`'s one descriptor-table format
//!   ([`pstack_core::table`]), preloaded with the workload so the §5.2
//!   experiment re-enqueues unfinished operations after every restart;
//!   its [`TaskTable::mark_done`] is the one answer point, a single
//!   line-atomic persist for every answer;
//! * [`CasTaskFunction`] / [`QueueTaskFunction`] /
//!   [`CounterTaskFunction`] — glue registering these operations as
//!   recoverable functions on the persistent stack; the first two share
//!   one task skeleton and differ only in their object call.
//!
//! The CAS algorithm assumes NVRAM **without** a volatile cache (§5:
//! "we should flush each written cache line immediately after the
//! corresponding write"). Every object here runs that discipline on an
//! ordinary buffered region under one rule, FliT's (PAPERS.md):
//!
//! * **stores** are persist-stores — a write and then a flush of its
//!   line ([`PMem::write_persist`](pstack_nvram::PMem::write_persist)),
//!   a successful CAS and then a flush of its line;
//! * **loads** of shared state are persist-loads — a read and then a
//!   flush of the lines read if a writer left them dirty
//!   ([`PMem::read_persist`](pstack_nvram::PMem::read_persist)), before
//!   the object answers from the value or writes anything derived
//!   from it.
//!
//! The store half makes every completed write durable, as cache-less
//! NVRAM would; the load half closes the window between another
//! process's write and its flush, in which a reader could otherwise
//! act on a value a crash takes back. On a quiescent region a load
//! costs no persist, so the per-operation persist counts are those of
//! cache-less NVRAM. Every value is placed so that it never crosses a
//! cache-line border.

mod cas;
mod cell;
mod counter;
mod funcs;
mod queue;
mod queue_funcs;
mod register;
mod tas;
mod tasks;

pub use cas::{CasVariant, RecoverableCas};
pub use cell::{TaggedValue, INIT_PID, TAGGED_LEN};
pub use counter::RecoverableCounter;
pub use funcs::{CasTaskFunction, CounterTaskFunction, CAS_TASK_FUNC_ID, COUNTER_TASK_FUNC_ID};
pub use queue::{QueueSlot, QueueVariant, RecoverableQueue, NO_DEQ};
pub use queue_funcs::{QueueTaskFunction, QUEUE_TASK_FUNC_ID};
pub use register::RecoverableRegister;
pub use tas::{RecoverableTas, NO_WINNER};
pub use tasks::{TaskAnswer, TaskOp, TaskResult, TaskTable};
