//! `pstack-server` — exactly-once request serving over the sharded
//! store, robust under live-load power failures.
//!
//! The paper's whole-system crash model only matters to a *user* if a
//! client on the other side of a wire can survive it: every ack must be
//! durable-before-visible, and every retry must be deduplicated, so the
//! client-observable history stays durably linearizable. This crate is
//! that front end:
//!
//! * [`proto`] — the length-prefixed binary wire protocol: request ids
//!   `(client_id << 32) | seq`, op/ack requests, Done/Overloaded/
//!   Retry/AckOk responses;
//! * [`KvRequestTable`]-backed dedup + the store's evidence scan —
//!   see [`ServerCore`]: effects at-most-once, acks at-least-once,
//!   and only the persists that takes (reads answered at admission
//!   persist nothing; descriptors persist once per drain);
//! * [`AdmissionQueue`]-fed group-commit batch windows per shard, with
//!   explicit `Overloaded` shedding (never a silent drop);
//! * [`serve_round`] — the program's one serving round: admit, drain,
//!   run the windows **on the persistent stack**, answer. Campaign,
//!   fixtures and socket listener all run it; a power failure anywhere
//!   in it is one outcome, the whole system down;
//! * [`ClientSim`] — closed-loop zipfian clients with timeouts and
//!   exponential-backoff-with-jitter retries, honouring the contract
//!   that makes answer-slot recycling safe (never retry after ack);
//! * [`Clock`] / [`VirtualClock`] — time as a capability, so the whole
//!   retry/timeout schedule is reproducible by seed;
//! * [`transport`] — a portable in-process channel hub and a
//!   `cfg(unix)` unix-socket listener, both speaking the same frames;
//!   the listener's one serving thread owns the runtime, and a power
//!   failure closes its connections and is reported by its handle.
//!
//! The proof of robustness lives in `pstack-chaos::run_server_campaign`:
//! power failures under live load, with clients observing only
//! `Retry`/`Done` — never a lost ack, never a duplicated effect.
//!
//! [`KvRequestTable`]: pstack_kv::KvRequestTable
//! [`AdmissionQueue`]: pstack_core::AdmissionQueue

mod client;
mod clock;
pub mod proto;
mod server;
pub mod transport;

pub use client::{ClientConfig, ClientSim, ClientStats, OpClass};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use proto::{
    client_of, req_id_for, Request, RequestBody, Response, MAX_FRAME_LEN, REQUEST_LEN, RESPONSE_LEN,
};
// The window executor lives beside the table it executes
// (`pstack-kv`); re-exported because serving is where it is used.
pub use pstack_kv::{KvServeFunction, KV_SERVE_FUNC_ID};
pub use server::{serve_round, ServerCore, Submission, ADMISSION_EXECUTOR};
pub use transport::{ChannelConn, ChannelHub};
