//! Closed-loop clients with timeouts, exponential backoff, and the
//! retry contract the server's exactly-once guarantee rests on.
//!
//! A [`ClientSim`] issues one zipfian-keyed operation at a time and
//! does not start the next until the current one is **done and
//! acknowledged**:
//!
//! ```text
//! Idle ──send op──▶ AwaitOp ──Done──▶ AwaitAck ──AckOk──▶ Idle
//!                   │  ▲                │  ▲
//!                   └──┘ timeout /      └──┘ timeout / Retry
//!                        Overloaded / Retry      (resend Ack)
//!                        (resend op, backoff)
//! ```
//!
//! The two contract rules live in this state machine:
//!
//! * **retries carry the same `req_id`** — a retransmitted operation is
//!   the same request, so the server can dedupe it;
//! * **a request is never retransmitted after its ack is sent** — the
//!   client leaves `AwaitOp` for good on the first `Done`; from then on
//!   it only retransmits the *ack* (which is idempotent and safe after
//!   slot recycling). This is what makes it sound for the server to
//!   recycle done+acked slots.
//!
//! All timing flows through the [`Clock`](crate::Clock) passed to
//! [`ClientSim::poll`]/[`ClientSim::deliver`] as explicit `now`
//! values, and all randomness (keys, op mix, backoff jitter) comes from
//! the per-client seed — a whole client population's schedule is
//! reproducible from the seeds alone.

use rand::distr::{Distribution, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pstack_kv::{KvTaskAnswer, KvTaskOp};
use pstack_verify::KvOp;

use crate::proto::{req_id_for, Request, RequestBody, Response};

/// The op class an SLO percentile is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// `put(key, value)`.
    Put,
    /// `get(key)`.
    Get,
    /// `delete(key)`.
    Delete,
    /// `cas(key, expected, new)`.
    Cas,
}

impl OpClass {
    /// All classes, in report order.
    pub const ALL: [OpClass; 4] = [OpClass::Put, OpClass::Get, OpClass::Delete, OpClass::Cas];

    /// Stable label for reports and telemetry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Put => "put",
            OpClass::Get => "get",
            OpClass::Delete => "delete",
            OpClass::Cas => "cas",
        }
    }

    /// The class of an operation.
    #[must_use]
    pub fn of(op: KvTaskOp) -> Self {
        match op {
            KvTaskOp::Put { .. } => OpClass::Put,
            KvTaskOp::Get { .. } => OpClass::Get,
            KvTaskOp::Delete { .. } => OpClass::Delete,
            KvTaskOp::Cas { .. } => OpClass::Cas,
        }
    }
}

/// Configuration of one simulated client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Client id (the high half of every `req_id`; must be ≥ 1 and
    /// unique per population).
    pub client_id: u32,
    /// Operations to complete before finishing.
    pub n_ops: usize,
    /// Keys are zipfian ranks over `0..key_space`.
    pub key_space: u64,
    /// Zipf skew (YCSB default 0.99).
    pub zipf_s: f64,
    /// Put/cas values are drawn from `-value_range..=value_range`.
    pub value_range: i64,
    /// Relative weights of (put, get, delete, cas).
    pub mix: [u32; 4],
    /// Nanoseconds to wait for a response before retransmitting.
    pub timeout_ns: u64,
    /// Base of the exponential backoff.
    pub backoff_base_ns: u64,
    /// Backoff ceiling.
    pub backoff_cap_ns: u64,
    /// Per-client RNG seed.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            client_id: 1,
            n_ops: 32,
            key_space: 64,
            zipf_s: 0.99,
            value_range: 1_000,
            mix: [4, 3, 2, 1],
            timeout_ns: 2_000_000,     // 2 ms
            backoff_base_ns: 500_000,  // 0.5 ms
            backoff_cap_ns: 8_000_000, // 8 ms
            seed: 1,
        }
    }
}

/// Counters a campaign asserts over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Operations completed (Done received and acked).
    pub completed: u64,
    /// Request retransmissions (timeouts fired).
    pub retransmits: u64,
    /// `Overloaded` responses observed.
    pub overloads: u64,
    /// `Retry` signals observed (explicit responses + crash resets).
    pub retry_signals: u64,
    /// Ack frames sent (≥ `completed`; resends are idempotent).
    pub acks_sent: u64,
    /// `Stale` responses observed — the server refused a
    /// retransmission of an already-acked id. Zero for a client that
    /// honours the retry contract.
    pub stale_signals: u64,
}

#[derive(Debug)]
enum Phase {
    Idle,
    AwaitOp {
        op: KvTaskOp,
        first_sent: u64,
        resend_at: u64,
        attempt: u32,
    },
    AwaitAck {
        resend_at: u64,
        attempt: u32,
    },
    Finished,
}

/// One closed-loop client (see module docs for the state machine).
#[derive(Debug)]
pub struct ClientSim {
    cfg: ClientConfig,
    rng: SmallRng,
    zipf: Zipf,
    seq: u32,
    phase: Phase,
    observations: Vec<KvOp>,
    latencies: Vec<(OpClass, u64)>,
    stats: ClientStats,
}

impl ClientSim {
    /// Builds a client from its config.
    ///
    /// # Panics
    ///
    /// Panics on `client_id == 0` (the zero request id is reserved) or
    /// an empty op mix.
    #[must_use]
    pub fn new(cfg: ClientConfig) -> Self {
        assert!(cfg.client_id >= 1, "client ids start at 1");
        assert!(cfg.mix.iter().any(|&w| w > 0), "op mix must be non-empty");
        let zipf = Zipf::new(cfg.key_space.max(1), cfg.zipf_s).expect("valid zipf");
        let rng = SmallRng::seed_from_u64(cfg.seed);
        ClientSim {
            cfg,
            rng,
            zipf,
            seq: 0,
            phase: Phase::Idle,
            observations: Vec::new(),
            latencies: Vec::new(),
            stats: ClientStats::default(),
        }
    }

    /// The request id of the operation currently in flight (its ack
    /// phase included), if any.
    #[must_use]
    pub fn current_req_id(&self) -> Option<u64> {
        match self.phase {
            Phase::Idle | Phase::Finished => None,
            Phase::AwaitOp { .. } | Phase::AwaitAck { .. } => {
                Some(req_id_for(self.cfg.client_id, self.seq))
            }
        }
    }

    /// `true` once all `n_ops` operations are done and acked.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Finished)
            || (matches!(self.phase, Phase::Idle)
                && self.stats.completed as usize >= self.cfg.n_ops)
    }

    /// The client-observed history: one [`KvOp`] per completed
    /// operation, tagged `(pid = client_id, seq = req_id)` — exactly
    /// the tags the store's version records carry, so the sharded
    /// verifier can match them.
    #[must_use]
    pub fn observations(&self) -> &[KvOp] {
        &self.observations
    }

    /// Completed-op latencies (first send → Done receipt), per class.
    #[must_use]
    pub fn latencies(&self) -> &[(OpClass, u64)] {
        &self.latencies
    }

    /// The client's counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn backoff(&mut self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(20);
        let b = self
            .cfg
            .backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.cfg.backoff_cap_ns)
            .max(1);
        // Jitter into [b/2, b] so synchronized clients desynchronize.
        b / 2 + self.rng.random_range(0..=b.div_ceil(2))
    }

    fn gen_op(&mut self) -> KvTaskOp {
        let key = self.zipf.sample(&mut self.rng) - 1;
        let total: u32 = self.cfg.mix.iter().sum();
        let mut pick = self.rng.random_range(0..total);
        let mut class = OpClass::Cas;
        for (i, &w) in self.cfg.mix.iter().enumerate() {
            if pick < w {
                class = OpClass::ALL[i];
                break;
            }
            pick -= w;
        }
        let r = self.cfg.value_range.max(1);
        match class {
            OpClass::Put => KvTaskOp::Put {
                key,
                value: self.rng.random_range(-r..=r),
            },
            OpClass::Get => KvTaskOp::Get { key },
            OpClass::Delete => KvTaskOp::Delete { key },
            OpClass::Cas => KvTaskOp::Cas {
                key,
                expected: self.rng.random_range(-r..=r),
                new: self.rng.random_range(-r..=r),
            },
        }
    }

    /// Returns the frame to transmit at `now`, if any: the next fresh
    /// operation, a retransmission whose resend time arrived, or an
    /// ack (first send or resend).
    pub fn poll(&mut self, now: u64) -> Option<Request> {
        match self.phase {
            Phase::Finished => None,
            Phase::Idle => {
                if self.stats.completed as usize >= self.cfg.n_ops {
                    self.phase = Phase::Finished;
                    return None;
                }
                let op = self.gen_op();
                self.seq += 1;
                let req_id = req_id_for(self.cfg.client_id, self.seq);
                self.phase = Phase::AwaitOp {
                    op,
                    first_sent: now,
                    resend_at: now + self.cfg.timeout_ns,
                    attempt: 1,
                };
                Some(Request {
                    req_id,
                    body: RequestBody::Op(op),
                })
            }
            Phase::AwaitOp {
                op,
                first_sent,
                resend_at,
                attempt,
            } => {
                if now < resend_at {
                    return None;
                }
                self.stats.retransmits += 1;
                let next_attempt = attempt + 1;
                let delay = self.cfg.timeout_ns + self.backoff(next_attempt);
                self.phase = Phase::AwaitOp {
                    op,
                    first_sent,
                    resend_at: now + delay,
                    attempt: next_attempt,
                };
                Some(Request {
                    req_id: req_id_for(self.cfg.client_id, self.seq),
                    body: RequestBody::Op(op),
                })
            }
            Phase::AwaitAck { resend_at, attempt } => {
                if now < resend_at {
                    return None;
                }
                self.stats.acks_sent += 1;
                let next_attempt = attempt + 1;
                let delay = self.cfg.timeout_ns + self.backoff(next_attempt);
                self.phase = Phase::AwaitAck {
                    resend_at: now + delay,
                    attempt: next_attempt,
                };
                Some(Request {
                    req_id: req_id_for(self.cfg.client_id, self.seq),
                    body: RequestBody::Ack,
                })
            }
        }
    }

    /// The next instant at which [`ClientSim::poll`] will produce a
    /// frame, if any — lets a simulation loop jump time instead of
    /// scanning it.
    #[must_use]
    pub fn next_wake(&self) -> Option<u64> {
        match self.phase {
            Phase::Finished => None,
            Phase::Idle => {
                if self.stats.completed as usize >= self.cfg.n_ops {
                    None
                } else {
                    Some(0) // ready immediately
                }
            }
            Phase::AwaitOp { resend_at, .. } | Phase::AwaitAck { resend_at, .. } => Some(resend_at),
        }
    }

    fn record_done(&mut self, now: u64, op: KvTaskOp, first_sent: u64, answer: KvTaskAnswer) {
        let req_id = req_id_for(self.cfg.client_id, self.seq);
        self.observations
            .push(op.observed(u64::from(self.cfg.client_id), req_id, answer.result));
        self.latencies
            .push((OpClass::of(op), now.saturating_sub(first_sent)));
    }

    /// Feeds a server response into the state machine. Responses whose
    /// `req_id` is not the in-flight one (late duplicates from an
    /// earlier attempt's server-side execution) are dropped.
    pub fn deliver(&mut self, now: u64, resp: &Response) {
        let Some(current) = self.current_req_id() else {
            return;
        };
        if resp.req_id() != current {
            return;
        }
        match (&self.phase, resp) {
            (
                &Phase::AwaitOp {
                    op,
                    first_sent,
                    attempt,
                    ..
                },
                Response::Done { answer, .. },
            ) => {
                self.record_done(now, op, first_sent, *answer);
                // From here on only the (idempotent) ack may be
                // retransmitted — never the request.
                let _ = attempt;
                self.phase = Phase::AwaitAck {
                    resend_at: now,
                    attempt: 0,
                };
            }
            (
                &Phase::AwaitOp {
                    op,
                    first_sent,
                    attempt,
                    ..
                },
                Response::Overloaded { .. },
            ) => {
                self.stats.overloads += 1;
                let delay = self.backoff(attempt);
                self.phase = Phase::AwaitOp {
                    op,
                    first_sent,
                    resend_at: now + delay,
                    attempt,
                };
            }
            (
                &Phase::AwaitOp {
                    op,
                    first_sent,
                    attempt,
                    ..
                },
                Response::Retry { .. },
            ) => {
                self.stats.retry_signals += 1;
                let delay = self.backoff(attempt);
                self.phase = Phase::AwaitOp {
                    op,
                    first_sent,
                    resend_at: now + delay,
                    attempt,
                };
            }
            (&Phase::AwaitOp { .. }, Response::Stale { .. }) => {
                // The server says this id already executed and was
                // acked — retransmitting it again can never succeed.
                // Stop retrying; the counter flags the contract breach.
                self.stats.stale_signals += 1;
                self.phase = Phase::Idle;
            }
            (&Phase::AwaitAck { .. }, Response::AckOk { .. }) => {
                self.stats.completed += 1;
                self.phase = Phase::Idle;
            }
            (
                &Phase::AwaitAck { attempt, .. },
                Response::Retry { .. } | Response::Overloaded { .. },
            ) => {
                self.stats.retry_signals += 1;
                let delay = self.backoff(attempt.max(1));
                self.phase = Phase::AwaitAck {
                    resend_at: now + delay,
                    attempt,
                };
            }
            _ => {} // stale/mismatched codes: drop
        }
    }

    /// Signals that the server died under this client's in-flight
    /// frame (the transport's equivalent of a connection reset): an
    /// observed `Retry`. The client backs off and retransmits —
    /// requests retry, acks re-ack; nothing is abandoned.
    pub fn on_crash(&mut self, now: u64) {
        match self.phase {
            Phase::AwaitOp {
                op,
                first_sent,
                attempt,
                ..
            } => {
                self.stats.retry_signals += 1;
                let delay = self.backoff(attempt);
                self.phase = Phase::AwaitOp {
                    op,
                    first_sent,
                    resend_at: now + delay,
                    attempt,
                };
            }
            Phase::AwaitAck { attempt, .. } => {
                self.stats.retry_signals += 1;
                let delay = self.backoff(attempt.max(1));
                self.phase = Phase::AwaitAck {
                    resend_at: now + delay,
                    attempt,
                };
            }
            Phase::Idle | Phase::Finished => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::client_of;
    use pstack_kv::KvTaskResult;

    fn mk(n_ops: usize, seed: u64) -> ClientSim {
        ClientSim::new(ClientConfig {
            client_id: 3,
            n_ops,
            seed,
            ..ClientConfig::default()
        })
    }

    fn done_for(req: &Request) -> Response {
        let RequestBody::Op(op) = req.body else {
            panic!("op request expected")
        };
        let result = match op {
            KvTaskOp::Put { .. } => KvTaskResult::Stored(true),
            KvTaskOp::Get { .. } => KvTaskResult::Got(None),
            KvTaskOp::Delete { .. } => KvTaskResult::Deleted(false),
            KvTaskOp::Cas { .. } => KvTaskResult::Swapped(false),
        };
        Response::Done {
            req_id: req.req_id,
            kind: crate::proto::kind_of(op),
            answer: KvTaskAnswer {
                executor: 1,
                result,
            },
        }
    }

    #[test]
    fn happy_path_completes_in_order() {
        let mut c = mk(3, 7);
        let mut now = 0u64;
        while !c.is_finished() {
            let Some(req) = c.poll(now) else {
                now += 1_000;
                continue;
            };
            match req.body {
                RequestBody::Op(_) => c.deliver(now + 10, &done_for(&req)),
                RequestBody::Ack => c.deliver(now + 10, &Response::AckOk { req_id: req.req_id }),
            }
            now += 20;
        }
        let stats = c.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.acks_sent, 3);
        assert_eq!(c.observations().len(), 3);
        assert_eq!(c.latencies().len(), 3);
        // req_ids are (client << 32) | seq, seq 1..=3.
        for (i, ob) in c.observations().iter().enumerate() {
            assert_eq!(client_of(ob.seq), 3);
            assert_eq!(ob.seq & 0xFFFF_FFFF, i as u64 + 1);
            assert_eq!(ob.pid, 3);
        }
    }

    #[test]
    fn timeout_retransmits_same_req_id_until_done() {
        let mut c = mk(1, 9);
        let req = c.poll(0).unwrap();
        // Silence: the client retransmits after the timeout, same id.
        assert!(c.poll(1_000).is_none(), "before the deadline: quiet");
        let cfg = ClientConfig::default();
        let r2 = c.poll(cfg.timeout_ns).expect("timeout fired");
        assert_eq!(r2.req_id, req.req_id);
        assert_eq!(r2.body, req.body);
        assert_eq!(c.stats().retransmits, 1);
        // Done after a retransmission is still recorded once.
        c.deliver(cfg.timeout_ns + 10, &done_for(&req));
        assert_eq!(c.observations().len(), 1);
        // Now only acks flow — never the op again.
        let ack = c.poll(cfg.timeout_ns + 20).unwrap();
        assert_eq!(ack.body, RequestBody::Ack);
        assert_eq!(ack.req_id, req.req_id);
        c.deliver(cfg.timeout_ns + 30, &Response::AckOk { req_id: req.req_id });
        assert!(c.is_finished());
    }

    #[test]
    fn overload_and_crash_back_off_exponentially() {
        let mut c = mk(1, 11);
        let req = c.poll(0).unwrap();
        c.deliver(10, &Response::Overloaded { req_id: req.req_id });
        assert_eq!(c.stats().overloads, 1);
        let Some(wake1) = c.next_wake() else {
            panic!("backoff scheduled")
        };
        assert!(wake1 > 10, "no immediate hammering after Overloaded");
        // A crash signal while waiting also backs off, same request.
        c.on_crash(wake1);
        assert_eq!(c.stats().retry_signals, 1);
        let r2 = c.poll(c.next_wake().unwrap()).unwrap();
        assert_eq!(r2.req_id, req.req_id);
    }

    #[test]
    fn stale_responses_are_dropped() {
        let mut c = mk(2, 13);
        let req = c.poll(0).unwrap();
        // A response for some other request id does nothing.
        c.deliver(5, &Response::AckOk { req_id: 0xBEEF });
        c.deliver(5, &Response::Retry { req_id: 0xBEEF });
        assert_eq!(c.stats().retry_signals, 0);
        // An AckOk while awaiting the op (code mismatch) is dropped.
        c.deliver(5, &Response::AckOk { req_id: req.req_id });
        assert_eq!(c.stats().completed, 0);
        c.deliver(6, &done_for(&req));
        // A second Done while awaiting ack is dropped (no double obs).
        c.deliver(7, &done_for(&req));
        assert_eq!(c.observations().len(), 1);
    }

    #[test]
    fn determinism_by_seed() {
        let run = |seed| {
            let mut c = mk(5, seed);
            let mut now = 0;
            let mut trace = Vec::new();
            while !c.is_finished() {
                if let Some(req) = c.poll(now) {
                    trace.push((now, req));
                    match req.body {
                        RequestBody::Op(_) => c.deliver(now + 3, &done_for(&req)),
                        RequestBody::Ack => {
                            c.deliver(now + 3, &Response::AckOk { req_id: req.req_id });
                        }
                    }
                }
                now += 5;
            }
            trace
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22), "different seeds, different schedules");
    }
}
