//! The served stack the persist-budget and crash-point tests drive:
//! buffered shard regions (PSan on), a control region holding the
//! persistent stacks, a one-worker [`StripedRuntime`] and a
//! [`ServerCore`] — the shape of the benchmark's fixture and of the
//! serving campaign, small enough to count every persist and to kill
//! at every event.

#![allow(dead_code)] // each test binary uses its own half

use pstack_core::{RecoveryMode, RuntimeConfig, StripedRuntime};
use pstack_kv::{
    shard_of, KvRequestTable, KvTaskAnswer, KvTaskOp, KvVariant, ShardedKvStore, VersionRecord,
};
use pstack_nvram::{Cut, FailPlan, Image, PMem, PMemBuilder, StatsSnapshot};
use pstack_server::proto::{Request, RequestBody, Response};
use pstack_server::{serve_round, KvServeFunction, ServerCore};

/// Front-end shape of a [`Stack`]: per-shard table slots, per-shard
/// queue capacity, batch-window size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub shards: usize,
    pub table_cap: u32,
    pub queue_cap: usize,
    pub batch: usize,
}

pub struct Stack {
    pub shape: Shape,
    pub rt: StripedRuntime,
    pub core: ServerCore,
    /// Frames the recovery that booted this stack replayed (0 for a
    /// freshly formatted one).
    pub replayed: usize,
}

impl Stack {
    pub fn format(shape: Shape) -> Stack {
        Self::format_with(shape, PMemBuilder::new())
    }

    /// [`Stack::format`] with every region — control and shards — built
    /// from `builder` (a charged `flush_latency`, say).
    pub fn format_with(shape: Shape, builder: PMemBuilder) -> Stack {
        let builder = builder.psan(true);
        let stripe = builder.clone().len(1 << 20).build_striped(shape.shards);
        let store = ShardedKvStore::format(stripe.regions(), 16, 256, KvVariant::Nsrl).unwrap();
        let exec = KvServeFunction::format(store, shape.table_cap).unwrap();
        let control = builder.len(1 << 18).build_in_memory();
        let rt = StripedRuntime::format(
            control,
            stripe,
            RuntimeConfig::new(1).stack_capacity(4 * 1024),
            &exec.registry().unwrap(),
        )
        .unwrap();
        let core = ServerCore::new(exec, shape.queue_cap, shape.batch);
        Stack {
            shape,
            rt,
            core,
            replayed: 0,
        }
    }

    pub fn store(&self) -> &ShardedKvStore {
        self.core.exec().store()
    }

    pub fn table(&self, shard: usize) -> &KvRequestTable {
        &self.core.exec().tables()[shard]
    }

    pub fn region(&self, shard: usize) -> &PMem {
        self.rt.stripe().region(shard)
    }

    /// (control region, Σ shard regions) counters of this boot.
    pub fn stats(&self) -> (StatsSnapshot, StatsSnapshot) {
        (
            self.rt.control().stats().snapshot(),
            self.rt.stripe().aggregate_stats(),
        )
    }

    /// Persistence events so far, control region first, then shards
    /// (the order of [`Image::regions`]).
    pub fn events(&self) -> Vec<u64> {
        self.regions().iter().map(PMem::events).collect()
    }

    /// A key whose home is `shard`, the `nth` such key.
    pub fn key_on(&self, shard: usize, nth: usize) -> u64 {
        (0u64..)
            .filter(|&k| shard_of(k, self.shape.shards) == shard)
            .nth(nth)
            .unwrap()
    }

    /// One closed-loop exchange for a set of requests: the program's
    /// round ([`serve_round`]) over the ops, then one over their acks.
    /// `None` as soon as a power failure shows — wherever the round met
    /// it, the whole system is down: the caller power-cycles and
    /// retries.
    pub fn serve(&self, reqs: &[(u64, KvTaskOp)]) -> Option<Vec<KvTaskAnswer>> {
        let round = |body: &dyn Fn(KvTaskOp) -> RequestBody| {
            let frames: Vec<Request> = reqs
                .iter()
                .map(|&(req_id, op)| Request {
                    req_id,
                    body: body(op),
                })
                .collect();
            match serve_round(&self.core, &self.rt, &frames) {
                Ok(responses) => Some(responses),
                Err(e) => {
                    assert!(e.is_crash(), "only a power failure may fail a round: {e}");
                    assert!(self.rt.all_crashed(), "a power failure takes every region");
                    None
                }
            }
        };
        let responses = round(&RequestBody::Op)?;
        // (Entries queued before this round are served too.)
        let done = |req_id: u64| {
            let answer = responses.iter().find_map(|r| match *r {
                Response::Done {
                    req_id: id, answer, ..
                } if id == req_id => Some(answer),
                _ => None,
            });
            answer.unwrap_or_else(|| panic!("request {req_id:#x} not answered in {responses:?}"))
        };
        let answers = reqs.iter().map(|&(req_id, _)| done(req_id)).collect();
        round(&|_| RequestBody::Ack)?;
        Some(answers)
    }

    /// The whole-system restart: every region dies (dirty lines lost),
    /// reopens, store / tables / runtime re-attach, the persistent
    /// stacks replay their interrupted frames, a fresh front end takes
    /// over.
    pub fn power_cycle(self) -> Stack {
        self.power_cycle_with(|_, _| {})
    }

    /// [`Stack::power_cycle`], with `inspect` shown the re-attached
    /// runtime, store and tables before the stacks replay anything.
    pub fn power_cycle_with(
        self,
        inspect: impl FnOnce(&StripedRuntime, &KvServeFunction),
    ) -> Stack {
        self.rt.crash_all(0, 0.0);
        let mut attached = None;
        let rt = self
            .rt
            .reopen_all_with(|_, stripe| {
                let exec =
                    attached.insert(KvServeFunction::open(stripe.regions(), KvVariant::Nsrl)?);
                exec.registry()
            })
            .unwrap();
        inspect(&rt, attached.as_ref().unwrap());
        let report = rt
            .recover_with(RecoveryMode::Serial, |_, _| Ok(()))
            .unwrap();
        let shape = self.shape;
        let core = ServerCore::new(attached.unwrap(), shape.queue_cap, shape.batch);
        Stack {
            shape,
            rt,
            core,
            replayed: report.total_frames(),
        }
    }

    /// Published records tagged `(client, req_id)` of `req_id`.
    pub fn records_of(&self, req_id: u64) -> Vec<VersionRecord> {
        records_in(self.store(), req_id)
    }

    pub fn assert_psan_clean(&self) {
        let mut v = self.rt.stripe().psan_violations();
        v.extend(self.rt.control().psan_violations());
        assert!(v.is_empty(), "sanitizer findings: {v:?}");
    }

    /// [`Stack::assert_psan_clean`] after `cut`, whose kept lines read
    /// as ghosts.
    pub fn assert_psan_clean_after(&self, cut: &Cut) {
        let mut v = self.rt.stripe().psan_violations();
        v.extend(self.rt.control().psan_violations());
        cut.assert_psan_clean(v);
    }
}

/// A crash sweep cuts the served stack in one region — the control
/// region is 0, shard `i`'s is `1 + i` — and the runtime takes the
/// others down with the cut's survivors.
/// The stack comes back crashed: its check reboots it with
/// [`Stack::power_cycle`], and may look at the image first.
impl Image for Stack {
    type Reopened = Stack;

    fn regions(&self) -> Vec<PMem> {
        let mut regions = vec![self.rt.control().clone()];
        regions.extend_from_slice(self.rt.stripe().regions());
        regions
    }

    fn arm(&mut self, region: usize, plan: FailPlan) {
        let rt = self.rt.clone().crash_seed(plan.survivor_seed);
        self.rt = rt.crash_survival(plan.survival_prob);
        self.regions()[region].arm_failpoint(plan);
    }

    fn reopen(self) -> Stack {
        self
    }
}

/// Records of `store` a head reaches, tagged `(client, req_id)` of
/// `req_id`.
pub fn records_in(store: &ShardedKvStore, req_id: u64) -> Vec<VersionRecord> {
    store
        .snapshot_sharded()
        .unwrap()
        .into_iter()
        .flatten()
        .flatten()
        .filter(|r| r.pid == req_id >> 32 && r.seq == req_id)
        .collect()
}
