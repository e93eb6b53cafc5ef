//! The served stack the persist-budget and crash-point tests drive:
//! buffered shard regions (PSan on), a control region holding the
//! persistent stacks, a one-worker [`StripedRuntime`] and a
//! [`ServerCore`] — the shape of the benchmark's fixture and of the
//! serving campaign, small enough to count every persist and to kill
//! at every event.

#![allow(dead_code)] // each test binary uses its own half

use pstack_core::{FunctionRegistry, PError, RecoveryMode, RuntimeConfig, StripedRuntime};
use pstack_kv::{
    shard_of, KvRequestTable, KvTaskAnswer, KvTaskOp, KvVariant, ShardedKvStore, VersionRecord,
};
use pstack_nvram::{PMem, PMemBuilder, PMemStripe, POffset, StatsSnapshot};
use pstack_server::{KvServeFunction, ServerCore, Submission, KV_SERVE_FUNC_ID};

/// Where each shard region keeps its request table's base (the
/// campaigns' and the benchmark's slot).
const TABLE_ROOT: u64 = 48;

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
}

/// Re-attaches store, tables and serve function to (re)opened regions.
fn attach(stripe: &PMemStripe) -> Result<(KvServeFunction, FunctionRegistry), PError> {
    let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl)?;
    let tables = (0..stripe.len())
        .map(|s| {
            let base = stripe.region(s).read_u64(POffset::new(TABLE_ROOT))?;
            KvRequestTable::open(stripe.region(s).clone(), POffset::new(base))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let exec = KvServeFunction::new(store, tables);
    let mut registry = FunctionRegistry::new();
    registry.register(KV_SERVE_FUNC_ID, exec.clone().into_arc())?;
    Ok((exec, registry))
}

impl Stack {
    pub fn format(shape: Shape) -> Stack {
        let stripe = PMemBuilder::new()
            .len(1 << 20)
            .psan(true)
            .build_striped(shape.shards);
        let store = ShardedKvStore::format(stripe.regions(), 16, 256, KvVariant::Nsrl).unwrap();
        for s in 0..shape.shards {
            let region = stripe.region(s);
            let table =
                KvRequestTable::format(region.clone(), store.heap(s), shape.table_cap).unwrap();
            region
                .write_u64(POffset::new(TABLE_ROOT), table.base().get())
                .unwrap();
            region.flush(POffset::new(TABLE_ROOT), 8).unwrap();
        }
        let (exec, registry) = attach(&stripe).unwrap();
        let control = PMemBuilder::new().len(1 << 18).psan(true).build_in_memory();
        let rt = StripedRuntime::format(
            control,
            stripe,
            RuntimeConfig::new(1).stack_capacity(4 * 1024),
            &registry,
        )
        .unwrap();
        let core = ServerCore::new(exec, shape.queue_cap, shape.batch);
        Stack { shape, rt, core }
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

    /// Persistence events so far, control region first, then shards.
    pub fn events(&self) -> Vec<u64> {
        let mut v = vec![self.rt.control().events()];
        v.extend(self.rt.stripe().events_per_region());
        v
    }

    /// A key whose home is `shard`, the `nth` such key.
    pub fn key_on(&self, shard: usize, nth: usize) -> u64 {
        (0u64..)
            .filter(|&k| shard_of(k, self.shape.shards) == shard)
            .nth(nth)
            .unwrap()
    }

    /// One closed-loop serving round for a set of requests, in the shape
    /// of the benchmark's and the campaign's loop: admit all, drain, and
    /// — only if the drain handed windows out — run them on the
    /// persistent stack and collect the answers; then ack each. `None`
    /// as soon as a power failure shows (admission, a window — which is
    /// where one met by the drain's persist surfaces — the answer
    /// lookup, an ack): the caller then power-cycles and retries.
    pub fn serve(&self, reqs: &[(u64, KvTaskOp)]) -> Option<Vec<KvTaskAnswer>> {
        fn crashed<T>(e: PError) -> Option<T> {
            assert!(e.is_crash(), "only a power failure may fail a round: {e}");
            None
        }
        let mut answers: Vec<Option<KvTaskAnswer>> = Vec::new();
        for &(req_id, op) in reqs {
            match self.core.submit(req_id, op) {
                Ok(Submission::Answered(a)) => answers.push(Some(a)),
                Ok(Submission::Queued) => answers.push(None),
                Ok(other) => panic!("request {req_id:#x} admitted as {other:?}"),
                Err(e) => return crashed(e),
            }
        }
        let (tasks, ids) = self.core.drain_tasks();
        if !tasks.is_empty() {
            let report = self.rt.run_tasks(tasks);
            if report.crashed {
                return None;
            }
            assert_eq!(report.task_errors, 0, "a batch window erred");
            match self.core.answers_for(&ids) {
                Ok(found) => {
                    for (req_id, answer) in found {
                        let answer = answer.expect("a completed window answers every entry");
                        // (Entries queued before this round are served too.)
                        if let Some(i) = reqs.iter().position(|r| r.0 == req_id) {
                            answers[i] = Some(answer);
                        }
                    }
                }
                Err(e) => return crashed(e),
            }
        }
        for &(req_id, _) in reqs {
            if let Err(e) = self.core.ack(req_id) {
                return crashed(e);
            }
        }
        Some(answers.into_iter().map(Option::unwrap).collect())
    }

    /// The whole-system restart: every region dies (dirty lines lost),
    /// reopens, store / tables / runtime re-attach, the persistent
    /// stacks replay their interrupted frames, a fresh front end takes
    /// over.
    pub fn power_cycle(self) -> Stack {
        self.rt.crash_all(0, 0.0);
        let mut attached = None;
        let rt = self
            .rt
            .reopen_all_with(|_, stripe| {
                let (exec, registry) = attach(stripe)?;
                attached = Some(exec);
                Ok(registry)
            })
            .unwrap();
        rt.recover_with(RecoveryMode::Serial, |_, _| Ok(()))
            .unwrap();
        let shape = self.shape;
        let core = ServerCore::new(attached.unwrap(), shape.queue_cap, shape.batch);
        Stack { shape, rt, core }
    }

    /// Published records tagged `(client, req_id)` of `req_id`.
    pub fn records_of(&self, req_id: u64) -> Vec<VersionRecord> {
        self.store()
            .snapshot_sharded()
            .unwrap()
            .into_iter()
            .flatten()
            .flatten()
            .filter(|r| r.pid == req_id >> 32 && r.seq == req_id)
            .collect()
    }

    pub fn assert_psan_clean(&self) {
        let mut v = self.rt.stripe().psan_violations();
        v.extend(self.rt.control().psan_violations());
        assert!(v.is_empty(), "sanitizer findings: {v:?}");
    }
}
