//! Property tests for the multi-region runtime: random
//! put/delete/cas/get mixes — mutations as preloaded request-table
//! descriptors run as windows of one and as batch windows, gets asked
//! by the harness between rounds — driven through
//! `StripedRuntime::run_tasks` over a sharded KV store,
//! with crash injection into random regions (shard or control), checked
//! two ways:
//!
//! * `check_kv_sharded` over the collected history (per-shard chains,
//!   global tags, key routing);
//! * a `KvSpec` replay — answer-exact against the sequential map in
//!   the single-worker, no-crash property, and witness-derived final
//!   contents in the crashing property.
//!
//! # Reproducing failures
//!
//! The proptest shim has no shrinking; every case is deterministic per
//! (test, case index). Knobs:
//!
//! * `PROPTEST_SHIM_SEED=<u64>` — perturbs all case seeds (default 0);
//! * `PROPTEST_CASES=<n>` — cases per property (default 256, lowered
//!   per-property below).
//!
//! A failure message names the case index; re-running with the same
//! environment replays the identical case.

use proptest::prelude::*;

use pstack::core::{FunctionRegistry, RecoveryMode, RuntimeConfig, StripedRuntime, Task};
use pstack::kv::{shard_of, KvServeFunction, KvTaskOp, KvTaskResult, KvVariant, ShardedKvStore};
use pstack::nvram::{FailPlan, PMem, PMemBuilder, PMemStripe};
use pstack::verify::{check_kv_sharded, KvShardedHistory, KvSpec};

const KEY_SPACE: u64 = 12;

fn op_strategy() -> impl Strategy<Value = KvTaskOp> {
    let key = 0u64..KEY_SPACE;
    let val = -50i64..50;
    prop_oneof![
        4 => (key.clone(), val.clone()).prop_map(|(key, value)| KvTaskOp::Put { key, value }),
        2 => key.clone().prop_map(|key| KvTaskOp::Get { key }),
        1 => key.clone().prop_map(|key| KvTaskOp::Delete { key }),
        2 => (key, val.clone(), val)
            .prop_map(|(key, expected, new)| KvTaskOp::Cas { key, expected, new }),
    ]
}

/// The workload as the runtime sees it: mutations are preloaded
/// descriptors, gets stay with the harness (reads are never
/// descriptors), each tagged by its position in the workload.
fn split(ops: &[KvTaskOp]) -> (Vec<KvTaskOp>, Vec<(u64, u64)>) {
    let mut gets = Vec::new();
    let mut mutations = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            KvTaskOp::Get { key } => gets.push((i as u64 + 1, key)),
            op => mutations.push(op),
        }
    }
    (mutations, gets)
}

/// Formats the whole system: buffered stripe, one store + preloaded
/// request table per shard, a one-worker runtime over a fresh control
/// region.
fn build_system(mutations: &[KvTaskOp], shards: usize) -> (PMem, PMemStripe) {
    let stripe = PMemBuilder::new().len(1 << 19).build_striped(shards);
    let store = ShardedKvStore::format(stripe.regions(), 8, 1024, KvVariant::Nsrl).unwrap();
    KvServeFunction::preload(store, mutations).unwrap();
    let control = PMemBuilder::new().len(1 << 20).build_in_memory();
    let stub = FunctionRegistry::new();
    StripedRuntime::format(
        control.clone(),
        stripe.clone(),
        RuntimeConfig::new(1).stack_capacity(8 * 1024),
        &stub,
    )
    .unwrap();
    (control, stripe)
}

fn attach(control: &PMem, stripe: &PMemStripe) -> (KvServeFunction, StripedRuntime) {
    let exec = KvServeFunction::open(stripe.regions(), KvVariant::Nsrl).unwrap();
    let registry = exec.registry().unwrap();
    let rt = StripedRuntime::open(control.clone(), stripe.clone(), &registry).unwrap();
    (exec, rt)
}

/// Tiny xorshift Fisher–Yates, so task schedules vary per case without
/// pulling an RNG into the facade's dev-dependencies.
fn shuffle(tasks: &mut [Task], mut seed: u64) {
    for i in (1..tasks.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        tasks.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

/// The spec's answer for `op`, applied in place.
fn spec_answer(spec: &mut KvSpec, op: KvTaskOp) -> KvTaskResult {
    match op {
        KvTaskOp::Put { key, value } => KvTaskResult::Stored(spec.put(key, value)),
        KvTaskOp::Get { key } => KvTaskResult::Got(spec.get(key)),
        KvTaskOp::Delete { key } => KvTaskResult::Deleted(spec.delete(key)),
        KvTaskOp::Cas { key, expected, new } => KvTaskResult::Swapped(spec.cas(key, expected, new)),
    }
}

/// The verifier history: the tables' descriptors and answers, the
/// chains, and the gets the harness answered itself.
fn history_of(exec: &KvServeFunction, gets: &[(u64, u64, Option<i64>)]) -> KvShardedHistory {
    let mut history = exec.history().unwrap();
    history
        .ops
        .extend(gets.iter().map(|&(tag, key, got)| {
            KvTaskOp::Get { key }.observed(0, tag, KvTaskResult::Got(got))
        }));
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-free single-op drive: one worker executes every descriptor
    /// in shard-table order — each a window of one — and the harness
    /// asks each get where the workload has it, so the answers must
    /// match a `KvSpec` replay in exactly that order, op for op.
    #[test]
    fn single_worker_answers_match_the_sequential_spec(
        ops in proptest::collection::vec(op_strategy(), 1..48),
        shards in 2usize..=4,
    ) {
        let (mutations, _) = split(&ops);
        let (control, stripe) = build_system(&mutations, shards);
        let (exec, rt) = attach(&control, &stripe);
        let store = exec.store();
        // `pending_tasks(1)` emits windows of one, shard by shard in
        // table order — the order the mutations were preloaded in.
        let mut tasks = exec.pending_tasks(1).unwrap().into_iter();
        let mut spec = KvSpec::new();
        let mut expected: Vec<Vec<KvTaskResult>> = vec![Vec::new(); shards];
        let mut gets = Vec::new();
        let mut round = Vec::new();
        for (s, expected) in expected.iter_mut().enumerate() {
            let home = |op: &KvTaskOp| shard_of(op.key(), shards) == s;
            for (i, &op) in ops.iter().enumerate().filter(|(_, op)| home(op)) {
                let answer = spec_answer(&mut spec, op);
                let KvTaskOp::Get { key } = op else {
                    expected.push(answer);
                    round.push(tasks.next().expect("one task per mutation"));
                    continue;
                };
                // A read: run what precedes it, then ask.
                let report = rt.run_tasks(std::mem::take(&mut round));
                prop_assert!(!report.crashed);
                prop_assert_eq!(report.task_errors, 0);
                let got = store.get_durable(key).unwrap();
                prop_assert_eq!(KvTaskResult::Got(got), answer, "get at {}", i);
                gets.push((i as u64 + 1, key, got));
            }
        }
        let report = rt.run_tasks(round);
        prop_assert!(!report.crashed);
        prop_assert_eq!(report.task_errors, 0);
        prop_assert!(tasks.next().is_none());

        for (s, table) in exec.tables().iter().enumerate() {
            for (slot, &want) in expected[s].iter().enumerate() {
                let got = table.result(slot as u32).unwrap().expect("descriptor done");
                prop_assert_eq!(got.result, want, "shard {} descriptor {}", s, slot);
            }
        }
        // Final contents agree with the spec too.
        for (key, value) in store.contents().unwrap() {
            prop_assert_eq!(spec.get(key), Some(value));
        }
        let verdict = check_kv_sharded(&history_of(&exec, &gets), |k| shard_of(k, shards));
        prop_assert!(verdict.is_linearizable(), "{:?}", verdict);
    }

    /// Random batch windows + crash injection into random regions: the
    /// campaign loop in miniature. After every schedule the history
    /// must pass `check_kv_sharded`, and the store's reported contents
    /// must equal a `KvSpec` replay of the published witness chains.
    #[test]
    fn crashing_schedules_stay_linearizable(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        shards in 2usize..=4,
        batch in 1usize..=6,
        schedule_seed in 1u64..u64::MAX,
        kills in proptest::collection::vec((0usize..8, 2u64..50), 0..4),
    ) {
        let (mutations, mut todo) = split(&ops);
        let mut gets = Vec::new();
        let (mut control, mut stripe) = build_system(&mutations, shards);
        let mut kills = kills.into_iter();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            prop_assert!(rounds <= 24, "system failed to drain");
            let (exec, rt) = attach(&control, &stripe);
            let store = exec.store();
            let mut tasks = exec.pending_tasks(batch).unwrap();
            // The harness's reads go between rounds: half of what is
            // outstanding before each one (so they observe whatever the
            // last crash and recovery left), the rest at quiescence.
            let share = if tasks.is_empty() { todo.len() } else { todo.len().div_ceil(2) };
            for (tag, key) in todo.drain(..share) {
                gets.push((tag, key, store.get_durable(key).unwrap()));
            }
            if tasks.is_empty() {
                let verdict =
                    check_kv_sharded(&history_of(&exec, &gets), |k| shard_of(k, shards));
                prop_assert!(verdict.is_linearizable(), "{:?}", verdict);
                // KvSpec replay of the witness chains reproduces the
                // store's reported contents exactly.
                let mut spec = KvSpec::new();
                for chains in store.snapshot_sharded().unwrap() {
                    for rec in chains.iter().flatten() {
                        if rec.is_delete {
                            spec.delete(rec.key);
                        } else {
                            spec.put(rec.key, rec.value);
                        }
                    }
                }
                let contents = store.contents().unwrap();
                prop_assert_eq!(contents.len(), spec.contents().len());
                for (key, value) in contents {
                    prop_assert_eq!(spec.get(key), Some(value));
                }
                break;
            }
            shuffle(&mut tasks, schedule_seed ^ rounds as u64);

            // Inject this round's kill, if the plan has one left:
            // region `r % (shards + 1)`, where the extra index is the
            // control region (the runtime's own stack discipline).
            if let Some((r, countdown)) = kills.next() {
                let plan = FailPlan::after_events(countdown);
                if r % (shards + 1) == shards {
                    control.arm_failpoint(plan);
                } else {
                    stripe.region(r % (shards + 1)).arm_failpoint(plan);
                }
            }
            let report = rt.run_tasks(tasks);
            stripe.disarm_all();
            control.disarm_failpoint();
            if report.crashed {
                prop_assert!(rt.all_crashed(), "crash must trip every region");
                prop_assert!(report.crash_site.is_some(), "crash must be attributed");
                control = control.reopen().unwrap();
                stripe = stripe.reopen_all().unwrap();
                let (_, rt) = attach(&control, &stripe);
                rt.recover(RecoveryMode::Parallel).unwrap();
            }
        }
    }
}
