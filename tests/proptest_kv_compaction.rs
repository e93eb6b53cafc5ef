//! Property tests for the generational log: random KV op traffic with
//! **interleaved `compact()` calls** at random points, checked against
//! the sequential map spec (`KvSpec`) two ways — answer-exact after
//! every operation, and via the generation-aware chain-witness check
//! over the collected history at the end.
//!
//! # Reproducing failures
//!
//! The proptest shim has no shrinking; every case is deterministic per
//! (test, case index). Knobs:
//!
//! * `PROPTEST_SHIM_SEED=<u64>` — perturbs all case seeds (default 0);
//! * `PROPTEST_CASES=<n>` — cases per property.
//!
//! A failure message names the case index; re-running with the same
//! environment replays the identical case.

use proptest::prelude::*;

use pstack::heap::PHeap;
use pstack::kv::{KvBatchOp, KvVariant, PKvStore};
use pstack::nvram::{PMemBuilder, POffset};
use pstack::verify::{
    check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvSpec, KvWitnessRecord,
};

const REGION: usize = 1 << 21;
const KEY_SPACE: u64 = 8;

#[derive(Debug, Clone, Copy)]
enum Step {
    Put {
        key: u64,
        value: i64,
    },
    Get {
        key: u64,
    },
    Delete {
        key: u64,
    },
    Cas {
        key: u64,
        expected: i64,
        new: i64,
    },
    /// Compact when headroom has dropped under `below` free slots —
    /// mixing "maintenance whenever" with "maintenance when needed".
    Compact {
        below: u64,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let key = 0u64..KEY_SPACE;
    let val = -40i64..40;
    prop_oneof![
        5 => (key.clone(), val.clone()).prop_map(|(key, value)| Step::Put { key, value }),
        2 => key.clone().prop_map(|key| Step::Get { key }),
        2 => key.clone().prop_map(|key| Step::Delete { key }),
        2 => (key, val.clone(), val)
            .prop_map(|(key, expected, new)| Step::Cas { key, expected, new }),
        2 => (0u64..16).prop_map(|below| Step::Compact { below }),
    ]
}

/// A group commit of `op` alone; `true` iff it took effect.
fn apply(kv: &PKvStore, op: KvBatchOp) -> bool {
    kv.apply_batch(&[op]).unwrap()[0].took_effect()
}

/// Drives the steps against a store and the spec in lockstep,
/// asserting answer equality op by op, then checks the collected
/// history against the generation-aware witness verifier.
fn run_case(steps: &[Step], log_cap: u64) -> Result<(), TestCaseError> {
    let pmem = PMemBuilder::new().len(REGION).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), REGION as u64).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 4, log_cap, KvVariant::Nsrl).unwrap();
    let mut spec = KvSpec::new();
    let mut ops: Vec<KvOp> = Vec::new();
    let mut compactions = 0u64;

    for (i, step) in steps.iter().enumerate() {
        let seq = i as u64 + 1;
        match *step {
            Step::Put { key, value } => {
                // Keep headroom: the spec has no capacity, so compact
                // instead of letting the log reject the mutation.
                if kv.log_reserved().unwrap() >= kv.log_capacity().unwrap() {
                    kv.compact(&heap).unwrap();
                    compactions += 1;
                }
                let put = KvBatchOp::Put {
                    pid: 0,
                    seq,
                    key,
                    value,
                };
                let stored = apply(&kv, put);
                prop_assert!(stored, "put after compaction cannot be rejected");
                spec.put(key, value);
                ops.push(KvOp {
                    pid: 0,
                    seq,
                    kind: KvOpKind::Put,
                    key,
                    value,
                    expected: 0,
                    answer: KvAnswer::Stored(true),
                });
            }
            Step::Get { key } => {
                let got = kv.get(key).unwrap();
                prop_assert_eq!(got, spec.get(key), "step {}: get mismatch", i);
                ops.push(KvOp {
                    pid: 0,
                    seq,
                    kind: KvOpKind::Get,
                    key,
                    value: 0,
                    expected: 0,
                    answer: KvAnswer::Got(got),
                });
            }
            Step::Delete { key } => {
                if kv.log_reserved().unwrap() >= kv.log_capacity().unwrap() {
                    kv.compact(&heap).unwrap();
                    compactions += 1;
                }
                let deleted = apply(&kv, KvBatchOp::Delete { pid: 0, seq, key });
                prop_assert_eq!(deleted, spec.delete(key), "step {}: delete mismatch", i);
                ops.push(KvOp {
                    pid: 0,
                    seq,
                    kind: KvOpKind::Delete,
                    key,
                    value: 0,
                    expected: 0,
                    answer: KvAnswer::Deleted(deleted),
                });
            }
            Step::Cas { key, expected, new } => {
                if kv.log_reserved().unwrap() >= kv.log_capacity().unwrap() {
                    kv.compact(&heap).unwrap();
                    compactions += 1;
                }
                let cas = KvBatchOp::Cas {
                    pid: 0,
                    seq,
                    key,
                    expected,
                    new,
                };
                let swapped = apply(&kv, cas);
                prop_assert_eq!(
                    swapped,
                    spec.cas(key, expected, new),
                    "step {}: cas mismatch",
                    i
                );
                ops.push(KvOp {
                    pid: 0,
                    seq,
                    kind: KvOpKind::Cas,
                    key,
                    value: new,
                    expected,
                    answer: KvAnswer::Swapped(swapped),
                });
            }
            Step::Compact { below } => {
                let headroom = kv.log_capacity().unwrap() - kv.log_reserved().unwrap();
                if headroom < below {
                    kv.compact(&heap).unwrap();
                    compactions += 1;
                    // Compaction must be invisible to the map.
                    for key in 0..KEY_SPACE {
                        prop_assert_eq!(
                            kv.get(key).unwrap(),
                            spec.get(key),
                            "step {}: compaction changed key {}",
                            i,
                            key
                        );
                    }
                }
            }
        }
    }

    // Final state and the full multi-generation witness.
    let contents = kv.contents().unwrap();
    prop_assert_eq!(contents.len(), spec.contents().len());
    for (k, v) in spec.contents() {
        prop_assert_eq!(contents.get(k), Some(v));
    }
    let generation = kv.generation().unwrap();
    prop_assert_eq!(generation, compactions, "every compact() commits one swap");
    let chains: Vec<Vec<KvWitnessRecord>> = kv
        .snapshot()
        .unwrap()
        .into_iter()
        .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
        .collect();
    // One store is the one-shard history.
    let history = KvShardedHistory {
        ops,
        shards: vec![chains],
    };
    let verdict = check_kv_sharded_gen(&history, |_| 0, &[generation]);
    prop_assert!(verdict.is_linearizable(), "{:?}", verdict);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random traffic with interleaved compactions stays answer-exact
    /// against the spec and witness-verifiable, far past the 12-slot
    /// log's nominal capacity.
    #[test]
    fn batched_traffic_with_interleaved_compactions_matches_spec(
        steps in proptest::collection::vec(step_strategy(), 1..120)
    ) {
        run_case(&steps, 12)?;
    }
}
