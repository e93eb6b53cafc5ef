//! Property tests for the persist-order sanitizer: random KV op mixes
//! with interleaved compactions, with PSan's shadow-line tracking
//! enabled — asserting the store's publish
//! discipline produces **zero violations** no matter how the traffic
//! and the generation swaps interleave. The answer-exactness against
//! the sequential spec rides along so a silent store bug can't
//! masquerade as "clean".
//!
//! The negative direction (seeded `EarlyPublish` /
//! `NoPersistBeforeSwap` variants *do* trip the sanitizer) is covered
//! by the campaign tests in `pstack-chaos`; here the property is the
//! correct store's cleanliness.
//!
//! # Reproducing failures
//!
//! The proptest shim has no shrinking; every case is deterministic per
//! (test, case index). `PROPTEST_SHIM_SEED=<u64>` perturbs all case
//! seeds, `PROPTEST_CASES=<n>` sets cases per property.

use proptest::prelude::*;

use pstack::heap::PHeap;
use pstack::kv::{KvBatchOp, KvVariant, PKvStore};
use pstack::nvram::{PMemBuilder, POffset};
use pstack::verify::KvSpec;

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
    /// Compact when headroom has dropped under `below` free slots.
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

/// Random traffic + threshold-triggered compactions under PSan; the
/// property is zero violations at every quiescent point and at the
/// end, with answers matching the sequential spec throughout.
fn run_case(steps: &[Step], log_cap: u64) -> Result<(), TestCaseError> {
    let pmem = PMemBuilder::new().len(REGION).psan(true).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), REGION as u64).unwrap();
    let kv = PKvStore::format(pmem.clone(), &heap, 4, log_cap, KvVariant::Nsrl).unwrap();
    let mut spec = KvSpec::new();
    let mut compactions = 0u64;
    let mut compact = |kv: &PKvStore| {
        kv.compact(&heap).unwrap();
        compactions += 1;
    };

    for (i, step) in steps.iter().enumerate() {
        let seq = i as u64 + 1;
        let full = kv.log_reserved().unwrap() >= kv.log_capacity().unwrap();
        match *step {
            Step::Put { key, value } => {
                if full {
                    compact(&kv);
                }
                let put = KvBatchOp::Put {
                    pid: 0,
                    seq,
                    key,
                    value,
                };
                prop_assert!(apply(&kv, put));
                spec.put(key, value);
            }
            Step::Get { key } => {
                prop_assert_eq!(kv.get(key).unwrap(), spec.get(key), "step {}", i);
            }
            Step::Delete { key } => {
                if full {
                    compact(&kv);
                }
                let delete = KvBatchOp::Delete { pid: 0, seq, key };
                prop_assert_eq!(apply(&kv, delete), spec.delete(key));
            }
            Step::Cas { key, expected, new } => {
                if full {
                    compact(&kv);
                }
                let cas = KvBatchOp::Cas {
                    pid: 0,
                    seq,
                    key,
                    expected,
                    new,
                };
                prop_assert_eq!(apply(&kv, cas), spec.cas(key, expected, new));
            }
            Step::Compact { below } => {
                let headroom = kv.log_capacity().unwrap() - kv.log_reserved().unwrap();
                if headroom < below {
                    compact(&kv);
                }
            }
        }
        // The shadow state machine must stay clean after *every* step,
        // not just at the end — a violation names the first bad op.
        prop_assert_eq!(
            pmem.psan_violation_count(),
            0,
            "step {} ({:?}): {:?}",
            i,
            step,
            pmem.psan_violations()
        );
    }

    prop_assert_eq!(kv.generation().unwrap(), compactions);
    for (k, v) in spec.contents() {
        prop_assert_eq!(kv.get(*k).unwrap(), Some(*v));
    }
    prop_assert!(
        pmem.psan_violations().is_empty(),
        "{:?}",
        pmem.psan_violations()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutations must persist records, tail and head before anything
    /// can reach them, and compactions must persist the new generation
    /// before the swap — under PSan's eyes, on every interleaving.
    #[test]
    fn batched_random_traffic_is_psan_clean(
        steps in proptest::collection::vec(step_strategy(), 1..120)
    ) {
        run_case(&steps, 12)?;
    }
}
