//! Property tests: persistent stacks against a volatile reference
//! model, under random operation sequences and random crash points.

use proptest::prelude::*;

use pstack::core::{PError, PersistentStack, StackKind};
use pstack::heap::PHeap;
use pstack::nvram::{FailPlan, PMem, PMemBuilder, POffset};

const HEAP_BASE: u64 = 64 * 1024;

#[derive(Debug, Clone)]
enum Op {
    Push { func_id: u64, arg_len: usize },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u64..1000, 0usize..120).prop_map(|(func_id, arg_len)| Op::Push { func_id, arg_len }),
        2 => Just(Op::Pop),
    ]
}

fn kind_strategy() -> impl Strategy<Value = StackKind> {
    prop_oneof![
        Just(StackKind::Fixed),
        Just(StackKind::Vec),
        Just(StackKind::List),
    ]
}

/// Each layout's capacity: a fixed region of 48 KiB, small first
/// blocks for the unbounded layouts so that they grow.
fn capacity(kind: StackKind) -> u64 {
    match kind {
        StackKind::Fixed => 48 * 1024,
        StackKind::Vec => 128,
        StackKind::List => 160,
    }
}

fn build(kind: StackKind, pmem: &PMem, heap: &PHeap) -> Box<dyn PersistentStack> {
    kind.format(pmem, heap, POffset::new(0), capacity(kind))
        .unwrap()
}

fn reopen(kind: StackKind, pmem: &PMem, heap: &PHeap) -> Result<Box<dyn PersistentStack>, PError> {
    kind.open(pmem, heap, POffset::new(0), capacity(kind))
}

fn fresh() -> (PMem, PHeap) {
    let pmem = PMemBuilder::new().len(1 << 19).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(HEAP_BASE), (1 << 19) - HEAP_BASE)
        .expect("heap formats");
    (pmem, heap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any operation sequence leaves the stack agreeing with a simple
    /// Vec model, both live and after a clean crash/reopen.
    #[test]
    fn stacks_agree_with_reference_model(
        kind in kind_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let (pmem, heap) = fresh();
        let mut stack = build(kind, &pmem, &heap);
        let mut model: Vec<(u64, Vec<u8>)> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Push { func_id, arg_len } => {
                    let args = vec![(step % 256) as u8; *arg_len];
                    match stack.push(*func_id, &args) {
                        Ok(()) => model.push((*func_id, args)),
                        Err(PError::StackOverflow { .. }) => {
                            // Legal for the fixed variant; stack unchanged.
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("push: {e}"))),
                    }
                }
                Op::Pop => {
                    if model.is_empty() {
                        prop_assert!(matches!(stack.pop(), Err(PError::StackEmpty)));
                    } else {
                        stack.pop().unwrap();
                        model.pop();
                    }
                }
            }
            prop_assert_eq!(stack.depth(), model.len());
        }
        stack.check_consistency().unwrap();
        for (i, (id, args)) in model.iter().enumerate() {
            let rec = stack.frame_record(i + 1).unwrap();
            prop_assert_eq!(rec.func_id, *id);
            prop_assert_eq!(&rec.args, args);
        }

        // Everything was flushed, so a survivor-less crash preserves all.
        drop(stack);
        pmem.crash_now(0, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let heap2 = PHeap::open(pmem2.clone(), POffset::new(HEAP_BASE)).unwrap();
        let stack2 = reopen(kind, &pmem2, &heap2).unwrap();
        prop_assert_eq!(stack2.depth(), model.len());
        for (i, (id, args)) in model.iter().enumerate() {
            let rec = stack2.frame_record(i + 1).unwrap();
            prop_assert_eq!(rec.func_id, *id);
            prop_assert_eq!(&rec.args, args);
        }
        stack2.check_consistency().unwrap();
    }

    /// A crash injected at a random persistence event during a random
    /// operation sequence always leaves a recoverable stack whose
    /// content is a *prefix-consistent* state: the surviving depth
    /// matches the model at some step boundary (each push/pop is
    /// atomic), and every surviving frame is untorn.
    #[test]
    fn random_crash_points_leave_recoverable_prefix(
        kind in kind_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..50),
        crash_after in 1u64..300,
        survivors in 0u8..=2,
    ) {
        let (pmem, heap) = fresh();
        let mut stack = build(kind, &pmem, &heap);

        // Model of the last *committed* state, plus the operation that
        // was in flight when the crash hit (if any): recovery must see
        // either the committed state or that state with the in-flight
        // operation applied — each push/pop is atomic, nothing else.
        let mut committed: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut inflight: Option<Option<(u64, Vec<u8>)>> = None; // Some(Some)=push, Some(None)=pop

        let prob = f64::from(survivors) / 2.0;
        pmem.arm_failpoint(FailPlan::after_events(crash_after).with_survivors(crash_after, prob));

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Push { func_id, arg_len } => {
                    let args = vec![(step % 256) as u8; *arg_len];
                    match stack.push(*func_id, &args) {
                        Ok(()) => committed.push((*func_id, args)),
                        Err(PError::StackOverflow { .. }) => {}
                        Err(e) => {
                            prop_assert!(e.is_crash(), "unexpected error: {e}");
                            inflight = Some(Some((*func_id, args)));
                            break;
                        }
                    }
                }
                Op::Pop => {
                    if stack.depth() == 0 {
                        continue;
                    }
                    match stack.pop() {
                        Ok(()) => {
                            committed.pop();
                        }
                        Err(e) => {
                            prop_assert!(e.is_crash(), "unexpected error: {e}");
                            inflight = Some(None);
                            break;
                        }
                    }
                }
            }
        }
        if !pmem.is_crashed() {
            pmem.crash_now(crash_after, prob);
        }

        let pmem2 = pmem.reopen().unwrap();
        let heap2 = PHeap::open(pmem2.clone(), POffset::new(HEAP_BASE)).unwrap();
        let stack2 = reopen(kind, &pmem2, &heap2).unwrap();
        stack2.check_consistency().unwrap();

        let mut valid_states = vec![committed.clone()];
        match inflight {
            Some(Some(pushed)) => {
                let mut with_push = committed.clone();
                with_push.push(pushed);
                valid_states.push(with_push);
            }
            Some(None) => {
                let mut with_pop = committed.clone();
                with_pop.pop();
                valid_states.push(with_pop);
            }
            None => {}
        }

        let depth = stack2.depth();
        let recovered: Vec<(u64, Vec<u8>)> = (1..=depth)
            .map(|i| {
                let r = stack2.frame_record(i).unwrap();
                (r.func_id, r.args)
            })
            .collect();
        prop_assert!(
            valid_states.contains(&recovered),
            "recovered state (depth {depth}) is neither the committed state \
             (depth {}) nor the in-flight transition applied",
            committed.len()
        );
    }
}
