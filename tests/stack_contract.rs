//! Contract tests: every `PersistentStack` variant must satisfy the
//! same observable behaviour (the §3 protocol), including reopen after
//! a crash. Each test runs against all three layouts.
//!
//! The second half enumerates `CALL` and `RET` — the two linearization
//! steps, each of which carries the caller's return slot in the persist
//! that flips its marker — at every persistence event × survivor
//! setting, in the geometries that decide how many persists a step
//! takes, and pins those counts as equalities. The next part does the
//! same for a root frame's retired `RET` and the push that makes it
//! durable; the last cuts an issued `CALL` before its await, in every
//! geometry and after a retire.

use pstack::core::{
    FixedStack, FrameRecord, ListStack, PError, PersistentStack, ReturnSlot, VecStack,
};
use pstack::heap::PHeap;
use pstack::nvram::{sweep, PMem, PMemBuilder, POffset};

const HEAP_BASE: u64 = 64 * 1024;

struct Variant {
    name: &'static str,
    make: Box<dyn Fn(PMem, PHeap) -> Box<dyn PersistentStack>>,
    reopen: fn(PMem, PHeap) -> Result<Box<dyn PersistentStack>, PError>,
}

fn fresh() -> (PMem, PHeap) {
    let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(HEAP_BASE), (1 << 18) - HEAP_BASE)
        .expect("heap formats");
    (pmem, heap)
}

fn variants() -> Vec<Variant> {
    variants_sized(128, true)
}

/// The three layouts; `size` is the resizable array's initial capacity
/// and the linked list's block size (the fixed region is 32 KiB).
fn variants_sized(size: u64, vec_shrinks: bool) -> Vec<Variant> {
    vec![
        Variant {
            name: "fixed",
            make: Box::new(|pmem, _| {
                Box::new(FixedStack::format(pmem, POffset::new(0), 32 * 1024).unwrap())
            }),
            reopen: |pmem, _| {
                Ok(Box::new(FixedStack::open(
                    pmem,
                    POffset::new(0),
                    32 * 1024,
                )?))
            },
        },
        Variant {
            name: "vec",
            make: Box::new(move |pmem, heap| {
                let mut s = VecStack::format(pmem, heap, POffset::new(0), size).unwrap();
                s.set_shrink(vec_shrinks);
                Box::new(s)
            }),
            reopen: |pmem, heap| Ok(Box::new(VecStack::open(pmem, heap, POffset::new(0))?)),
        },
        Variant {
            name: "list",
            make: Box::new(move |pmem, heap| {
                Box::new(ListStack::format(pmem, heap, POffset::new(0), size).unwrap())
            }),
            reopen: |pmem, heap| Ok(Box::new(ListStack::open(pmem, heap, POffset::new(0))?)),
        },
    ]
}

#[test]
fn lifo_discipline_holds() {
    for v in variants() {
        let (pmem, heap) = fresh();
        let mut s = (v.make)(pmem, heap);
        for i in 0..40u64 {
            s.push(i, &i.to_le_bytes()).unwrap();
            assert_eq!(s.depth() as u64, i + 1, "{}", v.name);
        }
        for i in (0..40u64).rev() {
            let top = s.frame_record(s.top_index()).unwrap();
            assert_eq!(top.func_id, i, "{}", v.name);
            assert_eq!(top.args, i.to_le_bytes(), "{}", v.name);
            s.pop().unwrap();
        }
        assert_eq!(s.depth(), 0, "{}", v.name);
        assert!(matches!(s.pop(), Err(PError::StackEmpty)), "{}", v.name);
        s.check_consistency().unwrap();
    }
}

#[test]
fn interleaved_push_pop_random_walk() {
    for v in variants() {
        let (pmem, heap) = fresh();
        let mut s = (v.make)(pmem, heap);
        // Deterministic pseudo-random walk.
        let mut x = 0x12345678u64;
        let mut model: Vec<(u64, Vec<u8>)> = Vec::new();
        for step in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let go_push = model.is_empty() || !(x >> 33).is_multiple_of(3);
            if go_push && model.len() < 60 {
                let args = vec![(step % 251) as u8; (x % 48) as usize];
                s.push(step, &args).unwrap();
                model.push((step, args));
            } else if !model.is_empty() {
                s.pop().unwrap();
                model.pop();
            }
            assert_eq!(s.depth(), model.len(), "{} at step {step}", v.name);
        }
        // Full content comparison at the end.
        for (idx, (id, args)) in model.iter().enumerate() {
            let rec = s.frame_record(idx + 1).unwrap();
            assert_eq!(rec.func_id, *id, "{}", v.name);
            assert_eq!(&rec.args, args, "{}", v.name);
        }
        s.check_consistency().unwrap();
    }
}

#[test]
fn survives_crash_and_reopen_with_content() {
    for v in variants() {
        let (pmem, heap) = fresh();
        let mut s = (v.make)(pmem.clone(), heap.clone());
        for i in 0..25u64 {
            s.push(100 + i, &[i as u8; 33]).unwrap();
        }
        s.pop().unwrap();
        s.pop().unwrap();
        s.set_ret(5, ReturnSlot::Value(*b"SLOT-ABC")).unwrap();
        drop(s);
        pmem.crash_now(1, 0.0);
        let pmem2 = pmem.reopen().unwrap();
        let heap2 = PHeap::open(pmem2.clone(), POffset::new(HEAP_BASE)).unwrap();
        let s2 = (v.reopen)(pmem2, heap2).unwrap();
        assert_eq!(s2.depth(), 23, "{}", v.name);
        assert_eq!(s2.frame_record(23).unwrap().func_id, 122, "{}", v.name);
        assert_eq!(
            s2.ret(5).unwrap(),
            ReturnSlot::Value(*b"SLOT-ABC"),
            "{}",
            v.name
        );
        s2.check_consistency().unwrap();
    }
}

#[test]
fn unflushed_push_never_survives_as_torn_frame() {
    // Write-heavy push then immediate survivor-less crash: whatever the
    // variant, the reopened stack must parse cleanly to a prefix depth.
    for v in variants() {
        let (pmem, heap) = fresh();
        let mut s = (v.make)(pmem.clone(), heap.clone());
        for i in 0..10u64 {
            s.push(i, &[7u8; 100]).unwrap();
        }
        drop(s);
        pmem.crash_now(2, 0.5);
        let pmem2 = pmem.reopen().unwrap();
        let heap2 = PHeap::open(pmem2.clone(), POffset::new(HEAP_BASE)).unwrap();
        let s2 = (v.reopen)(pmem2, heap2).unwrap();
        // Flush discipline means everything is durable here.
        assert_eq!(s2.depth(), 10, "{}", v.name);
        s2.check_consistency().unwrap();
    }
}

#[test]
fn return_slot_protocol_is_uniform() {
    for v in variants() {
        let (pmem, heap) = fresh();
        let mut s = (v.make)(pmem, heap);
        s.push(1, b"parent").unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Empty, "{}", v.name);
        s.set_ret(1, ReturnSlot::Unit).unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Unit, "{}", v.name);
        s.set_ret(1, ReturnSlot::Value([3u8; 8])).unwrap();
        assert_eq!(s.ret(1).unwrap(), ReturnSlot::Value([3u8; 8]), "{}", v.name);
        s.set_ret(0, ReturnSlot::Value([9u8; 8])).unwrap();
        assert_eq!(s.ret(0).unwrap(), ReturnSlot::Value([9u8; 8]), "{}", v.name);
        // Out-of-range indices are rejected uniformly.
        assert!(s.ret(7).is_err(), "{}", v.name);
        assert!(s.set_ret(7, ReturnSlot::Unit).is_err(), "{}", v.name);
    }
}

#[test]
fn empty_args_and_large_args_round_trip() {
    for v in variants() {
        let (pmem, heap) = fresh();
        let mut s = (v.make)(pmem, heap);
        s.push(1, &[]).unwrap();
        let big = vec![0xC3u8; 4096];
        s.push(2, &big).unwrap();
        assert_eq!(
            s.frame_record(1).unwrap().args,
            Vec::<u8>::new(),
            "{}",
            v.name
        );
        assert_eq!(s.frame_record(2).unwrap().args, big, "{}", v.name);
        s.check_consistency().unwrap();
    }
}

// ---- CALL and RET, enumerated -------------------------------------

const LINE: u64 = 64;
const CALLER: u64 = 0xCA11;
const CHILD: u64 = 0xC41D;
const STALE: ReturnSlot = ReturnSlot::Value(*b"stale-v1");

/// Where a child's frame falls relative to the cache lines, which is
/// all that decides how many persists `CALL` and `RET` take.
struct Geometry {
    name: &'static str,
    /// Offset of the child's first byte within its line; the caller's
    /// marker is the byte before it, its slot the nine before that.
    child_at: u64,
    child_args: usize,
    /// Persists of `CALL`, of a value `RET` and of a unit `RET`, on
    /// every layout; `None` where the layouts differ (a heap
    /// allocation).
    budget: Option<(u64, u64, u64)>,
}

const GEOMETRIES: [Geometry; 5] = [
    Geometry {
        name: "frame shares the caller's tail line",
        child_at: 16,
        child_args: 8,
        budget: Some((1, 1, 1)),
    },
    Geometry {
        name: "frame spans lines",
        child_at: 16,
        child_args: 100,
        budget: Some((2, 1, 1)),
    },
    Geometry {
        name: "caller's slot and marker on different lines",
        child_at: 1,
        child_args: 8,
        budget: Some((2, 2, 2)),
    },
    Geometry {
        name: "a line boundary inside the caller's slot, through the value",
        child_at: 5,
        child_args: 8,
        budget: Some((2, 3, 2)),
    },
    Geometry {
        name: "frame outgrows the block: the list chains, the array relocates",
        child_at: 16,
        child_args: 600,
        budget: None,
    },
];

#[derive(Clone, Copy, Debug)]
enum Step {
    Call,
    Ret(ReturnSlot),
}

struct Fixture {
    pmem: PMem,
    stack: Box<dyn PersistentStack>,
    caller: FrameRecord,
    child: FrameRecord,
}

impl Fixture {
    /// Depth 1: a caller whose frame ends `g.child_at` bytes into a
    /// line and whose slot holds the completion of an earlier child —
    /// the state a `CALL` starts from. For a `RET` the child is pushed
    /// too.
    fn before(v: &Variant, g: &Geometry, step: Step) -> Fixture {
        (0..LINE as usize)
            .find_map(|pad| Fixture::padded(v, g, step, pad))
            .unwrap_or_else(|| {
                panic!(
                    "{}: no padding puts the caller's tail at {}",
                    v.name, g.child_at
                )
            })
    }

    /// [`Fixture::before`] with `pad` bytes of caller arguments: `None`
    /// unless they put the caller's tail at `g.child_at`.
    fn padded(v: &Variant, g: &Geometry, step: Step, pad: usize) -> Option<Fixture> {
        let child = FrameRecord {
            func_id: CHILD,
            args: vec![0xC4; g.child_args],
        };
        let (pmem, heap) = fresh();
        let mut stack = (v.make)(pmem.clone(), heap);
        let caller = FrameRecord {
            func_id: CALLER,
            args: vec![0xCA; pad],
        };
        stack.push(caller.func_id, &caller.args).unwrap();
        stack.push(7, b"an earlier child").unwrap();
        stack.pop_with(Some(STALE)).unwrap();
        if stack.frame_meta(1).unwrap().end().get() % LINE != g.child_at {
            return None;
        }
        if let Step::Ret(_) = step {
            stack.push(child.func_id, &child.args).unwrap();
        }
        Some(Fixture {
            pmem,
            stack,
            caller,
            child,
        })
    }

    /// A fresh copy of this fixture, as a sweep cuts it: its region
    /// beside it.
    fn image(&self, v: &Variant, g: &Geometry, step: Step) -> (PMem, Fixture) {
        let f = Fixture::padded(v, g, step, self.caller.args.len()).unwrap();
        (f.pmem.clone(), f)
    }

    /// Re-attaches the stack to the region `pmem` reopened after a cut.
    fn reopen(&mut self, v: &Variant, pmem: PMem, ctx: &str) {
        let heap = PHeap::open(pmem.clone(), POffset::new(HEAP_BASE)).unwrap();
        self.stack =
            (v.reopen)(pmem.clone(), heap).unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
        self.pmem = pmem;
    }

    fn run(&mut self, step: Step) -> Result<(), PError> {
        match step {
            Step::Call => self.stack.push(self.child.func_id, &self.child.args),
            Step::Ret(slot) => self.stack.pop_with(Some(slot)),
        }
    }

    /// The step has happened: the child is live over a cleared slot, or
    /// gone with its completion in the slot.
    fn assert_after(&self, step: Step, ctx: &str) {
        let s = &self.stack;
        assert_eq!(s.frame_record(1).unwrap(), self.caller, "{ctx}");
        match step {
            Step::Call => {
                assert_eq!(s.depth(), 2, "{ctx}");
                assert_eq!(s.frame_record(2).unwrap(), self.child, "{ctx}");
                assert_eq!(s.ret(1).unwrap(), ReturnSlot::Empty, "{ctx}");
            }
            Step::Ret(slot) => {
                assert_eq!(s.depth(), 1, "{ctx}");
                assert_eq!(s.ret(1).unwrap(), slot, "{ctx}");
            }
        }
        s.check_consistency().unwrap();
    }

    /// The step has not happened — though its slot store, which comes
    /// first, may have.
    fn assert_before(&self, step: Step, ctx: &str) {
        let s = &self.stack;
        assert_eq!(s.frame_record(1).unwrap(), self.caller, "{ctx}");
        let slot = s.ret(1).unwrap();
        match step {
            Step::Call => {
                assert_eq!(s.depth(), 1, "{ctx}");
                assert!(
                    slot == STALE || slot == ReturnSlot::Empty,
                    "{ctx}: {slot:?}"
                );
            }
            Step::Ret(ret) => {
                assert_eq!(s.depth(), 2, "{ctx}");
                assert_eq!(s.frame_record(2).unwrap(), self.child, "{ctx}");
                assert!(slot == ret || slot == ReturnSlot::Empty, "{ctx}: {slot:?}");
            }
        }
        s.check_consistency().unwrap();
    }
}

const STEPS: [Step; 3] = [
    Step::Call,
    Step::Ret(ReturnSlot::Value(*b"fresh-v2")),
    Step::Ret(ReturnSlot::Unit),
];

#[test]
fn call_and_ret_are_atomic_at_every_crash_point_in_every_geometry() {
    // At every persistence event of the step, with no, some or all
    // dirty lines surviving the power failure, the reopened stack is in
    // the state before the step or the state after it. The two states
    // that must never be durable — *pushed over a stale completion*
    // (depth 2, the caller's slot still `STALE`) and *popped with the
    // completion record lost* (depth 1, the slot not what the child
    // returned) — fail `assert_before` and `assert_after` alike.
    for v in variants_sized(512, false) {
        for g in &GEOMETRIES {
            for step in STEPS {
                let mut probe = Fixture::before(&v, g, step);
                let used = probe.stack.used_bytes();
                probe.run(step).unwrap();
                probe.assert_after(step, "uncrashed");
                if g.budget.is_none() && v.name == "list" && matches!(step, Step::Call) {
                    let grown = probe.stack.used_bytes() - used;
                    assert_eq!(grown, 23 + 600 + 10, "the push chained a pointer frame");
                }

                sweep(
                    || probe.image(&v, g, step),
                    |(_, f)| f.run(step),
                    |(pmem, mut f), cut| {
                        let ctx = format!("{} / {} / {step:?}: {cut}", v.name, g.name);
                        f.reopen(&v, pmem, &ctx);
                        let done = match step {
                            Step::Call => f.stack.depth() == 2,
                            Step::Ret(_) => f.stack.depth() == 1,
                        };
                        if !done {
                            f.assert_before(step, &ctx);
                            // And the interrupted step can be taken again.
                            f.run(step).unwrap();
                        }
                        f.assert_after(step, &ctx);
                    },
                );
            }
        }
    }
}

#[test]
fn call_and_ret_persist_budgets_are_a_function_of_the_geometry() {
    // A value-returning nested call was six persists (clear the
    // caller's slot, frame, flip, value, flag, pop flip); it is frame +
    // (clear, flip) + (value, flag, flip) = 3, 2 when the frame shares
    // the caller's tail line, and 4 when the caller's slot and marker
    // straddle a line: CALL flushes frame and slot together ahead of
    // the flip, RET falls back to slot-then-marker (value, then flag,
    // then marker when the boundary runs through the slot itself).
    for v in variants_sized(512, false) {
        for g in &GEOMETRIES {
            let Some((call, ret_value, ret_unit)) = g.budget else {
                continue;
            };
            for step in STEPS {
                let mut f = Fixture::before(&v, g, step);
                let before = f.pmem.stats().snapshot();
                f.run(step).unwrap();
                let d = f.pmem.stats().snapshot() - before;
                let expect = match step {
                    Step::Call => call,
                    Step::Ret(ReturnSlot::Unit) => ret_unit,
                    Step::Ret(_) => ret_value,
                };
                assert_eq!(
                    (d.persists, d.redundant_persists),
                    (expect, 0),
                    "{} / {} / {step:?}",
                    v.name,
                    g.name
                );
            }
        }
    }
}

// ---- A retired root pop, then the next push ------------------------

const ROOT: u64 = 0x2007;
const NEXT: u64 = 0x2E47;

/// The root frame that is retired: wide enough to reach past the
/// dummy frame's line, so a next frame written over it before the pop
/// is durable would tear it.
fn retired_root() -> FrameRecord {
    FrameRecord {
        func_id: ROOT,
        args: vec![0x2A; 100],
    }
}

/// The frame pushed after the retire: `(geometry, args, persists of
/// its CALL, whether it rides the dummy frame's line)`.
const NEXT_FRAMES: [(&str, usize, u64, bool); 2] = [
    ("the next frame rides the dummy frame's line", 8, 1, true),
    ("the next frame spans lines", 100, 2, false),
];

/// A stack at depth 1 holding [`retired_root`], its dummy frame at the
/// start of a line (padding the heap ahead of a resizable array's
/// block), so whether the next frame rides the dummy frame's line is
/// that frame's size alone.
fn retiring(v: &Variant) -> (PMem, Box<dyn PersistentStack>) {
    for pad in (0..=LINE as usize).step_by(16) {
        let (pmem, heap) = fresh();
        if pad > 0 {
            heap.alloc(pad).unwrap();
        }
        let mut stack = (v.make)(pmem.clone(), heap);
        if stack.frame_meta(0).unwrap().start.get() % LINE != 0 {
            continue;
        }
        let root = retired_root();
        stack.push(root.func_id, &root.args).unwrap();
        return (pmem, stack);
    }
    panic!("{}: no padding starts the dummy frame on a line", v.name);
}

fn retire_then_push(stack: &mut dyn PersistentStack, next: &FrameRecord) -> Result<(), PError> {
    stack.retire(ReturnSlot::Unit)?;
    stack.push(next.func_id, &next.args)
}

/// What a cut of a retire and the push after it left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterRetire {
    /// The retired frame live and byte-identical, its slot as given.
    Retired(ReturnSlot),
    Popped,
    /// The next frame over a cleared slot.
    Pushed,
}

/// Reopens `pmem`'s stack and names its state after a retire and the
/// next push were cut: never the retired frame with the next frame's
/// bytes in it, nor a frame over an uncleared slot.
fn after_retire(v: &Variant, pmem: PMem, next: &FrameRecord, ctx: &str) -> AfterRetire {
    let heap = PHeap::open(pmem.clone(), POffset::new(HEAP_BASE)).unwrap();
    let s = (v.reopen)(pmem, heap).unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    s.check_consistency().unwrap();
    let slot = s.ret(0).unwrap();
    match s.depth() {
        0 => AfterRetire::Popped,
        1 if s.frame_record(1).unwrap() == retired_root() => {
            assert!(
                matches!(slot, ReturnSlot::Empty | ReturnSlot::Unit),
                "{ctx}: retired frame live over {slot:?}"
            );
            AfterRetire::Retired(slot)
        }
        1 => {
            assert_eq!(s.frame_record(1).unwrap(), *next, "{ctx}: torn top frame");
            assert_eq!(slot, ReturnSlot::Empty, "{ctx}: pushed over {slot:?}");
            AfterRetire::Pushed
        }
        depth => panic!("{ctx}: depth {depth}"),
    }
}

#[test]
fn a_retired_root_pop_then_the_next_push_is_atomic_at_every_crash_point() {
    // At every persistence event of the retire and the push after it,
    // with no, some or all dirty lines surviving, the reopened stack is
    // the retired frame still live and byte-identical (its completion
    // recorded or not), popped, or the next frame pushed over a cleared
    // slot — never the retired frame with the next frame's bytes in it,
    // which is what writing the next frame before the pop is durable
    // would leave when a line past the dummy frame's survives alone.
    for v in variants_sized(512, false) {
        for (geometry, next_args, _, _) in NEXT_FRAMES {
            let next = FrameRecord {
                func_id: NEXT,
                args: vec![0x4E; next_args],
            };
            let (_, mut probe) = retiring(&v);
            retire_then_push(probe.as_mut(), &next).unwrap();
            assert_eq!(probe.frame_record(1).unwrap(), next, "{}", v.name);

            let mut seen = Vec::new();
            sweep(
                || retiring(&v),
                |(_, stack)| retire_then_push(stack.as_mut(), &next),
                |(pmem, _), cut| {
                    let ctx = format!("{} / {geometry}: {cut}", v.name);
                    seen.push(after_retire(&v, pmem, &next, &ctx));
                },
            );
            let retired = seen.iter().any(|o| matches!(o, AfterRetire::Retired(_)));
            let popped = seen.contains(&AfterRetire::Popped);
            let pushed = seen.contains(&AfterRetire::Pushed);
            assert!(
                retired && popped && pushed,
                "{} / {geometry}: every outcome reached (live {retired}, popped {popped}, \
                 pushed {pushed})",
                v.name
            );
        }
    }
}

#[test]
fn a_retire_costs_no_persist_and_the_next_push_carries_it() {
    // The push after a retire costs its CALL's count when the pop rides
    // its persist, one more when the pop is flushed ahead of it.
    for v in variants_sized(512, false) {
        for (geometry, next_args, call, rides) in NEXT_FRAMES {
            let (pmem, mut stack) = retiring(&v);
            let before = pmem.stats().snapshot();
            stack.retire(ReturnSlot::Unit).unwrap();
            let d = pmem.stats().snapshot() - before;
            assert_eq!(
                (d.persists, d.flush_calls),
                (0, 0),
                "{} / {geometry}",
                v.name
            );
            assert_eq!(stack.depth(), 0);

            let before = pmem.stats().snapshot();
            stack.push(NEXT, &vec![0x4E; next_args]).unwrap();
            let d = pmem.stats().snapshot() - before;
            assert_eq!(
                (d.persists, d.redundant_persists),
                (call + u64::from(!rides), 0),
                "{} / {geometry}",
                v.name
            );
            // With nothing retired, the same push pays its CALL alone.
            stack.pop().unwrap();
            let before = pmem.stats().snapshot();
            stack.push(NEXT, &vec![0x4E; next_args]).unwrap();
            let d = pmem.stats().snapshot() - before;
            assert_eq!(
                (d.persists, d.redundant_persists),
                (call, 0),
                "{} / {geometry}",
                v.name
            );
        }
    }
}

// ---- An issued CALL, cut before its await ----------------------------

#[test]
fn an_issued_call_cut_before_its_await_is_before_the_push_or_pushed() {
    // `push_issued` makes every stage before the flip durable and
    // leaves the flip's line in flight: the one line a cut after it
    // returns decides, so losing it, keeping it or either by lottery
    // covers every subset. At that cut and at every event before it
    // the reopened stack is as before the push — no frame over a stale
    // completion — or pushed.
    for v in variants_sized(512, false) {
        for g in &GEOMETRIES {
            let (mut before, mut pushed) = (0, 0);
            let probe = Fixture::before(&v, g, Step::Call);
            sweep(
                || probe.image(&v, g, Step::Call),
                |(pmem, f)| {
                    let ticket = f.stack.push_issued(f.child.func_id, &f.child.args)?;
                    assert!(ticket.is_some(), "the flip's ticket");
                    assert_eq!(pmem.inflight_tickets(), 1, "the flip's flight");
                    Ok::<_, PError>(())
                },
                |(pmem, mut f), cut| {
                    let ctx = format!("{} / {}: {cut}", v.name, g.name);
                    f.reopen(&v, pmem, &ctx);
                    if f.stack.depth() == 2 {
                        f.assert_after(Step::Call, &ctx);
                        pushed += 1;
                    } else {
                        f.assert_before(Step::Call, &ctx);
                        before += 1;
                    }
                },
            );
            assert!(
                before > 0 && pushed > 0,
                "{} / {}: both outcomes ({before} before, {pushed} pushed)",
                v.name,
                g.name
            );
        }
    }
}

#[test]
fn an_issued_call_after_a_retire_cut_before_its_await_keeps_a_pop_flushed_ahead() {
    // After a retire the push's first stage is the pending pop. Flushed
    // ahead of a frame that does not ride the dummy frame's line, it is
    // durable however a cut after `push_issued` returns goes: popped,
    // or the next frame pushed. Riding the flip's line, it shares the
    // flight's fate: lost with it, the retired frame is live and intact
    // again — the state a crash between a body and its RET leaves —
    // never torn. Cuts at the events before are the retire-then-push
    // states above.
    for v in variants_sized(512, false) {
        for (geometry, next_args, _, rides) in NEXT_FRAMES {
            let next = FrameRecord {
                func_id: NEXT,
                args: vec![0x4E; next_args],
            };
            let (mut kept_back, mut pushed) = (0, 0);
            sweep(
                || retiring(&v),
                |(_, stack)| {
                    stack.retire(ReturnSlot::Unit)?;
                    let ticket = stack.push_issued(next.func_id, &next.args)?;
                    assert!(ticket.is_some(), "the flip's ticket");
                    Ok::<_, PError>(())
                },
                |(pmem, _), cut| {
                    let ctx = format!("{} / {geometry}: {cut}", v.name);
                    let outcome = after_retire(&v, pmem, &next, &ctx);
                    if !cut.returned() {
                        return;
                    }
                    match outcome {
                        AfterRetire::Pushed => pushed += 1,
                        AfterRetire::Popped if !rides => kept_back += 1,
                        AfterRetire::Retired(ReturnSlot::Empty) if rides => kept_back += 1,
                        other => panic!("{ctx}: {other:?}, the pop riding: {rides}"),
                    }
                },
            );
            assert!(
                kept_back > 0 && pushed > 0,
                "{} / {geometry}: both outcomes ({kept_back} before, {pushed} pushed)",
                v.name
            );
        }
    }
}
