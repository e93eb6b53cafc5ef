use super::*;
use crate::shard::shard_of;
use crate::store::{KvBatchOp, KvVariant};
use pstack_core::{FixedStack, FunctionRegistry, PersistentStack};
use pstack_heap::PHeap;
use pstack_nvram::{sweep, Cut, Level, PMem, PMemBuilder, PMemStripe, POffset, Survivors, Sweep};

const HEAP_OFF: u64 = 8192;
const STACK_LEN: usize = 4096;
const REGION_LEN: usize = 1 << 18;

/// A bare table holding `ops` (gets included — the table can hold
/// any kind; it is the window that refuses to execute a read).
fn table_of(ops: &[KvTaskOp]) -> (PMem, KvRequestTable) {
    let pmem = PMemBuilder::new().len(REGION_LEN).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(0), REGION_LEN as u64).unwrap();
    let table = KvRequestTable::format(pmem.clone(), &heap, ops.len() as u32).unwrap();
    for (i, &op) in ops.iter().enumerate() {
        assert_eq!(
            table.submit(i as u64 + 1, op).unwrap(),
            ReqSubmit::Fresh(i as u32)
        );
    }
    (pmem, table)
}

/// Store, preloaded table and stack all in one buffered region: the
/// store a one-shard stripe, the stack a block of the shard's heap.
/// Returns the region, its heap, the executor and the stack's base.
fn fixture(ops: &[KvTaskOp]) -> (PMem, PHeap, KvServeFunction, POffset) {
    let pmem = PMemBuilder::new().len(REGION_LEN).build_in_memory();
    let regions = std::slice::from_ref(&pmem);
    let store = ShardedKvStore::format(regions, 8, 64, KvVariant::Nsrl).unwrap();
    let heap = store.heap(0).clone();
    let stack = heap.alloc_aligned(STACK_LEN, 64).unwrap();
    (
        pmem,
        heap,
        KvServeFunction::preload(store, ops).unwrap(),
        stack,
    )
}

/// A stripe with one preloaded table per shard, plus the (buffered)
/// control region the persistent stack lives in: a window's `CALL`
/// is a flight there, as on a served system.
fn sharded_fixture(ops: &[KvTaskOp], nshards: usize) -> (PMemStripe, PMem, PHeap, KvServeFunction) {
    let stripe = PMemBuilder::new().len(REGION_LEN).build_striped(nshards);
    let store = ShardedKvStore::format(stripe.regions(), 8, 128, KvVariant::Nsrl).unwrap();
    let exec = KvServeFunction::preload(store, ops).unwrap();
    let main = PMemBuilder::new().len(REGION_LEN).build_in_memory();
    let heap = PHeap::format(
        main.clone(),
        POffset::new(HEAP_OFF),
        REGION_LEN as u64 - HEAP_OFF,
    )
    .unwrap();
    (stripe, main, heap, exec)
}

/// The recovery boot of [`sharded_fixture`]: everything re-attached
/// over the reopened regions.
fn attach_sharded(main: &PMem, stripe: &PMemStripe) -> (PHeap, KvServeFunction) {
    let exec = KvServeFunction::open(stripe.regions(), KvVariant::Nsrl).unwrap();
    let heap = PHeap::open(main.clone(), POffset::new(HEAP_OFF)).unwrap();
    (heap, exec)
}

/// A [`sharded_fixture`] as a sweep cuts it: the control region, then
/// the stripe, then the handles and the window's arguments.
type Sharded = (PMem, PMemStripe, (PHeap, KvServeFunction, Vec<u8>));

/// Runs the window `args` names from a fresh stack in the control region.
fn run_window((main, _, (heap, exec, args)): &mut Sharded) -> Result<impl std::fmt::Debug, PError> {
    let registry = exec.registry().unwrap();
    on_stack(main, heap, &registry, true, |ctx| {
        ctx.call(KV_SERVE_FUNC_ID, args)
    })
}

/// Checked on an [`attach_sharded`] boot before anything replays:
/// a durable head reaching a record of the window `args` implies the
/// record's descriptor is durable — a reboot publishes a batch only if
/// its slots hold their claims. The frame may be lost under a published
/// batch: it shares the batch's level. Returns whether the frame
/// survived the cut.
fn published_only_over_a_durable_descriptor(
    main: &PMem,
    exec: &KvServeFunction,
    args: &[u8],
    at: &str,
) -> bool {
    let stack = FixedStack::open(main.clone(), POffset::new(0), 4096).unwrap();
    let frame = stack.depth() == 1;
    if frame {
        let record = stack.frame_record(1).unwrap();
        assert_eq!(
            (record.func_id, &record.args[..]),
            (KV_SERVE_FUNC_ID, args),
            "{at}"
        );
    }
    let chains = exec.store().snapshot_sharded().unwrap();
    for part in exec.parse_args(args).unwrap() {
        let (shard, table) = (part.shard as usize, &exec.tables()[part.shard as usize]);
        for slot in part.slots {
            // Preloaded: slot `i` of shard `s` is request `i + 1` of
            // client `s + 1`.
            let req_id = ((shard as u64 + 1) << 32) | (u64::from(slot) + 1);
            if chains[shard].iter().flatten().any(|r| r.seq == req_id) {
                assert_eq!(table.req_id(slot).unwrap(), req_id, "{at}: descriptor lost");
            }
        }
    }
    frame
}

#[test]
fn open_answers_a_hostile_image_with_a_typed_error() {
    use crate::shard::ROOT_OFF_TABLE;
    let word = POffset::new(ROOT_OFF_TABLE);
    // (what is wrong with shard 1, tables formatted?, how it got so)
    type Spoil = fn(&PMem, POffset);
    let images: [(&str, bool, Spoil); 4] = [
        ("nothing", true, |_, _| {}),
        ("store formatted, tables never written", false, |_, _| {}),
        ("root points outside the region", true, |r, word| {
            r.write_u64(word, REGION_LEN as u64 + 64).unwrap();
        }),
        ("capacity overruns the region", true, |r, word| {
            let base = r.read_u64(word).unwrap();
            let slots = REGION_LEN as u64 / 64;
            r.write_u64(POffset::new(base + 8), slots).unwrap();
        }),
    ];
    for (what, tables, spoil) in images {
        let stripe = PMemBuilder::new().len(REGION_LEN).build_striped(2);
        let store = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        if tables {
            KvServeFunction::format(store, 4).unwrap();
        }
        spoil(stripe.region(1), word);
        let reads = stripe.region(1).stats().snapshot().reads;
        match KvServeFunction::open(stripe.regions(), KvVariant::Nsrl) {
            Ok(exec) => assert_eq!((what, exec.tables()[1].capacity()), ("nothing", 4)),
            Err(e) => {
                assert!(matches!(e, PError::CorruptStack(_) | PError::Mem(_)));
                assert!(!e.is_crash() && what != "nothing", "{what}: {e}");
                // Refused at the header: no slot of it was scanned.
                let scanned = stripe.region(1).stats().snapshot().reads - reads;
                assert!(scanned < 64, "{what}: {scanned} reads");
            }
        }
    }
}

fn registry_of(f: Arc<dyn RecoverableFunction>, id: u64) -> FunctionRegistry {
    let mut registry = FunctionRegistry::new();
    registry.register(id, f).unwrap();
    registry
}

/// Runs `body` with a context over a stack at offset 0 of `main`
/// (freshly formatted, or re-attached after a crash).
fn on_stack<R>(
    main: &PMem,
    heap: &PHeap,
    registry: &FunctionRegistry,
    fresh: bool,
    body: impl FnOnce(&mut PContext<'_>) -> R,
) -> R {
    on_stack_at(main, POffset::new(0), heap, registry, fresh, body)
}

/// [`on_stack`] with the stack at `base`.
fn on_stack_at<R>(
    main: &PMem,
    base: POffset,
    heap: &PHeap,
    registry: &FunctionRegistry,
    fresh: bool,
    body: impl FnOnce(&mut PContext<'_>) -> R,
) -> R {
    let mut stack = if fresh {
        FixedStack::format(main.clone(), base, STACK_LEN as u64).unwrap()
    } else {
        FixedStack::open(main.clone(), base, STACK_LEN as u64).unwrap()
    };
    let mut ctx = PContext::new(
        main.clone(),
        heap.clone(),
        registry,
        &mut stack,
        0,
        POffset::new(64),
    );
    body(&mut ctx)
}

/// Answers one slot as a window does: a flight of its level, then the
/// level awaited. Nothing is committed with it, so it records no batch.
fn answer(table: &KvRequestTable, slot: u32, executor: u32, result: KvTaskResult) {
    let mut level = Level::default();
    table
        .answer(&[(slot, executor, result)], None, &mut level)
        .unwrap();
    level.await_all().unwrap();
}

/// A window of `slots` on shard `shard` alone, as task arguments.
fn on_shard(shard: usize, slots: &[u32]) -> Vec<u8> {
    KvServeFunction::window_args(&[ShardWindow {
        shard: shard as u32,
        recovery: false,
        slots: slots.to_vec(),
    }])
}

/// The whole of each of `shards`' tables as one window.
fn whole_tables(exec: &KvServeFunction, shards: &[usize]) -> Vec<u8> {
    let window: Vec<ShardWindow> = shards
        .iter()
        .map(|&shard| ShardWindow {
            shard: shard as u32,
            recovery: false,
            slots: (0..exec.tables()[shard].capacity()).collect(),
        })
        .collect();
    KvServeFunction::window_args(&window)
}

/// The whole of shard `shard`'s table as one window.
fn whole_table(exec: &KvServeFunction, shard: usize) -> Vec<u8> {
    whole_tables(exec, &[shard])
}

fn results_of(table: &KvRequestTable) -> Vec<Option<KvTaskResult>> {
    (0..table.capacity())
        .map(|slot| table.result(slot).unwrap().map(|a| a.result))
        .collect()
}

fn puts(keys: std::ops::Range<u64>, value_of: impl Fn(u64) -> i64) -> Vec<KvTaskOp> {
    keys.map(|key| KvTaskOp::Put {
        key,
        value: value_of(key),
    })
    .collect()
}

#[test]
fn table_round_trips_ops_and_answers() {
    let ops = [
        KvTaskOp::Put { key: 1, value: -5 },
        KvTaskOp::Get { key: 1 },
        KvTaskOp::Delete { key: 1 },
        KvTaskOp::Cas {
            key: 2,
            expected: i64::MIN,
            new: i64::MAX,
        },
    ];
    let (pmem, table) = table_of(&ops);
    assert_eq!(table.capacity(), 4);
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(table.op(i as u32).unwrap(), *op);
    }
    assert_eq!(table.pending_slots().unwrap(), vec![0, 1, 2, 3]);

    answer(&table, 0, 2, KvTaskResult::Stored(true));
    answer(&table, 1, 3, KvTaskResult::Got(Some(-5)));
    answer(&table, 2, 1, KvTaskResult::Deleted(true));
    assert_eq!(table.pending_slots().unwrap(), vec![3]);
    assert_eq!(
        table.result(1).unwrap(),
        Some(KvTaskAnswer {
            executor: 3,
            result: KvTaskResult::Got(Some(-5))
        })
    );
    // Reopen sees the same state.
    let t2 = KvRequestTable::open(pmem, table.base()).unwrap();
    assert_eq!(t2.pending_slots().unwrap(), vec![3]);
    assert_eq!(
        t2.result(2).unwrap().unwrap().result,
        KvTaskResult::Deleted(true)
    );
}

#[test]
fn got_none_and_false_answers_round_trip() {
    let ops = [
        KvTaskOp::Get { key: 9 },
        KvTaskOp::Cas {
            key: 9,
            expected: 0,
            new: 1,
        },
    ];
    let (_, table) = table_of(&ops);
    answer(&table, 0, 0, KvTaskResult::Got(None));
    answer(&table, 1, 0, KvTaskResult::Swapped(false));
    assert_eq!(
        results_of(&table),
        vec![
            Some(KvTaskResult::Got(None)),
            Some(KvTaskResult::Swapped(false))
        ]
    );
}

#[test]
fn task_function_runs_and_replays_answers() {
    let ops = [
        KvTaskOp::Put { key: 7, value: 70 },
        KvTaskOp::Cas {
            key: 7,
            expected: 70,
            new: 71,
        },
        KvTaskOp::Delete { key: 7 },
    ];
    let (pmem, heap, exec, stack) = fixture(&ops);
    let registry = exec.registry().unwrap();
    let one = |slot: u32| on_shard(0, &[slot]);
    on_stack_at(&pmem, stack, &heap, &registry, true, |ctx| {
        // A single op is a window of one.
        ctx.call(KV_SERVE_FUNC_ID, &one(0)).unwrap();
        ctx.call(KV_SERVE_FUNC_ID, &one(1)).unwrap();
        // The harness's own read, between windows.
        assert_eq!(exec.store().get_durable(7).unwrap(), Some(71));
        ctx.call(KV_SERVE_FUNC_ID, &one(2)).unwrap();
        assert_eq!(
            results_of(&exec.tables()[0]),
            vec![
                Some(KvTaskResult::Stored(true)),
                Some(KvTaskResult::Swapped(true)),
                Some(KvTaskResult::Deleted(true)),
            ]
        );
        // Re-running a completed descriptor replays the answer
        // without touching the store.
        let before = exec.store().log_reserved_per_shard().unwrap();
        ctx.call(KV_SERVE_FUNC_ID, &one(0)).unwrap();
        assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
    });
}

#[test]
fn sharded_task_function_runs_and_replays_per_shard() {
    let ops = puts(0..12, |key| key as i64 * 10);
    let (_stripe, main, heap, exec) = sharded_fixture(&ops, 2);
    let registry = exec.registry().unwrap();
    on_stack(&main, &heap, &registry, true, |ctx| {
        for task in exec.pending_tasks(1).unwrap() {
            ctx.call(KV_SERVE_FUNC_ID, &task.args).unwrap();
        }
        assert_eq!(exec.store().contents().unwrap().len(), 12);
        // Answers landed in each shard's own table, in that shard's
        // own region; records landed only in the key's home shard.
        for (s, table) in exec.tables().iter().enumerate() {
            assert!(table.pending_slots().unwrap().is_empty(), "shard {s}");
            assert!(results_of(table)
                .iter()
                .all(|r| *r == Some(KvTaskResult::Stored(true))));
        }
        // Replaying a completed descriptor re-reads the answer
        // without consuming a new log slot anywhere.
        let before = exec.store().log_reserved_per_shard().unwrap();
        ctx.call(KV_SERVE_FUNC_ID, &on_shard(0, &[0])).unwrap();
        assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
    });
}

#[test]
fn sharded_tags_are_globally_unique() {
    // Preloaded request ids — the store tags — differ across shards
    // and across descriptors, and name their shard as the client.
    let (_stripe, _main, _heap, exec) = sharded_fixture(&puts(0..16, |_| 1), 4);
    let mut ids = std::collections::HashSet::new();
    for (s, table) in exec.tables().iter().enumerate() {
        for slot in table.pending_slots().unwrap() {
            let id = table.req_id(slot).unwrap();
            assert_eq!(split_id(id), (s as u32 + 1, slot + 1));
            assert!(ids.insert(id), "request id {id:#x} reused");
        }
    }
    assert_eq!(ids.len(), 16);

    // A window naming every shard round-trips through its frame's
    // bytes, one byte per header, count and (small) slot.
    let window: Vec<ShardWindow> = exec
        .tables()
        .iter()
        .enumerate()
        .map(|(s, table)| ShardWindow {
            shard: s as u32,
            recovery: s == 2,
            slots: table.pending_slots().unwrap(),
        })
        .collect();
    let args = KvServeFunction::window_args(&window);
    assert_eq!(args.len(), 2 * 4 + 16);
    assert_eq!(exec.parse_args(&args).unwrap(), window);
    assert_eq!(exec.parse_args(&[]).unwrap(), vec![], "an empty window");
}

/// A two-shard executor over eight preloaded puts: what the hostile
/// window arguments below are parsed against.
fn two_shards() -> KvServeFunction {
    sharded_fixture(&puts(0..8, |_| 1), 2).3
}

fn task_error(outcome: Result<impl std::fmt::Debug, PError>) -> String {
    match outcome {
        Err(PError::Task(why)) => why,
        other => panic!("expected a task error, got {other:?}"),
    }
}

#[test]
fn window_args_cut_short_are_a_task_error() {
    let exec = two_shards();
    let cuts: [&[u8]; 4] = [
        &[0x02],                               // a header, no count
        &[0x00, 0x03, 0, 1],                   // three slots named, two carried
        &[0x00, 0x01, 0x80],                   // a slot varint cut mid-way
        &[0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], // 2^32 - 1 slots, no bytes
    ];
    for cut in cuts {
        task_error(exec.parse_args(cut));
    }
}

#[test]
fn window_args_with_an_overlong_varint_are_a_task_error() {
    // Five bytes carry any u32 ...
    for v in [0, 127, 128, 16_383, 16_384, 1 << 28, u32::MAX] {
        let mut b = Vec::new();
        put_varint(&mut b, v);
        let mut rest = b.as_slice();
        assert_eq!(take_varint(&mut rest).unwrap(), v);
        assert!(rest.is_empty());
    }
    // ... and a sixth byte, or a fifth past 32 bits, is refused.
    let exec = two_shards();
    let six = [0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
    let wide = [0xFF, 0xFF, 0xFF, 0xFF, 0x1F];
    let varints: [&[u8]; 2] = [&six, &wide];
    for varint in varints {
        task_error(exec.parse_args(varint)); // as a header
        let slot = [&[0x00, 0x01][..], varint].concat();
        task_error(exec.parse_args(&slot)); // as a slot
    }
}

#[test]
fn window_args_naming_a_shard_out_of_range_are_a_task_error() {
    let exec = two_shards();
    for shard in [2, u32::MAX >> 1] {
        let args = on_shard(shard as usize, &[0]);
        let why = task_error(exec.parse_args(&args));
        assert!(why.contains("out of range"), "{why}");
    }
}

#[test]
fn window_args_naming_a_slot_out_of_range_are_a_task_error() {
    let exec = two_shards();
    let capacity = exec.tables()[1].capacity();
    let why = task_error(exec.parse_args(&on_shard(1, &[0, capacity])));
    assert!(why.contains(&format!("slot {capacity}")), "{why}");
}

#[test]
fn window_args_naming_a_shard_twice_are_a_task_error_not_a_deadlock() {
    // A shard's group commit holds its gate until committed:
    // a second begin on the same shard from the same thread would
    // wait forever. The window is refused before anything begins —
    // parsed or handed to the executor directly — and so is one out
    // of ascending order.
    let (_stripe, main, heap, exec) = sharded_fixture(&puts(0..8, |_| 1), 2);
    let part = |shard: u32, slot: u32| ShardWindow {
        shard,
        recovery: false,
        slots: vec![slot],
    };
    for window in [vec![part(1, 0), part(1, 1)], vec![part(1, 0), part(0, 0)]] {
        let args = KvServeFunction::window_args(&window);
        task_error(exec.parse_args(&args));
        task_error(exec.execute_window(&window, 0, None));
        let registry = exec.registry().unwrap();
        on_stack(&main, &heap, &registry, true, |ctx| {
            assert!(ctx.call(KV_SERVE_FUNC_ID, &args).is_err());
        });
    }
    let untouched = exec
        .tables()
        .iter()
        .map(|t| t.pending_slots().unwrap().len());
    assert_eq!(untouched.sum::<usize>(), 8, "nothing executed");
}

#[test]
fn a_window_naming_a_slot_twice_is_a_task_error_and_publishes_nothing() {
    // Staging the slot twice would write two records under one
    // `(pid, seq)` tag: one descriptor applied twice.
    let (_, _, exec, _) = fixture(&puts(0..1, |_| 7));
    let window = [ShardWindow {
        shard: 0,
        recovery: false,
        slots: vec![0, 0],
    }];
    let why = task_error(exec.execute_window(&window, 0, None));
    assert!(why.contains("slot 0 named twice"), "{why}");
    task_error(exec.parse_args(&KvServeFunction::window_args(&window)));
    assert!(exec.store().contents().unwrap().is_empty(), "no record");
    assert_eq!(exec.tables()[0].pending_slots().unwrap(), vec![0]);
}

#[test]
fn batch_window_group_commits_and_answers_in_one_pass() {
    let ops = puts(0..16, |key| key as i64 + 1);
    let (stripe, main, heap, exec) = sharded_fixture(&ops, 2);
    let registry = exec.registry().unwrap();
    let flights = |shard: usize| stripe.region(shard).stats().snapshot().async_flushes;
    let before = [flights(0), flights(1)];
    on_stack(&main, &heap, &registry, true, |ctx| {
        // One window covering both shards' whole tables.
        let ret = ctx.call(KV_SERVE_FUNC_ID, &whole_tables(&exec, &[0, 1]));
        assert_eq!(
            ret.unwrap(),
            None,
            "a window's product is its durable answers"
        );
        for (s, table) in exec.tables().iter().enumerate() {
            assert!(table.pending_slots().unwrap().is_empty(), "shard {s}");
        }
        assert_eq!(exec.store().contents().unwrap().len(), 16);
        assert_eq!(exec.store().get_durable(3).unwrap(), Some(4));
        // Exactly one group commit per shard, in the window's one
        // level — slots ‖ records ‖ header: three flights a shard — the
        // batches rode the one persistent-stack task.
        assert_eq!([flights(0) - before[0], flights(1) - before[1]], [3, 3]);
        // A replayed window is a no-op: answers are durable.
        let before = exec.store().log_reserved_per_shard().unwrap();
        ctx.call(KV_SERVE_FUNC_ID, &whole_table(&exec, 0)).unwrap();
        assert_eq!(exec.store().log_reserved_per_shard().unwrap(), before);
    });
}

/// Crashes `window` of shard `shard` at every event of the shard's
/// region, reboots the whole system, checks that nothing was
/// published over a lost frame, replays the window through the
/// recover dual, and hands each recovered system to `check`.
fn sweep_window_crash_points(
    ops: &[KvTaskOp],
    shard: usize,
    check: impl Fn(&Cut, &KvServeFunction),
) {
    let setup = || {
        let (stripe, main, heap, exec) = sharded_fixture(ops, 2);
        let args = whole_table(&exec, shard);
        (main, stripe, (heap, exec, args))
    };
    let mut begun_over_a_lost_frame = 0;
    let events = Sweep::new().regions(&[1 + shard]).run(
        setup,
        run_window,
        |(main, stripe, (_, _, args)), cut| {
            // Whole-system failure, then the recovery boot.
            let (heap, exec) = attach_sharded(&main, &stripe);
            // (A returned window popped its frame.)
            let at = cut.to_string();
            if !cut.returned()
                && !published_only_over_a_durable_descriptor(&main, &exec, &args, &at)
            {
                begun_over_a_lost_frame += 1;
            }
            let registry = FunctionRegistry::new();
            on_stack(&main, &heap, &registry, false, |ctx| {
                exec.recover(ctx, &args).unwrap();
            });
            check(cut, &exec);
        },
    );
    assert!(
        events[1 + shard] >= 2,
        "store op + answer persist in the shard region"
    );
    assert!(
        begun_over_a_lost_frame > 0,
        "no cut met the window begun under its CALL's flight"
    );
}

#[test]
fn batch_window_crash_points_recover_exactly_once() {
    // Enumerate every shard-region crash point inside one batch
    // window; the recover dual (evidence scan + recover_batch) must
    // complete each op exactly once from every intermediate state.
    let shard = 0usize;
    sweep_window_crash_points(&puts(0..12, |key| key as i64 + 50), shard, |cut, exec| {
        let table = &exec.tables()[shard];
        assert!(table.pending_slots().unwrap().is_empty(), "{cut}");
        let published: usize = exec.store().snapshot_sharded().unwrap()[shard]
            .iter()
            .map(Vec::len)
            .sum();
        assert_eq!(
            published,
            table.capacity() as usize,
            "{cut}: exactly one record per put"
        );
    });
}

/// One shape of the answers-in-flight sweep: what the tables hold,
/// the windows run to completion before the one under test (shard
/// 0's slots, and which of them are then acked), the window under
/// test — whole tables of `shards` — the shard whose region's events
/// are cut, and the survivor sets each cut is tried under.
struct InFlight<'a> {
    ops: Vec<KvTaskOp>,
    before: &'a [(&'a [u32], &'a [u32])],
    shards: &'a [usize],
    region: usize,
    survivors: &'a [Survivors],
}

/// Whether `result` reports an effect — a record tagged with its
/// request.
fn took_effect(result: KvTaskResult) -> bool {
    match result {
        KvTaskResult::Stored(ok) | KvTaskResult::Deleted(ok) | KvTaskResult::Swapped(ok) => ok,
        KvTaskResult::Got(_) => false,
    }
}

/// `n` distinct keys that shard 0 of two owns.
fn keys_on_shard_0(n: usize) -> Vec<u64> {
    (0..).filter(|&k| shard_of(k, 2) == 0).take(n).collect()
}

#[test]
fn window_crash_points_with_answers_in_flight_never_answer_without_the_effect() {
    // The window's one level: slots ‖ records ‖ header, in every shard
    // the window names. Cut the power at every event of the window in
    // a region, with none, some or all of the dirty lines kept: an
    // answer line may land without its batch — that state is reachable
    // by design, and was never shown — and the reboot must void it; a
    // batch may land without its answers only to be voided too, so a
    // slot left pending has published nothing. After the replay every
    // slot is answered exactly once over its effect; an acked answer,
    // or one a settled window gave, is left alone.
    // Only a lottery keeps an answer line and loses a record line, and
    // only by chance: eight halves on the shapes that must show it.
    let eight_halves = Survivors::halves(8);
    let keys = keys_on_shard_0(3);
    // Shard 0's slot 0 a delete of an absent key — a no-effect
    // answer no replay may re-run: slot 2, in the window under test,
    // puts the key — beside slot 1, a put that gives its batch a
    // span.
    let settled_ops = vec![
        KvTaskOp::Delete { key: keys[0] },
        KvTaskOp::Put {
            key: keys[1],
            value: 1,
        },
        KvTaskOp::Put {
            key: keys[0],
            value: 2,
        },
    ];
    let shapes = [
        // One shard under every lottery, and a window over both
        // shards failing in each of its regions.
        InFlight {
            ops: puts(0..12, |key| key as i64 + 3),
            before: &[],
            shards: &[0],
            region: 0,
            survivors: &eight_halves,
        },
        InFlight {
            ops: puts(0..12, |key| key as i64 + 3),
            before: &[],
            shards: &[0, 1],
            region: 0,
            survivors: &Survivors::EVERY,
        },
        InFlight {
            ops: puts(0..12, |key| key as i64 + 3),
            before: &[],
            shards: &[0, 1],
            region: 1,
            survivors: &Survivors::EVERY,
        },
        // A put, then a cas on its key that fails against it: the
        // no-effect answer goes with its batch.
        InFlight {
            ops: vec![
                KvTaskOp::Put {
                    key: keys[2],
                    value: 5,
                },
                KvTaskOp::Cas {
                    key: keys[2],
                    expected: 7,
                    new: 9,
                },
            ],
            before: &[],
            shards: &[0],
            region: 0,
            survivors: &eight_halves,
        },
        // Slot 0 answered by a settled window and acked: the window
        // under test names it again (a completed window's frame
        // replayed after its client acked).
        InFlight {
            ops: settled_ops.clone(),
            before: &[(&[0, 1], &[0])],
            shards: &[0],
            region: 0,
            survivors: &eight_halves,
        },
        // The same, not acked: a retry named the slot while its
        // first window executed.
        InFlight {
            ops: settled_ops,
            before: &[(&[0, 1], &[])],
            shards: &[0],
            region: 0,
            survivors: &eight_halves,
        },
    ];
    for shape in &shapes {
        // Cuts that left an answer line durable over a lost record.
        let mut answered_over_a_lost_record = 0usize;
        let setup = || {
            let (stripe, main, heap, exec) = sharded_fixture(&shape.ops, 2);
            for &(slots, acked) in shape.before {
                let window = [ShardWindow {
                    shard: 0,
                    recovery: false,
                    slots: slots.to_vec(),
                }];
                exec.execute_window(&window, 0, None).unwrap();
                for &slot in acked {
                    let table = &exec.tables()[0];
                    assert!(table.ack(table.req_id(slot).unwrap()).unwrap());
                }
            }
            let args = whole_tables(&exec, shape.shards);
            (main, stripe, (heap, exec, args))
        };
        // Slots the window under test must leave as they are.
        let settled: Vec<_> = {
            let (_, _, (_, exec, _)) = setup();
            let table = &exec.tables()[0];
            (shape.before.iter().flat_map(|&(slots, _)| slots))
                .map(|&slot| {
                    let answer = table.result(slot).unwrap();
                    (slot, answer, table.recorded_batch(slot).unwrap())
                })
                .collect()
        };
        let armed = [1 + shape.region];
        let sweep = Sweep::new().survivors(shape.survivors).regions(&armed);
        sweep.run(setup, run_window, |(main, stripe, (_, _, args)), cut| {
            let at = format!("window {:?} over {:?}, {cut}", shape.shards, shape.ops[0]);
            let (heap2, exec2) = attach_sharded(&main, &stripe);
            if shape.before.is_empty() && !cut.returned() {
                // (An earlier window left no frame, and a returned one
                // popped its own.)
                published_only_over_a_durable_descriptor(&main, &exec2, &args, &at);
            }
            let store = exec2.store();
            let records = |shard: usize, req_id: u64| {
                let chains = store.snapshot_sharded().unwrap().swap_remove(shard);
                chains.iter().flatten().filter(|r| r.seq == req_id).count()
            };
            let fresh =
                |shard: usize, slot: u32| settled.iter().all(|&(s, ..)| shard != 0 || s != slot);
            // Whether an answer line of the window reached NVRAM while a
            // put of its batch has no record: the batch was not
            // published, and the replay must void that answer.
            let mut voidable = false;
            for &shard in shape.shards {
                let table = &exec2.tables()[shard];
                let (mut answered, mut lost) = (false, false);
                for slot in (0..table.capacity()).filter(|&slot| fresh(shard, slot)) {
                    let n = records(shard, table.req_id(slot).unwrap());
                    assert!(n <= 1, "{at}");
                    lost |= matches!(table.op(slot).unwrap(), KvTaskOp::Put { .. }) && n == 0;
                    match table.recorded_batch(slot).unwrap() {
                        // A record publishes only with the answer its
                        // execution's claim rides, even over a preloaded
                        // descriptor: a pending slot published nothing.
                        None => assert_eq!(n, 0, "{at}: pending over its own record"),
                        Some(_) => answered = true,
                    }
                }
                voidable |= answered && lost;
            }
            answered_over_a_lost_record += usize::from(voidable);

            let registry2 = FunctionRegistry::new();
            on_stack(&main, &heap2, &registry2, false, |ctx| {
                exec2.recover(ctx, &args).unwrap();
            });
            for &shard in shape.shards {
                let table = &exec2.tables()[shard];
                assert!(table.pending_slots().unwrap().is_empty(), "{at}");
                for slot in (0..table.capacity()).filter(|&slot| fresh(shard, slot)) {
                    let req_id = table.req_id(slot).unwrap();
                    let answer = table.result(slot).unwrap().unwrap();
                    let n = records(shard, req_id);
                    assert_eq!(
                        took_effect(answer.result),
                        n == 1,
                        "{at}: shard {shard} slot {slot} answered {answer:?} over {n} records"
                    );
                    if let KvTaskOp::Put { .. } = table.op(slot).unwrap() {
                        assert_eq!(
                            n, 1,
                            "{at}: shard {shard} slot {slot}: answered without its effect"
                        );
                    }
                }
            }
            // A settled answer, acked or not, is neither voided
            // nor re-run: slot 0's delete would now find its key.
            for &(slot, answer, span) in &settled {
                let table = &exec2.tables()[0];
                let now = (
                    table.result(slot).unwrap(),
                    table.recorded_batch(slot).unwrap(),
                );
                assert_eq!(now, (answer, span), "{at}: settled slot {slot} re-run");
                let n = records(0, table.req_id(slot).unwrap());
                assert_eq!(took_effect(answer.unwrap().result), n == 1, "{at}");
            }
        });
        // Only a lottery keeps one line of a level and not another: a
        // shape drawn under eight halves must reach that state.
        if shape.survivors.len() > Survivors::EVERY.len() {
            assert!(
                answered_over_a_lost_record > 0,
                "window over {:?}: no cut kept an answer line over a lost record",
                shape.ops[0]
            );
        }
    }
}

#[test]
fn a_replay_refuses_a_malformed_answer_span() {
    // What an answer records of its batch — its first log slot and that
    // record's stamp word — is read back from NVRAM after a reboot, so a
    // hostile image can hold any words there. A first slot past every
    // generation's log is a typed error; a stamp that no record carries
    // voids the answer, and the replay answers it afresh from the
    // evidence, without a second effect.
    let words = |(first, stamp): (u32, u64)| {
        [
            (first + 1).to_le_bytes().to_vec(),
            stamp.to_le_bytes().to_vec(),
        ]
        .concat()
    };
    let replay_over = |forge: &dyn Fn(u32, u64) -> (u32, u64)| {
        let (pmem, _, exec, _) = fixture(&puts(0..2, |key| key as i64));
        let window = exec.parse_args(&whole_table(&exec, 0)).unwrap();
        exec.execute_window(&window, 0, None).unwrap();
        let table = &exec.tables()[0];
        let (first, stamp) = table.recorded_batch(0).unwrap().unwrap().unwrap();
        assert_eq!(table.recorded_batch(1).unwrap(), Some(Some((first, stamp))));
        // Slot 0's batch words: the first place the table holds them.
        let mut image = [0u8; 3 * 64];
        pmem.read(table.base(), &mut image).unwrap();
        let at = image.windows(12).position(|w| w == words((first, stamp)));
        let off = table.base() + at.unwrap() as u64;
        pmem.write(off, &words(forge(first, stamp))).unwrap();
        pmem.flush(off, 12).unwrap();
        pmem.crash_now(0, 0.0);
        let exec = KvServeFunction::open(&[pmem.reopen().unwrap()], KvVariant::Nsrl).unwrap();
        let mut part = exec.parse_args(&on_shard(0, &[0])).unwrap();
        part[0].recovery = true;
        let replay = exec.execute_window(&part, 0, None);
        (exec, replay)
    };
    match replay_over(&|first, stamp| (first + 64, stamp)).1 {
        Err(PError::CorruptStack(_)) => {}
        other => panic!("a first slot past the log: {other:?}"),
    }
    let (exec, replay) = replay_over(&|first, stamp| (first, stamp ^ 1));
    assert_eq!(
        replay.unwrap().len(),
        1,
        "voided, then answered from the evidence"
    );
    let records = exec.store().snapshot_sharded().unwrap().concat().concat();
    assert_eq!(
        records.iter().filter(|r| r.key == 0).count(),
        1,
        "no second effect"
    );
}

/// A buffered two-shard stripe whose shard 0 holds some live keys —
/// the compaction tests' starting point.
fn compaction_fixture(
    keys: u64,
    value_of: impl Fn(u64) -> i64,
) -> (PMemStripe, PMem, PHeap, ShardedKvStore) {
    let (stripe, main, heap, exec) = sharded_fixture(&[], 2);
    let store = exec.store().clone();
    for (i, key) in (0..keys).filter(|&k| shard_of(k, 2) == 0).enumerate() {
        let op = KvBatchOp::Put {
            pid: 0,
            seq: i as u64 + 1,
            key,
            value: value_of(key),
        };
        store.shard(0).apply_batch(&[op]).unwrap();
    }
    (stripe, main, heap, store)
}

#[test]
fn compaction_task_runs_and_is_idempotent() {
    // Compaction as a persistent-stack task: the call path swaps the
    // generation; a stale request (from_gen already superseded) is a
    // no-op answer, not a second swap.
    let (_stripe, main, heap, store) = compaction_fixture(8, |key| key as i64);
    let registry = registry_of(
        KvCompactFunction::new(store.clone()).into_arc(),
        KV_COMPACT_FUNC_ID,
    );
    on_stack(&main, &heap, &registry, true, |ctx| {
        let want = store.contents().unwrap();
        let ret = ctx
            .call(KV_COMPACT_FUNC_ID, &KvCompactFunction::args_for(0, 0))
            .unwrap()
            .unwrap();
        assert_eq!(ret[0], 9, "compaction answers carry the marker");
        assert_eq!(ret[1], 1, "this execution ran the rewrite");
        assert_eq!(store.generations().unwrap(), vec![1, 0]);
        assert_eq!(store.contents().unwrap(), want);
        // Stale request: evidence short-circuits, no second swap.
        let ret = ctx
            .call(KV_COMPACT_FUNC_ID, &KvCompactFunction::args_for(0, 0))
            .unwrap()
            .unwrap();
        assert_eq!(ret[1], 0, "stale compaction request must not re-run");
        assert_eq!(store.generations().unwrap(), vec![1, 0]);
        // A request from a generation the shard never reached
        // answers without effect — and so does its recover dual,
        // which replays it should its retired pop be lost.
        let future = KvCompactFunction::args_for(0, 7);
        let ret = ctx.call(KV_COMPACT_FUNC_ID, &future).unwrap().unwrap();
        assert_eq!(ret[1], 0);
        let compact = KvCompactFunction::new(store.clone());
        assert_eq!(compact.recover(ctx, &future).unwrap().unwrap(), ret);
        assert_eq!(store.generations().unwrap(), vec![1, 0]);
        // Out-of-range shard is a task error, not a panic.
        assert!(ctx
            .call(KV_COMPACT_FUNC_ID, &KvCompactFunction::args_for(9, 0))
            .is_err());
    });
}

#[test]
fn compaction_task_crash_points_resume_or_safely_abandon() {
    // Crash the compaction task at every persistence event of the
    // shard's region (inside the rewrite, at the root swap); the
    // frame's recovery dual must leave the shard at
    // exactly generation 1 — resumed or redone, never double-swapped
    // — with contents intact.
    let shard = 0usize;
    let args = KvCompactFunction::args_for(shard as u32, 0);
    let setup = || {
        let (stripe, main, heap, store) = compaction_fixture(16, |key| key as i64 + 5);
        (main, stripe, (heap, store))
    };
    let want = setup().2 .1.contents().unwrap();
    let events = Sweep::new().regions(&[1 + shard]).run(
        setup,
        |(main, _, (heap, store))| {
            let f = KvCompactFunction::new(store.clone()).into_arc();
            let registry = registry_of(f, KV_COMPACT_FUNC_ID);
            on_stack(main, heap, &registry, true, |ctx| {
                ctx.call(KV_COMPACT_FUNC_ID, &args)
            })
        },
        |(main, stripe, _), cut| {
            // Whole-system failure, then the recovery dual.
            let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl).unwrap();
            let f = KvCompactFunction::new(store.clone());
            let heap = PHeap::open(main.clone(), POffset::new(HEAP_OFF)).unwrap();
            let registry = FunctionRegistry::new();
            on_stack(&main, &heap, &registry, false, |ctx| {
                let ret = f.recover(ctx, &args).unwrap().unwrap();
                assert_eq!(ret[0], 9);
                assert_eq!(
                    store.shard(shard).generation().unwrap(),
                    1,
                    "{cut}: resumed or redone, never double-swapped"
                );
                assert_eq!(store.contents().unwrap(), want, "{cut}");
                let gens = store.shard(shard).generations().unwrap();
                assert!(gens[0].retired, "{cut}: the old generation is retired");
                // A second recovery pass is a no-op.
                let ret = f.recover(ctx, &args).unwrap().unwrap();
                assert_eq!(ret[1], 0, "{cut}: recovery is idempotent");
            });
        },
    );
    assert!(events[1 + shard] >= 3, "rewrite + swap in the region");
}

#[test]
fn pending_tasks_cover_exactly_the_pending_descriptors() {
    let (_stripe, _main, _heap, exec) = sharded_fixture(&puts(0..10, |_| 1), 2);
    let tables = exec.tables();
    // Complete a descriptor by hand to make the pending sets sparse.
    answer(&tables[0], 0, 0, KvTaskResult::Stored(true));
    let pending_of = |s: usize| tables[s].pending_slots().unwrap();
    assert_ne!(pending_of(0).len(), pending_of(1).len());

    // Task k names every shard's k-th chunk of at most `batch`
    // pending slots (batch <= 1: one slot a shard), as a first
    // execution: every pending slot in exactly one task, and as
    // many tasks as the fullest shard has chunks.
    for batch in [0, 1, 3] {
        let chunk = batch.max(1);
        let tasks = exec.pending_tasks(batch).unwrap();
        let most = pending_of(0).len().max(pending_of(1).len());
        assert_eq!(tasks.len(), most.div_ceil(chunk), "batch {batch}");
        let mut covered = [Vec::new(), Vec::new()];
        for (k, task) in tasks.iter().enumerate() {
            assert_eq!(task.func_id, KV_SERVE_FUNC_ID);
            for part in exec.parse_args(&task.args).unwrap() {
                let s = part.shard as usize;
                let want = pending_of(s).chunks(chunk).nth(k).unwrap().to_vec();
                assert_eq!((part.recovery, &part.slots), (false, &want), "task {k}");
                covered[s].extend(part.slots);
            }
        }
        for (s, covered) in covered.iter().enumerate() {
            assert_eq!(*covered, pending_of(s), "batch {batch} shard {s}");
        }
    }
    // A drained table contributes nothing.
    for (s, table) in tables.iter().enumerate() {
        for slot in pending_of(s) {
            answer(table, slot, 0, KvTaskResult::Stored(true));
        }
    }
    assert!(exec.pending_tasks(3).unwrap().is_empty());
}

#[test]
fn sharded_crash_between_store_op_and_mark_done_recovers_once() {
    // The §5.2 window, per shard: the shard's head CAS landed but
    // the answer in the shard's table never persisted. Recovery
    // must find the chain evidence inside that shard alone.
    let shard = shard_of(3, 2);
    sweep_window_crash_points(
        &[KvTaskOp::Put { key: 3, value: 33 }],
        shard,
        |cut, exec| {
            assert_eq!(exec.store().get(3).unwrap(), Some(33), "{cut}");
            let published: usize = exec
                .store()
                .snapshot_sharded()
                .unwrap()
                .iter()
                .flatten()
                .map(Vec::len)
                .sum();
            assert_eq!(published, 1, "{cut}: exactly one record");
            assert_eq!(
                results_of(&exec.tables()[shard]),
                vec![Some(KvTaskResult::Stored(true))]
            );
        },
    );
}

#[test]
fn crash_between_store_op_and_mark_done_recovers_exactly_once() {
    // The critical §5.2-style window: the head CAS landed but the
    // answer never persisted. Recovery must find the chain evidence
    // and not double-apply. Stack, store and table share one region
    // here, so the sweep also crosses the frame's own persists.
    let args = on_shard(0, &[0]);
    // The stack is formatted before the sweep counts: it covers the
    // call, not the fixture.
    let setup = || {
        let (pmem, heap, exec, stack) = fixture(&[KvTaskOp::Put { key: 3, value: 33 }]);
        let registry = exec.registry().unwrap();
        let stack = FixedStack::format(pmem.clone(), stack, STACK_LEN as u64).unwrap();
        (pmem, (heap, registry, stack))
    };
    sweep(
        setup,
        |(pmem, (heap, registry, stack))| {
            let mut ctx = PContext::new(
                pmem.clone(),
                heap.clone(),
                registry,
                stack,
                0,
                POffset::new(64),
            );
            ctx.call(KV_SERVE_FUNC_ID, &args)
        },
        |(pmem, (_, _, stack)), cut| {
            let exec = KvServeFunction::open(std::slice::from_ref(&pmem), KvVariant::Nsrl).unwrap();
            let registry = exec.registry().unwrap();
            let heap = exec.store().heap(0);
            on_stack_at(&pmem, stack.base(), heap, &registry, false, |ctx| {
                pstack_core::recover_stack(ctx).unwrap();
            });
            let (store, table) = (exec.store().shard(0), &exec.tables()[0]);
            // Whether or not the operation linearized before the crash,
            // the key holds the value at most once in the published log;
            // if the descriptor is marked done, exactly once.
            let published: usize = store.snapshot().unwrap().iter().map(Vec::len).sum();
            assert!(published <= 1, "{cut}: duplicate record");
            if let Some(ans) = table.result(0).unwrap() {
                assert_eq!(ans.result, KvTaskResult::Stored(true));
                assert_eq!(published, 1, "{cut}: answer without record");
                assert_eq!(store.get(3).unwrap(), Some(33));
            }
        },
    );
}

#[test]
fn an_answer_from_before_a_compaction_still_counts_after_a_reboot() {
    // An answer records its batch's first log slot in the generation
    // that was active then. A compaction retires that generation, and a
    // reboot's check looks for the batch there, below that generation's
    // tail: the shown answers — a put's and a failed cas's — still
    // count, and nothing runs again.
    let ops = [
        KvTaskOp::Put { key: 1, value: 10 },
        KvTaskOp::Cas {
            key: 1,
            expected: 7,
            new: 11,
        },
    ];
    let (pmem, _, exec, _) = fixture(&ops);
    let window = exec.parse_args(&whole_table(&exec, 0)).unwrap();
    exec.execute_window(&window, 0, None).unwrap();
    exec.store().compact_shard(0).unwrap();
    assert_eq!(exec.store().shard(0).generation().unwrap(), 1);
    pmem.crash_now(0, 0.0);
    let exec = KvServeFunction::open(&[pmem.reopen().unwrap()], KvVariant::Nsrl).unwrap();
    let events = pmem_events(&exec);
    assert_eq!(
        results_of(&exec.tables()[0]),
        [
            Some(KvTaskResult::Stored(true)),
            Some(KvTaskResult::Swapped(false))
        ]
    );
    assert_eq!(
        pmem_events(&exec),
        events,
        "both counted: nothing taken back"
    );
    let replay = exec.execute_window(&window, 0, None).unwrap();
    assert_eq!(replay.len(), 2, "re-collected, not run again");
    assert_eq!(exec.store().get(1).unwrap(), Some(10));
}

/// Persistence events of the one shard's region so far.
fn pmem_events(exec: &KvServeFunction) -> u64 {
    exec.store().heap(0).pmem().events()
}
