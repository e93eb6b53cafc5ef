//! Workspace-wiring smoke test: exercises the `pstack` facade's
//! re-exports end-to-end, so a broken manifest, a missing re-export or
//! cross-crate API drift fails here before anything subtler does.
//!
//! Every layer is reached exclusively through `pstack::*` paths — the
//! way downstream users see the workspace — never through the
//! underlying `pstack_*` crates directly.

use pstack::core::{FunctionRegistry, RecoveryMode, Runtime, RuntimeConfig, Task};
use pstack::nvram::{PMemBuilder, POffset};

const STORE: u64 = 1;

fn registry() -> FunctionRegistry {
    let mut registry = FunctionRegistry::new();
    let store = |ctx: &mut pstack::core::PContext<'_>, args: &[u8]| {
        let val = u64::from_le_bytes(args[..8].try_into().expect("8-byte argument"));
        let slot = ctx.user_root() + val * 8;
        ctx.pmem.write_u64(slot, val * val)?;
        ctx.pmem.flush(slot, 8)?;
        Ok(None)
    };
    registry
        .register_pair(STORE, store, store)
        .expect("function registers");
    registry
}

/// The quickstart path: build a region, format a runtime, run tasks,
/// read the persisted effects back, and confirm a clean recovery pass.
#[test]
fn facade_quickstart_round_trip() {
    let registry = registry();
    let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
    let runtime =
        Runtime::format(pmem.clone(), RuntimeConfig::new(2), &registry).expect("format succeeds");

    let tasks: Vec<Task> = (0..16u64)
        .map(|i| Task::new(STORE, i.to_le_bytes().to_vec()))
        .collect();
    let report = runtime.run_tasks(tasks);
    assert_eq!(report.completed, 16, "all tasks complete without crashes");
    assert!(!report.crashed);

    // Effects persisted through the facade's nvram paths.
    let user_root = runtime.user_root().expect("user root resolves");
    for i in 0..16u64 {
        assert_eq!(
            pmem.read_u64(user_root + i * 8).expect("read back"),
            i * i,
            "slot {i} holds i²"
        );
    }

    // Emulate a power cut after quiescence: every flushed line
    // survives (probability 1), and recovery finds no in-flight frames.
    pmem.crash_now(0, 1.0);
    let reopened = pmem.reopen().expect("image reopens");
    let runtime = Runtime::open(reopened, &registry).expect("open succeeds");
    let recovery = runtime
        .recover(RecoveryMode::Parallel)
        .expect("recovery runs");
    assert_eq!(recovery.total_frames(), 0);
}

/// The heap layer through the facade: format, allocate, free.
#[test]
fn facade_heap_allocates() {
    let pmem = PMemBuilder::new().len(1 << 20).build_in_memory();
    let heap = pstack::heap::PHeap::format(pmem, POffset::new(4096), (1 << 20) - 4096)
        .expect("heap formats");
    let block = heap.alloc(256).expect("alloc succeeds");
    heap.free(block).expect("free succeeds");
}

/// The verify layer through the facade: a trivial serializable history.
#[test]
fn facade_verifier_accepts_serial_history() {
    use pstack::verify::{check_serializability, CasHistory, CasOp};

    let history = CasHistory::new(
        0,
        2,
        vec![
            CasOp {
                pid: 0,
                old: 0,
                new: 1,
                success: true,
            },
            CasOp {
                pid: 0,
                old: 1,
                new: 2,
                success: true,
            },
        ],
    );
    assert!(check_serializability(&history).is_serializable());
}

/// The chaos + recoverable layers through the facade: a small seeded
/// in-process crash campaign must terminate and verify serializable.
#[test]
fn facade_campaign_is_serializable() {
    let cfg = pstack::chaos::CampaignConfig::wide(24, 7);
    let report = pstack::chaos::run_campaign(&cfg).expect("campaign completes");
    assert!(report.rounds >= 1);
    assert!(
        report.is_consistent(),
        "correct NSRL CAS must stay serializable under crashes"
    );
}

/// The kv + chaos + verify layers through the facade: store operations
/// round-trip, and a small seeded KV crash campaign verifies
/// linearizable against the sequential spec.
#[test]
fn facade_kv_store_and_campaign() {
    use pstack::kv::{KvApplied, KvBatchOp, KvVariant, PKvStore};

    let pmem = PMemBuilder::new().len(1 << 16).build_in_memory();
    let heap =
        pstack::heap::PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).expect("heap formats");
    let kv = PKvStore::format(pmem, &heap, 8, 32, KvVariant::Nsrl).expect("store formats");
    let put = KvBatchOp::Put {
        pid: 0,
        seq: 1,
        key: 9,
        value: 90,
    };
    assert_eq!(kv.apply_batch(&[put]).expect("put"), [KvApplied::Applied]);
    assert_eq!(kv.get(9).expect("get"), Some(90));
    let delete = KvBatchOp::Delete {
        pid: 0,
        seq: 2,
        key: 9,
    };
    assert_eq!(
        kv.apply_batch(&[delete]).expect("delete"),
        [KvApplied::Applied]
    );

    let kv = pstack::chaos::Workload::Kv(pstack::chaos::KvWorkload::default());
    let cfg = pstack::chaos::CampaignConfig::new(kv, 24, 7);
    let report = pstack::chaos::run_campaign(&cfg).expect("campaign completes");
    assert!(report.rounds >= 1);
    assert!(
        report.is_consistent(),
        "correct KV store must stay linearizable under crashes"
    );
    assert!(report.log_had_headroom());
}

/// The sharded scaling layer through the facade: a striped store with
/// a group-committed cross-shard batch, and a small sharded crash
/// campaign with kills inside batch windows.
#[test]
fn facade_sharded_kv_store_and_campaign() {
    use pstack::kv::{KvVariant, ShardedKvStore};

    let stripe = PMemBuilder::new().len(1 << 17).build_striped(2);
    let kv =
        ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).expect("store formats");
    let mut batch = kv.batch();
    for key in 0..16u64 {
        batch.put(0, key + 1, key, key as i64);
    }
    assert!(batch
        .commit()
        .expect("commit")
        .iter()
        .all(|o| o.took_effect()));
    assert_eq!(kv.contents().expect("contents").len(), 16);

    let kv = pstack::chaos::KvWorkload {
        shards: 4,
        ..pstack::chaos::KvWorkload::default()
    };
    let cfg = pstack::chaos::CampaignConfig::new(pstack::chaos::Workload::Kv(kv), 32, 7);
    let report = pstack::chaos::run_campaign(&cfg).expect("campaign completes");
    assert!(
        report.is_consistent(),
        "sharded store must stay linearizable under batch-window kills"
    );
    assert_eq!(report.log_usage.len(), 4);
}
