//! What a reboot costs, as **equalities**: the reads and persists of
//! each boot step of a served, two-shard system, at two named cuts.
//!
//! The boot runs the benchmark's path: every region reopened, then
//! `ShardedKvStore::open` (per shard: the root, the active generation,
//! the header, the replay of `[C, tail)` in one read, one read of each
//! replayed record's bucket head, the newest batch's claim check — the
//! shard root's table word, the table's header and the span of the
//! slots its records name — one read of the slots past the tail, and
//! one of the bucket array, which builds the volatile index),
//! `KvRequestTable::open` (the header, then one read per slot),
//! `KvServeFunction::new` and `ServerCore::new`; then the clients'
//! retries, whose answers are checked once each against their batch
//! (one read of the batch's first record, none of a pending slot).
//!
//! - **mid-level**: the power fails as round 2's level is issued in
//!   shard 0 and nothing of it lands. Its records are not past the
//!   tail, so the epoch stays: the boot persists nothing.
//! - **after the level**: round 2 returned, then the power failed
//!   before any further commit. The boot replays round 2's batches —
//!   the newest, checked against their slots — and rebuilds their heads
//!   in volatile memory for the next commit: it persists nothing.
//!
//! A change that makes a boot read every slot's answer, or every
//! answer's batch, or persist the epoch on every shard, fails here
//! before it reaches the benchmark's `crash_c4_rw50`.

mod common;

use common::{Shape, Stack};
use pstack_core::RecoveryMode;
use pstack_kv::{KvRequestTable, KvTaskOp, KvTaskResult, KvVariant, ShardedKvStore};
use pstack_nvram::{FailPlan, POffset, StatsSnapshot};
use pstack_server::proto::req_id_for;
use pstack_server::{KvServeFunction, ServerCore, Submission};

const SHAPE: Shape = Shape {
    shards: 2,
    table_cap: 8,
    queue_cap: 8,
    batch: 8,
};

/// Where a served shard root records its request table's base.
const TABLE_ROOT: u64 = 48;

fn round(s: &Stack, n: u32) -> Vec<(u64, KvTaskOp)> {
    (0..SHAPE.shards)
        .map(|shard| {
            let key = s.key_on(shard, n as usize);
            let req_id = req_id_for(shard as u32 + 1, n);
            (
                req_id,
                KvTaskOp::Put {
                    key,
                    value: i64::from(n),
                },
            )
        })
        .collect()
}

/// Reads and persists, summed over the shard regions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Cost {
    reads: u64,
    persists: u64,
}

impl Cost {
    fn of(before: StatsSnapshot, after: StatsSnapshot) -> Cost {
        let d = after - before;
        Cost {
            reads: d.reads,
            persists: d.persists,
        }
    }
}

/// The boot's steps, each measured on the shard regions: store open,
/// table open, the stacks' replay (the window frame left on the stack
/// re-collects its answers, each checked once) and the clients' retries
/// of round 2.
#[derive(Debug, PartialEq, Eq)]
struct Boot {
    store_open: Cost,
    table_open: Cost,
    replay: Cost,
    retries: Cost,
}

/// Reboots `s` the benchmark's way, measuring each step, then retries
/// round 2's requests at admission (an answered one is shown from its
/// slot, a pending one queued).
fn boot(s: Stack, new: &[(u64, KvTaskOp)]) -> (Boot, Vec<Submission>) {
    s.rt.crash_all(0, 0.0);
    let (mut store_open, mut table_open) = (Cost::default(), Cost::default());
    let mut attached = None;
    let rt =
        s.rt.reopen_all_with(|_, stripe| {
            let t0 = stripe.aggregate_stats();
            let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl)?;
            let t1 = stripe.aggregate_stats();
            let mut tables = Vec::new();
            for region in stripe.regions() {
                let base = region.read_u64(POffset::new(TABLE_ROOT))?;
                tables.push(KvRequestTable::open(region.clone(), POffset::new(base))?);
            }
            // (The table base is the benchmark's read, not the table's.)
            let t2 = stripe.aggregate_stats();
            store_open = Cost::of(t0, t1);
            table_open = Cost::of(t1, t2);
            table_open.reads -= stripe.len() as u64;
            attached
                .insert(KvServeFunction::new(store, tables))
                .registry()
        })
        .unwrap();
    let core = ServerCore::new(attached.unwrap(), SHAPE.queue_cap, SHAPE.batch);
    let t2 = rt.stripe().aggregate_stats();
    let report = rt
        .recover_with(RecoveryMode::Serial, |_, _| Ok(()))
        .unwrap();
    assert_eq!(report.total_frames(), 1, "one window frame");
    let t3 = rt.stripe().aggregate_stats();
    let replay = Cost::of(t2, t3);
    let submitted = new
        .iter()
        .map(|&(req_id, op)| core.submit(req_id, op).unwrap())
        .collect();
    let retries = Cost::of(t3, rt.stripe().aggregate_stats());
    let boot = Boot {
        store_open,
        table_open,
        replay,
        retries,
    };
    (boot, submitted)
}

/// Round 1 served and acked on both shards; the stack ready for round 2.
fn primed() -> Stack {
    let s = Stack::format(SHAPE);
    s.serve(&round(&s, 1)).unwrap();
    s
}

#[test]
fn a_boot_mid_level_reads_its_steps_and_persists_nothing() {
    // Shard 0's events in round 2, counted on a twin: the window's last
    // is its one head flip, after the level; the one before it stages
    // the level's last line.
    let probe = primed();
    let new = round(&probe, 2);
    let e0 = probe.region(0).events();
    probe.serve(&new).unwrap();
    let acks = 1; // the ack round's mark write on shard 0
    let round_events = probe.region(0).events() - e0 - 2 * acks;

    let s = primed();
    s.region(0)
        .arm_failpoint(FailPlan::after_events(round_events - 2));
    assert!(s.serve(&new).is_none(), "the power failed mid-level");
    let (boot, submitted) = boot(s, &new);
    assert_eq!(
        boot,
        Boot {
            // Per shard: 31 reads to open the shard root, its heap and
            // its store; of the replay, 1 for [C, tail) — round 1's
            // one-record batch — 1 for its head, 4 for its claim check
            // (the table word, the table's magic and slot count, the
            // slots' span) and 1 past the tail; then 1 for the bucket
            // array the index is built from.
            store_open: Cost {
                reads: 2 * (31 + 1 + 1 + 4 + 1 + 1),
                persists: 0
            },
            // Per shard: the table's magic and slot count, and its 8
            // slots.
            table_open: Cost {
                reads: 2 * (2 + 8),
                persists: 0
            },
            // Round 2's CALL was lost with its level: round 1's frame
            // replays, and re-collects each shard's slot 0: its request
            // id (1), its answer (4) and the answer's check (the batch
            // words, 2, and the batch's first record, 1).
            replay: Cost {
                reads: 2 * (1 + 4 + 3),
                persists: 0
            },
            // Round 2's descriptors never landed: each retry is fresh,
            // and reads the slot's old request id.
            retries: Cost {
                reads: 2,
                persists: 0
            },
        }
    );
    assert!(submitted.iter().all(|&s| s == Submission::Queued));
}

#[test]
fn a_boot_after_the_level_reads_its_steps_and_persists_nothing() {
    let s = primed();
    let new = round(&s, 2);
    let answers = s.serve(&new).unwrap();
    assert!(answers
        .iter()
        .all(|a| a.result == KvTaskResult::Stored(true)));
    let (boot, submitted) = boot(s, &new);
    assert_eq!(
        boot,
        Boot {
            // Per shard: as mid-level, with round 2's batch at L and
            // round 1's before it replayed: one head more.
            store_open: Cost {
                reads: 2 * (31 + 1 + 2 + 4 + 1 + 1),
                persists: 0
            },
            table_open: Cost {
                reads: 2 * (2 + 8),
                persists: 0
            },
            // Round 2's frame replays and re-collects its answers, each
            // checked once.
            replay: Cost {
                reads: 2 * (1 + 4 + 3),
                persists: 0
            },
            // Each retry is answered from its slot, checked already.
            retries: Cost {
                reads: 2 * 4,
                persists: 0
            },
        }
    );
    assert!(submitted
        .iter()
        .all(|s| matches!(s, Submission::Answered(_))));
}
