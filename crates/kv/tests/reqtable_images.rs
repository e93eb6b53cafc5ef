//! Every byte of a request table's image, flipped: a typed error or a
//! consistent state, never a panic or a hang.
//!
//! The image is a one-shard served store whose four-slot table holds
//! a marked slot (answered and acked), a pinned one (answered, its
//! client gone quiet), a pending one (its descriptor persisted, never
//! executed) and a free one, the pinned slot's batch the newest in the
//! log. Each used byte of the table — its header and its slots — is
//! flipped with 0x01, 0x80 and 0xff, and each case, on a thread of its
//! own under a timeout, boots the shard the way the server does
//! (`ShardedKvStore::open`, whose replay checks the newest batch's
//! claims against the table, then `KvRequestTable::open` and
//! `KvServeFunction::new`), looks every request up, retries each and
//! admits a new one, runs every pending slot through a window, and
//! checks that the store's witness walks and that every request the
//! table holds is answered.

use std::sync::mpsc;
use std::time::Duration;

use pstack_core::PError;
use pstack_kv::{
    KvRequestTable, KvServeFunction, KvTaskOp, KvVariant, ReqSubmit, ShardWindow, ShardedKvStore,
};
use pstack_nvram::{PMem, PMemBuilder, POffset};

const REGION_LEN: usize = 1 << 15;
const CASE_TIMEOUT: Duration = Duration::from_secs(20);
const MASKS: [u8; 3] = [0x01, 0x80, 0xff];
/// Where a served shard root records its request table's base.
const TABLE_ROOT: u64 = 48;

fn id(client: u32, seq: u32) -> u64 {
    (u64::from(client) << 32) | u64::from(seq)
}

fn put(key: u64) -> KvTaskOp {
    KvTaskOp::Put {
        key,
        value: key as i64,
    }
}

/// The served image, and its table's base.
fn image() -> (Vec<u8>, POffset) {
    let pmem = PMemBuilder::new().len(REGION_LEN).build_in_memory();
    let store =
        ShardedKvStore::format(std::slice::from_ref(&pmem), 8, 64, KvVariant::Nsrl).unwrap();
    let exec = KvServeFunction::format(store, 4).unwrap();
    let table = &exec.tables()[0];
    let run = |req_id: u64, key: u64| {
        let ReqSubmit::Fresh(slot) = table.submit(req_id, put(key)).unwrap() else {
            panic!("fresh")
        };
        let part = ShardWindow {
            shard: 0,
            recovery: false,
            slots: vec![slot],
        };
        exec.execute_window(&[part], 1, None).unwrap();
    };
    run(id(1, 1), 1);
    assert!(table.ack(id(1, 1)).unwrap(), "marked");
    run(id(2, 1), 2); // pinned at the next open: no mark, no later request
    let ReqSubmit::Fresh(pending) = table.submit(id(3, 1), put(3)).unwrap() else {
        panic!("fresh")
    };
    table.persist_slots(&[pending]).unwrap();
    pmem.fence();
    let mut b = vec![0u8; REGION_LEN];
    pmem.read(POffset::new(0), &mut b).unwrap();
    (b, table.base())
}

/// Boots the shard of `image` and drives its table (see the module doc).
fn drive(image: &[u8]) -> Result<(), PError> {
    let pmem = PMemBuilder::new().len(image.len()).build_in_memory();
    pmem.write(POffset::new(0), image)?;
    let store = ShardedKvStore::open(std::slice::from_ref(&pmem), KvVariant::Nsrl)?;
    let base = POffset::new(pmem.read_u64(POffset::new(TABLE_ROOT))?);
    let exec = KvServeFunction::new(store, vec![KvRequestTable::open(pmem.clone(), base)?]);
    let table = &exec.tables()[0];
    let known = [(id(1, 1), 1), (id(2, 1), 2), (id(3, 1), 3), (id(4, 1), 4)];
    for &(req_id, _) in &known {
        table.lookup(req_id)?;
    }
    for &(req_id, key) in &known {
        table.submit(req_id, put(key))?;
    }
    let part = ShardWindow {
        shard: 0,
        recovery: true,
        slots: table.pending_slots()?,
    };
    exec.execute_window(&[part], 2, None)?;
    // Consistent: the store's witness walks, and every request the
    // table still holds is answered. (A slot line carries no checksum: a
    // flipped request id or claim can give an answer to the wrong
    // request, which no reader can tell.)
    exec.store().snapshot_sharded()?;
    for slot in 0..table.capacity() {
        if table.req_id(slot)? != 0 {
            assert!(table.result(slot)?.is_some(), "slot {slot} left pending");
        }
    }
    Ok(())
}

#[derive(Debug, Default)]
struct Tally {
    opened: usize,
    typed: usize,
    panics: Vec<String>,
}

#[test]
fn every_byte_of_a_request_table_flipped_opens_or_fails_typed() {
    let (image, base) = image();
    drive(&image).expect("the uncorrupted image drives");
    let used = base.get() as usize..base.get() as usize + KvRequestTable::required_len(4);
    let mut tally = Tally::default();
    for at in used {
        for mask in MASKS {
            let mut flipped = image.clone();
            flipped[at] ^= mask;
            let (tx, rx) = mpsc::channel();
            let case = std::thread::spawn(move || {
                let _ = tx.send(drive(&flipped));
            });
            match rx.recv_timeout(CASE_TIMEOUT) {
                Ok(Ok(())) => tally.opened += 1,
                Ok(Err(e)) => {
                    assert!(!e.is_crash(), "byte {at} ^ {mask:#04x}: {e}");
                    tally.typed += 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("byte {at} ^ {mask:#04x} hangs")
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {}
            }
            if let Err(payload) = case.join() {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                tally
                    .panics
                    .push(format!("byte {at} ^ {mask:#04x}: {message}"));
            }
        }
    }
    println!(
        "request table: {} cases, {} opened, {} typed errors, {} panics, 0 timeouts",
        tally.opened + tally.typed + tally.panics.len(),
        tally.opened,
        tally.typed,
        tally.panics.len()
    );
    assert!(
        tally.panics.is_empty(),
        "{} cases panic: {:#?}",
        tally.panics.len(),
        tally.panics
    );
    assert!(tally.opened > 0 && tally.typed > 0, "{tally:?}");
}

/// The pinned slot's batch is the newest in the log, so every boot of
/// the image checks its claim.
#[test]
fn the_image_holds_every_slot_state() {
    let (image, base) = image();
    let pmem: PMem = PMemBuilder::new().len(image.len()).build_in_memory();
    pmem.write(POffset::new(0), &image).unwrap();
    let table = KvRequestTable::open(pmem, base).unwrap();
    assert!(table.acked(0).unwrap(), "slot 0 marked");
    assert!(
        table.result(1).unwrap().is_some() && !table.acked(1).unwrap(),
        "slot 1 pinned"
    );
    assert_eq!(table.pending_slots().unwrap(), vec![2], "slot 2 pending");
    assert_eq!(table.req_id(3).unwrap(), 0, "slot 3 free");
}
