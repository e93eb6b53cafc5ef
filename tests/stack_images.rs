//! Every byte of a persistent stack's image flipped. Each layout's
//! image — a popped frame's completion in its caller's slot, a list of
//! three or more blocks, an array relocated at least once — and the
//! runtime superblock over each layout are corrupted one byte at a
//! time with the masks `0x01`, `0x80` and `0xff`, over every byte the
//! image uses. Each corrupted image is opened and driven: every frame
//! and return slot read, the stack checked, one push and one pop, the
//! stack checked again. Every case must end in a typed error or a
//! consistent stack — never a panic, never a hang: each runs on a
//! thread of its own under a timeout. Run with `--nocapture` to see
//! each image's tally.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use pstack::core::{
    FunctionRegistry, ListStack, PError, PersistentStack, ReturnSlot, Runtime, RuntimeConfig,
    StackKind, VecStack,
};
use pstack::heap::PHeap;
use pstack::nvram::{PMem, PMemBuilder, POffset};

const MASKS: [u8; 3] = [0x01, 0x80, 0xff];

/// A case slower than this hangs.
const CASE_TIMEOUT: Duration = Duration::from_secs(20);

/// A stack's region: its fixed region or header at 0, a heap above.
const REGION: usize = 8 * 1024;
const HEAP_BASE: u64 = 1024;
/// A fixed stack's capacity: the whole area below the heap.
const FIXED_CAPACITY: u64 = HEAP_BASE;

/// A runtime's region: superblock, two workers' stacks and the heap.
const RUNTIME_REGION: usize = 16 * 1024;

type Drive = Arc<dyn Fn(&[u8]) -> Result<(), PError> + Send + Sync>;

/// How a sweep's cases ended.
#[derive(Debug, Default)]
struct Tally {
    ok: usize,
    typed: usize,
    panics: Vec<String>,
}

/// Reads every frame and return slot, checks the stack, pushes and
/// pops once and checks it again.
fn exercise(stack: &mut dyn PersistentStack) -> Result<(), PError> {
    for index in 0..stack.frame_count() {
        stack.frame_record(index)?;
        stack.ret(index)?;
    }
    stack.check_consistency()?;
    stack.push(7, b"pushed")?;
    stack.pop()?;
    stack.check_consistency()
}

/// A fresh region holding `image`.
fn region(image: &[u8]) -> Result<PMem, PError> {
    let pmem = PMemBuilder::new().len(image.len()).build_in_memory();
    pmem.write(POffset::new(0), image)?;
    Ok(pmem)
}

/// Opens the `kind` stack of a [`REGION`] image and drives it.
fn drive_stack(kind: StackKind) -> Drive {
    Arc::new(move |image| {
        let pmem = region(image)?;
        let heap = PHeap::open(pmem.clone(), POffset::new(HEAP_BASE))?;
        let mut stack = kind.open(&pmem, &heap, POffset::new(0), FIXED_CAPACITY)?;
        exercise(stack.as_mut())
    })
}

/// Opens a runtime image and drives every worker's stack; never
/// recovers.
fn drive_runtime() -> Drive {
    Arc::new(|image| {
        let rt = Runtime::open(region(image)?, &FunctionRegistry::new())?;
        for pid in 0..rt.workers() {
            exercise(rt.open_stack(pid)?.as_mut())?;
        }
        Ok(())
    })
}

/// Runs `drive` on `image` with each byte of `used` flipped by each
/// mask, each case on a thread of its own.
fn flip_every_byte(name: &str, image: &[u8], used: std::ops::Range<usize>, drive: &Drive) {
    assert!(drive(image).is_ok(), "{name}: the uncorrupted image drives");
    let mut tally = Tally::default();
    for at in used {
        for mask in MASKS {
            let mut flipped = image.to_vec();
            flipped[at] ^= mask;
            let (tx, rx) = mpsc::channel();
            let drive = Arc::clone(drive);
            let case = std::thread::spawn(move || {
                let _ = tx.send(drive(&flipped));
            });
            match rx.recv_timeout(CASE_TIMEOUT) {
                Ok(Ok(())) => tally.ok += 1,
                Ok(Err(_)) => tally.typed += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("{name}: byte {at} ^ {mask:#04x} hangs")
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
        "{name}: {} cases, {} ok, {} typed errors, {} panics",
        tally.ok + tally.typed + tally.panics.len(),
        tally.ok,
        tally.typed,
        tally.panics.len()
    );
    assert!(
        tally.panics.is_empty(),
        "{name}: {} cases panic: {:#?}",
        tally.panics.len(),
        tally.panics
    );
    assert!(tally.ok > 0 && tally.typed > 0, "{name}: {tally:?}");
}

/// The bytes `[0, end)` of `pmem` up to its last non-zero byte below
/// `limit`, and the whole image.
fn snapshot(pmem: &PMem, limit: usize) -> (Vec<u8>, std::ops::Range<usize>) {
    let image = pmem.read_vec(POffset::new(0), pmem.len()).unwrap();
    let end = image[..limit].iter().rposition(|&b| b != 0).unwrap() + 1;
    (image, 0..end)
}

/// A fresh [`REGION`] with its heap.
fn fresh() -> (PMem, PHeap) {
    let pmem = PMemBuilder::new().len(REGION).build_in_memory();
    let heap = PHeap::format(
        pmem.clone(),
        POffset::new(HEAP_BASE),
        REGION as u64 - HEAP_BASE,
    )
    .unwrap();
    (pmem, heap)
}

/// Four frames pushed and the top one popped with a completion.
fn push_and_return(stack: &mut dyn PersistentStack, args: usize) {
    for func_id in 1..=4u64 {
        stack.push(func_id, &vec![func_id as u8; args]).unwrap();
    }
    stack
        .pop_with(Some(ReturnSlot::Value(*b"returned")))
        .unwrap();
    assert_eq!(stack.ret(3).unwrap(), ReturnSlot::Value(*b"returned"));
}

#[test]
fn a_fixed_stack_image_flipped_anywhere_opens_typed_or_consistent() {
    let (pmem, heap) = fresh();
    let mut stack = StackKind::Fixed
        .format(&pmem, &heap, POffset::new(0), FIXED_CAPACITY)
        .unwrap();
    push_and_return(stack.as_mut(), 12);
    let (image, used) = snapshot(&pmem, FIXED_CAPACITY as usize);
    flip_every_byte("fixed", &image, used, &drive_stack(StackKind::Fixed));
}

#[test]
fn a_relocated_vec_stack_image_flipped_anywhere_opens_typed_or_consistent() {
    let (pmem, heap) = fresh();
    let mut stack = VecStack::format(pmem.clone(), heap, POffset::new(0), 64).unwrap();
    push_and_return(&mut stack, 24);
    assert!(stack.relocations() > 0);
    let (image, used) = snapshot(&pmem, REGION);
    flip_every_byte("vec", &image, used, &drive_stack(StackKind::Vec));
}

#[test]
fn a_list_stack_image_of_three_blocks_flipped_anywhere_opens_typed_or_consistent() {
    let (pmem, heap) = fresh();
    let mut stack = ListStack::format(pmem.clone(), heap, POffset::new(0), 96).unwrap();
    push_and_return(&mut stack, 24);
    assert!(stack.block_count() >= 3, "{} blocks", stack.block_count());
    let (image, used) = snapshot(&pmem, REGION);
    flip_every_byte("list", &image, used, &drive_stack(StackKind::List));
}

#[test]
fn a_runtime_superblock_flipped_anywhere_opens_typed_or_consistent() {
    for kind in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
        let pmem = PMemBuilder::new().len(RUNTIME_REGION).build_in_memory();
        let cfg = RuntimeConfig::new(2).stack_kind(kind).stack_capacity(1024);
        let rt = Runtime::format(pmem.clone(), cfg, &FunctionRegistry::new()).unwrap();
        for pid in 0..2 {
            push_and_return(rt.open_stack(pid).unwrap().as_mut(), 8);
        }
        let image = pmem.read_vec(POffset::new(0), RUNTIME_REGION).unwrap();
        let name = format!("{kind} runtime superblock");
        flip_every_byte(&name, &image, 0..64, &drive_runtime());
    }
}
