//! Property tests for the NVRAM substrate itself: the volatile-cache /
//! persistent-image split against a shadow model, across random
//! write/flush/persist-store/persist-load/crash interleavings.

use std::collections::HashSet;

use proptest::prelude::*;

use pstack::nvram::{PMemBuilder, POffset};

const LEN: usize = 4096;
const LINE: usize = 64;

#[derive(Debug, Clone)]
enum Op {
    Write {
        off: usize,
        len: usize,
        byte: u8,
    },
    Flush {
        off: usize,
        len: usize,
    },
    Fence,
    /// `write_persist`: a write, then a flush of its lines.
    PersistStore {
        off: usize,
        len: usize,
        byte: u8,
    },
    /// `read_persist`: a read, then a flush of the lines read.
    PersistLoad {
        off: usize,
        len: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..LEN, 1usize..200, any::<u8>()).prop_map(|(off, len, byte)| Op::Write {
            off: off.min(LEN - 1),
            len,
            byte,
        }),
        3 => (0usize..LEN, 1usize..400).prop_map(|(off, len)| Op::Flush {
            off: off.min(LEN - 1),
            len,
        }),
        1 => Just(Op::Fence),
        2 => (0usize..LEN, 1usize..200, any::<u8>()).prop_map(|(off, len, byte)| {
            Op::PersistStore { off: off.min(LEN - 1), len, byte }
        }),
        2 => (0usize..LEN, 1usize..200).prop_map(|(off, len)| Op::PersistLoad {
            off: off.min(LEN - 1),
            len,
        }),
    ]
}

/// Shadow model: a "cached" byte array (what reads must see) and a
/// "durable" array plus the set of dirty lines.
struct Model {
    cached: Vec<u8>,
    durable: Vec<u8>,
    dirty: HashSet<usize>,
}

impl Model {
    fn new() -> Self {
        Model {
            cached: vec![0; LEN],
            durable: vec![0; LEN],
            dirty: HashSet::new(),
        }
    }

    fn write(&mut self, off: usize, data_len: usize, byte: u8) {
        for i in off..(off + data_len).min(LEN) {
            self.cached[i] = byte;
            self.dirty.insert(i / LINE);
        }
    }

    fn flush(&mut self, off: usize, len: usize) {
        let end = (off + len).min(LEN);
        if off >= end {
            return;
        }
        for li in off / LINE..=(end - 1) / LINE {
            if self.dirty.remove(&li) {
                let s = li * LINE;
                self.durable[s..s + LINE].copy_from_slice(&self.cached[s..s + LINE]);
            }
        }
    }

    /// Crash with survival probability 0 or 1: deterministic outcomes.
    fn crash(&mut self, keep_dirty: bool) {
        if keep_dirty {
            for li in self.dirty.drain() {
                let s = li * LINE;
                self.durable[s..s + LINE].copy_from_slice(&self.cached[s..s + LINE]);
            }
        } else {
            self.dirty.clear();
        }
        self.cached = self.durable.clone();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reads always see the latest writes; after a crash the surviving
    /// content equals the shadow model's durable image (checked for
    /// both extreme survivor probabilities).
    #[test]
    fn pmem_matches_shadow_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        keep_dirty in proptest::bool::ANY,
    ) {
        let pmem = PMemBuilder::new().len(LEN).line_size(LINE).build_in_memory();
        let mut model = Model::new();

        for op in &ops {
            match *op {
                Op::Write { off, len, byte } => {
                    let len = len.min(LEN - off);
                    if len == 0 { continue; }
                    pmem.write(POffset::new(off as u64), &vec![byte; len]).unwrap();
                    model.write(off, len, byte);
                }
                Op::Flush { off, len } => {
                    let len = len.min(LEN - off);
                    if len == 0 { continue; }
                    pmem.flush(POffset::new(off as u64), len).unwrap();
                    model.flush(off, len);
                }
                Op::Fence => pmem.fence(),
                Op::PersistStore { off, len, byte } => {
                    let len = len.min(LEN - off);
                    pmem.write_persist(POffset::new(off as u64), &vec![byte; len]).unwrap();
                    model.write(off, len, byte);
                    model.flush(off, len);
                }
                Op::PersistLoad { off, len } => {
                    let len = len.min(LEN - off);
                    let mut got = vec![0u8; len];
                    pmem.read_persist(POffset::new(off as u64), &mut got).unwrap();
                    prop_assert_eq!(&got[..], &model.cached[off..off + len]);
                    model.flush(off, len);
                }
            }
            // Live reads must see the cached view.
            let got = pmem.read_vec(POffset::new(0), LEN).unwrap();
            prop_assert_eq!(&got, &model.cached);
        }

        let prob = if keep_dirty { 1.0 } else { 0.0 };
        pmem.crash_now(99, prob);
        model.crash(keep_dirty);
        let pmem = pmem.reopen().unwrap();
        let got = pmem.read_vec(POffset::new(0), LEN).unwrap();
        prop_assert_eq!(&got, &model.durable);
    }

    /// The event counter advances exactly once per write and once per
    /// line persisted in buffered mode — the contract crash-point
    /// enumeration depends on.
    #[test]
    fn event_accounting_is_exact(
        writes in proptest::collection::vec((0usize..LEN, 1usize..100, any::<u8>()), 1..20),
    ) {
        let pmem = PMemBuilder::new().len(LEN).line_size(LINE).build_in_memory();
        let mut expected = 0u64;
        for (off, len, byte) in writes {
            let off = off.min(LEN - 1);
            let len = len.min(LEN - off);
            if len == 0 { continue; }
            pmem.write(POffset::new(off as u64), &vec![byte; len]).unwrap();
            expected += 1; // one event per write
            let before_lines = pmem.stats().snapshot().lines_persisted;
            pmem.flush(POffset::new(off as u64), len).unwrap();
            let persisted = pmem.stats().snapshot().lines_persisted - before_lines;
            // The event counter ticks once per line the flush covers,
            // dirty or not; only the dirty ones persist.
            let first = off / LINE;
            let last = (off + len - 1) / LINE;
            expected += (last - first + 1) as u64;
            prop_assert!(persisted <= (last - first + 1) as u64);
        }
        prop_assert_eq!(pmem.events(), expected);
    }
}
