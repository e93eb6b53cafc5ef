//! `kv_commit_w100`: one thread, no server, no runtime — cross-shard
//! group commits of 16 mutations against a log small enough that every
//! shard compacts several times. Single-threaded, so every NVRAM count
//! of this workload repeats exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::pass::{ms, per, Layers, Pass};
use crate::rng::{derive, zipf_quota, SplitMix64, StreamHash};
use crate::sut::{self, Fixture, Mutation, RegionStats, RttMark, RttSampler, BATCH, SHARDS};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct KvPlan {
    /// Mutations before the timed window opens.
    pub warmup: u64,
    /// Mutations the timed window lasts.
    pub measured: u64,
    /// Commits between two compactions (of consecutive shards).
    pub compact_every: u64,
}

/// Batches whose ops enter the op-stream pin.
const PIN_BATCHES: u64 = 64;
/// The schedule's safety net: a shard this close to a full log compacts
/// at once, whatever the schedule says. Never reached on the seed
/// commit, where a shard's turn finds 15–30 % of its log free.
const COMPACT_BELOW: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
enum Op {
    Put { key: u64, value: i64 },
    Delete { key: u64 },
    Cas { key: u64, expected: i64, new: i64 },
}

/// The op stream and the sequential model it is judged by: 70 % put /
/// 20 % cas / 10 % delete over zipf-0.99 keys; half the cas ops expect
/// the value the model holds, so both cas outcomes occur.
///
/// The stream is a **shuffle of a fixed multiset**: every key appears
/// exactly as often as its zipf share of the run says, every kind
/// exactly at its percentage, and the seed decides only the order (and
/// the values). Drawing keys independently instead lets one seed send
/// a shard 2 % more records than another, which moves the number of
/// compactions in a run by one — a 2–4 % step in lines, accesses and
/// space per op that is sampling noise of the generator, not a
/// property of the store. A pure function of `(keys, total, seed)`:
/// the store never feeds back into it.
struct Stream {
    rng: SplitMix64,
    keys: Vec<u64>,
    kinds: Vec<Kind>,
    issued: usize,
    model: BTreeMap<u64, i64>,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Put,
    Cas,
    Delete,
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

impl Stream {
    fn new(key_space: u64, total: u64, seed: u64) -> Stream {
        let mut rng = SplitMix64::new(derive(seed, 0xB47C));
        let mut keys = zipf_quota(key_space, 0.99, total);
        shuffle(&mut keys, &mut rng);
        let mut kinds: Vec<Kind> = (0..total)
            .map(|i| match i * 10 / total.max(1) {
                0..=6 => Kind::Put,
                7..=8 => Kind::Cas,
                _ => Kind::Delete,
            })
            .collect();
        shuffle(&mut kinds, &mut rng);
        Stream {
            rng,
            keys,
            kinds,
            issued: 0,
            model: (0..key_space)
                .map(|k| (k, sut::preload_value(seed, k)))
                .collect(),
        }
    }

    /// The next op and whether the model says it takes effect.
    fn next(&mut self) -> (Op, bool) {
        let (key, kind) = (self.keys[self.issued], self.kinds[self.issued]);
        self.issued += 1;
        let value = self.rng.range(0, 2000) as i64 - 1000;
        match kind {
            Kind::Put => {
                self.model.insert(key, value);
                (Op::Put { key, value }, true)
            }
            Kind::Cas => {
                let expected = match self.model.get(&key) {
                    Some(&held) if self.rng.below(2) == 0 => held,
                    _ => self.rng.range(0, 2000) as i64 - 1000,
                };
                let hit = self.model.get(&key) == Some(&expected);
                if hit {
                    self.model.insert(key, value);
                }
                let new = value;
                (Op::Cas { key, expected, new }, hit)
            }
            Kind::Delete => (Op::Delete { key }, self.model.remove(&key).is_some()),
        }
    }
}

/// The op-stream pin: a stream of [`PIN_BATCHES`] batches, hashed.
pub fn stream_pin(keys: u64, seed: u64) -> u64 {
    let total = PIN_BATCHES * BATCH as u64;
    let mut stream = Stream::new(keys, total, seed);
    let mut pin = StreamHash::default();
    for _ in 0..total {
        match stream.next().0 {
            Op::Put { key, value } => pin.op(0, key, value, 0),
            Op::Delete { key } => pin.op(2, key, 0, 0),
            Op::Cas { key, expected, new } => pin.op(3, key, expected, new),
        }
    }
    pin.value()
}

pub fn run(
    plan: &KvPlan,
    fx: &mut Fixture,
    seed: u64,
    tr: &mut Tracer,
    rtt: &RttSampler,
) -> Result<Pass, String> {
    let e = |e: pstack_core::PError| format!("kv_commit: {e}");
    let fx = &*fx;
    let warmup_batches = plan.warmup / BATCH as u64;
    let batches = warmup_batches + plan.measured / BATCH as u64;
    let mut stream = Stream::new(fx.keys(), batches * BATCH as u64, seed);
    let traced = tr.is_on();

    let mut open: Option<(Instant, RegionStats, RttMark)> = None;
    let mut batch_ns: Vec<u64> = Vec::with_capacity(batches as usize);
    let mut mismatches = 0u64;
    let mut seq = 0u64;
    let (mut commit_ns, mut compact_ns, mut compact_count, mut shard_commits) =
        (0u64, 0u64, 0u64, 0u64);
    // Stat deltas around the calls (traced pass only).
    let (mut commit_persists, mut commit_lines, mut compact_persists) = (0u64, 0u64, 0u64);
    let mut headroom_min = 1.0f64;
    let mut space_amp_sum = 0.0f64;
    // A batch's latency runs from the previous batch's completion: a
    // compaction stall between two commits is the next batch's wait.
    let mut last_done = Instant::now();

    for b in 0..batches {
        if b == warmup_batches {
            last_done = Instant::now();
            open = Some((last_done, fx.stats(), rtt.mark()));
        }
        let timed = open.is_some();
        let mut ops: Vec<Mutation> = Vec::with_capacity(BATCH);
        let mut expected: Vec<bool> = Vec::with_capacity(BATCH);
        let mut touched = [false; SHARDS];
        for _ in 0..BATCH {
            let (op, takes_effect) = stream.next();
            seq += 1;
            let (m, key) = match op {
                Op::Put { key, value } => (sut::mutation_put(seq, key, value), key),
                Op::Delete { key } => (sut::mutation_delete(seq, key), key),
                Op::Cas { key, expected, new } => (sut::mutation_cas(seq, key, expected, new), key),
            };
            touched[sut::home_shard(key)] = true;
            ops.push(m);
            expected.push(takes_effect);
        }

        let before = (traced && timed).then(|| fx.stats());
        let t = Instant::now();
        let applied = tr.time("kv.commit", || sut::commit(fx, &ops)).map_err(e)?;
        let now = Instant::now();
        if timed {
            // Sampled after every commit and averaged: the end-of-run
            // value alone steps by a whole generation block.
            let live = stream.model.len().max(1) as f64;
            space_amp_sum += fx.heap_bytes().0 as f64 / (live * 16.0);
            batch_ns.push(now.duration_since(last_done).as_nanos() as u64);
            commit_ns += now.duration_since(t).as_nanos() as u64;
            shard_commits += touched.iter().filter(|&&t| t).count() as u64;
        }
        last_done = now;
        if let Some(before) = before {
            let d = (fx.stats() - before).stripe;
            commit_persists += d.persists;
            commit_lines += d.lines_persisted;
        }
        mismatches += applied
            .iter()
            .zip(&expected)
            .filter(|(a, e)| a != e)
            .count() as u64;

        let headroom = fx.log_headroom().map_err(e)?;
        headroom_min = headroom.iter().copied().fold(headroom_min, f64::min);
        // Compaction runs on a schedule — every `compact_every` commits
        // the next shard, round-robin — not on the headroom signal: a
        // run then holds the same number of compactions at every seed.
        // Triggered by headroom, that number steps by one between
        // seeds, and one compaction is 2 % of this workload's lines.
        let turn = ((b + 1) % plan.compact_every == 0)
            .then_some(((b + 1) / plan.compact_every) as usize % SHARDS);
        for shard in (0..SHARDS).filter(|&s| turn == Some(s) || headroom[s] < COMPACT_BELOW) {
            let before = (traced && timed).then(|| fx.stats());
            let t = Instant::now();
            tr.time_ids("kv.compact", &[shard as u64], || {
                sut::compact_shard(fx, shard)
            })
            .map_err(e)?;
            if timed {
                compact_ns += t.elapsed().as_nanos() as u64;
                compact_count += 1;
            }
            if let Some(before) = before {
                compact_persists += (fx.stats() - before).stripe.persists;
            }
        }
    }
    let (opened_at, opened_stats, opened_rtt) =
        open.ok_or("the run ended before its warm-up did")?;
    let closed_rtt = rtt.mark();
    let wall_s = last_done.duration_since(opened_at).as_secs_f64();
    let stats = fx.stats() - opened_stats;
    let ops = plan.measured / BATCH as u64 * BATCH as u64;

    // ---- untimed: the model is the judge, across every compaction.
    let t_verify = Instant::now();
    let contents = fx.contents().map_err(e)?;
    let verify_ms = ms(t_verify.elapsed().as_nanos() as u64);
    let correct = mismatches == 0 && contents == stream.model;
    if !correct {
        eprintln!(
            "kv_commit: {mismatches} outcome mismatches, contents {} the model",
            if contents == stream.model {
                "match"
            } else {
                "differ from"
            }
        );
    }
    let (used, retired) = fx.heap_bytes();
    let space_amp = space_amp_sum / batch_ns.len().max(1) as f64;

    let mut layers = Layers::new();
    if traced {
        let n = batch_ns.len() as u64;
        layers.insert("kv.commit_us", per(commit_ns as f64 / 1e3, n));
        layers.insert("kv.commit_persists", per(commit_persists as f64, n));
        layers.insert(
            "kv.commit_rtts_per_shard",
            per(commit_persists as f64, shard_commits),
        );
        layers.insert("kv.commit_lines", per(commit_lines as f64, n));
        layers.insert("kv.compact_count", compact_count as f64);
        layers.insert("kv.compact_ms", per(compact_ns as f64 / 1e6, compact_count));
        layers.insert(
            "kv.compact_persists",
            per(compact_persists as f64, compact_count),
        );
        layers.insert("kv.compact_stall_frac", compact_ns as f64 / (wall_s * 1e9));
        layers.insert("kv.generations", fx.generations().map_err(e)? as f64);
        layers.insert("kv.log_headroom_min", headroom_min);
        layers.insert("heap.used_mb", used as f64 / 1e6);
        layers.insert("heap.retired_mb", retired as f64 / 1e6);
    }

    // One latency sample per op: the batch's, for each op in it.
    let write_ns = batch_ns.iter().flat_map(|&ns| [ns; BATCH]).collect();
    let attempted = seq;
    Ok(Pass {
        correct,
        attempted,
        failed: if correct { 0 } else { attempted },
        ops,
        wall_s,
        rtt_us: rtt.observed_us(opened_rtt, closed_rtt),
        write_ns,
        read_ns: Vec::new(),
        stats,
        space_amp,
        verify_ms,
        crashes: 0,
        layers,
    })
}
