//! The benchmark's own randomness: splitmix64, exact zipf quotas and an
//! FNV-1a stream hash. Nothing here comes from
//! `shims/rand`, so the benchmark's own op streams (preload values,
//! `kv_commit_w100` batches, crash placements) cannot change when the
//! program's RNG does. The simulated clients' streams *do* come from
//! the program (`ClientSim`); they are pinned by hash instead.

/// Sebastiano Vigna's splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// far below anything the benchmark resolves.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// Derives an independent seed for stream `lane` of run seed `seed`.
pub fn derive(seed: u64, lane: u64) -> u64 {
    SplitMix64::new(seed ^ lane.wrapping_mul(0xD134_2543_DE82_EF95)).next_u64()
}

/// `total` zipfian ranks over `0..n` with exponent `s` as a multiset,
/// in rank order: rank `k` appears `total · p(k)` times, the rounding
/// remainder going to the largest fractional parts (ties to the lower
/// rank). Shuffle it for a stream whose key frequencies are exact.
pub fn zipf_quota(n: u64, s: f64, total: u64) -> Vec<u64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
    let norm: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / norm * total as f64).collect();
    let mut counts: Vec<u64> = shares.iter().map(|&x| x.floor() as u64).collect();
    let mut by_fraction: Vec<usize> = (0..n as usize).collect();
    by_fraction.sort_by(|&a, &b| {
        let (fa, fb) = (shares[a].fract(), shares[b].fract());
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let assigned: u64 = counts.iter().sum();
    for &k in by_fraction.iter().take((total - assigned) as usize) {
        counts[k] += 1;
    }
    let mut ranks = Vec::with_capacity(total as usize);
    for (k, &c) in counts.iter().enumerate() {
        ranks.resize(ranks.len() + c as usize, k as u64);
    }
    ranks
}

/// FNV-1a over a stream of words: the op-stream pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// One op: its kind (0 put, 1 get, 2 delete, 3 cas), key and up
    /// to two values.
    pub fn op(&mut self, kind: u64, key: u64, a: i64, b: i64) {
        for w in [kind, key, a as u64, b as u64] {
            self.word(w);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
