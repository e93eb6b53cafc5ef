//! KV verifier — the key-value analogue of the §5.1 methodology, built
//! the same way as the FIFO checker: instead of searching for a legal
//! linearization (NP-hard from answers alone), extract the
//! linearization **witness** from the object itself and validate every
//! recorded answer against it in linear time.
//!
//! The `pstack-kv` store never overwrites an effect: each mutation
//! publishes an immutable version record by CASing a bucket's chain
//! head, so a bucket chain in publish order *is* the real-time order of
//! the linearization points of every mutation on that bucket's keys.
//! [`check_kv_sharded_gen`] replays each chain, oldest record first,
//! against the sequential map specification [`KvSpec`] and checks:
//!
//! * every operation of the history carries its own `(pid, seq)` tag
//!   (two operations under one tag could hide each other's effects);
//! * every record sits in the shard the router homes its key in;
//! * every record belongs to exactly one operation of the history, with
//!   matching key, kind and value (no phantom or torn records);
//! * no operation's tag appears on two records (double application —
//!   the §5.2 recovery-bug signature);
//! * every answered effectful operation (`put → stored`,
//!   `delete → true`, `cas → true`) owns exactly one record (no lost
//!   updates), and every answered no-effect operation (`cas → false`,
//!   `delete → false`, capacity-rejected `put`) owns none;
//! * at each record's position in the replay, the sequential spec
//!   agrees the operation takes effect there — a `cas` record's
//!   expected value matches the key's current value, a `delete` record
//!   removes a present key;
//! * every `get` that returned a value is explained by some version of
//!   its key (gets take no locks and leave no evidence, so — like the
//!   per-process program order in the FIFO checker's note — their exact
//!   linearization point is not reconstructable from the quiescent
//!   state; value membership is the checkable projection).
//!
//! Chains may span **generation boundaries** (the store's log
//! compaction rewrites live heads into a fresh generation and swaps
//! the root): records carry a generation stamp and a `compacted` flag,
//! and the check takes each shard's active generation number from the
//! store itself — never guessed from the records, which a compaction
//! that drops every live key would fool — to validate that every
//! carry-over reproduces exactly the live state at its boundary, that
//! generation stamps are monotone, and that no live key was dropped by
//! a swap (its newest record must sit in the active generation). A
//! single store is the one-shard case: `shards: vec![chains]`, router
//! `|_| 0`, generations `[store.generation()]`.

use std::collections::{HashMap, HashSet};

/// The kind of a KV operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOpKind {
    /// `put(key, value)`.
    Put,
    /// `get(key)`.
    Get,
    /// `delete(key)`.
    Delete,
    /// `cas(key, expected, new)`.
    Cas,
}

/// The recorded answer of a KV operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvAnswer {
    /// A put's answer: `true` if stored, `false` if the store's
    /// lifetime version-log capacity was exhausted.
    Stored(bool),
    /// A get's answer.
    Got(Option<i64>),
    /// A delete's answer: `true` if the key was present.
    Deleted(bool),
    /// A cas's answer: `true` if the expected value matched.
    Swapped(bool),
}

/// One operation of a KV execution, with its recorded answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    /// Executing process.
    pub pid: u64,
    /// The operation's unique tag (unique per `(pid, seq)` pair).
    pub seq: u64,
    /// Which operation this is.
    pub kind: KvOpKind,
    /// The key operated on.
    pub key: u64,
    /// The put value / cas replacement value (ignored for get/delete).
    pub value: i64,
    /// The cas expected value (ignored for the other kinds).
    pub expected: i64,
    /// The recorded answer.
    pub answer: KvAnswer,
}

/// One published version record of the quiescent store, as reported by
/// the store's snapshot: the witness the answers are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvWitnessRecord {
    /// The key the record belongs to.
    pub key: u64,
    /// The value stored (for a delete record: the value removed).
    pub value: i64,
    /// Writer's process id.
    pub pid: u64,
    /// Writer's operation tag.
    pub seq: u64,
    /// `true` for a delete record.
    pub is_delete: bool,
    /// `true` for a compaction carry-over — a copy (original tag
    /// preserved) of a record that was live at a generation boundary,
    /// **not** a new application of its operation. The checker
    /// validates it reproduces exactly the live state at its position
    /// in the chain.
    pub compacted: bool,
    /// The generation whose log holds the record. A chain that spans a
    /// generation boundary carries non-decreasing `gen` values; the
    /// newest record of every live key must sit in the active
    /// generation, or compaction dropped the key.
    pub gen: u64,
}

/// A complete **sharded** KV execution: every operation with its
/// answer, plus one per-bucket chain witness per shard
/// (`shards[s][b]` = shard `s`'s bucket `b`, oldest record first).
///
/// Checked by [`check_kv_sharded_gen`]: each shard's chains are a local
/// linearization witness, keys are disjoint across shards (the router
/// is a pure function of the key), and operation tags are global — so
/// the global check is the per-shard replay plus cross-shard tag
/// uniqueness plus key-routing validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvShardedHistory {
    /// All operations across every shard, in any order.
    pub ops: Vec<KvOp>,
    /// Per-shard, per-bucket published chains.
    pub shards: Vec<Vec<Vec<KvWitnessRecord>>>,
}

/// The sequential specification of the store: an ordinary map with the
/// exact answer semantics `PKvStore` promises. The checker replays the
/// witness through this model; tests can use it as a reference
/// implementation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvSpec {
    map: HashMap<u64, i64>,
}

impl KvSpec {
    /// An empty map — the store's initial state.
    #[must_use]
    pub fn new() -> Self {
        KvSpec::default()
    }

    /// Sequential `put`: always stores (the spec has no capacity).
    pub fn put(&mut self, key: u64, value: i64) -> bool {
        self.map.insert(key, value);
        true
    }

    /// Sequential `get`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<i64> {
        self.map.get(&key).copied()
    }

    /// Sequential `delete`: `true` iff the key was present.
    pub fn delete(&mut self, key: u64) -> bool {
        self.map.remove(&key).is_some()
    }

    /// Sequential `cas`: replaces and returns `true` iff the key holds
    /// exactly `expected`.
    pub fn cas(&mut self, key: u64, expected: i64, new: i64) -> bool {
        if self.map.get(&key) == Some(&expected) {
            self.map.insert(key, new);
            true
        } else {
            false
        }
    }

    /// The spec's current contents.
    #[must_use]
    pub fn contents(&self) -> &HashMap<u64, i64> {
        &self.map
    }
}

/// Why a KV execution failed the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvViolation {
    /// Two operations of the history carry the same `(pid, seq)` tag,
    /// so a record cannot name which of them it belongs to.
    DuplicateOpTag {
        /// The shared `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// An operation's tag appears on more than one record (double
    /// application).
    DuplicateApplication {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// A record is owned by a tag no operation in the history owns.
    PhantomRecord {
        /// The unaccounted `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// A record's key differs from its operation's key.
    KeyMismatch {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
        /// Key in the record.
        record_key: u64,
        /// Key the operation submitted.
        op_key: u64,
    },
    /// A record's kind cannot result from its operation (e.g. a delete
    /// record owned by a put).
    WrongRecordKind {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// A put/cas record's value differs from what the operation
    /// submitted.
    ValueMismatch {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
        /// Value in the record.
        record_value: i64,
        /// Value the operation submitted.
        op_value: i64,
    },
    /// A cas record took effect although the key did not hold the
    /// expected value at that point of the chain.
    CasExpectationViolated {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
        /// The value the operation expected.
        expected: i64,
        /// The value the key actually held (`None` = absent).
        found: Option<i64>,
    },
    /// A delete record took effect although the key was absent at that
    /// point of the chain.
    DeleteOfAbsentKey {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// A delete record's value differs from the value the key held at
    /// that point of the chain (torn or misattributed record).
    DeletedValueMismatch {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
        /// Value in the record.
        record_value: i64,
        /// Value the key actually held.
        held: i64,
    },
    /// An answered effectful operation owns no record (lost update).
    LostUpdate {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// An operation that answered "no effect" nevertheless owns a
    /// record.
    RejectedButApplied {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// A get returned a value that no version of its key ever held.
    UnexplainedGet {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
        /// The value the get reported.
        reported: i64,
    },
    /// A record landed in a shard the router does not map its key to —
    /// the striping invariant (each key lives in exactly one shard) is
    /// broken, so per-key chain order no longer witnesses the global
    /// per-key linearization order.
    MisroutedKey {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
        /// The key the record carries.
        key: u64,
        /// The shard the record was found in.
        shard: usize,
        /// The shard the router maps the key to.
        home: usize,
    },
    /// A delete record is marked as a compaction carry-over — the
    /// compactor only ever carries live values; a carried delete means
    /// the rewrite invented history.
    CarriedDelete {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// A carry-over's tag was never applied earlier in the replay: the
    /// compactor "carried" a record that no generation ever published.
    CarriedWithoutOrigin {
        /// The offending `(pid, seq)` tag.
        tag: (u64, u64),
    },
    /// A carry-over disagrees with the live state at its generation
    /// boundary: the key did not hold the carried value there (or was
    /// not live at all), so the rewrite corrupted or invented state.
    CarriedValueMismatch {
        /// The carried record's `(pid, seq)` tag.
        tag: (u64, u64),
        /// The key in question.
        key: u64,
        /// The value the carry-over claims.
        carried: i64,
        /// The value the key actually held at the boundary (`None` =
        /// absent).
        held: Option<i64>,
    },
    /// A live key's newest record sits in an older generation than the
    /// active one: a compaction swapped the root without carrying the
    /// key — the update silently vanished from the live store even
    /// though its history survives in a retired generation.
    DroppedByCompaction {
        /// The tag of the key's newest record.
        tag: (u64, u64),
        /// The dropped key.
        key: u64,
        /// The generation holding the key's newest record.
        last_gen: u64,
        /// The active generation the key should have been carried into.
        active_gen: u64,
    },
    /// A chain's generation stamps are inconsistent: a record's
    /// generation decreases along the chain, or exceeds the active
    /// generation — the witness is not a valid multi-generation chain.
    GenerationOutOfOrder {
        /// The offending record's `(pid, seq)` tag.
        tag: (u64, u64),
        /// The record's generation stamp.
        gen: u64,
        /// The previous record's generation stamp.
        prev_gen: u64,
        /// The chain's active generation.
        active_gen: u64,
    },
}

impl std::fmt::Display for KvViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvViolation::DuplicateOpTag { tag } => {
                write!(f, "two operations share the tag {tag:?}")
            }
            KvViolation::DuplicateApplication { tag } => {
                write!(f, "operation {tag:?} applied more than once")
            }
            KvViolation::PhantomRecord { tag } => {
                write!(f, "record owned by unknown operation tag {tag:?}")
            }
            KvViolation::KeyMismatch {
                tag,
                record_key,
                op_key,
            } => write!(
                f,
                "operation {tag:?} on key {op_key} left a record on key {record_key}"
            ),
            KvViolation::WrongRecordKind { tag } => {
                write!(f, "operation {tag:?} left a record of the wrong kind")
            }
            KvViolation::ValueMismatch {
                tag,
                record_value,
                op_value,
            } => write!(
                f,
                "operation {tag:?} submitted {op_value} but its record holds {record_value}"
            ),
            KvViolation::CasExpectationViolated {
                tag,
                expected,
                found,
            } => write!(
                f,
                "cas {tag:?} expected {expected} but the key held {found:?} at its \
                 linearization point"
            ),
            KvViolation::DeleteOfAbsentKey { tag } => {
                write!(f, "delete {tag:?} linearized on an absent key")
            }
            KvViolation::DeletedValueMismatch {
                tag,
                record_value,
                held,
            } => write!(
                f,
                "delete {tag:?} recorded removing {record_value} but the key held {held}"
            ),
            KvViolation::LostUpdate { tag } => {
                write!(f, "operation {tag:?} answered success but left no record")
            }
            KvViolation::RejectedButApplied { tag } => {
                write!(f, "operation {tag:?} answered no-effect yet owns a record")
            }
            KvViolation::UnexplainedGet { tag, reported } => write!(
                f,
                "get {tag:?} reported {reported}, a value its key never held"
            ),
            KvViolation::MisroutedKey {
                tag,
                key,
                shard,
                home,
            } => write!(
                f,
                "operation {tag:?} left a record for key {key} in shard {shard}, but the \
                 router homes that key in shard {home}"
            ),
            KvViolation::CarriedDelete { tag } => {
                write!(f, "compaction carried a delete record for {tag:?}")
            }
            KvViolation::CarriedWithoutOrigin { tag } => write!(
                f,
                "compaction carried a record for {tag:?} that no generation ever published"
            ),
            KvViolation::CarriedValueMismatch {
                tag,
                key,
                carried,
                held,
            } => write!(
                f,
                "compaction carried {carried} for key {key} ({tag:?}) but the key held \
                 {held:?} at the generation boundary"
            ),
            KvViolation::DroppedByCompaction {
                tag,
                key,
                last_gen,
                active_gen,
            } => write!(
                f,
                "live key {key} (newest record {tag:?}) was left behind in generation \
                 {last_gen} — compaction to generation {active_gen} dropped it"
            ),
            KvViolation::GenerationOutOfOrder {
                tag,
                gen,
                prev_gen,
                active_gen,
            } => write!(
                f,
                "record {tag:?} carries generation {gen} after generation {prev_gen} in a \
                 chain whose active generation is {active_gen}"
            ),
        }
    }
}

/// Verdict of the KV check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvVerdict {
    /// The answers are consistent with the chain-order linearization.
    Linearizable,
    /// The execution violates the sequential map specification.
    NotLinearizable {
        /// The first violation found.
        violation: KvViolation,
    },
}

impl KvVerdict {
    /// `true` for [`KvVerdict::Linearizable`].
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        matches!(self, KvVerdict::Linearizable)
    }

    /// The violation behind a non-linearizable verdict — what negative
    /// controls assert on (a skipped recovery scan must surface as
    /// *this particular* violation, not merely as "not linearizable").
    #[must_use]
    pub fn violation(&self) -> Option<&KvViolation> {
        match self {
            KvVerdict::Linearizable => None,
            KvVerdict::NotLinearizable { violation } => Some(violation),
        }
    }
}

impl KvViolation {
    /// The offending operation's `(pid, seq)` tag — every violation
    /// kind carries one, so campaign logs can name the operation.
    #[must_use]
    pub fn tag(&self) -> (u64, u64) {
        match *self {
            KvViolation::DuplicateOpTag { tag }
            | KvViolation::DuplicateApplication { tag }
            | KvViolation::PhantomRecord { tag }
            | KvViolation::KeyMismatch { tag, .. }
            | KvViolation::WrongRecordKind { tag }
            | KvViolation::ValueMismatch { tag, .. }
            | KvViolation::CasExpectationViolated { tag, .. }
            | KvViolation::DeleteOfAbsentKey { tag }
            | KvViolation::DeletedValueMismatch { tag, .. }
            | KvViolation::LostUpdate { tag }
            | KvViolation::RejectedButApplied { tag }
            | KvViolation::UnexplainedGet { tag, .. }
            | KvViolation::MisroutedKey { tag, .. }
            | KvViolation::CarriedDelete { tag }
            | KvViolation::CarriedWithoutOrigin { tag }
            | KvViolation::CarriedValueMismatch { tag, .. }
            | KvViolation::DroppedByCompaction { tag, .. }
            | KvViolation::GenerationOutOfOrder { tag, .. } => tag,
        }
    }
}

fn fail(violation: KvViolation) -> KvVerdict {
    KvVerdict::NotLinearizable { violation }
}

/// Checks a KV execution against the sequential map specification,
/// using each shard's per-bucket chains as the linearization witness.
/// Runs in `O(ops + records)`; see the module header of `kv.rs` for the
/// exact conditions.
///
/// Every record must sit in its key's home shard under `router`; then
/// the chains of all shards replay as one (valid because routed shards,
/// like buckets, hold disjoint key sets, while the operation-tag
/// bookkeeping stays global — a double application across two shards is
/// still caught). `router` must be the same pure key→shard function the
/// store used (`pstack_kv::shard_of` partially applied with the shard
/// count), and `generations[s]` shard `s`'s active generation number
/// (`PKvStore::generation()` in `pstack-kv`): shards compact and swap
/// roots independently, so each shard's chains are checked against its
/// own. On top of the chain replay this validates the compaction
/// invariants:
///
/// * carried records (`compacted`) are copies, not applications — each
///   must reproduce exactly the live value of its key at its position
///   in the replay, must originate from an earlier published record,
///   and is never a delete;
/// * generation stamps are non-decreasing along each chain and never
///   exceed the shard's active generation;
/// * every key the replay ends with as *live* has its newest record in
///   the active generation — a live key left behind in an older
///   generation was dropped by a root swap.
///
/// # Example
///
/// ```
/// use pstack_verify::{
///     check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvWitnessRecord,
/// };
///
/// let history = KvShardedHistory {
///     ops: vec![
///         KvOp {
///             pid: 0,
///             seq: 1,
///             kind: KvOpKind::Put,
///             key: 7,
///             value: 70,
///             expected: 0,
///             answer: KvAnswer::Stored(true),
///         },
///         KvOp {
///             pid: 1,
///             seq: 2,
///             kind: KvOpKind::Get,
///             key: 7,
///             value: 0,
///             expected: 0,
///             answer: KvAnswer::Got(Some(70)),
///         },
///     ],
///     // One store, one bucket: the one-shard case.
///     shards: vec![vec![vec![KvWitnessRecord {
///         key: 7,
///         value: 70,
///         pid: 0,
///         seq: 1,
///         is_delete: false,
///         compacted: false,
///         gen: 0,
///     }]]],
/// };
/// assert!(check_kv_sharded_gen(&history, |_| 0, &[0]).is_linearizable());
/// ```
///
/// # Panics
///
/// Panics if `generations.len()` differs from the history's shard
/// count (a harness-construction bug, not an execution property).
#[must_use]
pub fn check_kv_sharded_gen(
    history: &KvShardedHistory,
    router: impl Fn(u64) -> usize,
    generations: &[u64],
) -> KvVerdict {
    assert_eq!(
        generations.len(),
        history.shards.len(),
        "one active generation per shard"
    );
    for (shard, chains) in history.shards.iter().enumerate() {
        for rec in chains.iter().flatten() {
            let home = router(rec.key);
            if home != shard {
                return fail(KvViolation::MisroutedKey {
                    tag: (rec.pid, rec.seq),
                    key: rec.key,
                    shard,
                    home,
                });
            }
        }
    }
    check_ops_against_chains(
        &history.ops,
        history
            .shards
            .iter()
            .zip(generations)
            .flat_map(|(chains, &gen)| chains.iter().map(move |chain| (gen, chain.as_slice()))),
    )
}

fn check_ops_against_chains<'a>(
    ops: &[KvOp],
    chains: impl IntoIterator<Item = (u64, &'a [KvWitnessRecord])>,
) -> KvVerdict {
    // Index operations by tag; a tag two operations share would let one
    // operation's record answer for the other's.
    let mut ops_by_tag: HashMap<(u64, u64), &KvOp> = HashMap::with_capacity(ops.len());
    for op in ops {
        let tag = (op.pid, op.seq);
        if ops_by_tag.insert(tag, op).is_some() {
            return fail(KvViolation::DuplicateOpTag { tag });
        }
    }

    // Which values each key ever held (for explaining gets).
    let mut values_of_key: HashMap<u64, Vec<i64>> = HashMap::new();

    // Each key's newest record: (generation, its chain's active
    // generation, owning tag) — the input of the dropped-key check.
    let mut newest_of_key: HashMap<u64, (u64, u64, (u64, u64))> = HashMap::new();

    // Replay every chain through the sequential spec. Chains of
    // different buckets hold disjoint key sets, so their relative
    // interleaving cannot matter; one spec instance replays them all.
    let mut spec = KvSpec::new();
    let mut applied_tags: HashSet<(u64, u64)> = HashSet::new();
    for (active_gen, chain) in chains {
        let mut prev_gen = 0u64;
        for rec in chain {
            let tag = (rec.pid, rec.seq);
            if rec.gen < prev_gen || rec.gen > active_gen {
                return fail(KvViolation::GenerationOutOfOrder {
                    tag,
                    gen: rec.gen,
                    prev_gen,
                    active_gen,
                });
            }
            prev_gen = rec.gen;
            newest_of_key.insert(rec.key, (rec.gen, active_gen, tag));
            if rec.compacted {
                // A carry-over is a copy, not an application: it must
                // originate from an earlier published record and must
                // reproduce exactly the live state at the boundary.
                if rec.is_delete {
                    return fail(KvViolation::CarriedDelete { tag });
                }
                if !applied_tags.contains(&tag) {
                    return fail(KvViolation::CarriedWithoutOrigin { tag });
                }
                if let Some(op) = ops_by_tag.get(&tag) {
                    if op.key != rec.key {
                        return fail(KvViolation::KeyMismatch {
                            tag,
                            record_key: rec.key,
                            op_key: op.key,
                        });
                    }
                }
                let held = spec.get(rec.key);
                if held != Some(rec.value) {
                    return fail(KvViolation::CarriedValueMismatch {
                        tag,
                        key: rec.key,
                        carried: rec.value,
                        held,
                    });
                }
                continue;
            }
            if !applied_tags.insert(tag) {
                return fail(KvViolation::DuplicateApplication { tag });
            }
            let Some(op) = ops_by_tag.get(&tag) else {
                return fail(KvViolation::PhantomRecord { tag });
            };
            if op.key != rec.key {
                return fail(KvViolation::KeyMismatch {
                    tag,
                    record_key: rec.key,
                    op_key: op.key,
                });
            }
            match (op.kind, rec.is_delete) {
                (KvOpKind::Put, false) => {
                    if rec.value != op.value {
                        return fail(KvViolation::ValueMismatch {
                            tag,
                            record_value: rec.value,
                            op_value: op.value,
                        });
                    }
                    spec.put(rec.key, rec.value);
                }
                (KvOpKind::Cas, false) => {
                    if rec.value != op.value {
                        return fail(KvViolation::ValueMismatch {
                            tag,
                            record_value: rec.value,
                            op_value: op.value,
                        });
                    }
                    let found = spec.get(rec.key);
                    if !spec.cas(rec.key, op.expected, rec.value) {
                        return fail(KvViolation::CasExpectationViolated {
                            tag,
                            expected: op.expected,
                            found,
                        });
                    }
                }
                (KvOpKind::Delete, true) => {
                    let held = spec.get(rec.key);
                    match held {
                        None => return fail(KvViolation::DeleteOfAbsentKey { tag }),
                        Some(held) if held != rec.value => {
                            return fail(KvViolation::DeletedValueMismatch {
                                tag,
                                record_value: rec.value,
                                held,
                            })
                        }
                        Some(_) => {
                            spec.delete(rec.key);
                        }
                    }
                }
                _ => return fail(KvViolation::WrongRecordKind { tag }),
            }
            if !rec.is_delete {
                values_of_key.entry(rec.key).or_default().push(rec.value);
            }
        }
    }

    // The dropped-key check: every key the replay ends with as live
    // must have its newest record in its chain's active generation —
    // written there or carried there. A live key whose newest record
    // sits in an older generation was silently dropped by a root swap.
    for (&key, &(gen, active_gen, tag)) in &newest_of_key {
        if gen != active_gen && spec.get(key).is_some() {
            return fail(KvViolation::DroppedByCompaction {
                tag,
                key,
                last_gen: gen,
                active_gen,
            });
        }
    }

    // Check every operation's answer against the witness.
    for op in ops {
        let tag = (op.pid, op.seq);
        let applied = applied_tags.contains(&tag);
        let effectful = match (op.kind, op.answer) {
            (KvOpKind::Put, KvAnswer::Stored(ok)) => ok,
            (KvOpKind::Delete, KvAnswer::Deleted(ok)) => ok,
            (KvOpKind::Cas, KvAnswer::Swapped(ok)) => ok,
            (KvOpKind::Get, KvAnswer::Got(reported)) => {
                if let Some(v) = reported {
                    let explained = values_of_key.get(&op.key).is_some_and(|vs| vs.contains(&v));
                    if !explained {
                        return fail(KvViolation::UnexplainedGet { tag, reported: v });
                    }
                }
                // Gets never own records.
                if applied {
                    return fail(KvViolation::PhantomRecord { tag });
                }
                continue;
            }
            // A kind/answer mismatch is a harness-construction bug;
            // surface it as a wrong-kind violation.
            _ => return fail(KvViolation::WrongRecordKind { tag }),
        };
        match (effectful, applied) {
            (true, false) => return fail(KvViolation::LostUpdate { tag }),
            (false, true) => return fail(KvViolation::RejectedButApplied { tag }),
            _ => {}
        }
    }

    KvVerdict::Linearizable
}

/// The one-shard case of [`check_kv_sharded_gen`]: one store's chains,
/// router `|_| 0`, and the store's generation — here 1, after one root
/// swap. A put whose record is missing is a lost update.
///
/// ```
/// use pstack_verify::{
///     check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvViolation,
///     KvWitnessRecord,
/// };
///
/// let put = KvOp { pid: 0, seq: 1, kind: KvOpKind::Put, key: 7, value: 70, expected: 0,
///                  answer: KvAnswer::Stored(true) };
/// let get = KvOp { pid: 1, seq: 2, kind: KvOpKind::Get, key: 7, value: 0, expected: 0,
///                  answer: KvAnswer::Got(Some(70)) };
/// let record = KvWitnessRecord { key: 7, value: 70, pid: 0, seq: 1, is_delete: false,
///                                compacted: false, gen: 1 };
/// let history = KvShardedHistory { ops: vec![put, get], shards: vec![vec![vec![record]]] };
/// assert!(check_kv_sharded_gen(&history, |_| 0, &[1]).is_linearizable());
///
/// let lost = KvShardedHistory { ops: vec![put], shards: vec![vec![vec![]]] };
/// let verdict = check_kv_sharded_gen(&lost, |_| 0, &[1]);
/// assert!(matches!(verdict.violation(), Some(KvViolation::LostUpdate { tag: (0, 1) })));
/// ```
#[cfg(doctest)]
mod check_kv {}

/// The two-shard case of [`check_kv_sharded_gen`]: each record must sit
/// in its key's home shard under the router.
///
/// ```
/// use pstack_verify::{
///     check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvViolation,
///     KvWitnessRecord,
/// };
///
/// let put = KvOp { pid: 0, seq: 1, kind: KvOpKind::Put, key: 7, value: 70, expected: 0,
///                  answer: KvAnswer::Stored(true) };
/// let record = KvWitnessRecord { key: 7, value: 70, pid: 0, seq: 1, is_delete: false,
///                                compacted: false, gen: 0 };
/// // Key 7's home shard is 1 under this (toy) router.
/// let parity = |key: u64| (key % 2) as usize;
/// let routed = KvShardedHistory { ops: vec![put], shards: vec![vec![vec![]], vec![vec![record]]] };
/// assert!(check_kv_sharded_gen(&routed, parity, &[0, 0]).is_linearizable());
///
/// let misrouted = KvShardedHistory { ops: vec![put], shards: vec![vec![vec![record]], vec![vec![]]] };
/// let verdict = check_kv_sharded_gen(&misrouted, parity, &[0, 0]);
/// assert!(matches!(verdict.violation(), Some(KvViolation::MisroutedKey { shard: 0, home: 1, .. })));
/// ```
#[cfg(doctest)]
mod check_kv_sharded {}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(pid: u64, seq: u64, key: u64, value: i64, ok: bool) -> KvOp {
        KvOp {
            pid,
            seq,
            kind: KvOpKind::Put,
            key,
            value,
            expected: 0,
            answer: KvAnswer::Stored(ok),
        }
    }

    fn get(pid: u64, seq: u64, key: u64, got: Option<i64>) -> KvOp {
        KvOp {
            pid,
            seq,
            kind: KvOpKind::Get,
            key,
            value: 0,
            expected: 0,
            answer: KvAnswer::Got(got),
        }
    }

    fn del(pid: u64, seq: u64, key: u64, ok: bool) -> KvOp {
        KvOp {
            pid,
            seq,
            kind: KvOpKind::Delete,
            key,
            value: 0,
            expected: 0,
            answer: KvAnswer::Deleted(ok),
        }
    }

    fn cas(pid: u64, seq: u64, key: u64, expected: i64, new: i64, ok: bool) -> KvOp {
        KvOp {
            pid,
            seq,
            kind: KvOpKind::Cas,
            key,
            value: new,
            expected,
            answer: KvAnswer::Swapped(ok),
        }
    }

    fn rec(pid: u64, seq: u64, key: u64, value: i64) -> KvWitnessRecord {
        KvWitnessRecord {
            key,
            value,
            pid,
            seq,
            is_delete: false,
            compacted: false,
            gen: 0,
        }
    }

    fn drec(pid: u64, seq: u64, key: u64, value: i64) -> KvWitnessRecord {
        KvWitnessRecord {
            key,
            value,
            pid,
            seq,
            is_delete: true,
            compacted: false,
            gen: 0,
        }
    }

    /// A compaction carry-over in generation `gen`.
    fn carry(pid: u64, seq: u64, key: u64, value: i64, gen: u64) -> KvWitnessRecord {
        KvWitnessRecord {
            key,
            value,
            pid,
            seq,
            is_delete: false,
            compacted: true,
            gen,
        }
    }

    /// `rec` stamped into generation `gen`.
    fn rec_gen(pid: u64, seq: u64, key: u64, value: i64, gen: u64) -> KvWitnessRecord {
        KvWitnessRecord {
            gen,
            ..rec(pid, seq, key, value)
        }
    }

    /// The one check every test runs: each shard checked against the
    /// active generation the test states, keys routed by a toy router —
    /// key modulo the shard count (`|_| 0` for one shard, key parity
    /// for two).
    fn check(h: &KvShardedHistory, generations: &[u64]) -> KvVerdict {
        let nshards = h.shards.len() as u64;
        check_kv_sharded_gen(h, |key| (key % nshards) as usize, generations)
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h = KvShardedHistory {
            ops: vec![],
            shards: vec![vec![vec![], vec![]]],
        };
        assert!(check(&h, &[0]).is_linearizable());
    }

    #[test]
    fn put_cas_delete_get_round_trip_is_linearizable() {
        let h = KvShardedHistory {
            ops: vec![
                put(0, 1, 7, 70, true),
                cas(1, 2, 7, 70, 71, true),
                get(2, 3, 7, Some(71)),
                del(0, 4, 7, true),
                get(1, 5, 7, None),
                cas(2, 6, 7, 71, 72, false),
            ],
            shards: vec![vec![vec![
                rec(0, 1, 7, 70),
                rec(1, 2, 7, 71),
                drec(0, 4, 7, 71),
            ]]],
        };
        assert!(check(&h, &[0]).is_linearizable());
    }

    #[test]
    fn duplicate_application_is_flagged() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 70), rec(0, 1, 7, 70)]]],
        };
        assert_eq!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::DuplicateApplication { tag: (0, 1) }
            }
        );
    }

    #[test]
    fn duplicate_op_tags_are_flagged() {
        // Two answered puts under one tag, one record: with the ops
        // indexed by tag, the second put's record would answer for both
        // and the first put's effect would be lost unseen.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 1, true), put(0, 1, 7, 2, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 2)]]],
        };
        assert_eq!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::DuplicateOpTag { tag: (0, 1) }
            }
        );
    }

    #[test]
    fn duplicate_across_chains_is_flagged() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 70)], vec![rec(0, 1, 8, 70)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::DuplicateApplication { .. }
            }
        ));
    }

    #[test]
    fn lost_update_is_flagged() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![]]],
        };
        assert_eq!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::LostUpdate { tag: (0, 1) }
            }
        );
    }

    #[test]
    fn phantom_record_is_flagged() {
        let h = KvShardedHistory {
            ops: vec![],
            shards: vec![vec![vec![rec(9, 9, 7, 70)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::PhantomRecord { .. }
            }
        ));
    }

    #[test]
    fn value_and_key_mismatches_are_flagged() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 99)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::ValueMismatch { .. }
            }
        ));
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![rec(0, 1, 8, 70)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::KeyMismatch { .. }
            }
        ));
    }

    #[test]
    fn cas_expectation_violation_is_flagged() {
        // The cas record claims effect although the key held 99, not 70.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 99, true), cas(1, 2, 7, 70, 71, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 99), rec(1, 2, 7, 71)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::CasExpectationViolated { .. }
            }
        ));
    }

    #[test]
    fn cas_false_with_record_is_flagged() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true), cas(1, 2, 7, 70, 71, false)],
            shards: vec![vec![vec![rec(0, 1, 7, 70), rec(1, 2, 7, 71)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::RejectedButApplied { .. }
            }
        ));
    }

    #[test]
    fn delete_violations_are_flagged() {
        // Delete record on an absent key.
        let h = KvShardedHistory {
            ops: vec![del(0, 1, 7, true)],
            shards: vec![vec![vec![drec(0, 1, 7, 0)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::DeleteOfAbsentKey { .. }
            }
        ));
        // Delete record carrying the wrong removed value.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true), del(1, 2, 7, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 70), drec(1, 2, 7, 71)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::DeletedValueMismatch { .. }
            }
        ));
        // Delete answered false yet owns a record.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true), del(1, 2, 7, false)],
            shards: vec![vec![vec![rec(0, 1, 7, 70), drec(1, 2, 7, 70)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::RejectedButApplied { .. }
            }
        ));
    }

    #[test]
    fn unexplained_get_is_flagged() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true), get(1, 2, 7, Some(71))],
            shards: vec![vec![vec![rec(0, 1, 7, 70)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::UnexplainedGet { .. }
            }
        ));
        // Got(None) is always explainable (the key starts absent).
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true), get(1, 2, 7, None)],
            shards: vec![vec![vec![rec(0, 1, 7, 70)]]],
        };
        assert!(check(&h, &[0]).is_linearizable());
    }

    #[test]
    fn wrong_record_kind_is_flagged() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![drec(0, 1, 7, 70)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::WrongRecordKind { .. }
            }
        ));
    }

    #[test]
    fn rejected_put_must_leave_no_record() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, false)],
            shards: vec![vec![vec![]]],
        };
        assert!(check(&h, &[0]).is_linearizable());
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, false)],
            shards: vec![vec![vec![rec(0, 1, 7, 70)]]],
        };
        assert!(matches!(
            check(&h, &[0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::RejectedButApplied { .. }
            }
        ));
    }

    #[test]
    fn sharded_history_with_routed_chains_is_linearizable() {
        let h = KvShardedHistory {
            ops: vec![
                put(0, 1, 2, 20, true),
                put(1, 2, 3, 30, true),
                cas(0, 3, 3, 30, 31, true),
                del(1, 4, 2, true),
                get(2, 5, 3, Some(31)),
            ],
            shards: vec![
                vec![vec![rec(0, 1, 2, 20), drec(1, 4, 2, 20)]],
                vec![vec![rec(1, 2, 3, 30), rec(0, 3, 3, 31)]],
            ],
        };
        assert!(check(&h, &[0, 0]).is_linearizable());
    }

    #[test]
    fn misrouted_record_is_flagged() {
        // Key 3 is odd → home shard 1, but its record sits in shard 0.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 3, 30, true)],
            shards: vec![vec![vec![rec(0, 1, 3, 30)]], vec![vec![]]],
        };
        assert_eq!(
            check(&h, &[0, 0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::MisroutedKey {
                    tag: (0, 1),
                    key: 3,
                    shard: 0,
                    home: 1,
                }
            }
        );
    }

    #[test]
    fn duplicate_application_across_shards_is_flagged() {
        // The same tag published in two shards (a recovery bug that
        // re-executed in the wrong shard would produce this after a
        // router change): global tag bookkeeping must catch it even
        // though each shard's local replay looks fine.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 2, 20, true), put(0, 2, 3, 20, true)],
            shards: vec![
                vec![vec![rec(0, 1, 2, 20)]],
                vec![vec![KvWitnessRecord {
                    key: 3,
                    value: 20,
                    pid: 0,
                    seq: 1,
                    is_delete: false,
                    compacted: false,
                    gen: 0,
                }]],
            ],
        };
        assert!(matches!(
            check(&h, &[0, 0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::DuplicateApplication { .. }
            }
        ));
    }

    #[test]
    fn sharded_lost_update_and_unexplained_get_are_flagged() {
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 2, 20, true)],
            shards: vec![vec![vec![]], vec![vec![]]],
        };
        assert!(matches!(
            check(&h, &[0, 0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::LostUpdate { .. }
            }
        ));
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 2, 20, true), get(1, 2, 2, Some(99))],
            shards: vec![vec![vec![rec(0, 1, 2, 20)]], vec![vec![]]],
        };
        assert!(matches!(
            check(&h, &[0, 0]),
            KvVerdict::NotLinearizable {
                violation: KvViolation::UnexplainedGet { .. }
            }
        ));
    }

    #[test]
    fn empty_sharded_history_is_linearizable() {
        let h = KvShardedHistory {
            ops: vec![],
            shards: vec![vec![vec![], vec![]], vec![vec![]]],
        };
        assert!(check(&h, &[0, 0]).is_linearizable());
    }

    // ---- generation boundaries (compaction) ----------------------------

    #[test]
    fn chains_spanning_a_generation_boundary_are_linearizable() {
        // Generation 0 history, a compaction carrying the one live key,
        // then fresh generation-1 traffic — all in one bucket chain.
        let h = KvShardedHistory {
            ops: vec![
                put(0, 1, 7, 70, true),
                cas(1, 2, 7, 70, 71, true),
                put(0, 3, 8, 80, true),
                del(1, 4, 8, true),
                put(2, 5, 9, 90, true),
            ],
            shards: vec![vec![vec![
                rec(0, 1, 7, 70),
                rec(1, 2, 7, 71),
                rec(0, 3, 8, 80),
                drec(1, 4, 8, 80),
                carry(1, 2, 7, 71, 1),
                rec_gen(2, 5, 9, 90, 1),
            ]]],
        };
        assert!(check(&h, &[1]).is_linearizable());
    }

    #[test]
    fn carried_records_do_not_count_as_applications() {
        // The carry repeats the original's tag; that is a copy, not a
        // double application — and the answered op still owns exactly
        // one real record.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 70), carry(0, 1, 7, 70, 1)]]],
        };
        assert!(check(&h, &[1]).is_linearizable());
        // Carried twice (two consecutive compactions): still fine.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![
                rec(0, 1, 7, 70),
                carry(0, 1, 7, 70, 1),
                carry(0, 1, 7, 70, 2),
            ]]],
        };
        assert!(check(&h, &[2]).is_linearizable());
    }

    #[test]
    fn dropped_live_key_is_flagged() {
        // Key 7 was live at the boundary but has no record in the
        // active generation: the swap dropped it.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true), put(0, 2, 9, 90, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 70), rec_gen(0, 2, 9, 90, 1)]]],
        };
        match check(&h, &[1]).violation() {
            Some(KvViolation::DroppedByCompaction {
                key,
                last_gen,
                active_gen,
                ..
            }) => {
                assert_eq!((*key, *last_gen, *active_gen), (7, 0, 1));
            }
            other => panic!("expected DroppedByCompaction, got {other:?}"),
        }
        // A key *deleted* before the boundary is legitimately absent.
        let h = KvShardedHistory {
            ops: vec![
                put(0, 1, 7, 70, true),
                del(0, 2, 7, true),
                put(0, 3, 9, 90, true),
            ],
            shards: vec![vec![vec![
                rec(0, 1, 7, 70),
                drec(0, 2, 7, 70),
                rec_gen(0, 3, 9, 90, 1),
            ]]],
        };
        assert!(check(&h, &[1]).is_linearizable());
    }

    #[test]
    fn explicit_generation_catches_what_inference_cannot() {
        // A drop-everything compaction leaves no generation-1 records
        // at all, so nothing in the records says a swap happened: the
        // store's real generation number exposes the drop — why every
        // caller passes the store's own generations.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 70)]]],
        };
        assert!(matches!(
            check(&h, &[1]).violation(),
            Some(KvViolation::DroppedByCompaction { .. })
        ));
    }

    #[test]
    fn carried_value_mismatch_is_flagged() {
        // Carry claims 99 but the key held 70 at the boundary.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![rec(0, 1, 7, 70), carry(0, 1, 7, 99, 1)]]],
        };
        match check(&h, &[1]).violation() {
            Some(KvViolation::CarriedValueMismatch { carried, held, .. }) => {
                assert_eq!((*carried, *held), (99, Some(70)));
            }
            other => panic!("expected CarriedValueMismatch, got {other:?}"),
        }
        // Carry of a key that was dead at the boundary (held = None).
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true), del(1, 2, 7, true)],
            shards: vec![vec![vec![
                rec(0, 1, 7, 70),
                drec(1, 2, 7, 70),
                carry(0, 1, 7, 70, 1),
            ]]],
        };
        assert!(matches!(
            check(&h, &[1]).violation(),
            Some(KvViolation::CarriedValueMismatch { held: None, .. })
        ));
    }

    #[test]
    fn carried_delete_and_carried_without_origin_are_flagged() {
        let bad_carry = KvWitnessRecord {
            is_delete: true,
            ..carry(0, 1, 7, 70, 1)
        };
        let h = KvShardedHistory {
            ops: vec![del(0, 1, 7, true)],
            shards: vec![vec![vec![bad_carry]]],
        };
        assert!(matches!(
            check(&h, &[1]).violation(),
            Some(KvViolation::CarriedDelete { .. })
        ));
        // A carry whose tag no generation ever published: the compactor
        // invented a record.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![carry(0, 1, 7, 70, 1)]]],
        };
        assert!(matches!(
            check(&h, &[1]).violation(),
            Some(KvViolation::CarriedWithoutOrigin { .. })
        ));
    }

    #[test]
    fn generation_stamps_must_be_ordered_and_in_range() {
        // Regression along the chain.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true), put(0, 2, 9, 90, true)],
            shards: vec![vec![vec![rec_gen(0, 1, 7, 70, 1), rec(0, 2, 9, 90)]]],
        };
        assert!(matches!(
            check(&h, &[1]).violation(),
            Some(KvViolation::GenerationOutOfOrder { .. })
        ));
        // A record from the future.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 7, 70, true)],
            shards: vec![vec![vec![rec_gen(0, 1, 7, 70, 2)]]],
        };
        assert!(matches!(
            check(&h, &[1]).violation(),
            Some(KvViolation::GenerationOutOfOrder { .. })
        ));
    }

    #[test]
    fn sharded_generations_are_checked_per_shard() {
        // Shard 0 compacted to generation 1 (live key carried); shard 1
        // never compacted. Per-shard generation numbers make both pass.
        let h = KvShardedHistory {
            ops: vec![put(0, 1, 2, 20, true), put(1, 2, 3, 30, true)],
            shards: vec![
                vec![vec![rec(0, 1, 2, 20), carry(0, 1, 2, 20, 1)]],
                vec![vec![rec(1, 2, 3, 30)]],
            ],
        };
        assert!(check(&h, &[1, 0]).is_linearizable());
        // Claiming shard 1 is also at generation 1 exposes its live key
        // as dropped.
        assert!(matches!(
            check(&h, &[1, 1]).violation(),
            Some(KvViolation::DroppedByCompaction { key: 3, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "one active generation per shard")]
    fn sharded_generation_count_mismatch_panics() {
        let h = KvShardedHistory {
            ops: vec![],
            shards: vec![vec![vec![]], vec![vec![]]],
        };
        let _ = check(&h, &[0]);
    }

    #[test]
    fn kv_spec_matches_map_semantics() {
        let mut spec = KvSpec::new();
        assert_eq!(spec.get(1), None);
        assert!(spec.put(1, 10));
        assert_eq!(spec.get(1), Some(10));
        assert!(!spec.cas(1, 99, 11));
        assert!(spec.cas(1, 10, 11));
        assert!(spec.delete(1));
        assert!(!spec.delete(1));
        assert!(!spec.cas(1, 11, 12), "cas on absent key fails");
        assert!(spec.contents().is_empty());
    }

    #[test]
    fn interleaved_multi_mutator_shard_histories_pass() {
        // Several writers publish records onto one shard's bucket
        // chains, so one chain freely interleaves pids and their seqs
        // arrive in publication order, not per-pid program order. The checker must accept any such
        // interleaving — it keys everything on the (pid, seq) tags,
        // never on per-pid ordering within a chain.
        let history = KvShardedHistory {
            ops: vec![
                put(1, 1, 0, 10, true),
                put(2, 1, 0, 20, true),
                put(1, 2, 0, 30, true),
                put(3, 1, 2, 5, true),
                put(2, 2, 2, 6, true),
                put(2, 3, 1, 7, true),
                put(1, 3, 1, 8, true),
                get(4, 1, 0, Some(30)),
            ],
            shards: vec![
                vec![
                    // Two mutators alternating on one key, a third
                    // racing them on another key of the same shard.
                    vec![rec(1, 1, 0, 10), rec(2, 1, 0, 20), rec(1, 2, 0, 30)],
                    vec![rec(3, 1, 2, 5), rec(2, 2, 2, 6)],
                ],
                vec![vec![rec(2, 3, 1, 7), rec(1, 3, 1, 8)]],
            ],
        };
        assert!(check(&history, &[0, 0]).is_linearizable());

        // The tag bookkeeping stays global across the interleaving: a
        // record double-published by two racing mutators is caught.
        let mut dup = history;
        dup.shards[0][1].push(rec(1, 1, 2, 10));
        let verdict = check(&dup, &[0, 0]);
        assert_eq!(
            verdict.violation().unwrap().tag(),
            (1, 1),
            "duplicate application across chains must be named: {verdict:?}"
        );
    }

    #[test]
    fn violations_display_nonempty() {
        let violations = [
            KvViolation::DuplicateOpTag { tag: (0, 1) },
            KvViolation::DuplicateApplication { tag: (0, 1) },
            KvViolation::PhantomRecord { tag: (0, 1) },
            KvViolation::KeyMismatch {
                tag: (0, 1),
                record_key: 1,
                op_key: 2,
            },
            KvViolation::WrongRecordKind { tag: (0, 1) },
            KvViolation::ValueMismatch {
                tag: (0, 1),
                record_value: 1,
                op_value: 2,
            },
            KvViolation::CasExpectationViolated {
                tag: (0, 1),
                expected: 1,
                found: None,
            },
            KvViolation::DeleteOfAbsentKey { tag: (0, 1) },
            KvViolation::DeletedValueMismatch {
                tag: (0, 1),
                record_value: 1,
                held: 2,
            },
            KvViolation::LostUpdate { tag: (0, 1) },
            KvViolation::RejectedButApplied { tag: (0, 1) },
            KvViolation::UnexplainedGet {
                tag: (0, 1),
                reported: 3,
            },
            KvViolation::MisroutedKey {
                tag: (0, 1),
                key: 3,
                shard: 0,
                home: 1,
            },
            KvViolation::CarriedDelete { tag: (0, 1) },
            KvViolation::CarriedWithoutOrigin { tag: (0, 1) },
            KvViolation::CarriedValueMismatch {
                tag: (0, 1),
                key: 3,
                carried: 1,
                held: Some(2),
            },
            KvViolation::DroppedByCompaction {
                tag: (0, 1),
                key: 3,
                last_gen: 0,
                active_gen: 1,
            },
            KvViolation::GenerationOutOfOrder {
                tag: (0, 1),
                gen: 2,
                prev_gen: 0,
                active_gen: 1,
            },
        ];
        for v in violations {
            assert!(!v.to_string().is_empty());
            assert_eq!(v.tag(), (0, 1));
            let verdict = KvVerdict::NotLinearizable {
                violation: v.clone(),
            };
            assert_eq!(verdict.violation(), Some(&v));
        }
        assert_eq!(KvVerdict::Linearizable.violation(), None);
    }
}
