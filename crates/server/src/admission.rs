//! Admission control: one bounded volatile queue per shard, which sheds
//! explicitly rather than grow or drop (the server module's "Admission
//! control" says why). All its state sits under one lock, which
//! [`ServerCore::submit`](crate::ServerCore::submit) holds across a whole
//! admission.

use std::collections::{HashSet, VecDeque};
use std::sync::{Mutex, MutexGuard};

/// One queued request, with the execution mode it must use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowEntry {
    pub(crate) req_id: u64,
    /// The op's wire kind, echoed in the `Done` its window produces.
    pub(crate) kind: u8,
    pub(crate) slot: u32,
    /// `true` if this entry *might* have executed before (a retry of a
    /// pending slot) — it and its whole window must run through the
    /// evidence-scanning recovery dual
    /// ([`pstack_kv::PKvStore::recover_batch`]).
    pub(crate) recovery: bool,
}

/// One shard's admission queue.
#[derive(Debug)]
pub(crate) struct ShardQueue(Mutex<AdmissionState>);

/// A shard's admission state, all of it under the [`ShardQueue`]'s lock.
#[derive(Debug, Default)]
pub(crate) struct AdmissionState {
    capacity: usize,
    entries: VecDeque<WindowEntry>,
    /// Request ids of `entries` — one request never occupies two seats.
    queued: HashSet<u64>,
    /// Entries admitted since construction.
    pub(crate) admitted: u64,
    /// Requests shed since construction — the saturation signal — by
    /// the queue or by the caller (a full request table).
    pub(crate) shed: u64,
}

impl ShardQueue {
    /// A queue of at most `capacity` entries. Zero capacity panics: a
    /// queue that sheds everything is a configuration error, not a policy.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue needs capacity >= 1");
        ShardQueue(Mutex::new(AdmissionState {
            capacity,
            ..AdmissionState::default()
        }))
    }

    /// The shard's admission state, locked (a poisoned lock panics).
    pub(crate) fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.0.lock().expect("admission queue poisoned")
    }
}

impl AdmissionState {
    /// Sheds **before the caller builds the entry**: if the queue is at
    /// capacity, counts a shed and returns `true`; otherwise changes
    /// nothing. The server claims a durable slot per entry, and a slot
    /// must not be claimed for a request that would only be shed.
    pub(crate) fn shed_if_full(&mut self) -> bool {
        let full = self.entries.len() >= self.capacity;
        if full {
            self.shed += 1;
        }
        full
    }

    /// Seats `entry`, never growing past the bound: `true` if it is
    /// queued (now, or already — a request's retry takes no second
    /// seat), `false` if it was shed (and counted).
    pub(crate) fn offer(&mut self, entry: WindowEntry) -> bool {
        if self.queued.contains(&entry.req_id) {
            return true;
        }
        if self.shed_if_full() {
            return false;
        }
        self.entries.push_back(entry);
        self.queued.insert(entry.req_id);
        self.admitted += 1;
        true
    }

    /// Dequeues up to `max` entries in admission order — one batch
    /// window's worth of work.
    pub(crate) fn drain_window(&mut self, max: usize) -> Vec<WindowEntry> {
        let take = max.min(self.entries.len());
        let drained: Vec<WindowEntry> = self.entries.drain(..take).collect();
        for e in &drained {
            self.queued.remove(&e.req_id);
        }
        drained
    }

    /// Entries not yet drained into a window.
    pub(crate) fn depth(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(req_id: u64) -> WindowEntry {
        WindowEntry {
            req_id,
            kind: 0,
            slot: req_id as u32,
            recovery: false,
        }
    }

    fn ids(entries: Vec<WindowEntry>) -> Vec<u64> {
        entries.into_iter().map(|e| e.req_id).collect()
    }

    #[test]
    fn fifo_order_and_window_sizing() {
        let q = ShardQueue::new(4);
        let mut st = q.lock();
        for i in 0..4 {
            assert!(st.offer(entry(i)));
            assert_eq!(st.depth(), i as usize + 1);
        }
        assert!(st.offer(entry(2)), "a queued id keeps its one seat");
        assert_eq!(ids(st.drain_window(3)), [0, 1, 2]);
        assert_eq!(st.depth(), 1);
        assert!(st.offer(entry(4)));
        assert_eq!(st.depth(), 2);
        assert_eq!(ids(st.drain_window(10)), [3, 4]);
        assert!(st.drain_window(10).is_empty());
        assert_eq!(st.admitted, 5);
    }

    #[test]
    fn sheds_at_capacity_never_grows_never_drops() {
        let q = ShardQueue::new(2);
        let mut st = q.lock();
        assert!(st.offer(entry(1)));
        assert!(st.offer(entry(2)));
        // Every over-capacity offer is an explicit shed — and the entries
        // already admitted are untouched (no silent replacement).
        for _ in 0..50 {
            assert!(!st.offer(entry(99)));
        }
        assert_eq!(st.depth(), 2);
        assert_eq!(st.admitted, 2);
        assert_eq!(st.shed, 50);
        // A shed before the entry is built counts the same way, and so
        // does one the caller decided.
        assert!(st.shed_if_full());
        st.shed += 1;
        assert_eq!(st.shed, 52);
        assert_eq!(ids(st.drain_window(8)), [1, 2]);
        assert!(
            !st.shed_if_full(),
            "room again: nothing shed, nothing counted"
        );
        assert_eq!(st.shed, 52);
        // Draining reopens admission.
        assert!(st.offer(entry(3)));
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_is_a_config_error() {
        let _ = ShardQueue::new(0);
    }
}
