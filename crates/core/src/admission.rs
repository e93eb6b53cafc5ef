//! Admission control for batch-window execution: a bounded queue that
//! **sheds explicitly** instead of growing or dropping.
//!
//! The runtime executes work in group-commit batch windows; a serving
//! front end admits requests into the window that will carry them. Two
//! failure modes are unacceptable in that position:
//!
//! * an *unbounded* queue — a durable-before-visible server must bound
//!   the work it has promised but not yet persisted, or a slow client
//!   population inflates memory and tail latency without limit;
//! * a *silent drop* — a request that was accepted and then discarded
//!   violates at-least-once acking; the client times out and retries,
//!   but nothing distinguishes the drop from a crash, so the operator
//!   never learns the server is saturated.
//!
//! [`AdmissionQueue`] closes both: [`offer`](AdmissionQueue::offer)
//! either admits (FIFO, bounded) or returns
//! [`Admission::Shed`] — the caller's cue to answer `Overloaded` right
//! away — and both outcomes are counted, so saturation is observable
//! before it is fatal.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Outcome of an [`AdmissionQueue::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The item was enqueued; `depth` is the queue depth including it.
    Admitted {
        /// Queue depth after admission.
        depth: usize,
    },
    /// The queue is at capacity. The item was **not** enqueued; answer
    /// the client with an explicit overload response.
    Shed,
}

#[derive(Debug, Default)]
struct AdmissionState<T> {
    queue: VecDeque<T>,
    admitted: u64,
    shed: u64,
    depth_high_water: usize,
}

/// A bounded FIFO feeding batch windows, with explicit load shedding.
///
/// # Example
///
/// ```
/// use pstack_core::{Admission, AdmissionQueue};
///
/// let q: AdmissionQueue<u64> = AdmissionQueue::new(2);
/// assert_eq!(q.offer(10), Admission::Admitted { depth: 1 });
/// assert_eq!(q.offer(11), Admission::Admitted { depth: 2 });
/// assert_eq!(q.offer(12), Admission::Shed); // full → explicit, never silent
/// assert_eq!(q.drain_window(8), vec![10, 11]);
/// assert_eq!(q.shed(), 1);
/// ```
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    capacity: usize,
    state: Mutex<AdmissionState<T>>,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue admitting at most `capacity` pending items.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity — a queue that sheds everything is a
    /// configuration error, not a policy.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue needs capacity >= 1");
        AdmissionQueue {
            capacity,
            state: Mutex::new(AdmissionState {
                queue: VecDeque::with_capacity(capacity),
                admitted: 0,
                shed: 0,
                depth_high_water: 0,
            }),
        }
    }

    /// The bound on pending items.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits `item` or sheds it, never blocking and never growing past
    /// the bound.
    ///
    /// # Panics
    ///
    /// Panics if the queue lock is poisoned.
    pub fn offer(&self, item: T) -> Admission {
        let mut st = self.state.lock().expect("admission queue poisoned");
        if st.queue.len() >= self.capacity {
            st.shed += 1;
            return Admission::Shed;
        }
        st.queue.push_back(item);
        st.admitted += 1;
        let depth = st.queue.len();
        st.depth_high_water = st.depth_high_water.max(depth);
        Admission::Admitted { depth }
    }

    /// Sheds **before the caller builds the item**: if the queue is at
    /// capacity, counts a shed and returns `true`; otherwise changes
    /// nothing. For callers whose item is costly to make (a serving
    /// front end claims a durable slot per request) and must not exist
    /// if it would only be shed.
    ///
    /// # Panics
    ///
    /// Panics if the queue lock is poisoned.
    pub fn shed_if_full(&self) -> bool {
        let mut st = self.state.lock().expect("admission queue poisoned");
        let full = st.queue.len() >= self.capacity;
        if full {
            st.shed += 1;
        }
        full
    }

    /// Dequeues up to `max` items in admission order — one batch
    /// window's worth of work.
    ///
    /// # Panics
    ///
    /// Panics if the queue lock is poisoned.
    pub fn drain_window(&self, max: usize) -> Vec<T> {
        let mut st = self.state.lock().expect("admission queue poisoned");
        let take = max.min(st.queue.len());
        st.queue.drain(..take).collect()
    }

    /// Pending items not yet drained into a window.
    ///
    /// # Panics
    ///
    /// Panics if the queue lock is poisoned.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .expect("admission queue poisoned")
            .queue
            .len()
    }

    /// Total items admitted since construction.
    ///
    /// # Panics
    ///
    /// Panics if the queue lock is poisoned.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.state
            .lock()
            .expect("admission queue poisoned")
            .admitted
    }

    /// Total items shed since construction — the saturation signal.
    ///
    /// # Panics
    ///
    /// Panics if the queue lock is poisoned.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.state.lock().expect("admission queue poisoned").shed
    }

    /// Deepest the queue has ever been (≤ capacity, by construction).
    ///
    /// # Panics
    ///
    /// Panics if the queue lock is poisoned.
    #[must_use]
    pub fn depth_high_water(&self) -> usize {
        self.state
            .lock()
            .expect("admission queue poisoned")
            .depth_high_water
    }

    /// Discards all pending items (a reboot empties volatile queues —
    /// clients re-drive their requests through retries).
    ///
    /// # Panics
    ///
    /// Panics if the queue lock is poisoned.
    pub fn clear(&self) {
        self.state
            .lock()
            .expect("admission queue poisoned")
            .queue
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_window_sizing() {
        let q = AdmissionQueue::new(4);
        for i in 0..4u32 {
            assert_eq!(
                q.offer(i),
                Admission::Admitted {
                    depth: i as usize + 1
                }
            );
        }
        assert_eq!(q.drain_window(3), vec![0, 1, 2]);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.offer(4), Admission::Admitted { depth: 2 });
        assert_eq!(q.drain_window(10), vec![3, 4]);
        assert!(q.drain_window(10).is_empty());
    }

    #[test]
    fn sheds_at_capacity_never_grows_never_drops() {
        let q = AdmissionQueue::new(2);
        assert!(matches!(q.offer(1), Admission::Admitted { .. }));
        assert!(matches!(q.offer(2), Admission::Admitted { .. }));
        // Every over-capacity offer is an explicit Shed — and the items
        // already admitted are untouched (no silent replacement).
        for _ in 0..50 {
            assert_eq!(q.offer(99), Admission::Shed);
        }
        assert_eq!(q.depth(), 2);
        assert_eq!(q.depth_high_water(), 2);
        assert_eq!(q.admitted(), 2);
        assert_eq!(q.shed(), 50);
        // A shed before the item is built counts the same way.
        assert!(q.shed_if_full());
        assert_eq!(q.shed(), 51);
        assert_eq!(q.drain_window(8), vec![1, 2]);
        assert!(
            !q.shed_if_full(),
            "room again: nothing shed, nothing counted"
        );
        assert_eq!(q.shed(), 51);
        // Draining reopens admission.
        assert!(matches!(q.offer(3), Admission::Admitted { .. }));
    }

    #[test]
    fn clear_discards_pending_but_keeps_counters() {
        let q = AdmissionQueue::new(3);
        q.offer(7);
        q.offer(8);
        q.clear();
        assert_eq!(q.depth(), 0);
        assert_eq!(q.admitted(), 2);
        assert!(matches!(q.offer(9), Admission::Admitted { depth: 1 }));
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_is_a_config_error() {
        let _ = AdmissionQueue::<u8>::new(0);
    }
}
