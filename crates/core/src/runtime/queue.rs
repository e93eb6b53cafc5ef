//! The task queue of §4.3, as the list a run hands its workers.
//!
//! The list is *volatile* (as in the paper: the main thread refills it
//! after every restart from its persistent record of outstanding work);
//! only task *effects* are persistent. Every task is on it before the
//! first worker starts, so it needs no close and no blocking pop.

use parking_lot::Mutex;

/// One unit of work: a registered function id plus serialized
/// arguments, exactly what a persistent stack frame records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Registered function id to invoke.
    pub func_id: u64,
    /// Serialized arguments passed to the function (and persisted in
    /// its frame).
    pub args: Vec<u8>,
}

impl Task {
    /// Creates a task.
    #[must_use]
    pub fn new(func_id: u64, args: Vec<u8>) -> Self {
        Task { func_id, args }
    }
}

/// A run's tasks, taken in order by its workers under one lock.
#[derive(Debug)]
pub(crate) struct TaskList {
    tasks: Mutex<std::vec::IntoIter<Task>>,
}

impl TaskList {
    pub(crate) fn new(tasks: impl IntoIterator<Item = Task>) -> Self {
        let tasks: Vec<Task> = tasks.into_iter().collect();
        TaskList {
            tasks: Mutex::new(tasks.into_iter()),
        }
    }

    /// Tasks not yet taken.
    pub(crate) fn len(&self) -> usize {
        self.tasks.lock().len()
    }

    /// The next task, `None` once all are taken. The lock is released
    /// when this returns, before the task runs: a worker that kept it
    /// across its task would starve every other worker.
    pub(crate) fn next(&self) -> Option<Task> {
        self.tasks.lock().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_single_consumer() {
        let list = TaskList::new([Task::new(1, vec![1]), Task::new(2, vec![2])]);
        assert_eq!(list.len(), 2);
        assert_eq!(list.next().unwrap().func_id, 1);
        assert_eq!(list.next().unwrap().func_id, 2);
        assert!(list.next().is_none());
        assert_eq!(list.len(), 0);
    }

    #[test]
    fn concurrent_consumers_drain_everything() {
        let list = TaskList::new((0..100).map(|i| Task::new(i, vec![])));
        let seen = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(t) = list.next() {
                        seen.lock().unwrap().push(t.func_id);
                    }
                });
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }
}
