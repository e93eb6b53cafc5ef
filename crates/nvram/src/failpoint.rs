//! Deterministic crash injection.
//!
//! The paper's experiments (§5.2) kill the process "at random moments".
//! For reproducibility we model a kill as a *fail plan*: a countdown of
//! persistence events (writes, per-line flushes, compare-exchanges)
//! after which the region enters the crashed state and every further
//! access fails with [`MemError::Crashed`](crate::MemError::Crashed).
//!
//! Counting *events* rather than wall-clock time makes exhaustive
//! crash-point enumeration possible: run an operation once to count its
//! events, then replay it `E` times, crashing after event `1..=E`, and
//! check that recovery succeeds from every intermediate state. The
//! sweep module builds that harness on top of this one
//! ([`sweep`](crate::sweep)).

/// A crash-injection plan for a [`PMem`](crate::PMem) region.
///
/// The plan fires when `countdown` persistence events have happened;
/// the crash then persists each dirty cache line independently with
/// probability `survival_prob` (seeded by `survivor_seed`), modelling
/// arbitrary evictions that may have happened before the crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailPlan {
    /// Number of further persistence events to allow before crashing.
    pub countdown: u64,
    /// Seed for the per-line survival decision.
    pub survivor_seed: u64,
    /// Probability in `[0, 1]` that a dirty line is persisted by the crash.
    pub survival_prob: f64,
}

impl FailPlan {
    /// Plan that crashes after `events` further persistence events,
    /// dropping every dirty line (the harshest survivors model).
    #[must_use]
    pub fn after_events(events: u64) -> Self {
        FailPlan {
            countdown: events,
            survivor_seed: 0,
            survival_prob: 0.0,
        }
    }

    /// Sets the survivors model: each dirty line independently persists
    /// with probability `prob`, decided deterministically from `seed`.
    #[must_use]
    pub fn with_survivors(mut self, seed: u64, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "survival probability must be within [0, 1]"
        );
        self.survivor_seed = seed;
        self.survival_prob = prob;
        self
    }
}

/// Internal countdown state; lives inside the region lock.
#[derive(Debug, Default)]
pub(crate) struct FailState {
    plan: Option<FailPlan>,
    /// Total persistence events observed since the region was opened.
    pub(crate) events: u64,
}

impl FailState {
    /// Registers one persistence event. Returns the plan if it just fired.
    pub(crate) fn on_event(&mut self) -> Option<FailPlan> {
        self.events += 1;
        if let Some(plan) = self.plan.as_mut() {
            if plan.countdown == 0 {
                let fired = *plan;
                self.plan = None;
                return Some(fired);
            }
            plan.countdown -= 1;
        }
        None
    }

    pub(crate) fn arm(&mut self, plan: FailPlan) {
        self.plan = Some(plan);
    }

    pub(crate) fn disarm(&mut self) {
        self.plan = None;
    }

    pub(crate) fn armed(&self) -> bool {
        self.plan.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countdown_fires_exactly_once() {
        let mut st = FailState::default();
        st.arm(FailPlan::after_events(2));
        assert!(st.on_event().is_none());
        assert!(st.on_event().is_none());
        assert!(st.on_event().is_some());
        assert!(st.on_event().is_none());
        assert_eq!(st.events, 4);
    }

    #[test]
    fn zero_countdown_fires_on_first_event() {
        let mut st = FailState::default();
        st.arm(FailPlan::after_events(0));
        assert!(st.on_event().is_some());
    }

    #[test]
    fn disarm_prevents_firing() {
        let mut st = FailState::default();
        st.arm(FailPlan::after_events(0));
        st.disarm();
        assert!(!st.armed());
        assert!(st.on_event().is_none());
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn survivors_probability_validated() {
        let _ = FailPlan::after_events(1).with_survivors(1, 1.5);
    }

    #[test]
    fn with_survivors_sets_fields() {
        let p = FailPlan::after_events(3).with_survivors(9, 0.5);
        assert_eq!(p.survivor_seed, 9);
        assert!((p.survival_prob - 0.5).abs() < f64::EPSILON);
        assert_eq!(p.countdown, 3);
    }
}
