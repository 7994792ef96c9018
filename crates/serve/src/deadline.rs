//! Per-request wall-clock deadlines.
//!
//! This module is where the *request path* reads the wall clock
//! (`Instant::now`); everything downstream receives a [`Deadline`]
//! and asks it questions. The only other clock site in the crate is
//! the drain-completion wait in [`crate::lifecycle`], which times out
//! a blocking shutdown and never feeds request handling. Confining
//! the clock keeps the rest of the crate deterministic and testable —
//! the workspace determinism lint enforces the confinement by file
//! path.
//!
//! A connection's first request is stamped when the connection is
//! *accepted*, so its budget covers queue wait as well as parsing and
//! handling: a request that sat in the admission queue for its whole
//! budget is answered with an overload error instead of being
//! processed late. Each later request on a kept-alive connection is
//! stamped when its first byte arrives, so a slowloris drip on request
//! 2 still ends in a 408, and time spent idle between requests is not
//! charged to the next one. A body's `deadline_s` is measured from the
//! same stamp ([`Deadline::with_budget`]). The idle budget a kept-alive
//! connection gets between requests is a [`Deadline`] too. The numeric
//! budget also seeds the negotiator's simulated-time budget
//! ([`rsg_core::RetryPolicy::total_deadline_s`]) for `/spec` requests
//! that bind against a selector.

use std::time::Instant;

/// A wall-clock budget stamped at connection accept (a connection's
/// first request) or at a request's first byte (later requests).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget_s: f64,
}

impl Deadline {
    /// Stamps "now" with the given budget in seconds.
    pub fn start(budget_s: f64) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget_s,
        }
    }

    /// The same start instant with a different budget — used when a
    /// request body carries its own `deadline_s`, which is measured
    /// from the request's stamp, not from parse.
    pub fn with_budget(&self, budget_s: f64) -> Deadline {
        Deadline {
            start: self.start,
            budget_s,
        }
    }

    /// Seconds elapsed since the deadline was stamped.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The configured budget, seconds.
    pub fn budget_s(&self) -> f64 {
        self.budget_s
    }

    /// Seconds of budget left (clamped at zero).
    pub fn remaining_s(&self) -> f64 {
        (self.budget_s - self.elapsed_s()).max(0.0)
    }

    /// Whether the budget is spent. A non-positive budget is expired
    /// from the start, which is what makes "a request past its
    /// deadline" deterministic to test.
    pub fn expired(&self) -> bool {
        self.elapsed_s() >= self.budget_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_is_live_and_zero_budget_is_expired() {
        let d = Deadline::start(60.0);
        assert!(!d.expired());
        assert!(d.remaining_s() > 0.0);
        assert_eq!(d.budget_s(), 60.0);

        let zero = d.with_budget(0.0);
        assert!(zero.expired());
        assert_eq!(zero.remaining_s(), 0.0);

        let negative = d.with_budget(-5.0);
        assert!(negative.expired());
    }

    #[test]
    fn rebudget_keeps_the_original_start() {
        let d = Deadline::start(1.0);
        let wide = d.with_budget(3600.0);
        // elapsed is measured from the same stamp for both.
        assert!((wide.elapsed_s() - d.elapsed_s()).abs() < 0.5);
        assert!(!wide.expired());
    }
}
