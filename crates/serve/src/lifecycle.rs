//! Service lifecycle: admission state and graceful drain.
//!
//! A serving process is either **running** (admitting work) or
//! **draining** (refusing new work with `503 + Retry-After` while
//! every already-admitted request finishes under its own deadline).
//! [`Lifecycle`] holds that state plus the *pending* count —
//! connections admitted by the acceptor and not yet closed by a worker
//! — and a condvar so a drain can block until the count hits zero. A
//! kept-alive connection stays pending between its requests; its
//! worker closes it within one read slice once a drain begins. While
//! it waits for its next request it is also counted *idle*, so
//! [`busy`] — the backlog a shed client's `Retry-After` is sized by —
//! counts only connections with a request queued or in progress.
//!
//! The accounting contract is strict: the acceptor calls [`admit`]
//! exactly once per connection it enqueues (and [`retract`] if the
//! queue turned out to be full), and a worker calls [`finish`] exactly
//! once per dequeued connection, whatever happened to it — served,
//! shed, timed out, or panicked (the worker's `catch_unwind` covers
//! the decrement). That makes `pending == 0` a true "no request in
//! the building" condition, which is what lets a drain promise *zero
//! dropped in-flight requests*.
//!
//! [`admit`]: Lifecycle::admit
//! [`retract`]: Lifecycle::retract
//! [`finish`]: Lifecycle::finish
//! [`busy`]: Lifecycle::busy

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// What the service is doing with new work right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceState {
    /// Admitting requests normally.
    Running,
    /// Refusing new admissions; in-flight requests are finishing.
    Draining,
}

impl ServiceState {
    /// Lowercase label used in `/readyz` and `/metrics` bodies.
    pub fn label(self) -> &'static str {
        match self {
            ServiceState::Running => "running",
            ServiceState::Draining => "draining",
        }
    }
}

/// Shared admission state: running/draining flag plus the pending
/// request count. All methods are lock-free on the hot path; only the
/// drain waiter and the zero-crossing notification touch the mutex.
#[derive(Debug, Default)]
pub struct Lifecycle {
    draining: AtomicBool,
    pending: AtomicU64,
    idle: AtomicU64,
    zero: Mutex<()>,
    zero_cv: Condvar,
}

impl Lifecycle {
    /// A fresh, running lifecycle with nothing pending.
    pub fn new() -> Lifecycle {
        Lifecycle::default()
    }

    /// Current admission state.
    pub fn state(&self) -> ServiceState {
        if self.draining.load(Ordering::SeqCst) {
            ServiceState::Draining
        } else {
            ServiceState::Running
        }
    }

    /// Whether the service is draining (refusing new admissions).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Connections admitted and not yet closed.
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::SeqCst)
    }

    /// Pending connections with a request queued or in progress:
    /// `pending` minus the kept-alive connections idling between
    /// requests.
    pub fn busy(&self) -> u64 {
        let idle = self.idle.load(Ordering::SeqCst);
        self.pending.load(Ordering::SeqCst).saturating_sub(idle)
    }

    /// Marks one pending connection idle (worker, while it waits for
    /// the connection's next request).
    pub fn idle_begin(&self) {
        self.idle.fetch_add(1, Ordering::SeqCst);
    }

    /// Ends an [`idle_begin`](Lifecycle::idle_begin) (the next request
    /// arrived, or the connection is closing).
    pub fn idle_end(&self) {
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }

    /// Records one admission (acceptor, before enqueue).
    pub fn admit(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// Reverts one admission that never made it into the queue (the
    /// acceptor answered the canned 503 itself).
    pub fn retract(&self) {
        self.finish();
    }

    /// Records one completion (worker, once the connection's last
    /// response is written — or after the connection died; either way
    /// no request of it is left in the building).
    pub fn finish(&self) {
        let before = self.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(before > 0, "finish() without a matching admit()");
        if before == 1 {
            // Lock-then-notify so a waiter between its pending() check
            // and its wait() cannot miss the wakeup.
            let _guard = self
                .zero
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.zero_cv.notify_all();
        }
    }

    /// Flips the service into draining. Idempotent; returns whether
    /// this call did the flip.
    pub fn begin_drain(&self) -> bool {
        !self.draining.swap(true, Ordering::SeqCst)
    }

    /// Blocks until every pending request has finished or `timeout`
    /// elapses; returns `true` when fully drained. Call after
    /// [`begin_drain`](Lifecycle::begin_drain) — with admissions
    /// stopped, `pending` can only fall.
    pub fn await_drained(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self
            .zero
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while self.pending.load(Ordering::SeqCst) > 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _timed_out) = self
                .zero_cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard = g;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admit_finish_accounting_and_state_flip() {
        let lc = Lifecycle::new();
        assert_eq!(lc.state(), ServiceState::Running);
        assert_eq!(lc.pending(), 0);
        lc.admit();
        lc.admit();
        assert_eq!(lc.pending(), 2);
        lc.idle_begin();
        assert_eq!(
            (lc.pending(), lc.busy()),
            (2, 1),
            "an idle connection is not backlog"
        );
        lc.idle_end();
        assert_eq!(lc.busy(), 2);
        lc.finish();
        lc.retract();
        assert_eq!(lc.pending(), 0);
        assert!(lc.begin_drain());
        assert!(!lc.begin_drain(), "second drain is a no-op");
        assert_eq!(lc.state(), ServiceState::Draining);
        assert_eq!(ServiceState::Draining.label(), "draining");
    }

    #[test]
    fn await_drained_returns_immediately_when_idle() {
        let lc = Lifecycle::new();
        lc.begin_drain();
        assert!(lc.await_drained(Duration::from_millis(10)));
    }

    #[test]
    fn await_drained_times_out_while_work_is_stuck() {
        let lc = Lifecycle::new();
        lc.admit();
        lc.begin_drain();
        assert!(!lc.await_drained(Duration::from_millis(30)));
        lc.finish();
        assert!(lc.await_drained(Duration::from_millis(10)));
    }

    #[test]
    fn await_drained_wakes_on_the_last_finish() {
        let lc = Arc::new(Lifecycle::new());
        for _ in 0..4 {
            lc.admit();
        }
        lc.begin_drain();
        let finisher = {
            let lc = Arc::clone(&lc);
            std::thread::spawn(move || {
                for _ in 0..4 {
                    std::thread::sleep(Duration::from_millis(5));
                    lc.finish();
                }
            })
        };
        assert!(
            lc.await_drained(Duration::from_secs(5)),
            "drain should complete once all four finish"
        );
        finisher.join().unwrap();
    }
}
