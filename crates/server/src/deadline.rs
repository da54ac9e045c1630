//! Per-request deadlines on the monotonic clock.
//!
//! A connection's first request gets a [`Deadline`] stamped at accept
//! time, and each later request on it one stamped at its first byte;
//! the remaining budget is threaded through head reading, routing, and
//! response writing as socket timeouts. The anchor is `Instant` — the
//! monotonic clock — never `SystemTime`: a wall-clock step (NTP, DST)
//! must not extend or shrink a request's budget. The single
//! `Instant::now()` read carries an `#[expect]` because the reading
//! bounds *service* time and never influences mined output.

use std::time::{Duration, Instant};

/// A monotonic deadline: a start anchor plus a fixed budget.
///
/// The deadline is `Copy` and carries no interior state, so it can be
/// handed across the accept → queue → worker boundary and consulted at
/// every blocking point without coordination.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// Opens a deadline with `budget` starting now.
    #[expect(
        clippy::disallowed_methods,
        reason = "monotonic request-budget anchor; bounds service time only and never influences mined output"
    )]
    pub fn starting_now(budget: Duration) -> Self {
        Self {
            start: Instant::now(),
            budget,
        }
    }

    /// The budget this deadline was opened with.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Time left before the deadline, or `None` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.budget.checked_sub(self.start.elapsed())
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.remaining().is_none()
    }

    /// Time since the deadline was opened (drives latency histograms).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The remaining budget clamped to at least `floor` — used for
    /// best-effort writes of *error* responses (a 408 for an expired
    /// request still deserves a brief write window) without ever handing
    /// a zero timeout to the socket layer, which `std` rejects.
    pub fn write_window(&self, floor: Duration) -> Duration {
        self.remaining().unwrap_or(Duration::ZERO).max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_has_budget() {
        let d = Deadline::starting_now(Duration::from_secs(5));
        assert!(!d.expired());
        let rem = d.remaining().expect("fresh deadline");
        assert!(rem <= Duration::from_secs(5));
        assert!(rem > Duration::from_secs(4));
        assert_eq!(d.budget(), Duration::from_secs(5));
    }

    #[test]
    fn zero_budget_is_immediately_expired() {
        let d = Deadline::starting_now(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn write_window_never_hits_zero() {
        let d = Deadline::starting_now(Duration::ZERO);
        assert_eq!(
            d.write_window(Duration::from_millis(50)),
            Duration::from_millis(50)
        );
        let fresh = Deadline::starting_now(Duration::from_secs(10));
        assert!(fresh.write_window(Duration::from_millis(50)) > Duration::from_secs(9));
    }

    #[test]
    fn elapsed_grows() {
        let d = Deadline::starting_now(Duration::from_secs(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.elapsed() >= Duration::from_millis(2));
    }
}
