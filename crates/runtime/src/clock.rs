//! The simulation clock deadlines are computed against.
//!
//! Node threads in this runtime do real compute, so simulated time is
//! anchored to the wall clock; [`SimClock`] centralizes "now", run-relative
//! elapsed time and deadline arithmetic behind one seam so every
//! deadline-bearing component (aggregation waits, the orchestrator
//! watchdog) measures time the same way — and so a virtual-time
//! implementation can later replace it without touching the node loops.
//! `recv_by` is the one place a deadline becomes a channel timeout.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// A monotonic clock started at the beginning of a run.
#[derive(Debug, Clone, Copy)]
pub struct SimClock {
    start: Instant,
}

impl SimClock {
    /// Starts the clock at the current instant.
    pub fn start() -> Self {
        SimClock { start: Instant::now() }
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        Instant::now()
    }

    /// Milliseconds elapsed since the run started, truncated to whole
    /// milliseconds — deadline arithmetic only. Latency accounting must
    /// use [`SimClock::elapsed_ms_f64`]: truncation here quantizes fast
    /// local exits to 0 ms and collapses every sub-ms percentile.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Milliseconds elapsed since the run started, with sub-millisecond
    /// resolution — the clock reading latency measurements record.
    pub fn elapsed_ms_f64(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// The instant `ms` milliseconds from now — the deadline for a wait
    /// that begins at this moment.
    pub fn deadline_in(&self, ms: u64) -> Instant {
        self.now() + Duration::from_millis(ms)
    }

    /// [`SimClock::deadline_in`] with sub-millisecond resolution, for
    /// waiting until an instant worked out from
    /// [`SimClock::elapsed_ms_f64`] readings; rounded up to whole
    /// milliseconds such a wait overshoots by up to 1 ms. Negative waits
    /// are due now.
    pub fn deadline_in_f64(&self, ms: f64) -> Instant {
        self.now() + Duration::from_secs_f64(ms.max(0.0) / 1e3)
    }
}

/// Receives from `rx`, waiting until `deadline` at the latest; an
/// instant already past polls once.
///
/// # Errors
///
/// [`RecvTimeoutError::Timeout`] when the deadline passes first,
/// [`RecvTimeoutError::Disconnected`] when every sender is gone.
pub(crate) fn recv_by<T>(rx: &Receiver<T>, deadline: Instant) -> Result<T, RecvTimeoutError> {
    rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_are_in_the_future_and_ordered() {
        let clock = SimClock::start();
        let now = clock.now();
        let near = clock.deadline_in(1);
        let far = clock.deadline_in(1000);
        assert!(near >= now);
        assert!(far > near);
        // The sub-millisecond form lands between whole milliseconds and
        // treats an overdue instant as due now.
        let now = clock.now();
        let half = clock.deadline_in_f64(0.5);
        assert!(half > now && half < clock.deadline_in(1));
        assert!(clock.deadline_in_f64(-3.0) <= clock.now());
    }

    #[test]
    fn recv_by_times_out_at_the_deadline_then_delivers() {
        let clock = SimClock::start();
        let (tx, rx) = std::sync::mpsc::channel();
        let deadline = clock.deadline_in(20);
        assert_eq!(recv_by(&rx, deadline), Err(RecvTimeoutError::Timeout));
        assert!(clock.now() >= deadline);
        tx.send(7).unwrap();
        assert_eq!(recv_by(&rx, deadline), Ok(7), "a past deadline still takes what is queued");
        drop(tx);
        assert_eq!(recv_by(&rx, clock.deadline_in(1000)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn elapsed_is_monotonic() {
        let clock = SimClock::start();
        let a = clock.elapsed_ms();
        let b = clock.elapsed_ms();
        assert!(b >= a);
    }

    #[test]
    fn elapsed_f64_keeps_sub_ms_resolution() {
        let clock = SimClock::start();
        std::thread::sleep(Duration::from_micros(300));
        let ms = clock.elapsed_ms_f64();
        // A ~0.3 ms wait truncates to 0 on the integral clock but must
        // register on the f64 one.
        assert!(ms > 0.0);
        let a = clock.elapsed_ms_f64();
        let b = clock.elapsed_ms_f64();
        assert!(b >= a);
    }
}
