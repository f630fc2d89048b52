//! The run clock, and the one driver every in-process node runs under.
//!
//! Every node of the hierarchy — a device, the gateway or a tier, and the
//! orchestrator's sample pump — is split in two:
//!
//! * a core (`Core`) decides. It holds no thread, clock, sleep or blocking
//!   receive: it is handed `now` (f64 milliseconds on the run's
//!   [`SimClock`]) with a frame or a wake-up, and reports when it next
//!   needs a wake-up. Every deadline and timestamp it keeps is on that
//!   same f64 scale;
//! * `drive` waits. It owns the node's inbox and the clock, reads the
//!   clock, does the only timed receive and hands the core what arrived.
//!
//! A node wakes for one of three reasons: a frame arrived, the core's
//! next wake-up fell due, or the retransmit timer of an ARQ link the node
//! sends on fell due. `drive` runs those timers itself, through the
//! inbox ([`NodeInbox::retransmit`]), so ARQ needs no wait of its own.
//!
//! Node threads do real compute, so the clock is anchored to the wall
//! clock. A virtual-time simulator is a second `drive` over the same
//! cores: one that advances a virtual `now` and delivers frames from a
//! seeded queue instead of an inbox.

use crate::error::Result;
use crate::link::NodeInbox;
use crate::message::Frame;
use std::time::Instant;

/// A monotonic clock started at the beginning of a run. Its one reading,
/// [`SimClock::elapsed_ms_f64`], is the time scale of every deadline.
#[derive(Debug, Clone, Copy)]
pub struct SimClock {
    start: Instant,
}

impl SimClock {
    /// Starts the clock at the current instant. A run's clock is started
    /// with its [`crate::RunObs`], which hands it to every node.
    pub fn start() -> Self {
        SimClock { start: Instant::now() }
    }

    /// Milliseconds elapsed since the run started, with sub-millisecond
    /// resolution.
    pub fn elapsed_ms_f64(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

/// The decisions of one node, free of threads, clocks, sleeps and
/// blocking receives. Times are milliseconds on the run's [`SimClock`].
pub(crate) trait Core {
    /// Acts on whatever is due at `now`: expired deadlines, a gathered
    /// micro-batch, admissions. [`drive`] calls it first, and again after
    /// every frame (or run of drained frames) and every wake-up. A core
    /// that acts on frames alone has nothing to do here.
    fn on_wake(&mut self, _now: f64) -> Result<()> {
        Ok(())
    }

    /// Takes one frame that arrived at `now`.
    fn on_frame(&mut self, now: f64, frame: Frame) -> Result<()>;

    /// When the core next needs a wake-up if no frame arrives first:
    /// `INFINITY` (the default) when only a frame can move it, an instant
    /// not past the last `now` when it must not wait at all.
    fn next_wake(&self) -> f64 {
        f64::INFINITY
    }

    /// Whether to take another frame that is already queued (never
    /// waiting for one) before the next wake-up: a micro-batch drain.
    fn drain(&self) -> bool {
        false
    }

    /// The core has finished: [`drive`] returns.
    fn done(&self) -> bool;
}

/// Runs `core` on `inbox` until it is done, and hands it back: reads
/// `clock`, wakes the core, retransmits what is due on the node's ARQ
/// links, waits for one frame until the core's next wake-up or the next
/// retransmission at the latest (the only timed receive of a node), then
/// drains the already-queued frames the core asks for.
///
/// # Errors
///
/// Whatever the core or the inbox returns; [`crate::RuntimeError::Disconnected`]
/// when every sender of the inbox hung up.
pub(crate) fn drive<C: Core>(mut core: C, inbox: &mut NodeInbox, clock: SimClock) -> Result<C> {
    loop {
        core.on_wake(clock.elapsed_ms_f64())?;
        if core.done() {
            return Ok(core);
        }
        // The clock is read again: a wake-up that fell due while the core
        // was busy is acted on before any frame is taken.
        let wake = core.next_wake().min(inbox.retransmit(clock.elapsed_ms_f64()));
        if wake > clock.elapsed_ms_f64() {
            // No frame: the wake-up is due.
            let Some(frame) = inbox.recv_until(&clock, wake)? else { continue };
            core.on_frame(clock.elapsed_ms_f64(), frame)?;
        }
        while core.drain() {
            let Some(frame) = inbox.try_recv()? else { break };
            core.on_frame(clock.elapsed_ms_f64(), frame)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let clock = SimClock::start();
        let a = clock.elapsed_ms_f64();
        let b = clock.elapsed_ms_f64();
        assert!(b >= a);
    }

    #[test]
    fn elapsed_f64_keeps_sub_ms_resolution() {
        // The reading moves in steps far finer than a millisecond: of a few
        // first changes (a preemption can stretch any one of them), some
        // are a fraction of one. A whole-millisecond clock would show none.
        let clock = SimClock::start();
        let step = || {
            let a = clock.elapsed_ms_f64();
            loop {
                let b = clock.elapsed_ms_f64();
                if b != a {
                    return b - a;
                }
            }
        };
        assert!((0..5).map(|_| step()).any(|d| d > 0.0 && d < 1.0));
    }
}
