//! Reliability layer: cumulative/NACK acknowledgements and bounded
//! retransmission with capped exponential backoff.
//!
//! The deadline collectors of the degradation tier treat every lost frame
//! as permanently gone: the sample is finalized with a blank signature and
//! the accuracy cost is paid. This module adds the recovery tier *under*
//! that backstop (cf. DistrEE's lossy edge links, arXiv:2502.15735). Every
//! frame carries a CRC-32 (see [`crate::message`]), and a link runs in
//!
//! * [`ReliabilityMode::Crc`] — corruption is *detected* and the frame
//!   discarded, after which deadline degradation recovers as before;
//! * [`ReliabilityMode::Arq`] — the same framing plus acknowledgement and
//!   retransmission: the receiver acks cumulatively and NACKs sequence
//!   gaps, the sender keeps a bounded retransmit buffer and retries with
//!   exponential backoff capped so several attempts always fit inside the
//!   sample deadline. A frame that exhausts its retries or outlives the
//!   deadline is abandoned — blank substitution remains the final word.
//!
//! An ARQ link's retransmit timer belongs to the node that sends on it:
//! its [`NodeInbox`](crate::link::NodeInbox) ticks the link from the
//! node's one [`drive`](crate::clock::drive) loop, and the earliest due
//! retransmission is one more wake-up of that loop.
//!
//! Every retransmission and every ack crosses the same fault-injected
//! wire as primary traffic and is priced into the link's counter cells
//! (the `frames_retransmitted`, `retx_payload_bytes` and `ack_bytes`
//! counters of [`LinkStats`](crate::LinkStats)), so the Eq. 1
//! communication model honestly reflects what recovery costs — and the
//! recovery share stays separable from first-transmission cost.

use crate::chaos::{damage, Delivery, LinkChaos};
use crate::lock;
use crate::message::{crc32, retransmit_form, Frame, HEADER_BYTES};
use crate::obs::{LinkCounters, ObsEvent, RunObs};
use crate::topology::DeadlineConfig;
use crate::transport::TransportTx;
use ddnn_tensor::cursor::Cursor;
use std::collections::BTreeSet;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};

/// How a link recovers its traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReliabilityMode {
    /// CRC-32 verification only: corrupt frames are discarded and
    /// degradation recovers the loss.
    #[default]
    Crc,
    /// CRC-32 verification plus ack/retransmit recovery.
    Arq,
}

// Retransmission tuning of [`ReliabilityMode::Arq`].

/// Initial retransmit timeout, in milliseconds.
const RETRANSMIT_MS: u64 = 5;

/// Ceiling of the exponential backoff, in milliseconds. Kept well under
/// the aggregation deadline so a lossy frame gets many attempts before
/// blank substitution takes over.
const BACKOFF_CAP_MS: u64 = 20;

/// Retransmissions per frame before the sender gives up.
const MAX_RETRIES: u32 = 16;

/// Bound of the sender's retransmit buffer, in frames; registering beyond
/// it abandons the oldest unacked frame.
const BUFFER_FRAMES: usize = 512;

/// A frame older than this is abandoned regardless of retries, in
/// milliseconds.
const MAX_AGE_MS: u64 = 1000;

/// The age at which a run's ARQ senders abandon a frame, in
/// milliseconds: [`MAX_AGE_MS`] clamped to the aggregation deadline —
/// once the collector has blanked the sample, retransmitting it is pure
/// waste.
pub(crate) fn arq_max_age(deadlines: DeadlineConfig) -> f64 {
    MAX_AGE_MS.min(deadlines.aggregation_ms) as f64
}

/// Run-wide reliability configuration: the mode every link runs in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReliabilityConfig {
    /// Mode applied to every link.
    pub mode: ReliabilityMode,
}

impl ReliabilityConfig {
    /// No recovery: the default, the same as [`ReliabilityConfig::crc`].
    pub fn off() -> Self {
        ReliabilityConfig::default()
    }

    /// CRC-checked frames everywhere, no retransmission (the default).
    pub fn crc() -> Self {
        ReliabilityConfig { mode: ReliabilityMode::Crc }
    }

    /// Full ARQ on every link.
    pub fn arq() -> Self {
        ReliabilityConfig { mode: ReliabilityMode::Arq }
    }
}

// ---------------------------------------------------------------------------
// Acknowledgement wire format
// ---------------------------------------------------------------------------

/// Magic first byte of an acknowledgement datagram.
const ACK_MAGIC: u8 = 0xA5;

/// Most NACKed gaps one ack carries; deeper gaps wait for the next ack.
const MAX_NACKS: usize = 16;

/// A forward tseq jump larger than this is a sender restart, not packet
/// loss: in-flight gaps are bounded by the retransmit buffer (hundreds of
/// frames), while respawned processes start 2^20 sequence numbers apart.
const REBASE_GAP: u32 = 1 << 16;

/// Encodes an ack: `[magic][cum u32][n u8][n × u32 nacks][crc u32]`, all
/// little-endian, CRC-32 over everything before the CRC field.
fn encode_ack(cum: u32, nacks: &[u32]) -> Arc<[u8]> {
    let n = nacks.len().min(MAX_NACKS);
    let mut buf = Vec::with_capacity(1 + 4 + 1 + 4 * n + 4);
    buf.push(ACK_MAGIC);
    buf.extend_from_slice(&cum.to_le_bytes());
    buf.push(n as u8);
    for &nack in &nacks[..n] {
        buf.extend_from_slice(&nack.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.into()
}

/// Decodes an ack; `None` when the datagram is damaged (the sender just
/// waits for the next one — acks are cumulative, losing one is harmless).
fn decode_ack(buf: &[u8]) -> Option<(u32, Vec<u32>)> {
    let (body, crc) = buf.split_last_chunk()?;
    let mut r = Cursor::new(body);
    if r.u8().ok()? != ACK_MAGIC || crc32(body) != u32::from_le_bytes(*crc) {
        return None;
    }
    let cum = r.u32().ok()?;
    let n = r.u8().ok()?;
    let nacks = (0..n).map(|_| r.u32().ok()).collect::<Option<_>>()?;
    (r.remaining() == 0).then_some((cum, nacks))
}

// ---------------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------------

/// One unacknowledged frame held for possible retransmission.
#[derive(Debug)]
struct Unacked {
    tseq: u32,
    /// The primary's wire bytes, shared with the transmission itself; the
    /// `FLAG_RETRANSMIT` form is derived when a retransmission is due.
    wire: Arc<[u8]>,
    /// Eq. 1 payload bytes of the frame, for stats accounting.
    payload_bytes: usize,
    /// Milliseconds on the sender's clock.
    first_sent: f64,
    next_retry: f64,
    backoff_ms: u64,
    retries: u32,
    /// The receiver NACKed this sequence number: retransmit immediately.
    nacked: bool,
}

#[derive(Debug)]
struct SendInner {
    /// This sender's generation base: its first frame is `base + 1`.
    base: u32,
    next_tseq: u32,
    buffer: Vec<Unacked>,
    /// Acks flowing back from the receiving inbox; drained by `tick`.
    acks: Receiver<Arc<[u8]>>,
}

/// Per-link ARQ sender state: the retransmit buffer plus the reverse ack
/// channel. Shared between the owning [`LinkSender`](crate::link) (which
/// registers frames) and the sending node's inbox (which ticks it from
/// the node's `drive` loop).
#[derive(Debug)]
pub(crate) struct ArqSendState {
    inner: Mutex<SendInner>,
    /// The data transport retransmissions are delivered into — the same
    /// connection the owning `LinkSender` transmits on, whatever carries
    /// it (channel, TCP stream, UDP socket).
    data_tx: Arc<dyn TransportTx>,
    /// The data link's counter cells: retransmissions are priced here.
    stats: LinkCounters,
    /// Chaos stream of the retransmit path (`retx:<link>`), sharing the
    /// sending node's crash state: a dead node cannot retransmit.
    fault: Option<Arc<LinkChaos>>,
    /// See [`arq_max_age`].
    max_age: f64,
    /// Run observability: each retransmission emits a timeline event, and
    /// the run's clock is the time base of `first_sent`, `next_retry` and
    /// `max_age`.
    obs: Arc<RunObs>,
    /// The data link's name, for event attribution.
    link: Arc<str>,
}

impl ArqSendState {
    pub(crate) fn new(
        data_tx: Arc<dyn TransportTx>,
        acks: Receiver<Arc<[u8]>>,
        stats: LinkCounters,
        fault: Option<Arc<LinkChaos>>,
        max_age: f64,
        obs: Arc<RunObs>,
        link: Arc<str>,
    ) -> Self {
        ArqSendState {
            inner: Mutex::new(SendInner { base: 0, next_tseq: 1, buffer: Vec::new(), acks }),
            data_tx,
            stats,
            fault,
            max_age,
            obs,
            link,
        }
    }

    /// The current instant on the run's clock: what
    /// [`register`](ArqSendState::register) takes.
    pub(crate) fn now(&self) -> f64 {
        self.obs.clock().elapsed_ms_f64()
    }

    /// Starts this sender's transport sequence numbers just past `base`
    /// instead of at 1. A respawned role process uses a per-generation
    /// base strictly above everything its predecessor could have sent, so
    /// surviving receivers (whose cumulative ack already covers the old
    /// range) treat the new process's frames as fresh rather than
    /// discarding them as duplicates.
    pub(crate) fn with_tseq_base(self, base: u32) -> Self {
        lock(&self.inner).base = base;
        self.restart();
        self
    }

    /// Re-points the link at a fresh receiver (a respawned peer, whose
    /// cumulative ack starts at 0): numbering restarts at this sender's
    /// generation base, so the first ack covers the first frame, and the
    /// frames buffered for the dead incarnation are dropped.
    pub(crate) fn restart(&self) {
        let mut inner = lock(&self.inner);
        inner.next_tseq = inner.base.wrapping_add(1).max(1);
        inner.buffer.clear();
    }

    /// Assigns the next transport sequence number, encodes the primary
    /// transmission (`flags = 0`) and buffers those same bytes for
    /// retransmission. Called *before* the primary's fault roll, so a
    /// dropped primary is already recoverable. `now` is the send instant.
    pub(crate) fn register(&self, frame: &Frame, now: f64) -> Arc<[u8]> {
        let mut inner = lock(&self.inner);
        let tseq = inner.next_tseq;
        inner.next_tseq = inner.next_tseq.wrapping_add(1).max(1);
        if inner.buffer.len() >= BUFFER_FRAMES {
            inner.buffer.remove(0); // bounded buffer: abandon the oldest
        }
        let wire = frame.encode_checked(0, tseq);
        inner.buffer.push(Unacked {
            tseq,
            wire: wire.clone(),
            payload_bytes: frame.payload_bytes(),
            first_sent: now,
            next_retry: now + RETRANSMIT_MS as f64,
            backoff_ms: RETRANSMIT_MS,
            retries: 0,
            nacked: false,
        });
        wire
    }

    /// The link's retransmit timer at `now`: absorbs acks, garbage-collects
    /// the buffer, retransmits what is due (NACKed or timed out), abandons
    /// what is hopeless, and returns when the next retransmission falls
    /// due (`INFINITY` when nothing is unacked). It runs on the sending
    /// node's thread, the one that registers the link's frames, so holding
    /// the buffer lock across a transmission stalls no one.
    pub(crate) fn tick(&self, now: f64) -> f64 {
        let mut inner = lock(&self.inner);
        while let Ok(ack) = inner.acks.try_recv() {
            if let Some((cum, nacks)) = decode_ack(&ack) {
                inner.buffer.retain(|u| u.tseq > cum);
                for u in &mut inner.buffer {
                    u.nacked |= nacks.contains(&u.tseq);
                }
            }
        }
        let is_due = |u: &Unacked| u.nacked || u.next_retry <= now;
        // A due frame out of retries or past its age is hopeless: the
        // deadline tier owns that loss now.
        let max_age = self.max_age;
        inner
            .buffer
            .retain(|u| !is_due(u) || (u.retries < MAX_RETRIES && now - u.first_sent <= max_age));
        for u in inner.buffer.iter_mut().filter(|u| is_due(u)) {
            u.retries += 1;
            u.nacked = false;
            u.backoff_ms = (u.backoff_ms * 2).min(BACKOFF_CAP_MS);
            u.next_retry = now + u.backoff_ms as f64;
            let delivery = self.fault.as_ref().map_or_else(Delivery::clean, |f| f.roll_raw());
            // Retransmissions skip duplication/jitter/reordering: they are
            // already redundant, delayed traffic. A sever still cuts the
            // stream under them.
            let Delivery::Deliver { corrupt, truncate, sever, .. } = delivery else {
                self.stats.frames_dropped.incr();
                continue;
            };
            let (wire, damaged) = damage(retransmit_form(&u.wire), corrupt, truncate);
            let s = &self.stats;
            s.frames.incr();
            s.frames_retransmitted.incr();
            let p = u.payload_bytes.min(wire.len().saturating_sub(HEADER_BYTES));
            // Recovery traffic: priced into the totals *and* into the
            // retransmit share, so Eq. 1 comparisons can separate
            // first-transmission cost from recovery.
            s.payload_bytes.add(p as u64);
            s.retx_payload_bytes.add(p as u64);
            s.header_bytes.add((wire.len() - p) as u64);
            if damaged {
                s.frames_corrupted.incr();
            }
            let (tseq, retries) = (u.tseq, u.retries);
            self.obs.emit(|| ObsEvent::Retransmit { link: self.link.to_string(), tseq, retries });
            // A departed receiver means the run is over for this link; the
            // retransmission is simply lost in flight.
            match sever {
                true => self.data_tx.sever(wire),
                false => self.data_tx.transmit(wire),
            }
        }
        inner.buffer.iter().map(|u| u.next_retry).fold(f64::INFINITY, f64::min)
    }

    /// Unacked frames still buffered (for tests).
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        lock(&self.inner).buffer.len()
    }
}

// ---------------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------------

/// Per-source ARQ receiver state: cumulative tracking, a dedup window and
/// the reverse ack channel.
#[derive(Debug)]
pub(crate) struct ArqRecvState {
    /// Highest tseq such that everything `<= cum` has been received.
    cum: u32,
    /// Received sequence numbers above `cum`.
    window: BTreeSet<u32>,
    /// Reverse transport to the sender's [`ArqSendState`] — in a
    /// multi-process run this crosses back to the sending process.
    ack_tx: Arc<dyn TransportTx>,
    /// The data link's counter cells: delivered ack bytes are priced here.
    stats: LinkCounters,
    /// Chaos stream of the ack path (`ack:<link>`) — acks cross the same
    /// lossy wire. No crash state: the *receiver* sends acks.
    fault: Option<Arc<LinkChaos>>,
    /// Run observability: each ack datagram emits a timeline event.
    obs: Arc<RunObs>,
    /// The forward link's name, for event attribution.
    link: Arc<str>,
}

impl ArqRecvState {
    pub(crate) fn new(
        ack_tx: Arc<dyn TransportTx>,
        stats: LinkCounters,
        fault: Option<Arc<LinkChaos>>,
        obs: Arc<RunObs>,
        link: Arc<str>,
    ) -> Self {
        ArqRecvState { cum: 0, window: BTreeSet::new(), ack_tx, stats, fault, obs, link }
    }

    /// Records the arrival of transport sequence number `tseq` and sends
    /// an ack (cumulative + gap NACKs). Returns whether the frame is
    /// fresh (`false` = duplicate, already delivered once).
    ///
    /// A forward jump past [`REBASE_GAP`] is read as a sender restart
    /// (respawned role processes number their frames from a fresh
    /// per-generation base; see `ArqSendState::with_tseq_base`): the
    /// window resets and the cumulative ack snaps to the new range, so
    /// the restarted sender's frames ack normally instead of piling up
    /// behind a gap that no retransmission can ever fill.
    pub(crate) fn accept(&mut self, tseq: u32) -> bool {
        let fresh = if tseq == 0 {
            true // sender does not run ARQ on this link
        } else if tseq <= self.cum || self.window.contains(&tseq) {
            false
        } else {
            if tseq - self.cum > REBASE_GAP {
                self.window.clear();
                self.cum = tseq - 1;
            }
            self.window.insert(tseq);
            while self.window.remove(&(self.cum + 1)) {
                self.cum += 1;
            }
            true
        };
        if tseq != 0 {
            self.send_ack();
        }
        fresh
    }

    /// Emits one ack datagram through the ack-path fault stream.
    fn send_ack(&self) {
        let nacks: Vec<u32> = match self.window.iter().next_back() {
            Some(&max) => {
                (self.cum + 1..max).filter(|t| !self.window.contains(t)).take(MAX_NACKS).collect()
            }
            None => Vec::new(),
        };
        // Acks skip duplication/jitter/reordering: they are tiny,
        // idempotent and cumulative. A sever still cuts the stream.
        let Delivery::Deliver { corrupt, truncate, sever, .. } =
            self.fault.as_ref().map_or_else(Delivery::clean, |f| f.roll_raw())
        else {
            return; // the next ack carries the news
        };
        let (wire, _) = damage(encode_ack(self.cum, &nacks), corrupt, truncate);
        self.stats.ack_bytes.add(wire.len() as u64);
        self.obs.emit(|| ObsEvent::AckSent {
            link: self.link.to_string(),
            cum: self.cum,
            nacks: nacks.len(),
        });
        match sever {
            true => self.ack_tx.sever(wire),
            false => self.ack_tx.transmit(wire), // sender gone: run is over
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{NodeId, Payload, FLAG_RETRANSMIT};
    use crate::transport::channel_tx;
    use std::sync::mpsc::{channel, Sender};

    fn frame(seq: u64) -> Frame {
        Frame::new(seq, NodeId::Device(0), Payload::Scores { scores: vec![1.0, 2.0] })
    }

    fn stats() -> LinkCounters {
        LinkCounters::default()
    }

    /// Drains every queued datagram.
    fn drain(rx: &Receiver<Arc<[u8]>>) -> Vec<Arc<[u8]>> {
        rx.try_iter().collect()
    }

    #[test]
    fn ack_round_trips_and_rejects_damage() {
        let wire = encode_ack(41, &[43, 45, 46]);
        assert_eq!(decode_ack(&wire), Some((41, vec![43, 45, 46])));
        for pos in 0..wire.len() {
            let mut bad = wire.to_vec();
            bad[pos] ^= 0x10;
            assert_eq!(decode_ack(&bad), None, "flip at {pos} accepted");
        }
        assert_eq!(decode_ack(&wire[..wire.len() - 1]), None);
        assert_eq!(decode_ack(&[]), None);
    }

    #[test]
    fn recv_state_dedups_and_tracks_gaps() {
        let (ack_tx, ack_rx) = channel();
        let st = stats();
        let mut recv = ArqRecvState::new(
            channel_tx(ack_tx),
            st.clone(),
            None,
            RunObs::disabled(),
            Arc::from("test-link"),
        );
        assert!(recv.accept(1));
        assert!(recv.accept(3)); // gap at 2
        assert!(!recv.accept(3), "duplicate above cum");
        assert!(!recv.accept(1), "duplicate below cum");
        assert!(recv.accept(0), "tseq 0 bypasses ARQ entirely");
        // The latest ack NACKs the gap.
        let last = drain(&ack_rx).pop().unwrap();
        assert_eq!(decode_ack(&last), Some((1, vec![2])));
        assert!(st.ack_bytes.get() > 0);
        // Filling the gap advances the cumulative ack past the window.
        assert!(recv.accept(2));
        let last = drain(&ack_rx).pop().unwrap();
        assert_eq!(decode_ack(&last), Some((3, vec![])));
    }

    #[test]
    fn recv_state_rebases_on_a_generational_tseq_jump() {
        let (ack_tx, ack_rx) = channel();
        let mut recv = ArqRecvState::new(
            channel_tx(ack_tx),
            stats(),
            None,
            RunObs::disabled(),
            Arc::from("test-link"),
        );
        assert!(recv.accept(1));
        assert!(recv.accept(2));
        // A respawned sender restarts one generation up (2^20 apart):
        // fresh, and the cumulative ack snaps to the new range instead of
        // NACKing an unfillable million-frame gap.
        let base = 1u32 << 20;
        assert!(recv.accept(base + 1));
        let last = drain(&ack_rx).pop().unwrap();
        assert_eq!(decode_ack(&last), Some((base + 1, vec![])));
        // Ordinary in-flight gaps (bounded by the retransmit buffer) are
        // still tracked as losses, not read as restarts.
        assert!(recv.accept(base + 5));
        let last = drain(&ack_rx).pop().unwrap();
        assert_eq!(decode_ack(&last), Some((base + 1, vec![base + 2, base + 3, base + 4])));
    }

    /// A sender on `data_tx`/`ack_rx` that abandons frames at [`MAX_AGE_MS`].
    fn send_state(
        data_tx: Sender<Arc<[u8]>>,
        ack_rx: Receiver<Arc<[u8]>>,
        stats: &LinkCounters,
    ) -> ArqSendState {
        ArqSendState::new(
            channel_tx(data_tx),
            ack_rx,
            stats.clone(),
            None,
            MAX_AGE_MS as f64,
            RunObs::disabled(),
            Arc::from("test-link"),
        )
    }

    #[test]
    fn send_state_numbers_frames_from_its_tseq_base() {
        let (data_tx, data_rx) = channel();
        let (_ack_tx, ack_rx) = channel();
        let send = send_state(data_tx, ack_rx, &stats()).with_tseq_base(1 << 20);
        for seq in 0..2u32 {
            let wire = send.register(&frame(u64::from(seq)), 0.0);
            assert_eq!(Frame::decode_checked(wire).unwrap().tseq, (1 << 20) + 1 + seq);
        }
        drop(data_rx);
    }

    #[test]
    fn a_restarted_sender_is_acked_by_a_fresh_receiver() {
        // A sender at tseq 40 is re-pointed at a respawned peer, whose
        // receiver starts at cum 0: the first frame after the restart is
        // tseq 1 again, so the receiver's first ack empties the buffer.
        // Numbered 41, the frame would be NACKed behind an unfillable gap
        // and retransmitted until it aged out.
        let (data_tx, _data_rx) = channel();
        let (ack_tx, ack_rx) = channel();
        let send = send_state(data_tx, ack_rx, &stats());
        (0..40).for_each(|seq| drop(send.register(&frame(seq), 0.0)));
        send.restart();
        assert_eq!(send.in_flight(), 0, "the dead incarnation's frames are dropped");
        let tseq = Frame::decode_checked(send.register(&frame(40), 0.0)).unwrap().tseq;
        let obs = RunObs::disabled();
        assert!(ArqRecvState::new(channel_tx(ack_tx), stats(), None, obs, "l".into()).accept(tseq));
        send.tick(0.0);
        assert_eq!(send.in_flight(), 0, "the first ack covered the first frame");
    }

    #[test]
    fn send_state_retransmits_until_acked_then_stops() {
        let (data_tx, data_rx) = channel();
        let (ack_tx, ack_rx) = channel();
        let st = stats();
        let send = send_state(data_tx, ack_rx, &st);
        let (f, first_sent) = (frame(7), 3.5);
        let primary = send.register(&f, first_sent);
        assert_eq!(primary, f.encode_checked(0, 1));
        assert_eq!(send.in_flight(), 1);
        // The primary is damaged by its fault roll, as `LinkSender::send`
        // would: the buffer shares its bytes, so the damage must land on a
        // copy and leave the retransmission pristine.
        let (damaged, _) = damage(primary.clone(), Some(9), None);
        assert_ne!(damaged, primary);
        // At the retransmit timeout the tick resends the frame: the
        // buffered primary with the flag set and the CRC redone is what a
        // direct retransmit encoding would have produced. Not an instant
        // before the timeout, though; then it falls due a doubled backoff on.
        let due = first_sent + RETRANSMIT_MS as f64;
        assert_eq!(send.tick(due - 0.001), due);
        assert!(data_rx.try_recv().is_err());
        assert_eq!(send.tick(due), due + (2 * RETRANSMIT_MS) as f64);
        let wire = data_rx.try_recv().expect("a retransmission");
        assert_eq!(wire, f.encode_checked(FLAG_RETRANSMIT, 1));
        assert_eq!(Frame::decode_checked(wire).unwrap().frame, f);
        assert_eq!(st.frames_retransmitted.get(), 1);
        // Acking the frame clears the buffer: no further retransmissions,
        // and no further wake-ups.
        ack_tx.send(encode_ack(1, &[])).unwrap();
        assert_eq!(send.tick((10 * BACKOFF_CAP_MS) as f64), f64::INFINITY);
        assert_eq!(send.in_flight(), 0);
        assert!(data_rx.try_recv().is_err());
    }

    #[test]
    fn send_state_gives_up_after_max_retries() {
        let (data_tx, data_rx) = channel();
        let (_ack_tx, ack_rx) = channel();
        let st = stats();
        let send = send_state(data_tx, ack_rx, &st);
        send.register(&frame(1), 0.0);
        // One sweep per backoff ceiling: every one finds the frame due,
        // and the whole series stays inside the frame's maximum age.
        for sweep in 1..=u64::from(MAX_RETRIES) + 4 {
            send.tick((sweep * (BACKOFF_CAP_MS + 1)) as f64);
        }
        assert_eq!(send.in_flight(), 0, "hopeless frame abandoned");
        assert_eq!(st.frames_retransmitted.get(), u64::from(MAX_RETRIES));
        assert_eq!(drain(&data_rx).len(), MAX_RETRIES as usize);
    }

    #[test]
    fn nack_triggers_immediate_retransmission() {
        let (data_tx, data_rx) = channel();
        let (ack_tx, ack_rx) = channel();
        let st = stats();
        let send = send_state(data_tx, ack_rx, &st);
        // Swept at an instant before either frame's timeout: only the
        // NACK can trigger the resend.
        send.register(&frame(1), 10.0);
        send.register(&frame(2), 10.0);
        ack_tx.send(encode_ack(0, &[1])).unwrap();
        let next = send.tick(10.0);
        assert_eq!(drain(&data_rx).len(), 1, "only the NACKed frame resent");
        assert_eq!(next, 10.0 + RETRANSMIT_MS as f64, "tseq 2 falls due on its own timer");
        assert_eq!(send.in_flight(), 2, "tseq 2 still awaits its ack");
    }

    #[test]
    fn buffer_bound_abandons_the_oldest() {
        let (data_tx, _data_rx) = channel();
        let (_ack_tx, ack_rx) = channel();
        let send = send_state(data_tx, ack_rx, &stats());
        for seq in 0..BUFFER_FRAMES as u64 + 3 {
            send.register(&frame(seq), 0.0);
        }
        assert_eq!(send.in_flight(), BUFFER_FRAMES);
    }

    #[test]
    fn arq_stops_at_the_aggregation_deadline() {
        let deadlines = DeadlineConfig { aggregation_ms: 50, ..DeadlineConfig::fast() };
        assert_eq!(arq_max_age(deadlines), 50.0);
        let slow = DeadlineConfig { aggregation_ms: 5_000, ..deadlines };
        assert_eq!(arq_max_age(slow), MAX_AGE_MS as f64);
    }
}
