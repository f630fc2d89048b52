//! Instrumented links between hierarchy nodes: byte accounting, fault
//! injection and a simulated latency model over a pluggable dataplane.
//!
//! A link's *transport* — in-process channel, TCP stream or UDP socket —
//! is chosen per run by [`TransportConfig`](crate::TransportConfig) and
//! hidden behind the [`TransportTx`](crate::transport::TransportTx)
//! contract, so everything in this module (encoding, accounting, fault
//! rolls, ARQ registration) is transport-neutral: the fault roll happens
//! at the send boundary, *before* the bytes reach whichever dataplane
//! carries them.
//!
//! Every link speaks the one CRC-checked wire format of
//! [`crate::message`]. In [`ReliabilityMode::Arq`](crate::ReliabilityMode)
//! the sender also registers every frame with an [`ArqSendState`]
//! retransmit buffer *before* the fault roll, so a dropped or corrupted
//! primary is recoverable, and the receiving [`NodeInbox`] acks, NACKs
//! gaps and deduplicates retransmissions — invisibly to the node loops.
//! The sending node's own inbox holds the link's retransmit timer, so a
//! node's one `drive` loop runs both halves of its ARQ.

use crate::chaos::{damage, ChaosPlan, CrashState, Delivery, LinkChaos};
use crate::clock::SimClock;
use crate::error::{Result, RuntimeError};
use crate::lock;
use crate::message::{Frame, NodeId, HEADER_BYTES};
use crate::obs::{LinkCounters, ObsEvent, RunObs};
use crate::reliability::{arq_max_age, ArqRecvState, ArqSendState};
use crate::topology::HierarchyConfig;
use crate::transport::{channel_tx, InboxBinding, TransportHost, TransportTx};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Cumulative traffic counters of one directed link — an immutable
/// snapshot of the link's atomic [`LinkCounters`] cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Frames transferred (duplicated frames count each delivery).
    pub frames: usize,
    /// Application payload bytes (the quantity Eq. 1 models), *including*
    /// ARQ retransmissions — see [`LinkStats::first_payload_bytes`] for
    /// the recovery-free share.
    pub payload_bytes: usize,
    /// The share of `payload_bytes` carried by ARQ retransmissions.
    /// Splitting this out keeps Eq. 1 comparisons honest: first
    /// transmissions are the paper's communication cost, retransmits are
    /// recovery traffic.
    pub retx_payload_bytes: usize,
    /// Protocol header bytes.
    pub header_bytes: usize,
    /// Frames swallowed by fault injection (drops and post-crash sends);
    /// these contribute to no other counter — they never reached the wire.
    pub frames_dropped: usize,
    /// Extra deliveries created by fault injection; each one also counts
    /// in `frames` and the byte counters, since it does cross the wire.
    pub frames_duplicated: usize,
    /// ARQ retransmissions; each also counts in `frames` and the byte
    /// counters — recovery traffic is real traffic under Eq. 1.
    pub frames_retransmitted: usize,
    /// Bytes of acknowledgement datagrams flowing back over this link's
    /// reverse path.
    pub ack_bytes: usize,
    /// Frames whose wire bytes were damaged in flight by fault injection
    /// (bit flips or truncation); counted once per damaged frame.
    pub frames_corrupted: usize,
}

impl LinkStats {
    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> usize {
        self.payload_bytes + self.header_bytes
    }

    /// Payload bytes of first transmissions only (total minus the ARQ
    /// retransmission share) — the quantity Eq. 1 actually models.
    pub fn first_payload_bytes(&self) -> usize {
        self.payload_bytes.saturating_sub(self.retx_payload_bytes)
    }
}

/// A transfer-time model for a link: fixed propagation delay plus a
/// bandwidth term.
///
/// Used for the *simulated* latency accounting of staged inference; no
/// wall-clock sleeping is involved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// One-way propagation delay in milliseconds.
    pub base_ms: f32,
    /// Link throughput in kilobytes per millisecond (≈ MB/s).
    pub kb_per_ms: f32,
}

impl LatencyModel {
    /// A fast local (device ↔ gateway) wireless hop: 2 ms, ~1 MB/s.
    pub fn local() -> Self {
        LatencyModel { base_ms: 2.0, kb_per_ms: 1.0 }
    }

    /// A WAN hop to the cloud: 50 ms, ~0.5 MB/s.
    pub fn wan() -> Self {
        LatencyModel { base_ms: 50.0, kb_per_ms: 0.5 }
    }

    /// Transfer time of `bytes` over this link, in milliseconds.
    pub fn transfer_ms(&self, bytes: usize) -> f32 {
        self.base_ms + (bytes as f32 / 1024.0) / self.kb_per_ms.max(1e-6)
    }
}

/// The sending half of an instrumented link. Frames are encoded to wire
/// bytes, counted, then decoded by the receiver — so anything crossing a
/// link really does survive serialization.
#[derive(Debug, Clone)]
pub struct LinkSender {
    tx: Arc<dyn TransportTx>,
    stats: LinkCounters,
    name: Arc<str>,
    fault: Option<Arc<LinkChaos>>,
    /// ARQ retransmit buffer; every non-shutdown frame is registered here
    /// before its fault roll, so a lost primary is recoverable.
    arq: Option<Arc<ArqSendState>>,
    /// Reorder-fault hold slot: a frame parked here is transmitted after
    /// the next frame on the link passes it (flushed on shutdown at the
    /// latest; under ARQ an unflushed tail hold is recovered by
    /// retransmission anyway).
    held: Arc<Mutex<Option<Arc<[u8]>>>>,
}

impl LinkSender {
    /// A sender with no fault stream and no ARQ.
    fn plain(tx: Arc<dyn TransportTx>, name: &str) -> Self {
        LinkSender {
            tx,
            stats: LinkCounters::default(),
            name: Arc::from(name),
            fault: None,
            arq: None,
            held: Arc::new(Mutex::new(None)),
        }
    }

    /// Sends a frame, accounting its encoded size. When the run's chaos
    /// plan touches this link the frame may instead be dropped,
    /// duplicated, delayed, damaged (bit flips / truncation), reordered or
    /// cut mid-write under a severed TCP stream per the seeded plan.
    ///
    /// Never fails: a hung-up receiver is a frame lost in flight, not an
    /// error. Late duplicates and retransmissions can race a peer's orderly
    /// shutdown; the frame still counts as transmitted, exactly like a real
    /// datagram sent to a host that just went away.
    pub fn send(&self, frame: &Frame) -> Result<()> {
        if frame.is_shutdown() {
            // Shutdown bypasses faults and ARQ (tseq 0) so a chaotic run
            // always terminates; any held-back frame goes out first.
            self.flush_held();
            let wire = frame.encode();
            self.account(frame.payload_bytes(), wire.len(), 1, false);
            self.tx.transmit(wire);
            return Ok(());
        }
        // Register with ARQ *before* the fault roll: a dropped primary is
        // then already buffered for retransmission.
        let wire = match &self.arq {
            Some(arq) => arq.register(frame, arq.now()),
            None => frame.encode(),
        };
        let delivery = self.fault.as_ref().map_or_else(Delivery::clean, |f| f.roll(frame));
        let Delivery::Deliver { duplicate, delay, corrupt, truncate, reorder, sever } = delivery
        else {
            self.stats.frames_dropped.incr();
            return Ok(());
        };
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let (wire, damaged) = damage(wire, corrupt, truncate);
        if sever {
            // Half written when its stream dies: the frame is lost in
            // flight, neither duplicated nor held back, and a held frame
            // follows on the re-dialed stream.
            self.account(frame.payload_bytes(), wire.len(), 1, damaged);
            self.tx.sever(wire);
            self.flush_held();
            return Ok(());
        }
        let deliveries = if duplicate { 2 } else { 1 };
        self.account(frame.payload_bytes(), wire.len(), deliveries, damaged);
        if reorder {
            // Park one copy until the next frame passes it; anything
            // already parked goes out now (at most one frame is held).
            for _ in 1..deliveries {
                self.tx.transmit(wire.clone());
            }
            let prior = lock(&self.held).replace(wire);
            if let Some(p) = prior {
                self.tx.transmit(p);
            }
        } else {
            for _ in 0..deliveries {
                self.tx.transmit(wire.clone());
            }
            self.flush_held();
        }
        Ok(())
    }

    /// Books `deliveries` transmissions of a `wire_len`-byte frame. The
    /// payload share is capped by what actually remained on the (possibly
    /// truncated) wire; the header share is the rest, so the two always
    /// sum to the bytes transmitted.
    fn account(&self, payload_bytes: usize, wire_len: usize, deliveries: usize, damaged: bool) {
        let p = payload_bytes.min(wire_len.saturating_sub(HEADER_BYTES));
        let s = &self.stats;
        s.frames.add(deliveries as u64);
        s.payload_bytes.add((deliveries * p) as u64);
        s.header_bytes.add((deliveries * (wire_len - p)) as u64);
        s.frames_duplicated.add((deliveries - 1) as u64);
        if damaged {
            s.frames_corrupted.incr();
        }
    }

    /// Releases a reorder-held frame, if any.
    fn flush_held(&self) {
        let held = lock(&self.held).take();
        if let Some(wire) = held {
            self.tx.transmit(wire);
        }
    }

    /// The link's display name (`from->to`).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The receiving half of an instrumented link.
#[derive(Debug)]
pub struct LinkReceiver {
    rx: Receiver<Arc<[u8]>>,
    name: Arc<str>,
}

impl LinkReceiver {
    /// Blocks for the next frame.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Disconnected`] if all senders hung up, or a
    /// protocol error if decoding fails.
    pub fn recv(&self) -> Result<Frame> {
        Frame::decode(self.rx.recv().map_err(|_| self.hung_up())?)
    }

    /// Raw receive until `at` (milliseconds on `clock`) at the latest;
    /// `Ok(None)` when it passes first. An instant already past polls once;
    /// an infinite one waits for as long as a sender is left.
    pub(crate) fn recv_raw_until(&self, clock: &SimClock, at: f64) -> Result<Option<Arc<[u8]>>> {
        let wait = (at - clock.elapsed_ms_f64()).max(0.0) / 1e3;
        match self.rx.recv_timeout(Duration::try_from_secs_f64(wait).unwrap_or(Duration::MAX)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(self.hung_up()),
        }
    }

    /// Non-blocking raw receive; `Ok(None)` when the queue is empty.
    pub(crate) fn try_recv_raw(&self) -> Result<Option<Arc<[u8]>>> {
        match self.rx.try_recv() {
            Ok(bytes) => Ok(Some(bytes)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(self.hung_up()),
        }
    }

    /// Every sender of this link is gone.
    fn hung_up(&self) -> RuntimeError {
        RuntimeError::Disconnected { node: self.name.to_string() }
    }
}

/// A node's receive front end: decodes and checks every frame, discards
/// corrupt frames (counting them into `node.{inbox}.corrupt_discards`),
/// acks/dedups ARQ traffic per source — all invisibly to the node loop,
/// which only ever sees intact, fresh application frames. It also holds
/// the retransmit timers of the ARQ links its node sends on, which
/// [`crate::clock::drive`] runs through [`NodeInbox::retransmit`].
#[derive(Debug)]
pub(crate) struct NodeInbox {
    rx: LinkReceiver,
    /// ARQ receiver state per sending node (keyed by encoded [`NodeId`]).
    sources: HashMap<u16, ArqRecvState>,
    /// ARQ sender state of every link this inbox's node sends on.
    sends: Vec<Arc<ArqSendState>>,
    /// Run observability handle (discard counter and timeline events).
    obs: Arc<RunObs>,
}

impl NodeInbox {
    /// An inbox with no ARQ sources yet.
    pub(crate) fn new(rx: LinkReceiver, obs: Arc<RunObs>) -> Self {
        NodeInbox { rx, sources: HashMap::new(), sends: Vec::new(), obs }
    }

    /// Registers the ARQ receiver state of the inbound link from `from`.
    pub(crate) fn register(&mut self, from: NodeId, state: ArqRecvState) {
        self.sources.insert(from.encode(), state);
    }

    /// Takes on the retransmit timer of `sender`'s link, if it runs ARQ:
    /// this inbox's node is the one that sends on it.
    pub(crate) fn send_on(&mut self, sender: &LinkSender) {
        self.sends.extend(sender.arq.clone());
    }

    /// Runs the retransmit timer of every ARQ link this inbox's node sends
    /// on at `now` (see [`ArqSendState::tick`]) and returns when the next
    /// one falls due: `INFINITY` when nothing is unacked.
    pub(crate) fn retransmit(&self, now: f64) -> f64 {
        self.sends.iter().map(|s| s.tick(now)).fold(f64::INFINITY, f64::min)
    }

    /// Waits for the next intact, fresh frame until `at` (milliseconds on
    /// `clock`; `INFINITY` waits for as long as a sender is left);
    /// `Ok(None)` when it passes with nothing (intact and fresh) delivered.
    /// [`crate::clock::drive`]'s timed receive.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Disconnected`] if all senders hung up, or a
    /// protocol error for an intact frame that fails to parse.
    pub(crate) fn recv_until(&mut self, clock: &SimClock, at: f64) -> Result<Option<Frame>> {
        self.first_admitted(|rx| rx.recv_raw_until(clock, at))
    }

    /// Like [`NodeInbox::recv_until`] but non-blocking: `Ok(None)` when the
    /// queue holds nothing (intact and fresh) right now — the micro-batch
    /// drain a streaming tier runs after its first blocking completion.
    pub(crate) fn try_recv(&mut self) -> Result<Option<Frame>> {
        self.first_admitted(LinkReceiver::try_recv_raw)
    }

    /// Admits datagrams pulled by `next` until one reaches the node loop;
    /// `Ok(None)` once `next` has nothing more.
    fn first_admitted(
        &mut self,
        next: impl Fn(&LinkReceiver) -> Result<Option<Arc<[u8]>>>,
    ) -> Result<Option<Frame>> {
        while let Some(bytes) = next(&self.rx)? {
            if let Some(frame) = self.admit(bytes)? {
                return Ok(Some(frame));
            }
        }
        Ok(None)
    }

    /// Decodes one datagram: `None` means it was consumed by the
    /// reliability layer (corrupt, or an ARQ duplicate) and the node loop
    /// never sees it. ARQ frames are acked here whether fresh or not.
    fn admit(&mut self, bytes: Arc<[u8]>) -> Result<Option<Frame>> {
        let decoded = Frame::decode_checked(bytes).map(|checked| {
            let fresh = match self.sources.get_mut(&checked.frame.from.encode()) {
                Some(state) => state.accept(checked.tseq),
                None => true, // sender does not run ARQ
            };
            fresh.then_some(checked.frame)
        });
        match decoded {
            Err(RuntimeError::Corrupt { .. }) => {
                self.discard_corrupt();
                Ok(None)
            }
            other => other,
        }
    }

    /// Books one corrupt-frame discard (counter + timeline event). The
    /// cell is created by the first discard, so a clean run has none.
    fn discard_corrupt(&self) {
        let node = &self.rx.name;
        self.obs.registry().counter(&format!("node.{node}.corrupt_discards")).incr();
        self.obs.emit(|| ObsEvent::FrameCorrupt { node: node.to_string() });
    }
}

/// Creates an instrumented link named `name`, returning sender, receiver
/// and the shared counter cells (snapshot them for a [`LinkStats`] view).
pub fn link(name: &str) -> (LinkSender, LinkReceiver, LinkCounters) {
    let (tx, rx) = channel();
    let sender = LinkSender::plain(channel_tx(tx), name);
    let (stats, name) = (sender.stats.clone(), Arc::clone(&sender.name));
    (sender, LinkReceiver { rx, name }, stats)
}

/// Builds every inbox and sender of a run over one dataplane, with one
/// consistent chaos plan and reliability configuration. Driven by the
/// runner's `connect` step only, so transport and ARQ wiring exist in
/// exactly one place.
pub(crate) struct LinkFactory<'a> {
    plan: &'a ChaosPlan,
    /// When ARQ senders abandon a frame, in milliseconds (see
    /// [`arq_max_age`]).
    arq_max_age: f64,
    /// Run observability: link counters are registered here, and inboxes
    /// plus ARQ states emit timeline events through it.
    obs: Arc<RunObs>,
    /// The run's dataplane: binds inboxes, connects senders, owns the
    /// socket I/O thread (joined when the factory drops). Runners read its
    /// endpoint and redial handle and shut it down at a deterministic
    /// point (after nodes have joined, before reports are folded).
    pub(crate) transport: TransportHost,
    /// Base transport sequence number for every ARQ sender this factory
    /// creates (see [`ArqSendState::with_tseq_base`]); nonzero only in a
    /// respawned role process.
    tseq_base: u32,
}

impl<'a> LinkFactory<'a> {
    /// A factory for one run of `cfg`; `tseq_base` starts every ARQ sender
    /// at transport sequence `tseq_base + 1` — nonzero only in a respawned
    /// role process, which must number its frames above its predecessor's
    /// range.
    pub(crate) fn new(cfg: &'a HierarchyConfig, obs: Arc<RunObs>, tseq_base: u32) -> Self {
        let transport = TransportHost::new(cfg.transport, &obs);
        LinkFactory {
            plan: &cfg.chaos,
            arq_max_age: arq_max_age(cfg.deadlines()),
            obs,
            transport,
            tseq_base,
        }
    }

    /// Binds a named node inbox on this process's endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] when a socket bind fails.
    pub(crate) fn inbox(&mut self, name: &str) -> Result<NodeInbox> {
        let rx = self.transport.bind(name)?;
        let receiver = LinkReceiver { rx, name: Arc::from(name) };
        Ok(NodeInbox::new(receiver, Arc::clone(&self.obs)))
    }

    /// Creates an instrumented sender into the inbox at `to`, named
    /// `name` and counting into `stats`. The link runs ARQ when it is
    /// given its ack inbox, `ack:{name}` bound on this process's endpoint:
    /// the receiving end — in this process or another — builds the
    /// matching [`recv_state`](LinkFactory::recv_state) against that name. Its retransmit timer runs from the inbox of the
    /// node that sends on it (see [`NodeInbox::send_on`]).
    ///
    /// ARQ links get three derived chaos streams: the primary (`name`),
    /// the retransmit path (`retx:name`, sharing the sending node's crash
    /// state) and the ack path (`ack:name`, no crash — the receiver
    /// sends acks). Derived streams keep the primary stream's draws
    /// identical whether or not ARQ is enabled.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] when the socket connect fails.
    pub(crate) fn sender(
        &mut self,
        to: &InboxBinding,
        name: &str,
        crash: Option<Arc<CrashState>>,
        stats: LinkCounters,
        ack_rx: Option<Receiver<Arc<[u8]>>>,
    ) -> Result<LinkSender> {
        let fault = self.plan.link_chaos(name, crash.clone());
        let data_tx = self.transport.connect(to)?;
        let arq = ack_rx.map(|ack_rx| {
            let retx_fault = self.plan.link_chaos(&format!("retx:{name}"), crash);
            let send_state = Arc::new(
                ArqSendState::new(
                    Arc::clone(&data_tx),
                    ack_rx,
                    stats.clone(),
                    retx_fault,
                    self.arq_max_age,
                    Arc::clone(&self.obs),
                    Arc::from(name),
                )
                .with_tseq_base(self.tseq_base),
            );
            self.transport.track_arq(&to.host, Arc::clone(&send_state));
            send_state
        });
        let plain = LinkSender::plain(data_tx, name);
        Ok(LinkSender { stats, fault, arq, ..plain })
    }

    /// The receiver-side ARQ state of the inbound link `name`, acking into
    /// the sender's `ack` inbox and pricing delivered acks into `stats` —
    /// the sender's own cells when both ends share a process, cells of
    /// this process (which only ever books `ack_bytes` on them) otherwise.
    pub(crate) fn recv_state(
        &mut self,
        ack: &InboxBinding,
        name: &str,
        stats: LinkCounters,
    ) -> Result<ArqRecvState> {
        let ack_fault = self.plan.link_chaos(&format!("ack:{name}"), None);
        let ack_tx = self.transport.connect(ack)?;
        Ok(ArqRecvState::new(ack_tx, stats, ack_fault, Arc::clone(&self.obs), Arc::from(name)))
    }

    /// An uninstrumented, chaos-exempt sender — for the orchestrator's
    /// shutdown frames, which never participate in chaos or ARQ.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] when a socket connect fails.
    pub(crate) fn shutdown_sender(&self, to: &InboxBinding, name: &str) -> Result<LinkSender> {
        Ok(LinkSender::plain(self.transport.connect(to)?, name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{drive, Core};
    use crate::message::{NodeId, Payload};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn frames_survive_the_link() {
        let (tx, rx, stats) = link("device0->gateway");
        let f = Frame::new(7, NodeId::Device(0), Payload::Scores { scores: vec![1.0, 2.0, 3.0] });
        tx.send(&f).unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(got, f);
        let s = stats.snapshot();
        assert_eq!(s.frames, 1);
        assert_eq!(s.payload_bytes, 12);
        assert_eq!(s.header_bytes, HEADER_BYTES + 4, "header plus the scores count");
    }

    #[test]
    fn try_recv_on_empty_is_none() {
        let (_tx, rx, _stats) = link("x");
        assert!(rx.try_recv_raw().unwrap().is_none());
    }

    #[test]
    fn recv_after_sender_drop_errors() {
        let (tx, rx, _stats) = link("gone");
        drop(tx);
        assert!(matches!(rx.recv(), Err(RuntimeError::Disconnected { .. })));
    }

    #[test]
    fn payload_byte_accounting_accumulates() {
        let (tx, rx, stats) = link("acc");
        for i in 0..5 {
            tx.send(&Frame::new(i, NodeId::Gateway, Payload::OffloadRequest)).unwrap();
        }
        for _ in 0..5 {
            rx.recv().unwrap();
        }
        let s = stats.snapshot();
        assert_eq!(s.frames, 5);
        assert_eq!(s.payload_bytes, 0);
        assert_eq!(s.header_bytes, 5 * HEADER_BYTES);
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let (tx, rx, _stats) = link("slow");
        let clock = SimClock::start();
        let at = clock.elapsed_ms_f64() + 10.0;
        assert!(rx.recv_raw_until(&clock, at).unwrap().is_none());
        assert!(clock.elapsed_ms_f64() >= at, "the wait lasts until the instant");
        let f = Frame::new(1, NodeId::Gateway, Payload::OffloadRequest);
        tx.send(&f).unwrap();
        // An instant already past still takes what is queued.
        let wire = rx.recv_raw_until(&clock, at).unwrap().expect("delivered");
        assert_eq!(Frame::decode(wire).unwrap(), f);
        drop(tx);
        let hung_up = rx.recv_raw_until(&clock, at + 1000.0);
        assert!(matches!(hung_up, Err(RuntimeError::Disconnected { .. })));
    }

    #[test]
    fn dropped_frames_never_reach_the_wire_but_are_counted() {
        use crate::chaos::Impairment;
        let plan = ChaosPlan::links(3, Impairment { drop: 1.0, ..Impairment::none() });
        let (mut tx, rx, stats) = link("lossy");
        tx.fault = plan.link_chaos("lossy", None);
        tx.send(&Frame::new(0, NodeId::Gateway, Payload::OffloadRequest)).unwrap();
        assert!(rx.try_recv_raw().unwrap().is_none());
        let s = stats.snapshot();
        assert_eq!(s.frames_dropped, 1);
        assert_eq!((s.frames, s.payload_bytes, s.header_bytes, s.frames_duplicated), (0, 0, 0, 0));
    }

    #[test]
    fn duplicated_frames_are_double_counted_on_the_wire() {
        use crate::chaos::Impairment;
        let plan = ChaosPlan::links(3, Impairment { duplicate: 1.0, ..Impairment::none() });
        let (mut tx, rx, stats) = link("chatty");
        tx.fault = plan.link_chaos("chatty", None);
        let f = Frame::new(0, NodeId::Gateway, Payload::OffloadRequest);
        tx.send(&f).unwrap();
        assert_eq!(rx.recv().unwrap(), f);
        assert_eq!(rx.recv().unwrap(), f);
        let s = stats.snapshot();
        assert_eq!(s.frames, 2);
        assert_eq!(s.frames_duplicated, 1);
        assert_eq!(s.header_bytes, 2 * HEADER_BYTES);
        assert_eq!(s.frames_dropped, 0);
    }

    /// Sends one frame at its first wake-up and counts its wake-ups; no
    /// frame ever reaches it.
    struct SendsOnce(LinkSender, Arc<AtomicUsize>);

    impl Core for SendsOnce {
        fn on_wake(&mut self, _: f64) -> Result<()> {
            match self.1.fetch_add(1, Ordering::SeqCst) {
                0 => self.0.send(&Frame::new(0, NodeId::Gateway, Payload::OffloadRequest)),
                _ => Ok(()),
            }
        }
        fn on_frame(&mut self, _: f64, _: Frame) -> Result<()> {
            unreachable!("nothing is sent to this node")
        }
        fn done(&self) -> bool {
            false
        }
    }

    #[test]
    fn the_arq_timer_alone_wakes_drive_until_the_ack_lands() {
        let (obs, wakes) = (RunObs::disabled(), Arc::new(AtomicUsize::new(0)));
        let ((dtx, data_rx), (ack_tx, arx)) = (channel(), channel());
        // The primary is lost down `_lost`, which nobody reads; the
        // retransmissions reach `data_rx`.
        let (tx, _lost, c) = link("l");
        let s =
            ArqSendState::new(channel_tx(dtx), arx, c.clone(), None, 1e3, obs.clone(), "l".into());
        let (tx, (into_node, rx, _)) = (LinkSender { arq: Some(Arc::new(s)), ..tx }, link("node"));
        let (arq, mut inbox) = (tx.arq.clone().unwrap(), NodeInbox::new(rx, obs.clone()));
        inbox.send_on(&tx);
        std::thread::scope(|s| {
            let node = s.spawn(|| drive(SendsOnce(tx, wakes.clone()), &mut inbox, obs.clock()));
            // Nothing is sent into the node's inbox: its ARQ timer woke it.
            let wire = data_rx.recv_timeout(Duration::from_secs(10)).expect("a retransmission");
            let mut peer = ArqRecvState::new(channel_tx(ack_tx), c, None, obs.clone(), "l".into());
            assert!(peer.accept(Frame::decode_checked(wire).unwrap().tseq));
            // Once the ack is absorbed, nothing wakes the node any more.
            while arq.in_flight() > 0 {
                let _ = data_rx.recv_timeout(Duration::from_millis(1));
            }
            let settled = wakes.load(Ordering::SeqCst);
            assert!(data_rx.recv_timeout(Duration::from_millis(50)).is_err());
            assert_eq!(wakes.load(Ordering::SeqCst), settled);
            drop(into_node); // the inbox hangs up: `drive` returns
            assert!(matches!(node.join().unwrap(), Err(RuntimeError::Disconnected { .. })));
        });
    }

    #[test]
    fn latency_model_shapes() {
        let local = LatencyModel::local();
        let wan = LatencyModel::wan();
        // WAN is slower for the same transfer.
        assert!(wan.transfer_ms(128) > local.transfer_ms(128));
        // Bigger payloads take longer.
        assert!(local.transfer_ms(3072) > local.transfer_ms(12));
        // The bandwidth term of a raw image dwarfs a 134-byte feature map.
        let raw_bw = wan.transfer_ms(3072) - wan.base_ms;
        let map_bw = wan.transfer_ms(134) - wan.base_ms;
        assert!(raw_bw > 20.0 * map_bw);
    }
}
