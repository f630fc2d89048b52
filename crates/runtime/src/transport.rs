//! The dataplane under every link: where wire bytes actually travel.
//!
//! [`LinkSender`](crate::link::LinkSender) encodes frames and rolls
//! faults; *this* module decides what carries the resulting bytes. Three
//! transports implement the same contract ([`TransportTx`] on the send
//! side, a reader feeding a crossbeam channel on the receive side):
//!
//! * **Channel** — the in-process crossbeam channel the runtime has
//!   always used. The default; byte-identical to every run before the
//!   transport layer existed.
//! * **Tcp** — one `std::net::TcpStream` per link, frames delimited by a
//!   `u32` little-endian length prefix. Reliable and ordered, so it
//!   works under any [`ReliabilityConfig`](crate::ReliabilityConfig).
//! * **Udp** — one datagram per frame over a connected
//!   `std::net::UdpSocket`. The kernel may drop or reorder, so runs must
//!   use the checked wire format (CRC at minimum; ARQ to actually
//!   recover) — enforced by validation before anything binds.
//!
//! The receive path is deliberately uniform: socket transports spawn
//! blocking reader threads that push each received frame into the same
//! `crossbeam` channel an in-process sender would have used, so
//! [`NodeInbox`](crate::link::NodeInbox), the tier loops and the
//! collectors never know which transport a run is on. All reader threads
//! are owned by a [`TransportHost`] whose `Drop` raises a stop flag and
//! joins them — sockets cannot leak background threads any more than the
//! ARQ pump can.
//!
//! Link impairment happens *before* the transport (at the send boundary,
//! in `LinkSender::send`), so its seeded streams draw identically on
//! every transport; what differs is only what the real network — and a
//! [`ChaosTarget::Sockets`](crate::ChaosTarget) impairment, rolled in the
//! TCP/UDP senders below — then does to the bytes.

use crate::chaos::{Delivery, LinkChaos};
use crate::error::{Result, RuntimeError};
use crate::obs::{Counter, RunObs};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which dataplane a run's links travel over. Selected per run via
/// [`HierarchyConfig::transport`](crate::HierarchyConfig); every link of
/// a run uses the same transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// In-process crossbeam channels (the default) — no sockets, no
    /// reader threads, byte-identical to the pre-transport runtime.
    #[default]
    Channel,
    /// Length-prefixed frames over localhost TCP streams.
    Tcp,
    /// One UDP datagram per frame; requires a checked wire format
    /// ([`ReliabilityConfig::crc`](crate::ReliabilityConfig::crc) or
    /// [`arq`](crate::ReliabilityConfig::arq)) so kernel-level loss and
    /// corruption stay detectable.
    Udp,
}

impl TransportConfig {
    /// Whether this transport crosses a kernel socket boundary.
    pub fn is_socket(self) -> bool {
        !matches!(self, TransportConfig::Channel)
    }

    /// Short lowercase name, used in counter names and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            TransportConfig::Channel => "channel",
            TransportConfig::Tcp => "tcp",
            TransportConfig::Udp => "udp",
        }
    }
}

impl std::str::FromStr for TransportConfig {
    type Err = RuntimeError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "channel" => Ok(TransportConfig::Channel),
            "tcp" => Ok(TransportConfig::Tcp),
            "udp" => Ok(TransportConfig::Udp),
            other => Err(RuntimeError::Config {
                reason: format!("unknown transport {other:?} (expected channel, tcp or udp)"),
            }),
        }
    }
}

/// How long a socket reader blocks before re-checking its stop flag, and
/// how long the TCP accept loop sleeps between polls. Small enough that
/// teardown is prompt, large enough that idle readers cost nothing.
const POLL: Duration = Duration::from_millis(25);

/// Ceiling on a TCP length prefix. DDNN frames top out around 13 KB (a
/// raw CIFAR capture); a prefix claiming more is a foreign peer or
/// corrupted stream, and the connection is dropped before the claimed
/// length can drive an allocation.
const MAX_FRAME_BYTES: usize = 1 << 24;

/// The sending half of a transport: pushes one encoded frame. Returns
/// `false` when the peer is gone (hung-up channel, broken stream, refused
/// datagram); [`LinkSender`](crate::link::LinkSender) maps that to
/// [`RuntimeError::Disconnected`] or swallows it when lenient.
pub(crate) trait TransportTx: Send + Sync + std::fmt::Debug {
    /// Transmits one frame's wire bytes; `false` means the peer is gone.
    fn transmit(&self, wire: Bytes) -> bool;

    /// Re-points this sender at a (possibly new) peer address — the
    /// resync path after a role process respawns with fresh ports. TCP
    /// dials a new stream and resets the reconnect budget; UDP re-connects
    /// the datagram socket; the in-process channel cannot redial.
    fn redial(&self, _addr: SocketAddr) -> bool {
        false
    }
}

/// The per-transport frame/byte tallies (`transport.{kind}.*` in the
/// registry snapshot). These count *wire crossings* — every frame handed
/// to the dataplane and every frame a reader delivered — so they
/// reconcile with the per-link [`LinkStats`](crate::LinkStats) views:
/// on a clean run, `frames_sent` equals the sum of every link's `frames`
/// (plus shutdown frames, which are deliberately uninstrumented at the
/// link level). Transport framing overhead (the TCP length prefix,
/// UDP/IP headers) is not counted: byte cells stay in frame units so the
/// reconciliation is exact.
#[derive(Debug, Clone)]
pub(crate) struct TransportCounters {
    pub(crate) frames_sent: Arc<Counter>,
    pub(crate) bytes_sent: Arc<Counter>,
    pub(crate) frames_recvd: Arc<Counter>,
    pub(crate) bytes_recvd: Arc<Counter>,
    /// Connections that ended *abnormally*: a TCP peer vanished mid-frame
    /// (half-open stream, SIGKILL'd process, chaos sever) or a reader hit
    /// a hard I/O error. A clean close at a frame boundary does not
    /// count — that is how every run ends.
    pub(crate) peer_disconnects: Arc<Counter>,
}

impl TransportCounters {
    /// Cells registered in the run's registry as `transport.{kind}.*`.
    fn registered(kind: TransportConfig, obs: &RunObs) -> Self {
        let cell =
            |field: &str| obs.registry().counter(&format!("transport.{}.{field}", kind.name()));
        TransportCounters {
            frames_sent: cell("frames_sent"),
            bytes_sent: cell("bytes_sent"),
            frames_recvd: cell("frames_recvd"),
            bytes_recvd: cell("bytes_recvd"),
            peer_disconnects: cell("peer_disconnects"),
        }
    }

    /// Free-standing cells for contexts without a registry (the free
    /// `link()` helper and unit tests).
    pub(crate) fn unregistered() -> Self {
        TransportCounters {
            frames_sent: Arc::new(Counter::default()),
            bytes_sent: Arc::new(Counter::default()),
            frames_recvd: Arc::new(Counter::default()),
            bytes_recvd: Arc::new(Counter::default()),
            peer_disconnects: Arc::new(Counter::default()),
        }
    }
}

/// In-process transport: the crossbeam channel itself. Delivery into the
/// inbox queue is synchronous, so the receive cells are counted at the
/// moment of the successful send.
#[derive(Debug)]
struct ChannelTx {
    tx: Sender<Bytes>,
    counters: TransportCounters,
}

impl TransportTx for ChannelTx {
    fn transmit(&self, wire: Bytes) -> bool {
        let len = wire.len() as u64;
        self.counters.frames_sent.incr();
        self.counters.bytes_sent.add(len);
        if self.tx.send(wire).is_err() {
            return false;
        }
        self.counters.frames_recvd.incr();
        self.counters.bytes_recvd.add(len);
        true
    }
}

/// Consecutive failed dials a TCP sender tolerates before it reports the
/// peer permanently gone. A killed role refuses dials instantly on
/// loopback, so the budget bounds wasted work; an explicit
/// [`TransportTx::redial`] (a respawned role at a fresh address) resets it.
const TCP_REDIAL_BUDGET: u32 = 8;

/// The mutable half of a TCP sender: the live stream (or `None` after an
/// error or chaos sever), the peer address to re-dial, and the remaining
/// reconnect budget.
#[derive(Debug)]
struct TcpPeer {
    stream: Option<TcpStream>,
    addr: SocketAddr,
    dials_left: u32,
}

/// One TCP stream per link, length-prefixed frames. The mutex serializes
/// the link's writers (the node thread and the ARQ retransmit pump write
/// the same stream). A write error or chaos sever drops the stream; the
/// next transmit re-dials the stored peer address within a bounded
/// budget, so a retransmitted frame can cross a *new* connection after a
/// mid-stream sever — and a truly dead peer still reports gone.
#[derive(Debug)]
struct TcpTx {
    peer: Mutex<TcpPeer>,
    counters: TransportCounters,
    /// Rolled once per transmission *below* the link boundary, so ARQ and
    /// CRC face injected pathology on the real file descriptor. A stream
    /// cannot drop or duplicate one frame: TCP honours delay and sever.
    chaos: Option<LinkChaos>,
}

fn dial(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    Some(stream)
}

/// Bounded-retry dial: a respawned peer's listener is usually bound by
/// the time its new address is announced, but the retry loop rides out
/// the races around process start.
fn dial_retry(addr: SocketAddr, attempts: u32) -> Option<TcpStream> {
    for i in 0..attempts {
        if let Some(s) = dial(addr) {
            return Some(s);
        }
        if i + 1 < attempts {
            std::thread::sleep(POLL);
        }
    }
    None
}

impl TransportTx for TcpTx {
    fn transmit(&self, wire: Bytes) -> bool {
        self.counters.frames_sent.incr();
        self.counters.bytes_sent.add(wire.len() as u64);
        let fate = self.chaos.as_ref().map_or_else(Delivery::clean, LinkChaos::roll_raw);
        let (delay, sever) = match fate {
            Delivery::Deliver { delay, sever, .. } => (delay, sever),
            Delivery::Dropped => (None, false),
        };
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let mut peer = self.peer.lock();
        if peer.stream.is_none() {
            if peer.dials_left == 0 {
                return false;
            }
            match dial(peer.addr) {
                Some(s) => {
                    peer.stream = Some(s);
                    peer.dials_left = TCP_REDIAL_BUDGET;
                }
                None => {
                    peer.dials_left -= 1;
                    return false;
                }
            }
        }
        let stream = peer.stream.as_mut().expect("stream ensured above");
        let len = (wire.len() as u32).to_le_bytes();
        if sever {
            // A real mid-stream failure: the prefix and half the body hit
            // the wire, then the connection dies. The frame is lost in
            // flight (not refused), and the receiver observes a genuine
            // mid-frame EOF.
            let cut = wire.len() / 2;
            let _ = stream.write_all(&len).and_then(|()| stream.write_all(&wire[..cut]));
            let _ = stream.shutdown(std::net::Shutdown::Both);
            peer.stream = None;
            return true;
        }
        if stream.write_all(&len).and_then(|()| stream.write_all(&wire)).is_err() {
            peer.stream = None;
            return false;
        }
        true
    }

    fn redial(&self, addr: SocketAddr) -> bool {
        let mut peer = self.peer.lock();
        peer.addr = addr;
        peer.dials_left = TCP_REDIAL_BUDGET;
        match dial_retry(addr, 20) {
            Some(s) => {
                peer.stream = Some(s);
                true
            }
            None => {
                peer.stream = None;
                false
            }
        }
    }
}

/// One datagram per frame over a connected UDP socket. A send error
/// (refused peer, oversized frame) reports the peer gone; the kernel is
/// free to drop anything it accepted — that is the point of running ARQ
/// over this transport. Chaos drops/duplicates/delays happen right at
/// the socket, below the link boundary.
#[derive(Debug)]
struct UdpTx {
    sock: UdpSocket,
    counters: TransportCounters,
    /// Like [`TcpTx::chaos`]; a datagram socket honours drop, duplicate
    /// and delay.
    chaos: Option<LinkChaos>,
}

impl TransportTx for UdpTx {
    fn transmit(&self, wire: Bytes) -> bool {
        self.counters.frames_sent.incr();
        self.counters.bytes_sent.add(wire.len() as u64);
        let fate = self.chaos.as_ref().map_or_else(Delivery::clean, LinkChaos::roll_raw);
        let Delivery::Deliver { duplicate, delay, .. } = fate else {
            return true; // swallowed at the socket, as the kernel may
        };
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let ok = self.sock.send(&wire).is_ok();
        if duplicate && ok {
            let _ = self.sock.send(&wire);
        }
        ok
    }

    fn redial(&self, addr: SocketAddr) -> bool {
        self.sock.connect(addr).is_ok()
    }
}

/// Wraps a raw inbox channel in the in-process transport with
/// free-standing counters — the adapter behind the public
/// `link()` helper and the reliability tests.
pub(crate) fn channel_tx(tx: Sender<Bytes>) -> Arc<dyn TransportTx> {
    Arc::new(ChannelTx { tx, counters: TransportCounters::unregistered() })
}

/// Where senders attach to a named inbox: the transport-specific
/// address. `Channel` bindings only work inside the owning process;
/// socket bindings serialize to `ip:port` and cross process boundaries —
/// that is what the multi-process launcher exchanges in its handshake.
#[derive(Debug, Clone)]
pub(crate) enum InboxBinding {
    /// The raw channel senders clone (in-process only).
    Channel(Sender<Bytes>),
    /// A TCP listener's bound address.
    Tcp(SocketAddr),
    /// A UDP socket's bound address.
    Udp(SocketAddr),
}

impl InboxBinding {
    /// The socket address of this binding, if it has one.
    pub(crate) fn addr(&self) -> Option<SocketAddr> {
        match self {
            InboxBinding::Channel(_) => None,
            InboxBinding::Tcp(a) | InboxBinding::Udp(a) => Some(*a),
        }
    }

    /// Rebuilds a binding from a peer-advertised address (the
    /// multi-process handshake's address-exchange lines).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for the channel transport, whose
    /// bindings cannot cross process boundaries.
    pub(crate) fn socket(kind: TransportConfig, addr: SocketAddr) -> Result<InboxBinding> {
        match kind {
            TransportConfig::Channel => Err(RuntimeError::Config {
                reason: "the channel transport cannot cross process boundaries".to_string(),
            }),
            TransportConfig::Tcp => Ok(InboxBinding::Tcp(addr)),
            TransportConfig::Udp => Ok(InboxBinding::Udp(addr)),
        }
    }
}

/// One run's dataplane: binds inboxes, connects senders and owns every
/// socket reader thread spawned along the way. Dropping the host (or
/// calling [`shutdown`](TransportHost::shutdown)) raises the stop flag
/// and joins all readers — the socket counterpart of the ARQ pump's
/// scope drop-guard, so no run can leak background threads.
#[derive(Debug)]
pub(crate) struct TransportHost {
    kind: TransportConfig,
    counters: TransportCounters,
    stop: Arc<AtomicBool>,
    readers: Vec<JoinHandle<()>>,
    dials: DialRegistry,
}

/// Every sender a host has connected, keyed by link name — shared between
/// the host and every [`RedialHandle`] cloned off it.
type DialRegistry = Arc<Mutex<Vec<(String, Arc<dyn TransportTx>)>>>;

/// A cloneable handle over every sender a [`TransportHost`] has connected,
/// keyed by link name — the resync surface a supervisor (or a role's
/// rewire control thread) uses to re-point senders at a respawned peer's
/// fresh addresses without holding the host itself.
#[derive(Debug, Clone)]
pub(crate) struct RedialHandle {
    dials: DialRegistry,
}

impl RedialHandle {
    /// Re-points every sender connected under `name` at `addr`. Returns
    /// whether at least one sender accepted the new address.
    pub(crate) fn redial(&self, name: &str, addr: SocketAddr) -> bool {
        let dials = self.dials.lock();
        let mut any = false;
        for (n, tx) in dials.iter() {
            if n == name {
                any |= tx.redial(addr);
            }
        }
        any
    }
}

impl TransportHost {
    /// A host for `kind` with its counters registered in the run's
    /// registry.
    pub(crate) fn new(kind: TransportConfig, obs: &RunObs) -> Self {
        TransportHost {
            kind,
            counters: TransportCounters::registered(kind, obs),
            stop: Arc::new(AtomicBool::new(false)),
            readers: Vec::new(),
            dials: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The redial surface over every sender this host has connected.
    pub(crate) fn redial_handle(&self) -> RedialHandle {
        RedialHandle { dials: Arc::clone(&self.dials) }
    }

    /// Binds a named inbox, returning the attachment point senders
    /// connect to and the raw receive channel. On socket transports this
    /// binds a listener/socket on `127.0.0.1:0` (an OS-assigned port) and
    /// spawns the reader that bridges it into the channel.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] when the OS refuses the bind.
    pub(crate) fn bind(&mut self, name: &str) -> Result<(InboxBinding, Receiver<Bytes>)> {
        let (tx, rx) = unbounded();
        let binding = match self.kind {
            TransportConfig::Channel => InboxBinding::Channel(tx),
            TransportConfig::Tcp => {
                let listener =
                    TcpListener::bind("127.0.0.1:0").map_err(|e| terr(name, "bind", &e))?;
                listener.set_nonblocking(true).map_err(|e| terr(name, "set_nonblocking", &e))?;
                let addr = listener.local_addr().map_err(|e| terr(name, "local_addr", &e))?;
                let counters = self.counters.clone();
                let stop = Arc::clone(&self.stop);
                self.readers.push(std::thread::spawn(move || {
                    tcp_accept_loop(listener, tx, counters, stop);
                }));
                InboxBinding::Tcp(addr)
            }
            TransportConfig::Udp => {
                let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| terr(name, "bind", &e))?;
                sock.set_read_timeout(Some(POLL)).map_err(|e| terr(name, "read_timeout", &e))?;
                let addr = sock.local_addr().map_err(|e| terr(name, "local_addr", &e))?;
                let counters = self.counters.clone();
                let stop = Arc::clone(&self.stop);
                self.readers.push(std::thread::spawn(move || {
                    udp_reader(sock, tx, counters, stop);
                }));
                InboxBinding::Udp(addr)
            }
        };
        Ok((binding, rx))
    }

    /// Connects a sender to a bound inbox. One connection per call: a
    /// link and its ARQ retransmit path share a single returned handle,
    /// so a TCP link is exactly one stream. A *socket* sender rolls
    /// `chaos` (the link's stream of the plan's `Sockets` impairment) once
    /// per transmission; the in-process channel has no socket to mangle.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] when the connect fails or the
    /// binding's transport does not match this host's.
    pub(crate) fn connect(
        &self,
        to: &InboxBinding,
        name: &str,
        chaos: Option<LinkChaos>,
    ) -> Result<Arc<dyn TransportTx>> {
        let counters = self.counters.clone();
        let tx: Arc<dyn TransportTx> = match to {
            InboxBinding::Channel(tx) => Arc::new(ChannelTx { tx: tx.clone(), counters }),
            InboxBinding::Tcp(addr) => {
                // A refused dial is not fatal: the peer may be a role
                // that is currently dead (process chaos) and due for a
                // respawn. The sender starts disconnected — exactly the
                // state a mid-run sever leaves it in — and the transmit
                // path's bounded redial budget (or an explicit
                // [`RedialHandle::redial`]) brings it back.
                let stream = dial(*addr);
                let dials_left =
                    if stream.is_some() { TCP_REDIAL_BUDGET } else { TCP_REDIAL_BUDGET - 1 };
                let peer = TcpPeer { stream, addr: *addr, dials_left };
                Arc::new(TcpTx { peer: Mutex::new(peer), counters, chaos })
            }
            InboxBinding::Udp(addr) => {
                let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| terr(name, "bind", &e))?;
                sock.connect(addr).map_err(|e| terr(name, "connect", &e))?;
                Arc::new(UdpTx { sock, counters, chaos })
            }
        };
        self.dials.lock().push((name.to_string(), Arc::clone(&tx)));
        Ok(tx)
    }

    /// Stops and joins every reader thread. Idempotent; also run by
    /// `Drop`, so a host that merely goes out of scope cleans up too.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TransportHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn terr(endpoint: &str, what: &str, e: &dyn std::fmt::Display) -> RuntimeError {
    RuntimeError::Transport { endpoint: endpoint.to_string(), reason: format!("{what}: {e}") }
}

/// Accepts connections on a nonblocking listener until stopped, spawning
/// one reader per connection and joining them all on the way out.
fn tcp_accept_loop(
    listener: TcpListener,
    tx: Sender<Bytes>,
    counters: TransportCounters,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(POLL));
                let _ = stream.set_nodelay(true);
                let tx = tx.clone();
                let counters = counters.clone();
                let stop = Arc::clone(&stop);
                conns.push(std::thread::spawn(move || {
                    tcp_conn_reader(stream, tx, counters, stop);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// How one blocking read over a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadStatus {
    /// The buffer was filled.
    Full,
    /// The peer closed the stream; `mid` is true when the close landed
    /// partway through this buffer (bytes already consumed).
    Closed { mid: bool },
    /// The host's stop flag was raised during a read timeout.
    Stopped,
}

/// Reads length-prefixed frames off one TCP connection into the inbox
/// channel. Exits on EOF, error, a hopeless length prefix, or the stop
/// flag (checked at every read timeout). A partial frame at stop time is
/// discarded — by then the run is over and its nodes have joined.
///
/// A close at a frame boundary is how every connection ends and passes
/// silently; a close *inside* a frame (half-open peer, SIGKILL'd process,
/// chaos sever), a hopeless prefix, or a hard I/O error is an abnormal
/// termination and bumps `peer_disconnects` — the typed `peer_gone`
/// signal the supervisor and tests read.
fn tcp_conn_reader(
    mut stream: TcpStream,
    tx: Sender<Bytes>,
    counters: TransportCounters,
    stop: Arc<AtomicBool>,
) {
    let mut len_buf = [0u8; 4];
    loop {
        match read_full(&mut stream, &mut len_buf, &stop) {
            Ok(ReadStatus::Full) => {}
            Ok(ReadStatus::Closed { mid: false }) | Ok(ReadStatus::Stopped) => return,
            Ok(ReadStatus::Closed { mid: true }) | Err(_) => {
                counters.peer_disconnects.incr();
                return;
            }
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME_BYTES {
            // Foreign peer or corrupted stream; drop the connection.
            counters.peer_disconnects.incr();
            return;
        }
        let mut body = vec![0u8; len];
        match read_full(&mut stream, &mut body, &stop) {
            Ok(ReadStatus::Full) => {}
            Ok(ReadStatus::Stopped) => return,
            Ok(ReadStatus::Closed { .. }) | Err(_) => {
                // The prefix promised a frame that never finished: the
                // peer died mid-frame.
                counters.peer_disconnects.incr();
                return;
            }
        }
        counters.frames_recvd.incr();
        counters.bytes_recvd.add(len as u64);
        if tx.send(Bytes::from(body)).is_err() {
            return;
        }
    }
}

/// Fills `buf` from the stream, riding out read timeouts (re-checking
/// `stop` at each) and interrupts.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> std::io::Result<ReadStatus> {
    let mut off = 0;
    while off < buf.len() {
        match stream.read(&mut buf[off..]) {
            Ok(0) => return Ok(ReadStatus::Closed { mid: off > 0 }),
            Ok(n) => off += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return Ok(ReadStatus::Stopped);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadStatus::Full)
}

/// Receives datagrams into the inbox channel until stopped. Each
/// datagram is one frame; 64 KB covers anything UDP can carry.
fn udp_reader(
    sock: UdpSocket,
    tx: Sender<Bytes>,
    counters: TransportCounters,
    stop: Arc<AtomicBool>,
) {
    let mut buf = vec![0u8; 65536];
    loop {
        match sock.recv(&mut buf) {
            Ok(n) => {
                counters.frames_recvd.incr();
                counters.bytes_recvd.add(n as u64);
                if tx.send(Bytes::copy_from_slice(&buf[..n])).is_err() {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosPlan, Impairment};

    #[test]
    fn config_parses_and_names_round_trip() {
        for kind in [TransportConfig::Channel, TransportConfig::Tcp, TransportConfig::Udp] {
            assert_eq!(kind.name().parse::<TransportConfig>().unwrap(), kind);
        }
        assert!("quic".parse::<TransportConfig>().is_err());
        assert!(!TransportConfig::Channel.is_socket());
        assert!(TransportConfig::Tcp.is_socket());
        assert!(TransportConfig::Udp.is_socket());
    }

    #[test]
    fn channel_transport_counts_both_directions() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Channel, &obs);
        let (binding, rx) = host.bind("inbox").unwrap();
        let tx = host.connect(&binding, "a->b", None).unwrap();
        assert!(tx.transmit(Bytes::from_static(b"hello")));
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"hello"));
        let c = &host.counters;
        assert_eq!((c.frames_sent.get(), c.bytes_sent.get()), (1, 5));
        assert_eq!((c.frames_recvd.get(), c.bytes_recvd.get()), (1, 5));
        // A hung-up inbox reports the peer gone and books no delivery.
        drop(rx);
        assert!(!tx.transmit(Bytes::from_static(b"xx")));
        assert_eq!(host.counters.frames_recvd.get(), 1);
    }

    #[test]
    fn tcp_transport_round_trips_frames() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Tcp, &obs);
        let (binding, rx) = host.bind("inbox").unwrap();
        let tx = host.connect(&binding, "a->b", None).unwrap();
        for payload in [&b"first"[..], &b"second frame"[..], &[]] {
            assert!(tx.transmit(Bytes::copy_from_slice(payload)));
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&got[..], payload);
        }
        assert_eq!(host.counters.frames_recvd.get(), 3);
        host.shutdown();
    }

    #[test]
    fn udp_transport_round_trips_frames() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Udp, &obs);
        let (binding, rx) = host.bind("inbox").unwrap();
        let tx = host.connect(&binding, "a->b", None).unwrap();
        // Localhost UDP is effectively lossless; a dropped datagram here
        // would be a real kernel anomaly worth failing on.
        assert!(tx.transmit(Bytes::from_static(b"datagram")));
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&got[..], b"datagram");
        host.shutdown();
    }

    #[test]
    fn host_shutdown_joins_readers_and_is_idempotent() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Tcp, &obs);
        let (_binding, _rx) = host.bind("a").unwrap();
        let (_binding2, _rx2) = host.bind("b").unwrap();
        host.shutdown();
        host.shutdown();
        assert!(host.readers.is_empty());
        // Drop after explicit shutdown must not hang or panic.
        drop(host);
    }

    #[test]
    fn clean_close_at_frame_boundary_is_not_a_peer_disconnect() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Tcp, &obs);
        let (binding, rx) = host.bind("inbox").unwrap();
        let tx = host.connect(&binding, "a->b", None).unwrap();
        assert!(tx.transmit(Bytes::from_static(b"whole frame")));
        assert_eq!(&rx.recv_timeout(Duration::from_secs(5)).unwrap()[..], b"whole frame");
        drop(tx);
        host.shutdown();
        assert_eq!(host.counters.peer_disconnects.get(), 0);
    }

    #[test]
    fn mid_frame_eof_counts_as_peer_disconnect() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Tcp, &obs);
        let (binding, _rx) = host.bind("inbox").unwrap();
        let mut raw = TcpStream::connect(binding.addr().unwrap()).unwrap();
        // A prefix promising 64 bytes, then the peer vanishes mid-frame.
        raw.write_all(&64u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        raw.flush().unwrap();
        drop(raw);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while host.counters.peer_disconnects.get() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(host.counters.peer_disconnects.get(), 1, "mid-frame EOF must be counted");
        host.shutdown();
    }

    #[test]
    fn redial_repoints_a_tcp_sender_at_a_new_inbox() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Tcp, &obs);
        let (binding_a, rx_a) = host.bind("inbox").unwrap();
        let tx = host.connect(&binding_a, "link", None).unwrap();
        assert!(tx.transmit(Bytes::from_static(b"to-a")));
        assert_eq!(&rx_a.recv_timeout(Duration::from_secs(5)).unwrap()[..], b"to-a");
        // The "respawned" peer binds a fresh inbox; the redial handle
        // re-points every sender registered under the link's name.
        let (binding_b, rx_b) = host.bind("inbox2").unwrap();
        let handle = host.redial_handle();
        assert!(handle.redial("link", binding_b.addr().unwrap()));
        assert!(!handle.redial("no-such-link", binding_b.addr().unwrap()));
        assert!(tx.transmit(Bytes::from_static(b"to-b")));
        assert_eq!(&rx_b.recv_timeout(Duration::from_secs(5)).unwrap()[..], b"to-b");
        host.shutdown();
    }

    #[test]
    fn udp_redial_reconnects_the_datagram_socket() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Udp, &obs);
        let (binding_a, _rx_a) = host.bind("inbox").unwrap();
        let tx = host.connect(&binding_a, "link", None).unwrap();
        let (binding_b, rx_b) = host.bind("inbox2").unwrap();
        assert!(tx.redial(binding_b.addr().unwrap()));
        assert!(tx.transmit(Bytes::from_static(b"rerouted")));
        assert_eq!(&rx_b.recv_timeout(Duration::from_secs(5)).unwrap()[..], b"rerouted");
        host.shutdown();
    }

    #[test]
    fn udp_chaos_drops_are_seeded_and_deterministic() {
        let run = |seed: u64| -> u64 {
            let obs = RunObs::disabled();
            let mut host = TransportHost::new(TransportConfig::Udp, &obs);
            let plan = ChaosPlan::sockets(seed, Impairment { drop: 0.4, ..Impairment::none() });
            let (binding, rx) = host.bind("inbox").unwrap();
            let tx = host.connect(&binding, "link", plan.socket_chaos("link")).unwrap();
            for i in 0..200u32 {
                assert!(tx.transmit(Bytes::copy_from_slice(&i.to_le_bytes())));
            }
            // Localhost UDP is effectively lossless, so what arrives is
            // exactly the non-dropped subset of the chaos stream.
            let mut got = 0u64;
            while rx.recv_timeout(Duration::from_millis(300)).is_ok() {
                got += 1;
            }
            host.shutdown();
            got
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same socket-level drops");
        assert!((60..180).contains(&a), "got {a} of 200 at drop_prob=0.4");
    }

    #[test]
    fn tcp_sever_loses_the_frame_but_the_sender_recovers_by_redial() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Tcp, &obs);
        let plan = ChaosPlan::sockets(0, Impairment { sever: 1.0, ..Impairment::none() });
        let (binding, rx) = host.bind("inbox").unwrap();
        let tx = host.connect(&binding, "link", plan.socket_chaos("link")).unwrap();
        // Every transmit severs: the frame is reported accepted (lost in
        // flight, like kernel loss) but never arrives, and the receiver
        // books an abnormal disconnect.
        assert!(tx.transmit(Bytes::from_static(b"doomed frame")));
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while host.counters.peer_disconnects.get() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(host.counters.peer_disconnects.get() >= 1);
        // The next transmit auto-redials a fresh stream (and severs
        // again, proving the reconnect path is exercised repeatedly).
        assert!(tx.transmit(Bytes::from_static(b"also doomed")));
        host.shutdown();
    }

    #[test]
    fn tcp_reader_drops_connections_with_hopeless_length_prefixes() {
        let obs = RunObs::disabled();
        let mut host = TransportHost::new(TransportConfig::Tcp, &obs);
        let (binding, rx) = host.bind("inbox").unwrap();
        let addr = binding.addr().unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        // A length prefix claiming 3 GB: the reader must hang up, not
        // allocate.
        raw.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        raw.flush().unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
        host.shutdown();
    }

    // Byte soup written straight into the sockets by a foreign peer must
    // never panic a reader thread, and whatever the readers do deliver
    // must fail frame decoding with typed errors, not crashes. The bound
    // inbox has to keep serving well-formed peers afterwards.
    mod junk_resilience {
        use super::*;
        use proptest::prelude::*;

        fn assert_still_serving(
            host: &TransportHost,
            binding: &InboxBinding,
            rx: &Receiver<Bytes>,
        ) {
            let tx = host.connect(binding, "probe", None).unwrap();
            assert!(tx.transmit(Bytes::from_static(b"still alive")));
            loop {
                let got = rx.recv_timeout(Duration::from_secs(5)).expect("inbox stopped serving");
                // Junk delivered ahead of the probe decodes to errors, not
                // panics.
                let _ = crate::message::Frame::decode_checked(got.clone());
                if &got[..] == b"still alive" {
                    return;
                }
            }
        }

        proptest! {
            #[test]
            fn tcp_inbox_survives_junk_streams(
                junk in prop::collection::vec(0u8..=255, 1..256),
            ) {
                let obs = RunObs::disabled();
                let mut host = TransportHost::new(TransportConfig::Tcp, &obs);
                let (binding, rx) = host.bind("inbox").unwrap();
                let mut raw = TcpStream::connect(binding.addr().unwrap()).unwrap();
                // Raw bytes, no framing: the reader interprets the first
                // four as a length prefix and either assembles a bogus
                // frame or hangs up on an absurd length.
                raw.write_all(&junk).unwrap();
                raw.flush().unwrap();
                drop(raw);
                assert_still_serving(&host, &binding, &rx);
                host.shutdown();
            }

            #[test]
            fn udp_inbox_survives_junk_datagrams(
                junk in prop::collection::vec(0u8..=255, 0..256),
            ) {
                let obs = RunObs::disabled();
                let mut host = TransportHost::new(TransportConfig::Udp, &obs);
                let (binding, rx) = host.bind("inbox").unwrap();
                let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
                sock.send_to(&junk, binding.addr().unwrap()).unwrap();
                assert_still_serving(&host, &binding, &rx);
                host.shutdown();
            }
        }
    }
}
