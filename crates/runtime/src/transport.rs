//! The dataplane under every link: where wire bytes actually travel.
//!
//! [`LinkSender`](crate::link::LinkSender) encodes frames and rolls
//! faults; *this* module decides what carries the resulting bytes. Three
//! transports implement the same contract ([`TransportTx`] on the send
//! side, a `std::sync::mpsc` channel per inbox on the receive side):
//!
//! * **Channel** — the in-process `mpsc` channel the runtime has
//!   always used. The default; byte-identical to every run before the
//!   transport layer existed.
//! * **Tcp** — one `std::net::TcpStream` per link, frames delimited by a
//!   `u32` little-endian length prefix. Reliable and ordered, so it
//!   works under any [`ReliabilityConfig`](crate::ReliabilityConfig).
//! * **Udp** — one datagram per frame over a connected
//!   `std::net::UdpSocket`. The kernel may drop or reorder; every
//!   frame's CRC detects damage, and
//!   [`ReliabilityConfig::arq`](crate::ReliabilityConfig::arq) recovers
//!   the loss.
//!
//! The socket address belongs to the *process*, and an inbox is a name
//! on it: a [`TransportHost`] binds one TCP listener (or one UDP socket)
//! on its first [`bind`](TransportHost::bind) and demultiplexes by an
//! 8-byte inbox id (FNV-1a of the name). A TCP connection opens with the
//! id of the inbox it feeds — read before any of its frames, re-sent on
//! every re-dial — and every UDP datagram carries it as a prefix. An id
//! this host never bound drops the connection or datagram and counts a
//! `peer_disconnect`, like a hopeless length prefix. Like that prefix, the
//! id is transport framing: no `transport.*` or
//! [`LinkStats`](crate::LinkStats) byte cell counts it.
//!
//! The receive path is deliberately uniform: a socket host runs one I/O
//! thread, blocked in `poll(2)` on a wake fd and on its listener and every
//! accepted connection (or on its one UDP socket). It reassembles each
//! connection's frames in a buffer of that connection's own and pushes
//! every frame into the same `mpsc` channel an in-process sender would
//! have used, so [`NodeInbox`](crate::link::NodeInbox), the tier loops
//! and the collectors never know which transport a run is on. The thread
//! is owned by a [`TransportHost`], whose `shutdown` (also run by `Drop`)
//! writes to the wake fd and joins it at once — sockets cannot leak
//! background threads any more than the nodes' scoped threads can.
//!
//! Impairment happens *before* the transport, at the one send boundary in
//! `LinkSender::send`, so its seeded streams draw identically on every
//! transport and in every process; what differs is only what the real
//! network then does to the bytes. A rolled `sever` is the one fault a
//! transport carries out itself: the TCP sender writes part of the frame
//! and closes the stream ([`TransportTx::sever`]).

use crate::chaos::fnv1a;
use crate::error::{reject, Result, RuntimeError};
use crate::lock;
use crate::obs::{Counter, RunObs};
use crate::reliability::ArqSendState;
use std::collections::HashMap;
use std::ffi::{c_int, c_short, c_ulong};
use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Which dataplane a run's links travel over. Selected per run via
/// [`HierarchyConfig::transport`](crate::HierarchyConfig); every link of
/// a run uses the same transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// In-process `mpsc` channels (the default) — no sockets, no I/O
    /// thread, byte-identical to the pre-transport runtime.
    #[default]
    Channel,
    /// Length-prefixed frames over localhost TCP streams.
    Tcp,
    /// One UDP datagram per frame; pair with
    /// [`ReliabilityConfig::arq`](crate::ReliabilityConfig::arq) to
    /// recover kernel-level loss.
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
        let all = [TransportConfig::Channel, TransportConfig::Tcp, TransportConfig::Udp];
        let unknown = || reject(format!("unknown transport {s:?} (expected channel, tcp or udp)"));
        all.into_iter().find(|t| t.name() == s).map_or_else(unknown, Ok)
    }
}

/// The largest frame the I/O loop accepts: what fits its 64 KiB receive
/// buffer behind the inbox id. DDNN frames top out around 13 KB (a raw
/// CIFAR capture); a TCP prefix claiming more is a foreign peer or
/// corrupted stream, and the connection is dropped before the claimed
/// length can drive an allocation.
const MAX_FRAME_BYTES: usize = (1 << 16) - ID_BYTES;

/// Width of the inbox id a TCP connection opens with and every UDP
/// datagram is prefixed by.
const ID_BYTES: usize = 8;

/// The wire id of the inbox called `name`.
fn inbox_id(name: &str) -> [u8; ID_BYTES] {
    fnv1a(name.as_bytes()).to_le_bytes()
}

/// The sending half of a transport: pushes one encoded frame. A frame
/// for a peer that is gone (hung-up channel, broken stream, refused
/// datagram) is lost in flight, like a datagram sent to a host that just
/// went away.
pub(crate) trait TransportTx: Send + Sync + std::fmt::Debug {
    /// Transmits one frame's wire bytes.
    fn transmit(&self, wire: Arc<[u8]>);

    /// Transmits part of one frame's wire bytes, then cuts the connection
    /// under it. Only TCP has a stream to cut, and `ChaosPlan::validate`
    /// refuses a `sever` rate on any other transport; elsewhere the frame
    /// is simply lost.
    fn sever(&self, _wire: Arc<[u8]>) {}

    /// Re-points this sender at its peer host's new address — the resync
    /// path after a role process respawns on a fresh port. TCP dials a new
    /// stream and resets the reconnect budget; UDP re-connects the
    /// datagram socket; the in-process channel cannot redial.
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
/// reconciliation is exact. The default cells are free-standing, for
/// contexts without a registry (the free `link()` helper and unit tests).
#[derive(Debug, Clone, Default)]
pub(crate) struct TransportCounters {
    pub(crate) frames_sent: Arc<Counter>,
    pub(crate) bytes_sent: Arc<Counter>,
    pub(crate) frames_recvd: Arc<Counter>,
    pub(crate) bytes_recvd: Arc<Counter>,
    /// Connections that ended *abnormally*: a TCP peer vanished mid-frame
    /// (half-open stream, SIGKILL'd process, a sever) or a reader hit
    /// a hard I/O error. A clean close at a frame boundary does not
    /// count — that is how every run ends.
    pub(crate) peer_disconnects: Arc<Counter>,
}

impl TransportCounters {
    /// Counts one frame a socket delivered and queues it for its inbox;
    /// false once that inbox has hung up.
    fn deliver(&self, inbox: &Sender<Arc<[u8]>>, frame: &[u8]) -> bool {
        self.frames_recvd.incr();
        self.bytes_recvd.add(frame.len() as u64);
        inbox.send(frame.into()).is_ok()
    }

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
}

/// In-process transport: the `mpsc` channel itself. Delivery into the
/// inbox queue is synchronous, so the receive cells are counted at the
/// moment of the successful send.
#[derive(Debug)]
struct ChannelTx {
    tx: Sender<Arc<[u8]>>,
    counters: TransportCounters,
}

impl TransportTx for ChannelTx {
    fn transmit(&self, wire: Arc<[u8]>) {
        let len = wire.len() as u64;
        self.counters.frames_sent.incr();
        self.counters.bytes_sent.add(len);
        if self.tx.send(wire).is_ok() {
            self.counters.frames_recvd.incr();
            self.counters.bytes_recvd.add(len);
        }
    }
}

/// Consecutive failed dials a TCP sender tolerates before it treats the
/// peer as permanently gone and loses its frames undialed. A killed role refuses dials instantly on
/// loopback, so the budget bounds wasted work; an explicit
/// [`TransportTx::redial`] (a respawned role at a fresh address) resets it.
const TCP_REDIAL_BUDGET: u32 = 8;

/// The mutable half of a TCP sender: the live stream (or `None` after an
/// error or a sever), the peer address to re-dial, and the remaining
/// reconnect budget.
#[derive(Debug)]
struct TcpPeer {
    stream: Option<TcpStream>,
    addr: SocketAddr,
    dials_left: u32,
}

impl TcpPeer {
    /// The live stream, re-dialing a dropped one first while the budget
    /// lasts: a dial that connects refills the budget, one that fails
    /// spends one attempt.
    fn stream(&mut self, id: [u8; ID_BYTES]) -> Option<&mut TcpStream> {
        if self.stream.is_none() && self.dials_left > 0 {
            self.stream = dial(self.addr, id);
            self.dials_left =
                if self.stream.is_some() { TCP_REDIAL_BUDGET } else { self.dials_left - 1 };
        }
        self.stream.as_mut()
    }
}

/// One TCP stream per link, length-prefixed frames, one `write` per
/// frame. The mutex serializes the stream's users (the sending node's
/// frames and ARQ retransmissions, and a supervisor's re-dial). A write
/// error or a sever drops the stream; the next transmit re-dials the
/// stored peer address within a bounded budget, so a retransmitted frame
/// can cross a *new* connection after a mid-stream sever — and a truly
/// dead peer costs no more than the budget's dials.
#[derive(Debug)]
struct TcpTx {
    peer: Mutex<TcpPeer>,
    /// The inbox this link feeds; every dialed stream opens with it.
    id: [u8; ID_BYTES],
    counters: TransportCounters,
}

/// Connects to a host's listener and names the inbox the stream feeds.
fn dial(addr: SocketAddr, id: [u8; ID_BYTES]) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.write_all(&id).ok()?;
    Some(stream)
}

impl TcpTx {
    /// Writes one length-prefixed frame, re-dialing a dropped stream
    /// within the budget first; `sever` writes half of it and closes.
    fn send(&self, wire: Arc<[u8]>, sever: bool) {
        self.counters.frames_sent.incr();
        self.counters.bytes_sent.add(wire.len() as u64);
        // Prefix and body leave as one buffer, so a frame is one write —
        // and, on this no-delay stream, not two segments.
        let framed = [&(wire.len() as u32).to_le_bytes()[..], &wire[..]].concat();
        let mut peer = lock(&self.peer);
        let Some(stream) = peer.stream(self.id) else { return };
        if sever {
            // A real mid-stream failure: the prefix and half the body hit
            // the wire, then the connection dies. The frame is lost in
            // flight, and the receiver observes a genuine mid-frame EOF.
            let _ = stream.write_all(&framed[..4 + wire.len() / 2]);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            peer.stream = None;
        } else if stream.write_all(&framed).is_err() {
            peer.stream = None;
        }
    }
}

impl TransportTx for TcpTx {
    fn transmit(&self, wire: Arc<[u8]>) {
        self.send(wire, false);
    }

    fn sever(&self, wire: Arc<[u8]>) {
        self.send(wire, true);
    }

    fn redial(&self, addr: SocketAddr) -> bool {
        // A process listens before it advertises its address, so one dial
        // does; if it fails anyway, the transmit path's budget retries.
        let mut peer = lock(&self.peer);
        *peer = TcpPeer { stream: None, addr, dials_left: TCP_REDIAL_BUDGET };
        peer.stream(self.id).is_some()
    }
}

/// One datagram per frame over a connected UDP socket. A send error
/// (refused peer, oversized frame) loses the frame; the kernel is free to
/// drop anything it accepted — that is the point of running ARQ over this
/// transport.
#[derive(Debug)]
struct UdpTx {
    sock: UdpSocket,
    /// The inbox this link feeds; every datagram is prefixed with it.
    id: [u8; ID_BYTES],
    counters: TransportCounters,
}

impl TransportTx for UdpTx {
    fn transmit(&self, wire: Arc<[u8]>) {
        self.counters.frames_sent.incr();
        self.counters.bytes_sent.add(wire.len() as u64);
        let _ = self.sock.send(&[&self.id[..], &wire[..]].concat());
    }

    fn redial(&self, addr: SocketAddr) -> bool {
        self.sock.connect(addr).is_ok()
    }
}

/// Wraps a raw inbox channel in the in-process transport with
/// free-standing counters — the adapter behind the public
/// `link()` helper and the reliability tests.
pub(crate) fn channel_tx(tx: Sender<Arc<[u8]>>) -> Arc<dyn TransportTx> {
    Arc::new(ChannelTx { tx, counters: TransportCounters::default() })
}

/// A process's attachment point on the run's transport. Every inbox the
/// process binds is a name on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// The inbox registry of this very process (the channel transport).
    Local,
    /// The process's one TCP listener or UDP socket; serializes to
    /// `ip:port` — the only thing the multi-process handshake exchanges.
    Socket(SocketAddr),
}

/// Where senders attach: an inbox name on the endpoint of the host
/// process that bound it.
#[derive(Debug, Clone)]
pub(crate) struct InboxBinding {
    /// Label of the host process (`orchestrator`, `devices`, …): the key
    /// a [`RedialHandle`] re-points senders by.
    pub(crate) host: String,
    pub(crate) at: Endpoint,
    pub(crate) inbox: String,
}

/// The inboxes a host answers to, by wire id. The name stays beside the
/// queue to report collisions.
type Inboxes = Arc<Mutex<HashMap<[u8; ID_BYTES], (String, Sender<Arc<[u8]>>)>>>;

/// One process's dataplane: binds inbox names on its one endpoint,
/// connects senders and owns the one I/O thread that serves the endpoint.
/// Dropping the host (or calling [`shutdown`](TransportHost::shutdown))
/// wakes that thread and joins it — the socket counterpart of the nodes'
/// thread scope, so no run can leak background threads.
#[derive(Debug)]
pub(crate) struct TransportHost {
    kind: TransportConfig,
    counters: TransportCounters,
    /// The I/O loop's wake fd, written once to stop it.
    wake: Option<UnixStream>,
    /// The I/O loop's thread, once the first `bind` has started it.
    readers: Vec<JoinHandle<()>>,
    dials: Arc<Mutex<Dials>>,
    inboxes: Inboxes,
    /// The listener's (or UDP socket's) address, once the first `bind`
    /// has opened it.
    addr: Option<SocketAddr>,
}

/// Every sender a host has connected and the ARQ state of each link among
/// them that runs one, keyed by the peer host's label — shared between the
/// host and every [`RedialHandle`] cloned off it.
#[derive(Debug, Default)]
struct Dials {
    txs: Vec<(String, Arc<dyn TransportTx>)>,
    arq: Vec<(String, Arc<ArqSendState>)>,
}

/// A cloneable handle over every sender a [`TransportHost`] has connected,
/// keyed by peer host — the resync surface a supervisor (or a role's
/// rewire control thread) uses to re-point senders at a respawned peer's
/// fresh address without holding the host itself.
#[derive(Debug, Clone)]
pub(crate) struct RedialHandle {
    dials: Arc<Mutex<Dials>>,
}

impl RedialHandle {
    /// Re-points every sender into an inbox of `host` at `addr`. A
    /// respawned peer's receivers are fresh, so every ARQ link into it
    /// restarts its numbering first (see [`ArqSendState::restart`]).
    /// Returns whether at least one sender accepted the new address.
    pub(crate) fn redial(&self, host: &str, addr: SocketAddr) -> bool {
        let dials = lock(&self.dials);
        dials.arq.iter().filter(|(h, _)| h == host).for_each(|(_, arq)| arq.restart());
        let into_host = dials.txs.iter().filter(|(h, _)| h == host);
        // Every sender is re-pointed: `|` does not short-circuit.
        into_host.fold(false, |any, (_, tx)| tx.redial(addr) | any)
    }
}

impl TransportHost {
    /// A host for `kind` with its counters registered in the run's
    /// registry.
    pub(crate) fn new(kind: TransportConfig, obs: &RunObs) -> Self {
        TransportHost {
            kind,
            counters: TransportCounters::registered(kind, obs),
            wake: None,
            readers: Vec::new(),
            dials: Arc::default(),
            inboxes: Arc::new(Mutex::new(HashMap::new())),
            addr: None,
        }
    }

    /// The redial surface over every sender this host has connected.
    pub(crate) fn redial_handle(&self) -> RedialHandle {
        RedialHandle { dials: Arc::clone(&self.dials) }
    }

    /// Where this process's inboxes are reached. A process advertises it
    /// only after binding every name it answers to, so no peer can dial an
    /// inbox that is not there yet.
    pub(crate) fn endpoint(&self) -> Endpoint {
        self.addr.map_or(Endpoint::Local, Endpoint::Socket)
    }

    /// Binds a named inbox and returns its receive queue. On a socket
    /// transport the first bind opens the process's one listener (or UDP
    /// socket) on `127.0.0.1:0` — an OS-assigned port — and spawns the
    /// one thread that serves it; later binds only add a name.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] when the name's id is already
    /// taken on this host, and [`RuntimeError::Transport`] when the OS
    /// refuses the bind.
    pub(crate) fn bind(&mut self, name: &str) -> Result<Receiver<Arc<[u8]>>> {
        let (tx, rx) = channel();
        let id = inbox_id(name);
        if let Some((taken, _)) = lock(&self.inboxes).get(&id) {
            return reject(format!(
                "inbox {name:?} has the id of inbox {taken:?} on the same host"
            ));
        }
        if self.addr.is_none() && self.kind.is_socket() {
            self.addr = Some(self.open().map_err(|e| terr(name, "bind", &e))?);
        }
        lock(&self.inboxes).insert(id, (name.to_string(), tx));
        Ok(rx)
    }

    /// Opens the process's endpoint and starts the I/O loop that serves it.
    fn open(&mut self) -> std::io::Result<SocketAddr> {
        let (served_fd, addr, served) = if self.kind == TransportConfig::Tcp {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            (listener.as_raw_fd(), listener.local_addr()?, Served::Tcp(listener))
        } else {
            let sock = UdpSocket::bind("127.0.0.1:0")?;
            sock.set_nonblocking(true)?;
            (sock.as_raw_fd(), sock.local_addr()?, Served::Udp(sock))
        };
        let (wake, woken) = UnixStream::pair()?;
        let io = IoLoop {
            woken,
            served,
            served_fd,
            conns: Vec::new(),
            inboxes: Arc::clone(&self.inboxes),
            counters: self.counters.clone(),
        };
        self.readers.push(std::thread::Builder::new().name("ddnn-io".into()).spawn(|| io.run())?);
        self.wake = Some(wake);
        Ok(addr)
    }

    /// Connects a sender to a bound inbox. One connection per call: a
    /// link and its ARQ retransmit path share a single returned handle,
    /// so a TCP link is exactly one stream.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] when the connect fails, the
    /// inbox is not bound in this process (channel transport), or the
    /// binding's endpoint is not one this host's transport can reach.
    pub(crate) fn connect(&self, to: &InboxBinding) -> Result<Arc<dyn TransportTx>> {
        let counters = self.counters.clone();
        let id = inbox_id(&to.inbox);
        let tx: Arc<dyn TransportTx> = match (self.kind, to.at) {
            (TransportConfig::Channel, Endpoint::Local) => {
                let inboxes = lock(&self.inboxes);
                let (_, tx) = inboxes
                    .get(&id)
                    .ok_or_else(|| terr(&to.inbox, "connect", &"no such inbox in this process"))?;
                Arc::new(ChannelTx { tx: tx.clone(), counters })
            }
            (TransportConfig::Tcp, Endpoint::Socket(addr)) => {
                // A refused dial is not fatal: the peer may be a role
                // that is currently dead (process chaos) and due for a
                // respawn. The sender starts disconnected — exactly the
                // state a mid-run sever leaves it in — and the transmit
                // path's bounded redial budget (or an explicit
                // [`RedialHandle::redial`]) brings it back.
                let mut peer = TcpPeer { stream: None, addr, dials_left: TCP_REDIAL_BUDGET };
                peer.stream(id);
                Arc::new(TcpTx { peer: Mutex::new(peer), id, counters })
            }
            (TransportConfig::Udp, Endpoint::Socket(addr)) => {
                let sock =
                    UdpSocket::bind("127.0.0.1:0").map_err(|e| terr(&to.inbox, "bind", &e))?;
                sock.connect(addr).map_err(|e| terr(&to.inbox, "connect", &e))?;
                Arc::new(UdpTx { sock, id, counters })
            }
            (kind, at) => {
                let why = format!("the {} transport cannot reach {at:?}", kind.name());
                return Err(terr(&to.inbox, "connect", &why));
            }
        };
        lock(&self.dials).txs.push((to.host.clone(), Arc::clone(&tx)));
        Ok(tx)
    }

    /// Registers the ARQ state of a link this host connected into `host`,
    /// for [`RedialHandle::redial`] to restart.
    pub(crate) fn track_arq(&self, host: &str, state: Arc<ArqSendState>) {
        lock(&self.dials).arq.push((host.to_string(), state));
    }

    /// Wakes the I/O loop to stop and joins it; a frame still partway in
    /// is dropped, since by then the run is over and its nodes have joined.
    /// Idempotent; also run by `Drop`, so a host that merely goes out of
    /// scope cleans up too.
    pub(crate) fn shutdown(&mut self) {
        if let Some(mut wake) = self.wake.take() {
            let _ = wake.write_all(&[0]);
        }
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

/// `struct pollfd` of poll(2): fd, requested events, returned events. std
/// has no readiness wait on sockets, and the I/O loop needs only this one
/// call, so it is declared here.
#[repr(C)]
struct PollFd(c_int, c_short, c_short);

/// The one event the loop asks for; poll(2) also reports a hang-up or an
/// error unasked, and any of them sends the loop to read the fd.
const POLLIN: c_short = 1;

extern "C" {
    /// poll(2); `nfds` is `nfds_t`, an `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// What one TCP connection has read so far: the queue of the inbox its
/// id named, once the id is in, and the bytes of an unfinished id or frame.
#[derive(Default)]
struct Reassembly {
    inbox: Option<Sender<Arc<[u8]>>>,
    pending: Vec<u8>,
}

/// How a reassembly step ended: whether the connection stays open, or why
/// it is dropped.
type Step = std::result::Result<bool, &'static str>;

impl Reassembly {
    /// The receive path's one step, free of sockets: takes the bytes a
    /// read returned (`None`: the peer closed), `route`s the id to an inbox
    /// once it is in, and delivers every frame it completes into that
    /// inbox, in order. `Ok` says whether the connection stays open: a
    /// close at a frame boundary, or an inbox that hung up (its node has
    /// finished), ends it cleanly. `Err` is why it ends abnormally. A frame
    /// is never delivered in part; the whole frames before an abnormal end
    /// are.
    fn step(
        &mut self,
        read: Option<&[u8]>,
        route: impl Fn(&[u8; ID_BYTES]) -> Option<Sender<Arc<[u8]>>>,
        counters: &TransportCounters,
    ) -> Step {
        let Some(read) = read else {
            return match (self.pending.is_empty(), &self.inbox) {
                (true, _) => Ok(false),
                (false, None) => Err("closed inside the inbox id"),
                (false, Some(_)) => Err("closed inside a frame"),
            };
        };
        self.pending.extend_from_slice(read);
        let mut at = 0;
        let open = loop {
            let rest = &self.pending[at..];
            let Some(inbox) = &self.inbox else {
                let Some((id, _)) = rest.split_first_chunk() else { break Ok(true) };
                // Foreign peer, or a sender pointed at the wrong host.
                self.inbox = Some(route(id).ok_or("an inbox this host never bound")?);
                at += ID_BYTES;
                continue;
            };
            let Some((len, body)) = rest.split_first_chunk() else { break Ok(true) };
            let len = u32::from_le_bytes(*len) as usize;
            if len > MAX_FRAME_BYTES {
                break Err("a hopeless length prefix"); // foreign peer or corrupted stream
            }
            let Some(frame) = body.get(..len) else { break Ok(true) };
            at += 4 + len;
            if !counters.deliver(inbox, frame) {
                break Ok(false);
            }
        };
        self.pending.drain(..at);
        open
    }
}

/// Whether an `accept` or `recv` error means the served socket itself is
/// unusable: a bad fd or buffer, or a socket that is not listening
/// (`EBADF`, `EFAULT`, `EINVAL`, numbered alike on every unix). Any other
/// error costs at most the one connection or datagram it came with — a
/// peer that reset before its accept (`ConnectionAborted`, which a
/// SIGKILLed role's dial can cause), a signal, fd or buffer exhaustion —
/// and the loop serves on.
fn source_failed(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(9 | 14 | 22))
}

/// What a socket host's I/O loop serves besides its wake fd.
enum Served {
    Tcp(TcpListener),
    Udp(UdpSocket),
}

/// A socket host's one I/O thread: blocks in `poll(2)` on the wake fd,
/// the served socket and every accepted connection, and delivers every
/// whole frame into the inbox it is for.
struct IoLoop {
    woken: UnixStream,
    served: Served,
    /// The served socket's fd, or -1 (which poll(2) skips) once it failed
    /// hard; the accepted connections are still served.
    served_fd: RawFd,
    conns: Vec<(TcpStream, Reassembly)>,
    inboxes: Inboxes,
    counters: TransportCounters,
}

impl IoLoop {
    fn run(mut self) {
        let mut buf = vec![0u8; MAX_FRAME_BYTES + ID_BYTES];
        loop {
            let conns = self.conns.iter().map(|(stream, _)| stream.as_raw_fd());
            let watched = [self.woken.as_raw_fd(), self.served_fd].into_iter().chain(conns);
            let mut fds: Vec<_> = watched.map(|fd| PollFd(fd, POLLIN, 0)).collect();
            // SAFETY: `fds` is an initialised, exclusively borrowed array of
            // `fds.len()` pollfds that outlives the call.
            let polled = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) };
            // A signal leaves every `revents` at 0: the next round polls again.
            if polled < 0 && std::io::Error::last_os_error().kind() != Interrupted {
                return;
            }
            if fds[0].2 != 0 {
                return; // shutdown
            }
            // Backwards, so `swap_remove` only moves a connection already
            // served this round.
            for i in (0..self.conns.len()).rev() {
                if fds[i + 2].2 != 0 && !self.read(i, &mut buf) {
                    self.conns.swap_remove(i);
                }
            }
            if fds[1].2 != 0 {
                self.serve(&mut buf);
            }
        }
    }

    /// Reads what connection `i` has and delivers its whole frames; false
    /// once it is to be closed. A close at a frame boundary is how every
    /// connection ends and passes silently; an abnormal end (see
    /// [`Reassembly::step`]) or a hard I/O error bumps `peer_disconnects` —
    /// the typed `peer_gone` signal the supervisor and tests read.
    fn read(&mut self, i: usize, buf: &mut [u8]) -> bool {
        let (stream, re) = &mut self.conns[i];
        let (inboxes, counters) = (&self.inboxes, &self.counters);
        let route = |id: &[u8; ID_BYTES]| lock(inboxes).get(id).map(|(_, tx)| tx.clone());
        let end = match stream.read(buf) {
            Ok(n) => re.step((n > 0).then(|| &buf[..n]), route, counters),
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => Ok(true),
            Err(_) => Err("a hard I/O error"),
        };
        end.unwrap_or_else(|_| {
            counters.peer_disconnects.incr();
            false
        })
    }

    /// Accepts every pending connection, or hands every pending datagram
    /// to the inbox its id prefix names. A datagram too short to hold an
    /// id, or naming an inbox this host never bound, is dropped and counted
    /// as a `peer_disconnect`; one for an inbox whose node has finished is
    /// simply dropped. Each datagram is one frame of at most
    /// [`MAX_FRAME_BYTES`] behind its id.
    fn serve(&mut self, buf: &mut [u8]) {
        let err = loop {
            match &self.served {
                Served::Tcp(listener) => match listener.accept() {
                    // A blocking stream could stall the loop: drop it.
                    Ok((stream, _)) if stream.set_nonblocking(true).is_err() => {}
                    Ok((stream, _)) => self.conns.push((stream, Reassembly::default())),
                    Err(e) => break e,
                },
                Served::Udp(sock) => match sock.recv(buf) {
                    Ok(n) => {
                        let named = buf[..n].split_first_chunk::<ID_BYTES>();
                        let inboxes = lock(&self.inboxes);
                        match named.and_then(|(id, wire)| Some((&inboxes.get(id)?.1, wire))) {
                            Some((tx, wire)) => _ = self.counters.deliver(tx, wire),
                            None => self.counters.peer_disconnects.incr(),
                        }
                    }
                    Err(e) => break e,
                },
            }
        };
        // `WouldBlock` ends the drain, and any other transient error this
        // round of it; poll(2) reports what is still pending.
        if source_failed(&err) {
            self.served_fd = -1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    const WAIT: Duration = Duration::from_secs(5);

    fn host(kind: TransportConfig) -> TransportHost {
        TransportHost::new(kind, &RunObs::disabled())
    }

    /// The binding of `inbox` on `on`, as a peer called `peer` sees it.
    fn at(on: &TransportHost, peer: &str, inbox: &str) -> InboxBinding {
        InboxBinding { host: peer.to_string(), at: on.endpoint(), inbox: inbox.to_string() }
    }

    fn addr(on: &TransportHost) -> SocketAddr {
        on.addr.expect("a socket host that has bound an inbox")
    }

    fn await_disconnects(host: &TransportHost, n: u64) {
        let deadline = Instant::now() + WAIT;
        while host.counters.peer_disconnects.get() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(host.counters.peer_disconnects.get(), n);
    }

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
        let mut host = host(TransportConfig::Channel);
        let rx = host.bind("inbox").unwrap();
        let tx = host.connect(&at(&host, "b", "inbox")).unwrap();
        tx.transmit(Arc::from(&b"hello"[..]));
        assert_eq!(rx.recv().unwrap(), Arc::from(&b"hello"[..]));
        let c = &host.counters;
        assert_eq!((c.frames_sent.get(), c.bytes_sent.get()), (1, 5));
        assert_eq!((c.frames_recvd.get(), c.bytes_recvd.get()), (1, 5));
        // A frame into a hung-up inbox is sent and lost: no delivery.
        drop(rx);
        tx.transmit(Arc::from(&b"xx"[..]));
        assert_eq!((c.frames_sent.get(), c.frames_recvd.get()), (2, 1));
        // An inbox nobody bound here cannot be connected to.
        assert!(host.connect(&at(&host, "b", "elsewhere")).is_err());
    }

    #[test]
    fn every_name_of_a_host_shares_its_one_endpoint_and_gets_only_its_own_frames() {
        for kind in [TransportConfig::Tcp, TransportConfig::Udp] {
            let mut host = host(kind);
            assert_eq!(host.endpoint(), Endpoint::Local, "nothing is opened before a bind");
            let names = ["gateway", "edge", "ack:device0->gateway", "ack:edge->cloud"];
            let inboxes: Vec<_> = names.iter().map(|n| host.bind(n).unwrap()).collect();
            // 20 idle senders and, over TCP, one stopped mid-frame.
            let _idle: Vec<_> =
                (0..20).map(|_| host.connect(&at(&host, "idle", "edge")).unwrap()).collect();
            let tcp = kind == TransportConfig::Tcp;
            let mut stalled = tcp.then(|| TcpStream::connect(addr(&host)).unwrap());
            let partial = [&inbox_id("edge")[..], &64u32.to_le_bytes(), &[1; 10]].concat();
            stalled.iter_mut().for_each(|s| s.write_all(&partial).unwrap());
            // One listener (or socket) and the one I/O thread serving it,
            // however many names were bound on it and connections it has.
            assert_eq!(host.readers.len(), 1, "{}", kind.name());
            assert_eq!(host.endpoint(), Endpoint::Socket(addr(&host)));
            let err = host.bind("edge").unwrap_err();
            assert!(matches!(err, RuntimeError::Config { .. }), "{err}");

            // Localhost UDP is effectively lossless; a dropped datagram
            // here would be a real kernel anomaly worth failing on.
            let mut sent = 0;
            for name in names {
                let tx = host.connect(&at(&host, "peer", name)).unwrap();
                for payload in [name.as_bytes(), &[]] {
                    tx.transmit(Arc::from(payload));
                    sent += payload.len() as u64;
                }
            }
            for (name, rx) in names.iter().zip(&inboxes) {
                assert_eq!(&rx.recv_timeout(WAIT).unwrap()[..], name.as_bytes());
                assert!(rx.recv_timeout(WAIT).unwrap().is_empty());
                assert!(rx.try_recv().is_err(), "{name} got a frame addressed elsewhere");
            }
            // The inbox id is framing: the byte cells count frames only.
            let c = &host.counters;
            assert_eq!((c.frames_sent.get(), c.bytes_sent.get()), (8, sent));
            assert_eq!((c.frames_recvd.get(), c.bytes_recvd.get()), (8, sent));
            assert_eq!(c.peer_disconnects.get(), 0);
            // Shutdown joins the I/O thread and is idempotent; the drop
            // that follows must not hang or panic.
            host.shutdown();
            host.shutdown();
            assert!(host.readers.is_empty());
            assert!(inboxes.iter().all(|rx| rx.try_recv().is_err()), "a partial frame arrived");
            assert_eq!(host.counters.peer_disconnects.get(), 0, "shutdown is no peer's fault");
        }
    }

    #[test]
    fn clean_close_at_frame_boundary_is_not_a_peer_disconnect() {
        let mut host = host(TransportConfig::Tcp);
        let rx = host.bind("inbox").unwrap();
        let tx = host.connect(&at(&host, "b", "inbox")).unwrap();
        tx.transmit(Arc::from(&b"whole frame"[..]));
        assert_eq!(&rx.recv_timeout(WAIT).unwrap()[..], b"whole frame");
        drop(tx);
        // A connection that named its inbox and never sent a frame closes
        // at a boundary too.
        drop(host.connect(&at(&host, "b", "inbox")).unwrap());
        // So does one that wrote its frame a byte at a time, flushing each.
        let mut raw = TcpStream::connect(addr(&host)).unwrap();
        raw.set_nodelay(true).unwrap();
        for byte in [&inbox_id("inbox")[..], &5u32.to_le_bytes(), b"bytes"].concat() {
            raw.write_all(&[byte]).and_then(|()| raw.flush()).unwrap();
        }
        assert_eq!(&rx.recv_timeout(WAIT).unwrap()[..], b"bytes");
        drop(raw);
        host.shutdown();
        assert_eq!(host.counters.peer_disconnects.get(), 0);
    }

    #[test]
    fn abnormal_peers_are_dropped_and_counted_while_named_peers_are_served() {
        let id = inbox_id("inbox");
        let stray = inbox_id("no-such-inbox");
        // TCP: each stream is hung up on, never assembled into a frame —
        // the 3 GB prefix before it can drive an allocation.
        let mut tcp = host(TransportConfig::Tcp);
        let rx = tcp.bind("inbox").unwrap();
        let streams = [
            [&stray[..], &5u32.to_le_bytes(), b"stray"].concat(), // an inbox nobody bound
            id[..3].to_vec(),                                     // closed inside the id
            [&id[..], &64u32.to_le_bytes(), &[0u8; 10]].concat(), // closed inside a frame
            [&id[..], &u32::MAX.to_le_bytes()].concat(),          // a hopeless length prefix
        ];
        for (n, bytes) in streams.iter().enumerate() {
            TcpStream::connect(addr(&tcp)).unwrap().write_all(bytes).unwrap();
            await_disconnects(&tcp, n as u64 + 1);
        }
        // UDP: a datagram too short to name an inbox, and a stray one.
        let mut udp = host(TransportConfig::Udp);
        let udp_rx = udp.bind("inbox").unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(&id[..3], addr(&udp)).unwrap();
        sock.send_to(&[&stray[..], b"stray"].concat(), addr(&udp)).unwrap();
        await_disconnects(&udp, 2);
        for (host, rx) in [(&tcp, &rx), (&udp, &udp_rx)] {
            let tx = host.connect(&at(host, "b", "inbox")).unwrap();
            tx.transmit(Arc::from(&b"named"[..]));
            assert_eq!(&rx.recv_timeout(WAIT).unwrap()[..], b"named");
            assert!(rx.try_recv().is_err(), "a stray frame reached an inbox");
            assert_eq!(host.counters.frames_recvd.get(), 1);
        }
    }

    #[test]
    fn a_tcp_frame_at_the_bound_is_delivered_and_one_byte_past_it_drops_the_connection() {
        let mut tcp = host(TransportConfig::Tcp);
        let rx = tcp.bind("inbox").unwrap();
        let id = inbox_id("inbox");
        let frame = |len: usize| [&id[..], &(len as u32).to_le_bytes(), &vec![7u8; len]].concat();
        let mut at_bound = TcpStream::connect(addr(&tcp)).unwrap();
        at_bound.write_all(&frame(MAX_FRAME_BYTES)).unwrap();
        assert_eq!(rx.recv_timeout(WAIT).unwrap().len(), MAX_FRAME_BYTES);
        // The loop hangs up after the prefix, so the write may fail.
        let _ = TcpStream::connect(addr(&tcp)).unwrap().write_all(&frame(MAX_FRAME_BYTES + 1));
        await_disconnects(&tcp, 1);
        assert!(rx.try_recv().is_err(), "an oversized frame reached the inbox");
        drop(at_bound);
        tcp.shutdown();
    }

    #[test]
    fn a_severed_tcp_sender_redials_and_names_its_inbox_again() {
        let mut host = host(TransportConfig::Tcp);
        let bystander = host.bind("bystander").unwrap();
        let rx = host.bind("inbox").unwrap();
        let tx = host.connect(&at(&host, "b", "inbox")).unwrap();
        // A severed frame is sent (lost in flight, like kernel loss) but
        // never arrives; the next transmit dials a fresh stream, which
        // must open with the inbox id to get anywhere.
        let severed = |i: u8| i % 5 == 2;
        for i in 0..16u8 {
            match severed(i) {
                true => tx.sever(Arc::from([i; 12])),
                false => tx.transmit(Arc::from([i; 12])),
            }
        }
        let mut arrived = Vec::new();
        while let Ok(frame) = rx.recv_timeout(Duration::from_millis(300)) {
            arrived.push(frame[0]);
        }
        // Streams are served side by side, so their frames interleave.
        arrived.sort_unstable();
        assert_eq!(arrived, (0..16u8).filter(|&i| !severed(i)).collect::<Vec<_>>());
        // Every sever is an abnormal close, counted by the loop; the
        // sender counts each frame it wrote, whole or half.
        await_disconnects(&host, 3);
        let c = &host.counters;
        assert_eq!((c.frames_sent.get(), c.frames_recvd.get()), (16, 13));
        assert!(bystander.try_recv().is_err());
        host.shutdown();
    }

    #[test]
    fn only_a_hard_failure_of_the_served_socket_ends_serving_it() {
        let kinds = [std::io::ErrorKind::ConnectionAborted, Interrupted, WouldBlock];
        assert!(kinds.into_iter().all(|kind| !source_failed(&kind.into())));
        // EINTR, EMFILE and ENFILE cost one connection; EBADF, EFAULT and
        // EINVAL end serving.
        let errnos = [4, 24, 23, 9, 14, 22].map(std::io::Error::from_raw_os_error);
        assert_eq!(errnos.each_ref().map(source_failed), [false, false, false, true, true, true]);
    }

    /// Feeds `bytes` to one reassembly in reads cut at `cuts`, then the
    /// close: the frames delivered, and how the step ended.
    fn feed(bytes: &[u8], cuts: &[usize]) -> (Vec<Vec<u8>>, Step) {
        let mut at: Vec<_> =
            cuts.iter().map(|c| c % (bytes.len() + 1)).chain([0, bytes.len()]).collect();
        at.sort_unstable();
        let reads = at.windows(2).map(|w| Some(&bytes[w[0]..w[1]]));
        let ((tx, rx), mut re) = (channel(), Reassembly::default());
        let counters = TransportCounters::default();
        for read in reads.chain([None]) {
            match re.step(read, |id| (id == b"inbox-id").then(|| tx.clone()), &counters) {
                Ok(true) => {}
                end => return (rx.try_iter().map(|f| f.to_vec()).collect(), end),
            }
        }
        unreachable!("the close ends every stream")
    }

    // The reassembly step, fed an id and 1–8 frames cut into reads at
    // arbitrary points, delivers exactly those frames in order; each
    // abnormal stream ends in one drop reason, with the frames before it
    // delivered whole and none in part.
    proptest::proptest! {
        #[test]
        fn every_cut_of_a_stream_yields_its_frames_or_one_drop_reason(
            lens in proptest::prop::collection::vec(0usize..=13_000, 1..9),
            cuts in proptest::prop::collection::vec(0usize..110_000, 0..12),
            short in 1usize..ID_BYTES,
            into in 0usize..13_004,
            over in MAX_FRAME_BYTES as u32 + 1..=u32::MAX,
        ) {
            let frames: Vec<Vec<u8>> =
                lens.iter().map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect()).collect();
            let body =
                frames.iter().flat_map(|f| [&(f.len() as u32).to_le_bytes()[..], f].concat());
            let whole: Vec<u8> = b"inbox-id".iter().copied().chain(body.clone()).collect();
            assert_eq!(feed(&whole, &cuts), (frames.clone(), Ok(false)));
            let stray: Vec<u8> = b"stranger".iter().copied().chain(body).collect();
            assert_eq!(feed(&stray, &cuts), (vec![], Err("an inbox this host never bound")));
            assert_eq!(feed(&whole[..short], &cuts), (vec![], Err("closed inside the inbox id")));
            // Closed 1 to `len + 3` bytes into the last frame: inside its
            // prefix or its body.
            let (before, last) = frames.split_at(frames.len() - 1);
            let cut = whole.len() - last[0].len() - 3 + into % (last[0].len() + 3);
            let err = Err("closed inside a frame");
            assert_eq!(feed(&whole[..cut], &cuts), (before.to_vec(), err));
            let hopeless = [&whole[..], &over.to_le_bytes()].concat();
            assert_eq!(feed(&hopeless, &cuts), (frames, Err("a hopeless length prefix")));
        }
    }

    // Byte soup written straight into the sockets by a foreign peer —
    // where the inbox id goes (`named == 0`) or, behind a valid id,
    // where the length prefix and frames go — must never panic the I/O
    // thread, and whatever it does deliver must fail frame decoding
    // with typed errors, not crashes. The bound inbox has to keep serving
    // well-formed peers afterwards.
    mod junk_resilience {
        use super::*;
        use proptest::prelude::*;

        fn soup(named: bool, junk: &[u8]) -> Vec<u8> {
            let id = inbox_id("inbox");
            [if named { &id[..] } else { &[] }, junk].concat()
        }

        fn assert_still_serving(host: &TransportHost, rx: &Receiver<Arc<[u8]>>) {
            let tx = host.connect(&at(host, "probe", "inbox")).unwrap();
            tx.transmit(Arc::from(&b"still alive"[..]));
            loop {
                let got = rx.recv_timeout(WAIT).expect("inbox stopped serving");
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
                named in 0u8..2,
                junk in prop::collection::vec(0u8..=255, 1..256),
            ) {
                let mut host = host(TransportConfig::Tcp);
                let rx = host.bind("inbox").unwrap();
                let mut raw = TcpStream::connect(addr(&host)).unwrap();
                // Raw bytes, no framing: the loop either hangs up on an
                // id it does not know, assembles a bogus frame, or hangs
                // up on an absurd length.
                raw.write_all(&soup(named == 1, &junk)).unwrap();
                raw.flush().unwrap();
                drop(raw);
                assert_still_serving(&host, &rx);
                host.shutdown();
            }

            #[test]
            fn udp_inbox_survives_junk_datagrams(
                named in 0u8..2,
                junk in prop::collection::vec(0u8..=255, 0..256),
            ) {
                let mut host = host(TransportConfig::Udp);
                let rx = host.bind("inbox").unwrap();
                let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
                sock.send_to(&soup(named == 1, &junk), addr(&host)).unwrap();
                assert_still_serving(&host, &rx);
                host.shutdown();
            }
        }
    }
}
