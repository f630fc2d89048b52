//! Multi-process deployment: the hierarchy's roles as real OS processes
//! wired over localhost sockets.
//!
//! [`launch`] spawns one `ddnn-node host` process per role of the wiring
//! table — all end devices together, the gateway, and each feature tier —
//! and plays the orchestrator itself, through the same `connect` and
//! orchestrator body as the in-process runner: it drives the samples,
//! collects the verdicts and adds every role's counters into its own
//! registry, so the same [`SimReport`] is read off the same cells.
//! [`host_role`] is the other side: it reads a
//! role assignment plus a role manifest from stdin, rebuilds the seeded
//! model (weights re-derive bit-identically from the seed in every
//! process), connects and builds its role's nodes from the same wiring
//! table, and serves them over the socket dataplane until the
//! orchestrator shuts the run down. What is left in this module is what
//! is about *processes*: spawn, the stdio handshake, supervision,
//! respawn, the report lines and the bounded reap.
//!
//! Every process has one socket address and every inbox is a name on it
//! (see [`crate::transport`]); the wiring table, identical in every
//! process, says which host binds which name. So the stdio handshake —
//! line oriented and human readable; a host is spelled `orchestrator`,
//! `devices`, `gateway` or `tier<k>` everywhere — only has to swap one
//! address per process:
//!
//! ```text
//! launcher -> child   ROLE <role>, manifest, END
//! child -> launcher   ADDR <role> <ip:port>
//! launcher -> child   ADDR <host> <ip:port> for every host, GO
//! (run: frames flow over TCP/UDP; the child emits HB <n> heartbeat
//!  lines; the launcher sends REWIRE <role> <ip:port> after that peer
//!  role respawned at a new address)
//! child -> launcher   COUNTER <name> <value> per registry cell,
//!                     DEGRADED <seq>,<seq>,..., DONE
//! ```
//!
//! A role reports by shipping its whole counter registry, zero cells
//! included; the launcher adds each value into its cell of that name, so a
//! cell two processes count (a link's sender and its ARQ receiver) sums
//! exactly as it would in one process.
//!
//! A child binds every name it answers to — its nodes' inboxes and the
//! `ack:` inbox of every ARQ link it sends — before it prints its `ADDR`
//! line, so no peer can dial an inbox that is not there yet.
//!
//! The launcher is also a *supervisor*: every handshake read is
//! deadline-bounded, every child's exit status and heartbeat stream are
//! polled while samples are driven, and the run's
//! [`ChaosPlan`](crate::ChaosPlan) can SIGKILL role processes mid-run
//! (`Down` on a [`ChaosTarget::Process`](crate::ChaosTarget)) and respawn
//! them (`Up`). A dead role folds into the same graceful
//! degradation as an in-process deadline miss — blank substitution,
//! forced local exits, typed per-sample timeouts — instead of a hung
//! pipe read. A respawned role re-handshakes with the same manifest
//! plus a per-generation `tseq_base` and binds a fresh address; one
//! `REWIRE` line per surviving role re-points every sender it holds into
//! the respawned one — data links and ack paths alike.
//!
//! Teardown waits on events, never on a sleep: a role's heartbeat thread
//! waits out each period on a stop channel that the role drops once its
//! nodes have joined, and the launcher's reap waits, within a grace
//! period, for a role's stdout to close — which it does when the process
//! exits — before it collects the exit status. A role process runs its
//! node threads plus four: main, the transport's I/O loop, the stdio
//! control thread and the heartbeat thread.
//!
//! Scope: multi-process runs cover the partition-implied topology, in
//! lockstep or under scheduled arrivals, with or without statically failed
//! devices, statically or under elastic orchestration — the role manifest
//! carries `stream`, `failed_devices` and `elastic`, and every process
//! derives the same live mask, admission window, batch budget and
//! compatibility matrix from it. The elastic driver runs in the launcher
//! and steers the role processes' nodes only through its pings, as it does
//! threads. [`launch`] rejects, with a typed configuration error before
//! anything is spawned, a non-socket transport. It runs the whole chaos
//! plan [`ChaosPlan::validate`](crate::ChaosPlan::validate) accepts:
//! process Down/Up events itself, node Down/Up through the elastic
//! driver, and the links impairment and `AfterFrames` crash points in the
//! process that sends on each link — the manifest carries them to every
//! role. A respawned role's crash counters start over.

use super::orchestrate::{host_nodes, live_mask, orchestrate, validate_run, Feed, SampleHook};
use super::roles::{compute_blanks, spawn_role, Routing, RunCtx};
use super::wiring::{connect, Addrs, Host, Wiring};
use crate::chaos::{ChaosTarget, ProcTarget};
use crate::error::{reject, Result, RuntimeError};
use crate::lock;
use crate::node::report::{NodeReport, SimReport};
use crate::obs::{ObsEvent, ObsRegistry, RunObs};
use crate::orchestrator::rebalance::RoutingTable;
use crate::topology::{decode_role_manifest, encode_role_manifest, HierarchyConfig, Topology};
use crate::transport::{Endpoint, RedialHandle};
use ddnn_core::{Ddnn, DdnnConfig};
use ddnn_tensor::Tensor;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Budget for the stdio handshake (and the post-run report
/// read) before the launcher declares the child hung and kills it.
/// Generous: debug-build children rebuild the model before answering.
const PHASE_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a role process may linger after its `DONE` line before the
/// bounded reap kills it and reports a typed error.
const REAP_GRACE: Duration = Duration::from_secs(15);

/// Milliseconds between a role's `HB` heartbeat lines — the cadence the
/// role emits at and the supervisor measures staleness against.
const HEARTBEAT_MS: u64 = 50;

/// Heartbeat staleness (in heartbeat periods) that books a
/// `proc.{role}.heartbeat_misses` count.
const MISS_PERIODS: u64 = 4;

/// A live child whose heartbeat is older than this is declared hung and
/// folded into degradation exactly like a dead one. Far above any
/// scheduling jitter a loaded CI machine produces.
const HEARTBEAT_HANG: Duration = Duration::from_secs(10);

/// Respawn generations space their ARQ transport sequence numbers this
/// far apart, so a restarted sender's frames land above everything its
/// predecessor could have sent (see `ArqRecvState` rebasing).
const TSEQ_GENERATION_STRIDE: u32 = 1 << 20;

/// The first transport sequence number of a role's `generation`-th
/// incarnation. The `u32` sequence space holds 4,096 generations; one
/// more would wrap into generation 0's range, where surviving receivers
/// discard frames as ancient duplicates, so it is refused instead.
fn tseq_base_for(role: ProcTarget, generation: u32) -> Result<u32> {
    generation.checked_mul(TSEQ_GENERATION_STRIDE).ok_or_else(|| RuntimeError::Peer {
        role: role.to_string(),
        reason: format!("respawn budget exhausted at generation {generation}"),
    })
}

fn peer_err(endpoint: &str, reason: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Transport { endpoint: endpoint.to_string(), reason: reason.to_string() }
}

/// A child's next protocol line, awaited until `deadline` — so a wedged or
/// dead child becomes a typed [`RuntimeError::Peer`] instead of a hung
/// pipe read. An `ERROR <msg>` line relays the child's own typed failure.
fn next_line(
    lines: &Receiver<String>,
    role: &str,
    deadline: Instant,
    what: &str,
) -> Result<String> {
    let gone = |reason: String| RuntimeError::Peer { role: role.to_string(), reason };
    match lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(line) => match line.strip_prefix("ERROR ") {
            Some(msg) => Err(gone(msg.to_string())),
            None => Ok(line),
        },
        Err(RecvTimeoutError::Timeout) => Err(gone(format!("timed out waiting for {what}"))),
        Err(RecvTimeoutError::Disconnected) => Err(gone(format!("exited before sending {what}"))),
    }
}

/// Reads a child's protocol lines until `stop`, feeding every other line
/// to `f`, within `timeout` overall.
fn read_lines_until(
    lines: &Receiver<String>,
    role: &str,
    stop: &str,
    timeout: Duration,
    mut f: impl FnMut(&str) -> Result<()>,
) -> Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        let line = next_line(lines, role, deadline, stop)?;
        if line == stop {
            return Ok(());
        }
        f(&line)?;
    }
}

/// Parses `<word> <host> <ip:port>` — an `ADDR` line of the handshake or a
/// `REWIRE` control line.
fn parse_addr_line(line: &str, word: &str) -> Result<(Host, SocketAddr)> {
    let malformed = || RuntimeError::Protocol { reason: format!("malformed {word} line {line:?}") };
    let rest = line.strip_prefix(word).and_then(|r| r.strip_prefix(' ')).ok_or_else(malformed)?;
    let (host, addr) = rest.split_once(' ').ok_or_else(malformed)?;
    Ok((host.parse()?, addr.parse().map_err(|_| malformed())?))
}

/// A role's report: its registry snapshot as `COUNTER` lines, then the
/// samples its nodes degraded as one `DEGRADED` line.
fn fmt_report(registry: &ObsRegistry, node_reports: &[NodeReport]) -> String {
    let mut out = String::new();
    for (name, value) in registry.snapshot() {
        out.push_str(&format!("COUNTER {name} {value}\n"));
    }
    let degraded: Vec<String> =
        node_reports.iter().flat_map(|r| &r.degraded).map(u64::to_string).collect();
    out.push_str(&format!("DEGRADED {}\n", degraded.join(",")));
    out
}

/// Folds one line of a role's report into the launcher's: a `COUNTER`
/// value adds into the registry cell of that name, a `DEGRADED` line's
/// samples join `degraded`.
fn fold_report_line(line: &str, registry: &ObsRegistry, degraded: &mut Vec<u64>) -> Result<()> {
    let malformed = || RuntimeError::Protocol { reason: format!("malformed report line {line:?}") };
    let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
    match word {
        "COUNTER" => {
            let (name, value) = rest.rsplit_once(' ').ok_or_else(malformed)?;
            let value = value.parse().map_err(|_| malformed())?;
            registry.counter(name).add(value);
        }
        "DEGRADED" => {
            for seq in rest.split(',').filter(|s| !s.is_empty()) {
                degraded.push(seq.parse().map_err(|_| malformed())?);
            }
        }
        _ => return Err(malformed()),
    }
    Ok(())
}

/// Typed rejection, before any process is spawned, of the one thing that
/// cannot span process boundaries: processes talk over sockets, so the
/// transport must be one.
fn validate_launch(cfg: &HierarchyConfig) -> Result<()> {
    if !cfg.transport.is_socket() {
        return reject(
            "multi-process runs need a socket transport (set cfg.transport to tcp or udp)",
        );
    }
    Ok(())
}

/// The address processes exchange; only a socket transport has one.
fn socket_addr(own: Endpoint) -> Result<SocketAddr> {
    match own {
        Endpoint::Socket(addr) => Ok(addr),
        Endpoint::Local => reject("the channel transport cannot cross process boundaries"),
    }
}

/// One supervised role process: the child, its stdin (handshake +
/// `REWIRE` control lines), the bridged stdout line stream, and the
/// liveness state the supervisor polls.
struct Supervised {
    role: ProcTarget,
    child: Child,
    stdin: ChildStdin,
    /// Non-heartbeat stdout lines, bridged off the reader thread.
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// The instant of the child's last `HB` line, in whole milliseconds on
    /// the run clock.
    beat: Arc<AtomicU64>,
    /// False once killed (by chaos, by the hang detector) or reaped.
    alive: bool,
    /// Spawn generation: 0 for the original process, +1 per respawn.
    generation: u32,
}

impl Supervised {
    /// Spawns one role process, starts its stdout bridge (heartbeat lines
    /// update `beat`; everything else queues for the supervisor), and
    /// sends the `ROLE` + manifest preamble.
    fn spawn(
        node_exe: &Path,
        role: ProcTarget,
        manifest: &str,
        clock: crate::SimClock,
        generation: u32,
    ) -> Result<Supervised> {
        let label = role.to_string();
        let mut child = Command::new(node_exe)
            .arg("host")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| peer_err(&label, format!("spawn failed: {e}")))?;
        let stdin = child.stdin.take().ok_or_else(|| peer_err(&label, "no stdin pipe"))?;
        let stdout = child.stdout.take().ok_or_else(|| peer_err(&label, "no stdout"))?;
        let beat = Arc::new(AtomicU64::new(clock.elapsed_ms_f64() as u64));
        let (tx, lines) = channel();
        let beat_cell = Arc::clone(&beat);
        let reader = Some(std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(std::io::Result::ok) {
                let t = line.trim_end();
                if t.starts_with("HB ") {
                    beat_cell.store(clock.elapsed_ms_f64() as u64, Ordering::Release);
                } else if tx.send(t.to_string()).is_err() {
                    return;
                }
            }
        }));
        let mut p = Supervised { role, child, stdin, lines, reader, beat, alive: true, generation };
        p.send(&format!("ROLE {role}\n{manifest}END\n"))?;
        Ok(p)
    }

    /// Writes control lines to the child's stdin.
    fn send(&mut self, msg: &str) -> Result<()> {
        let written = self.stdin.write_all(msg.as_bytes()).and_then(|()| self.stdin.flush());
        written.map_err(|e| peer_err(&self.role.to_string(), e))
    }

    /// Marks the (already exited) child gone; its stdout reader drains to
    /// EOF.
    fn retire(&mut self) {
        self.alive = false;
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }

    /// SIGKILLs the child and reaps it.
    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.retire();
    }
}

impl Drop for Supervised {
    fn drop(&mut self) {
        // Only reached with a live child on error paths: don't leave
        // orphan processes serving sockets.
        self.kill_now();
    }
}

/// The launcher's role processes and where each process of the mesh is
/// reached.
struct Fleet<'a> {
    node_exe: &'a Path,
    manifest: String,
    /// The run clock, the time base of every heartbeat age.
    clock: crate::SimClock,
    procs: Vec<Supervised>,
    /// The address of every host of the run, as it is now.
    addrs: HashMap<Host, SocketAddr>,
}

impl Fleet<'_> {
    /// The address swap against the roles `takes_part` selects — everyone
    /// at launch, the respawned role later: books the address each of them
    /// advertises, then tells each where every host is.
    fn exchange(&mut self, takes_part: impl Fn(&Supervised) -> bool) -> Result<()> {
        for p in self.procs.iter().filter(|p| takes_part(p)) {
            let role = p.role.to_string();
            let line = next_line(&p.lines, &role, Instant::now() + PHASE_TIMEOUT, "ADDR")?;
            let (host, addr) = parse_addr_line(&line, "ADDR")?;
            if host != Host::Role(p.role) {
                return Err(RuntimeError::Protocol {
                    reason: format!("role {role} advertised an address for {host}"),
                });
            }
            self.addrs.insert(host, addr);
        }
        let book = self.addrs.iter().map(|(host, addr)| format!("ADDR {host} {addr}\n"));
        let msg: String = book.chain(["GO\n".to_string()]).collect();
        for p in self.procs.iter_mut().filter(|p| takes_part(p)) {
            p.send(&msg)?;
            // The handshake (which includes the child's model rebuild)
            // does not count as heartbeat staleness.
            p.beat.store(self.clock.elapsed_ms_f64() as u64, Ordering::Release);
        }
        Ok(())
    }

    fn alive(&self, role: ProcTarget) -> bool {
        self.procs.iter().any(|p| p.role == role && p.alive)
    }
}

/// The launcher while samples are driven: the per-sample supervision
/// tick, scheduled kills and respawns, and the sensor feeds.
struct Supervisor<'a> {
    fleet: Fleet<'a>,
    /// Re-points the launcher's own senders at a respawned role.
    redial: RedialHandle,
    feed: Feed<'a>,
    obs: Arc<RunObs>,
}

impl Supervisor<'_> {
    /// Bumps `proc.{role}.{what}`.
    fn count(&self, role: ProcTarget, what: &str) {
        self.obs.registry().counter(&format!("proc.{role}.{what}")).incr();
    }

    /// Books a role death, however it came about.
    fn book_kill(&self, role: ProcTarget, at_sample: u64) {
        self.count(role, "kills");
        self.obs.emit(|| ObsEvent::ProcKilled { role: role.to_string(), at_sample });
    }

    /// Polls every live child's exit status and heartbeat age. Dead roles
    /// are not special-cased anywhere downstream — their silence folds
    /// into the same deadline degradation as in-process loss.
    fn tick(&mut self, seq: u64) {
        let now_ms = self.fleet.clock.elapsed_ms_f64() as u64;
        for i in 0..self.fleet.procs.len() {
            let p = &mut self.fleet.procs[i];
            let role = p.role;
            if !p.alive {
                continue;
            }
            if let Ok(Some(_)) = p.child.try_wait() {
                // Died on its own: reap, and degrade like a kill.
                p.retire();
                self.book_kill(role, seq);
                continue;
            }
            let stale = now_ms.saturating_sub(p.beat.load(Ordering::Acquire));
            if stale > HEARTBEAT_HANG.as_millis() as u64 {
                // Alive but silent for seconds: a wedged process is as
                // gone as a dead one.
                p.kill_now();
                self.count(role, "heartbeat_misses");
                self.book_kill(role, seq);
            } else if stale > MISS_PERIODS * HEARTBEAT_MS {
                self.count(role, "heartbeat_misses");
            }
        }
    }

    /// Respawns a dead role: spawn + the same handshake as launch with
    /// the same manifest (plus a per-generation `tseq_base`), then re-point
    /// every surviving sender into the role — data links into its inboxes
    /// and the ack paths of the links it sends alike — at its fresh
    /// address: the launcher's own via its [`RedialHandle`], each other
    /// role's with one `REWIRE` line. The restarted role rejoins at
    /// whatever sample the orchestrator drives next; samples lost while it
    /// was down stay typed as timeouts.
    fn respawn(&mut self, role: ProcTarget) -> Result<()> {
        let fleet = &mut self.fleet;
        let old = fleet.procs.iter_mut().find(|p| p.role == role).ok_or_else(|| {
            peer_err(&role.to_string(), "respawn of a role that was never launched")
        })?;
        let generation = old.generation + 1;
        let tseq_base = tseq_base_for(role, generation)?;
        let manifest = format!("{}tseq_base={tseq_base}\n", fleet.manifest);
        *old = Supervised::spawn(fleet.node_exe, role, &manifest, fleet.clock, generation)?;
        fleet.exchange(|p| p.role == role)?;
        let addr = fleet.addrs[&Host::Role(role)];
        self.redial.redial(&role.to_string(), addr);
        for p in fleet.procs.iter_mut().filter(|p| p.alive && p.role != role) {
            p.send(&format!("REWIRE {role} {addr}\n"))?;
        }
        Ok(())
    }
}

impl SampleHook for Supervisor<'_> {
    /// Each capture round doubles as a supervision tick.
    fn feed(&mut self, i: usize, routing: &RoutingTable) -> Result<()> {
        self.tick(i as u64);
        self.feed.send(i, routing)
    }

    /// SIGKILLs (`down`) or respawns the targeted role process.
    fn apply(&mut self, seq: u64, target: &ChaosTarget, down: bool) -> Result<()> {
        let ChaosTarget::Process(role) = *target else { return Ok(()) };
        if down {
            if let Some(p) = self.fleet.procs.iter_mut().find(|p| p.role == role && p.alive) {
                p.kill_now();
                self.book_kill(role, seq);
            }
        } else {
            self.respawn(role)?;
            self.count(role, "respawns");
            self.obs.emit(|| ObsEvent::ProcRespawned { role: role.to_string(), at_sample: seq });
        }
        Ok(())
    }

    fn locate(&self, role: ProcTarget, _: Endpoint) -> Option<Endpoint> {
        let addr = self.fleet.addrs.get(&Host::Role(role)).filter(|_| self.fleet.alive(role));
        addr.map(|&addr| Endpoint::Socket(addr))
    }

    /// Reads every surviving role's report — its counters add into the
    /// launcher's cells of the same names — then reaps the processes. A
    /// killed role's counts died with it.
    fn collect(&mut self) -> Result<Vec<NodeReport>> {
        let (registry, mut degraded) = (self.obs.registry(), Vec::new());
        for p in self.fleet.procs.iter().filter(|p| p.alive) {
            read_lines_until(&p.lines, &p.role.to_string(), "DONE", PHASE_TIMEOUT, |line| {
                fold_report_line(line, registry, &mut degraded)
            })?;
        }
        // Bounded reap: a role that printed DONE but will not exit (wedged
        // destructor, leaked thread) must not hang the launcher forever. A
        // role prints nothing after DONE, and its stdout bridge disconnects
        // when the process exits and its pipe closes.
        for p in self.fleet.procs.iter_mut().filter(|p| p.alive) {
            let endpoint = p.role.to_string();
            if p.lines.recv_timeout(REAP_GRACE) != Err(RecvTimeoutError::Disconnected) {
                p.kill_now();
                let why = format!("did not exit within {REAP_GRACE:?} after DONE; killed");
                return Err(peer_err(&endpoint, format!("role process {why}")));
            }
            let status = p.child.wait().map_err(|e| peer_err(&endpoint, e))?;
            p.retire();
            if !status.success() {
                return Err(peer_err(&endpoint, format!("role process exited with {status}")));
            }
        }
        Ok(vec![NodeReport { degraded }])
    }
}

/// Runs the hierarchy as real OS processes on localhost: one process per
/// role (all devices, the gateway, each tier), spawned from `node_exe`
/// (the `ddnn-node` binary, `host` subcommand), with this process acting
/// as the orchestrator. The model is rebuilt in every process from the
/// seeded `model_cfg`, so weights — and therefore verdicts — are
/// bit-identical to an in-process [`run_topology`](super::run_topology)
/// of the same configuration.
///
/// `cfg.transport` must be a socket transport. Elastic orchestration runs
/// as it does in-process: the launcher drives membership and steers every
/// role's nodes with its pings. Of `cfg.chaos` this runner takes process
/// Down/Up events (seeded role kills and respawns) itself, node Down/Up
/// events (elastic churn) through its pings, and ships the links
/// impairment and `AfterFrames` crash points to every role, supervised end
/// to end.
///
/// # Errors
///
/// Returns typed configuration errors for unsupported configurations,
/// transport errors when spawning or a socket operation fails, and
/// [`RuntimeError::Peer`] when a role process hangs past a handshake,
/// report or reap deadline (the launcher kills it first).
pub fn launch(
    node_exe: &Path,
    model_cfg: &DdnnConfig,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    validate_launch(cfg)?;
    let topology = Topology::from_partition(&Ddnn::new(model_cfg.clone()).partition());
    let live = validate_run(&topology, device_views, labels, cfg, true)?;
    let obs = Arc::new(RunObs::new(&cfg.obs));
    // The pump and the elastic driver route by the compatibility every
    // role process derives alike from the seeded model; only an elastic
    // run probes it on the blanks.
    let blanks = cfg.elastic.map(|_| compute_blanks(&topology)).transpose()?;
    let routing = Routing::new(&topology, &live, blanks.as_ref());
    let ctx = RunCtx { topology: &topology, cfg, live: &live, obs, routing: &routing };
    let wiring = Wiring::of(&topology, cfg.elastic.is_some());

    // One supervised process per role; the launcher hosts only the
    // orchestrator's end of the wiring.
    let mut fleet = Fleet {
        node_exe,
        manifest: encode_role_manifest(&topology.config, cfg),
        clock: ctx.obs.clock(),
        procs: Vec::new(),
        addrs: HashMap::new(),
    };
    for role in wiring.roles() {
        let p = Supervised::spawn(node_exe, role, &fleet.manifest, fleet.clock, 0)?;
        fleet.procs.push(p);
        for what in ["kills", "respawns", "heartbeat_misses"] {
            ctx.obs.registry().counter(&format!("proc.{role}.{what}"));
        }
    }
    let plane = connect(&wiring, &[Host::Orchestrator], cfg, &ctx.obs, 0, |own| {
        fleet.addrs.insert(Host::Orchestrator, socket_addr(own)?);
        fleet.exchange(|_| true)?;
        Ok(fleet.addrs.iter().map(|(&host, &addr)| (host, Endpoint::Socket(addr))).collect())
    })?;
    let mut supervisor = Supervisor {
        fleet,
        redial: plane.factory.transport.redial_handle(),
        feed: Feed::new(&plane, &ctx, device_views)?,
        obs: Arc::clone(&ctx.obs),
    };
    orchestrate(&ctx, &wiring, plane, |_, _| Ok(()), labels, &mut supervisor)
}

/// Serves one role of a multi-process run over stdin/stdout — the body
/// of the `ddnn-node host` subcommand. Reads the role assignment and
/// manifest, performs the socket handshake, runs the role's nodes until
/// the orchestrator's shutdown, and reports its counters and degraded
/// samples back.
/// After `GO` it also emits `HB <n>` heartbeat lines (so the launcher
/// can tell a busy role from a wedged one) and answers `REWIRE` control
/// lines by re-pointing its senders into a respawned peer role at that
/// role's new address.
///
/// # Errors
///
/// Any failure is also written to stdout as an `ERROR <msg>` line (so
/// the launcher sees it) before being returned.
pub fn host_role() -> Result<()> {
    // Stdout is shared between the handshake/report writer and the
    // heartbeat thread; the mutex keeps whole lines atomic.
    let out = Arc::new(Mutex::new(std::io::stdout()));
    let result = run_role(BufReader::new(std::io::stdin()), &out);
    if let Err(e) = &result {
        let _ = say(&out, format_args!("ERROR {e}"));
    }
    result
}

/// Writes one whole line to the launcher and flushes it.
fn say(out: &Mutex<impl Write>, line: std::fmt::Arguments) -> std::io::Result<()> {
    let mut o = lock(out);
    writeln!(o, "{line}").and_then(|()| o.flush())
}

/// Serves launcher control lines for the rest of the run. Today that is
/// `REWIRE <role> <ip:port>`: that peer role was respawned at a fresh
/// address, so re-point every sender into it.
fn control_loop(input: impl BufRead, redial: &RedialHandle) {
    for line in input.lines() {
        let Ok(line) = line else { return };
        if let Ok((host, addr)) = parse_addr_line(line.trim_end(), "REWIRE") {
            redial.redial(&host.to_string(), addr);
        }
    }
}

fn read_control_line(input: &mut impl BufRead) -> Result<String> {
    let mut line = String::new();
    let n = input.read_line(&mut line).map_err(|e| peer_err("launcher", e))?;
    if n == 0 {
        return Err(peer_err("launcher", "stdin closed mid-handshake"));
    }
    Ok(line.trim_end().to_string())
}

fn run_role<I, O>(mut input: I, out: &Arc<Mutex<O>>) -> Result<()>
where
    I: BufRead + Send + 'static,
    O: Write + Send + 'static,
{
    let io_err = |e: std::io::Error| peer_err("launcher", e);

    // Role + manifest.
    let role_line = read_control_line(&mut input)?;
    let role: ProcTarget = role_line
        .strip_prefix("ROLE ")
        .ok_or_else(|| RuntimeError::Protocol {
            reason: format!("expected ROLE line, got {role_line:?}"),
        })?
        .parse()?;
    let mut manifest = String::new();
    loop {
        let line = read_control_line(&mut input)?;
        if line == "END" {
            break;
        }
        manifest.push_str(&line);
        manifest.push('\n');
    }
    let (model_cfg, cfg, extras) = decode_role_manifest(&manifest)?;

    // Rebuild the run: same seed, same weights, same blanks, same wiring
    // table as every other process.
    let topology = Topology::from_partition(&Ddnn::new(model_cfg).partition());
    let wiring = Wiring::of(&topology, cfg.elastic.is_some());
    if !wiring.roles().contains(&role) {
        return Err(RuntimeError::Protocol { reason: format!("no role {role} in this topology") });
    }
    let blanks = compute_blanks(&topology)?;
    let live = live_mask(topology.num_devices(), &cfg);
    let routing = Routing::new(&topology, &live, cfg.elastic.map(|_| &blanks));
    let obs = Arc::new(RunObs::new(&cfg.obs));
    let ctx = RunCtx { topology: &topology, cfg: &cfg, live: &live, obs, routing: &routing };

    // The handshake: advertise where this role is reached, learn where
    // every host is. A respawned role numbers its ARQ frames from a fresh
    // generation base (`tseq_base`) so surviving receivers rebase instead
    // of treating its frames as ancient duplicates.
    let swap = |own: Endpoint| -> Result<Addrs> {
        say(out, format_args!("ADDR {role} {}", socket_addr(own)?)).map_err(io_err)?;
        let mut book = Addrs::new();
        loop {
            let line = read_control_line(&mut input)?;
            if line == "GO" {
                return Ok(book);
            }
            let (host, addr) = parse_addr_line(&line, "ADDR")?;
            book.insert(host, Endpoint::Socket(addr));
        }
    };
    let mut plane = connect(&wiring, &[Host::Role(role)], &cfg, &ctx.obs, extras.tseq_base, swap)?;

    // From here the launcher may send REWIRE lines at any time: hand
    // stdin to a control thread (detached — it dies with the process)
    // and start heartbeating so the launcher can tell a busy role from
    // a dead one. The heartbeat waits out each period on a stop channel,
    // so dropping `hb_stop` ends it at once.
    let redial = plane.factory.transport.redial_handle();
    std::thread::Builder::new()
        .name("ddnn-control".into())
        .spawn(move || control_loop(input, &redial))
        .map_err(io_err)?;
    let (hb_stop, stopped) = channel::<()>();
    let hb_thread = {
        let out = Arc::clone(out);
        std::thread::Builder::new()
            .name("ddnn-heartbeat".into())
            .spawn(move || {
                for n in 0u64.. {
                    if say(&out, format_args!("HB {n}")).is_err() {
                        return; // launcher is gone; nobody to reassure
                    }
                    let period = Duration::from_millis(HEARTBEAT_MS);
                    if stopped.recv_timeout(period) != Err(RecvTimeoutError::Timeout) {
                        return;
                    }
                }
            })
            .map_err(io_err)?
    };

    // Run the role's nodes until the orchestrator's shutdown frames.
    let ran = host_nodes(|spawn| spawn_role(role, &ctx, &blanks, &mut plane, spawn));
    drop(hb_stop);
    let _ = hb_thread.join();
    let ((), node_reports) = ran?;
    plane.factory.transport.shutdown();

    // Report what this role counted.
    say(out, format_args!("{}DONE", fmt_report(ctx.obs.registry(), &node_reports))).map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InboxBinding, TransportConfig, TransportHost};

    #[test]
    fn one_rewire_line_repoints_every_sender_into_the_respawned_role() {
        // The gateway's view of a devices respawn: its broadcast links and
        // the ack path of a score link all lead into `devices`; its verdict
        // link does not.
        let obs = RunObs::disabled();
        for kind in [TransportConfig::Tcp, TransportConfig::Udp] {
            let host = || TransportHost::new(kind, &obs);
            let (mut old, mut new, mut launcher, gateway) = (host(), host(), host(), host());
            let names = ["device0", "device1", "ack:device0->gateway"];
            let _old: Vec<_> = names.iter().map(|n| old.bind(n).unwrap()).collect();
            let respawned: Vec<_> = names.iter().map(|n| new.bind(n).unwrap()).collect();
            let verdicts = launcher.bind("orchestrator").unwrap();
            let connect = |on: &TransportHost, host: &str, inbox: &str| {
                let to = InboxBinding { host: host.into(), at: on.endpoint(), inbox: inbox.into() };
                gateway.connect(&to).unwrap()
            };
            let moved: Vec<_> = names.iter().map(|n| connect(&old, "devices", n)).collect();
            let verdict = connect(&launcher, "orchestrator", "orchestrator");

            let addr = socket_addr(new.endpoint()).unwrap();
            let lines = format!("REWIRE devices {addr}\nREWIRE devices nowhere\nnoise\n");
            control_loop(lines.as_bytes(), &gateway.redial_handle());

            // Each re-pointed sender still feeds the inbox it named.
            let wait = Duration::from_secs(5);
            for ((tx, rx), name) in moved.iter().zip(&respawned).zip(names) {
                tx.transmit(Arc::from(name.as_bytes()));
                assert_eq!(&rx.recv_timeout(wait).unwrap()[..], name.as_bytes());
            }
            verdict.transmit(Arc::from(&b"verdict"[..]));
            assert_eq!(&verdicts.recv_timeout(wait).unwrap()[..], b"verdict");
        }
    }

    #[test]
    fn report_lines_fold_by_name_into_the_launchers_cells() {
        let role = ObsRegistry::default();
        role.counter("node.edge.exits").add(3);
        role.counter("link.device0->edge.frames").add(5);
        role.counter("node.edge.deadline_expiries"); // zero cells travel too
        let reports = [NodeReport { degraded: vec![4, 9] }, NodeReport::default()];
        let text = fmt_report(&role, &reports);

        let launcher = ObsRegistry::default();
        let held = launcher.counter("link.device0->edge.frames");
        held.add(2);
        let mut degraded = Vec::new();
        for line in text.lines().map(str::trim_end) {
            fold_report_line(line, &launcher, &mut degraded).unwrap();
        }
        assert_eq!(held.get(), 7, "a value adds into the cell the launcher already holds");
        let cell = |name: &str, v| (name.to_string(), v);
        assert_eq!(
            launcher.snapshot(),
            [
                cell("link.device0->edge.frames", 7),
                cell("node.edge.deadline_expiries", 0),
                cell("node.edge.exits", 3),
            ]
        );
        assert_eq!(degraded, [4, 9]);
        fold_report_line("DEGRADED", &launcher, &mut degraded).unwrap();
        assert_eq!(degraded, [4, 9], "a role that degraded nothing sends an empty line");

        for bad in ["COUNTER node.edge.exits", "COUNTER x -1", "DEGRADED 4,x", "LINK a 1 2", "HB"] {
            let err = fold_report_line(bad, &launcher, &mut degraded).unwrap_err();
            assert!(matches!(err, RuntimeError::Protocol { .. }), "{bad}: {err}");
        }
        assert_eq!(launcher.snapshot().len(), 3, "a malformed line counts nothing");
    }

    #[test]
    fn respawn_generations_never_wrap_into_an_earlier_sequence_range() {
        let base = |generation| tseq_base_for(ProcTarget::Gateway, generation);
        assert_eq!(base(0).unwrap(), 0);
        assert_eq!(base(1).unwrap(), 1 << 20);
        assert_eq!(base(4095).unwrap(), 4095 << 20);
        let err = base(4096).unwrap_err();
        assert!(matches!(&err, RuntimeError::Peer { role, .. } if role == "gateway"), "{err}");
        assert!(err.to_string().contains("respawn budget exhausted"));
    }
}
