//! The HTTP server: sharded event loops, keep-alive connections, a
//! bounded compute handoff with load shedding.
//!
//! The connection layer is an event-driven readiness loop on
//! nonblocking `std::net` (see [`reactor`]): each
//! **shard** thread polls a cloned listener, its wake channel, and
//! its connections, and drives per-connection state machines through
//! `Reading → Computing → Writing → Reading` with HTTP/1.1
//! keep-alive and pipelining. Cheap routes (`/healthz`, `/metrics`,
//! parse failures) are answered inline on the event loop, and so is a
//! sweep whose every cell the store holds (the service's
//! [`probe`](SweepService::probe) stage: map probes and pack reads,
//! never a model build, a single-flight wait or a simulation). Every
//! other sweep is handed, with what the probe
//! found, to a fixed **compute pool** over a bounded queue. When the
//! queue is full the request is **shed** with `429 Too Many
//! Requests` + `Retry-After` instead of queueing unboundedly —
//! in-flight work always completes, new work is refused at the door.
//!
//! Timeouts, all enforced by the shard's poll deadline:
//!
//! * **read** — a request (first byte to blank line + body) must
//!   complete within `read_timeout`; a byte-at-a-time slowloris dies
//!   here.
//! * **write** — a queued response must drain within
//!   `write_timeout`; a client that stops reading cannot pin a
//!   connection.
//! * **idle** — a keep-alive connection with no pending request is
//!   dropped after `idle_timeout`.
//!
//! Timed-out connections are closed without a response (the peer
//! has, by definition, stopped participating). Compute time is
//! exempt: a dispatched request finishes regardless of how long the
//! batch takes.
//!
//! Routes:
//!
//! | method & path       | response                                    |
//! |---------------------|---------------------------------------------|
//! | `GET /healthz`      | `200 ok`                                    |
//! | `GET /metrics`      | Prometheus text exposition                  |
//! | `GET /sweep?…`      | sweep JSON (parameters in the query)        |
//! | `POST /sweep`       | sweep JSON (parameters form-encoded body)   |
//!
//! Every other route is a `404`. No route reads or writes a stored
//! cell directly: the store holds only results this server computed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::flight::lock_recover;
use crate::http::{self, parse_request, Parsed, Request};
use crate::metrics::Metrics;
use crate::reactor::{self, Entry, Interest, WakeChannel, Waker};
use crate::service::{BadRequest, Probed, Provenance, SweepRequest, SweepService};
use crate::store::{ResultStore, StoreOptions};

/// Server construction parameters.
///
/// [`Default`] reads the env knobs: `BPRED_SERVE_QUEUE` (compute
/// queue depth), `BPRED_SERVE_TIMEOUT_MS` (read and write timeout),
/// `BPRED_SERVE_IDLE_MS` (keep-alive idle timeout). Invalid values
/// warn and fall back.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Event-loop shards (acceptor + connection reactors).
    pub shards: usize,
    /// Compute-pool threads executing sweep requests.
    pub workers: usize,
    /// Result-store directory; `None` serves uncached.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Per-request cap on replay length (conditional branches).
    pub max_branches: usize,
    /// Bounded handoff queue between shards and the compute pool;
    /// a full queue sheds with `429 + Retry-After`.
    pub queue_depth: usize,
    /// A request must arrive completely within this window.
    pub read_timeout: Duration,
    /// A response must drain completely within this window.
    pub write_timeout: Duration,
    /// Idle keep-alive connections are closed after this window.
    pub idle_timeout: Duration,
    /// Result-store tuning (hot-tier budget, seal threshold); the
    /// default honours the `BPRED_STORE_*` environment.
    pub store: StoreOptions,
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    if raw.trim().is_empty() {
        return None;
    }
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("warning: ignoring invalid {name}={raw:?}");
            None
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        let timeout = Duration::from_millis(env_parse("BPRED_SERVE_TIMEOUT_MS").unwrap_or(10_000));
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            workers: 4,
            cache_dir: None,
            max_branches: 2_000_000,
            queue_depth: env_parse("BPRED_SERVE_QUEUE").unwrap_or(64),
            read_timeout: timeout,
            write_timeout: timeout,
            idle_timeout: Duration::from_millis(env_parse("BPRED_SERVE_IDLE_MS").unwrap_or(30_000)),
            store: StoreOptions::from_env(),
        }
    }
}

/// The server entry point.
#[derive(Debug)]
pub struct Server;

/// A sweep request in flight from a shard to the compute pool.
struct Job {
    shard: usize,
    token: usize,
    gen: u64,
    keep_alive: bool,
    sweep: SweepRequest,
    /// The shard's local stage; `None` when the benchmark's model was
    /// not built yet, so the worker runs the whole request.
    probed: Option<Probed>,
}

/// A computed response on its way back to a shard.
struct Completion {
    token: usize,
    gen: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Per-shard inbox for compute completions plus the waker that
/// breaks the shard out of `poll` when one lands.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox").finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, spawns the shard and compute threads, and returns a
    /// handle. Fails if the address cannot be bound or the store
    /// cannot be opened.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let store = match &config.cache_dir {
            Some(dir) => Some(Arc::new(ResultStore::open_with(dir, config.store.clone())?)),
            None => None,
        };
        let metrics = Arc::new(Metrics::new());
        if let Some(store) = &store {
            metrics.attach_store(store.stats());
        }
        let service = Arc::new(SweepService::new(
            store.clone(),
            metrics.clone(),
            config.max_branches,
        ));

        let stopping = Arc::new(AtomicBool::new(false));
        let shard_count = config.shards.max(1);
        let (job_tx, job_rx): (SyncSender<Job>, Receiver<Job>) =
            sync_channel(config.queue_depth.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));

        let mut mailboxes = Vec::with_capacity(shard_count);
        let mut channels = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (waker, channel) = WakeChannel::new()?;
            mailboxes.push(Mailbox {
                completions: Mutex::new(Vec::new()),
                waker,
            });
            channels.push(channel);
        }
        let mailboxes = Arc::new(mailboxes);

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let job_rx = job_rx.clone();
            let service = service.clone();
            let metrics = metrics.clone();
            let mailboxes = mailboxes.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bpred-serve-worker-{i}"))
                    .spawn(move || worker_loop(&job_rx, &service, &metrics, &mailboxes))?,
            );
        }
        drop(job_rx);

        let mut shards = Vec::with_capacity(shard_count);
        for (id, channel) in channels.into_iter().enumerate() {
            let shard = Shard {
                id,
                listener: listener.try_clone()?,
                wake: channel,
                mailboxes: mailboxes.clone(),
                jobs: job_tx.clone(),
                service: service.clone(),
                metrics: metrics.clone(),
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                idle_timeout: config.idle_timeout,
                stopping: stopping.clone(),
                conns: Vec::new(),
                free: Vec::new(),
                next_gen: 0,
            };
            shards.push(
                std::thread::Builder::new()
                    .name(format!("bpred-serve-shard-{id}"))
                    .spawn(move || shard.run())?,
            );
        }
        drop(job_tx); // workers retire once every shard exits

        Ok(ServerHandle {
            addr,
            metrics,
            store,
            stopping,
            mailboxes,
            shards,
            workers,
        })
    }
}

/// A running server; dropping it without [`shutdown`](Self::shutdown)
/// detaches the threads (the process exit reaps them).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    store: Option<Arc<ResultStore>>,
    stopping: Arc<AtomicBool>,
    mailboxes: Arc<Vec<Mailbox>>,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The result store, when the server persists.
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.store.as_ref()
    }

    /// Stops the shards, lets queued compute finish, and joins every
    /// thread. Connections are closed; responses already queued to
    /// the compute pool are discarded at delivery.
    pub fn shutdown(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        for mailbox in self.mailboxes.iter() {
            mailbox.waker.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        // Every shard has exited and dropped its job sender, so the
        // workers' `recv` returns Err and they retire.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    job_rx: &Arc<Mutex<Receiver<Job>>>,
    service: &SweepService,
    metrics: &Metrics,
    mailboxes: &[Mailbox],
) {
    loop {
        // Hold the receiver lock only for the take.
        let job = { lock_recover(job_rx).recv() };
        let Ok(job) = job else { return }; // channel closed: shutdown
        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        #[cfg(test)]
        tests::gate();
        let answer = match job.probed {
            Some(probed) => Ok(service.complete(&job.sweep, probed)),
            None => service.execute(&job.sweep),
        };
        let (status, bytes) = sweep_response(answer, job.keep_alive, metrics);
        metrics.observe_status(status);
        let mailbox = &mailboxes[job.shard];
        lock_recover(&mailbox.completions).push(Completion {
            token: job.token,
            gen: job.gen,
            bytes,
            close: !job.keep_alive,
        });
        mailbox.waker.wake();
    }
}

/// The response to an answered (or refused) sweep, counting a refusal.
fn sweep_response(
    answer: Result<(String, Provenance), BadRequest>,
    keep_alive: bool,
    metrics: &Metrics,
) -> (u16, Vec<u8>) {
    match answer {
        Ok((body, provenance)) => (
            200,
            http::response(
                200,
                "application/json",
                &[format!("X-Bpred-Provenance: {}", provenance.header_value())],
                body.as_bytes(),
                keep_alive,
            ),
        ),
        Err(bad) => {
            Metrics::inc(&metrics.bad_requests);
            text(
                bad.status,
                format!("{}\n", bad.message).as_bytes(),
                keep_alive,
            )
        }
    }
}

/// A plain-text response.
fn text(status: u16, body: &[u8], keep_alive: bool) -> (u16, Vec<u8>) {
    let content_type = "text/plain; charset=utf-8";
    (
        status,
        http::response(status, content_type, &[], body, keep_alive),
    )
}

/// Per-connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// A sweep is in the compute pool; no timeout applies.
    Computing,
    /// Draining a queued response.
    Writing,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Unparsed inbound bytes (may hold pipelined requests).
    buf: Vec<u8>,
    /// Queued outbound bytes and the drain cursor.
    out: Vec<u8>,
    out_pos: usize,
    /// When the current state must have made progress.
    deadline: Option<Instant>,
    /// Guards completions against token reuse.
    gen: u64,
    close_after_write: bool,
    /// Read side saw EOF (client closed or half-closed).
    peer_gone: bool,
}

const READ_CHUNK: usize = 16 * 1024;
/// Most cells a sweep may have for the event loop to probe and answer
/// it. A pack probe and the render cost about 4 µs a cell, so a larger
/// warm sweep would hold the shard's other connections for
/// milliseconds; it goes to the compute pool whole.
const INLINE_MAX_CELLS: usize = 1024;
/// Backpressure cap on buffered inbound bytes: one max-size request
/// plus pipelined follow-on headroom. Beyond this the shard stops
/// reading and TCP flow control takes over.
const MAX_BUFFER: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 16 * 1024;

/// What `flush` left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flush {
    /// Response fully written; connection is back in `Reading`.
    Done,
    /// Bytes remain; waiting for write readiness.
    Pending,
    /// The connection died and was closed.
    Closed,
}

struct Shard {
    id: usize,
    listener: TcpListener,
    wake: WakeChannel,
    mailboxes: Arc<Vec<Mailbox>>,
    jobs: SyncSender<Job>,
    service: Arc<SweepService>,
    metrics: Arc<Metrics>,
    read_timeout: Duration,
    write_timeout: Duration,
    idle_timeout: Duration,
    stopping: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
}

/// What a poll entry maps back to.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Wake,
    Listener,
    Conn(usize),
}

impl Shard {
    fn run(mut self) {
        let mut entries: Vec<Entry> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();
        loop {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            entries.clear();
            slots.clear();
            entries.push(Entry::new(self.wake.fd(), Interest::READ));
            slots.push(Slot::Wake);
            entries.push(Entry::new(self.listener.as_raw_fd(), Interest::READ));
            slots.push(Slot::Listener);

            let now = Instant::now();
            let mut next_deadline: Option<Instant> = None;
            for (i, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let interest = match conn.state {
                    ConnState::Reading if !conn.peer_gone && conn.buf.len() < MAX_BUFFER => {
                        Some(Interest::READ)
                    }
                    ConnState::Writing => Some(Interest::WRITE),
                    _ => None,
                };
                if let Some(interest) = interest {
                    entries.push(Entry::new(conn.stream.as_raw_fd(), interest));
                    slots.push(Slot::Conn(i));
                }
                if let Some(d) = conn.deadline {
                    next_deadline = Some(next_deadline.map_or(d, |n: Instant| n.min(d)));
                }
            }
            let timeout = next_deadline
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(500))
                .min(Duration::from_millis(500));
            let _ = reactor::poll(&mut entries, timeout);

            // The wake entry is first. Draining it only when it is
            // readable saves a `recv` that would fail with EAGAIN on
            // every request the shard answers itself.
            if entries[0].readiness.readable {
                self.wake.drain();
            }
            let completions =
                std::mem::take(&mut *lock_recover(&self.mailboxes[self.id].completions));
            for completion in completions {
                self.deliver(completion);
            }

            for (slot, entry) in slots.iter().zip(entries.iter()) {
                match *slot {
                    Slot::Wake => {}
                    Slot::Listener => {
                        if entry.readiness.readable {
                            self.accept_ready();
                        }
                    }
                    Slot::Conn(i) => {
                        if self.conns.get(i).is_none_or(Option::is_none) {
                            continue;
                        }
                        if entry.readiness.readable {
                            self.on_readable(i);
                        }
                        if self.conns[i].is_some() && entry.readiness.writable {
                            self.on_writable(i);
                        }
                        if self.conns[i].is_some()
                            && entry.readiness.failed
                            && !entry.readiness.readable
                            && !entry.readiness.writable
                        {
                            self.close(i);
                        }
                    }
                }
            }

            // Deadlines: a connection that failed to make progress in
            // time is closed without ceremony.
            let now = Instant::now();
            for i in 0..self.conns.len() {
                let expired = self.conns[i]
                    .as_ref()
                    .and_then(|c| c.deadline)
                    .is_some_and(|d| d <= now);
                if expired {
                    self.close(i);
                }
            }
        }
        // Shutdown: close every connection (the gauge must land back
        // at zero) and drop the listener clone and job sender.
        for i in 0..self.conns.len() {
            if self.conns[i].is_some() {
                self.close(i);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        state: ConnState::Reading,
                        buf: Vec::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        deadline: Some(Instant::now() + self.read_timeout),
                        gen: self.next_gen,
                        close_after_write: false,
                        peer_gone: false,
                    };
                    match self.free.pop() {
                        Some(token) => self.conns[token] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.metrics
                        .connections_open
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn close(&mut self, token: usize) {
        if self.conns[token].take().is_some() {
            self.free.push(token);
            self.metrics
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn on_readable(&mut self, token: usize) {
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let was_empty = conn.buf.is_empty();
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            if conn.buf.len() >= MAX_BUFFER {
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    // A short read emptied the socket: stop here
                    // rather than pay a `read` that fails with EAGAIN.
                    // Poll is level-triggered, so bytes or an EOF that
                    // arrive later wake the next pass.
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        // A fresh request starting on an idle keep-alive connection
        // re-arms the (stricter) read deadline.
        if was_empty && !conn.buf.is_empty() && conn.state == ConnState::Reading {
            conn.deadline = Some(Instant::now() + self.read_timeout);
        }
        if conn.state == ConnState::Reading {
            self.advance(token);
        }
    }

    fn on_writable(&mut self, token: usize) {
        if self.flush(token) == Flush::Done {
            self.advance(token);
        }
    }

    /// Applies a compute completion to its connection, unless the
    /// connection died (or was recycled) in the meantime.
    fn deliver(&mut self, completion: Completion) {
        let alive = self.conns.get(completion.token).is_some_and(|slot| {
            slot.as_ref()
                .is_some_and(|c| c.gen == completion.gen && c.state == ConnState::Computing)
        });
        if alive
            && self.respond(completion.token, completion.bytes, completion.close) == Flush::Done
        {
            self.advance(completion.token);
        }
    }

    /// Queues `bytes` as the connection's response and writes as much
    /// as the socket takes.
    fn respond(&mut self, token: usize, bytes: Vec<u8>, close: bool) -> Flush {
        let conn = self.conns[token].as_mut().expect("caller checked");
        conn.out = bytes;
        conn.out_pos = 0;
        conn.close_after_write |= close;
        conn.state = ConnState::Writing;
        conn.deadline = Some(Instant::now() + self.write_timeout);
        self.flush(token)
    }

    /// Parses and answers as many buffered requests as possible.
    /// Returns with the connection `Reading` (idle or mid-request),
    /// `Writing` (response pending write readiness), `Computing`
    /// (sweep dispatched), or closed.
    fn advance(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            if conn.state != ConnState::Reading {
                return;
            }
            match parse_request(&conn.buf) {
                Parsed::Incomplete => {
                    if conn.peer_gone {
                        // Mid-request disconnect (or clean idle EOF):
                        // nothing more will arrive.
                        self.close(token);
                    }
                    return;
                }
                Parsed::Error(error) => {
                    Metrics::inc(&self.metrics.bad_requests);
                    self.metrics.observe_status(error.status());
                    conn.buf.clear();
                    let (_, bytes) = text(error.status(), format!("{error}\n").as_bytes(), false);
                    let _ = self.respond(token, bytes, true);
                    return;
                }
                Parsed::Request(request, consumed) => {
                    conn.buf.drain(..consumed);
                    Metrics::inc(&self.metrics.http_requests);
                    match self.handle(token, request) {
                        Flush::Done => continue, // next pipelined request
                        Flush::Pending | Flush::Closed => return,
                    }
                }
            }
        }
    }

    /// Routes one parsed request. Inline routes queue their response
    /// and return the flush outcome; a dispatched sweep returns
    /// `Pending` (the connection is `Computing`).
    fn handle(&mut self, token: usize, request: Request) -> Flush {
        let keep_alive = request.keep_alive;
        let (status, bytes) = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => text(200, b"ok\n", keep_alive),
            ("GET", "/metrics") => {
                let body = self.metrics.render_prometheus();
                let content_type = "text/plain; version=0.0.4; charset=utf-8";
                (
                    200,
                    http::response(200, content_type, &[], body.as_bytes(), keep_alive),
                )
            }
            ("GET", "/sweep") | ("POST", "/sweep") => {
                let params = if request.method == "POST" {
                    String::from_utf8_lossy(&request.body)
                } else {
                    request.query.as_str().into()
                };
                match self.sweep(token, keep_alive, &params) {
                    Some(answered) => answered,
                    None => return Flush::Pending,
                }
            }
            _ => {
                Metrics::inc(&self.metrics.bad_requests);
                text(404, b"not found\n", keep_alive)
            }
        };

        self.metrics.observe_status(status);
        self.respond(token, bytes, !keep_alive || status == 500)
    }

    /// Answers a sweep from the local tiers, refuses it, or hands it to
    /// the compute pool (`None`: the connection is `Computing`).
    fn sweep(&mut self, token: usize, keep_alive: bool, params: &str) -> Option<(u16, Vec<u8>)> {
        let probed = SweepRequest::parse(params).and_then(|sweep| {
            let probed = match sweep.configs.len() {
                0..=INLINE_MAX_CELLS => self.service.probe(&sweep, false)?,
                _ => None,
            };
            Ok((probed, sweep))
        });
        let (probed, sweep) = match probed {
            Ok((Some(probed), sweep)) if probed.is_complete() => {
                Metrics::inc(&self.metrics.sweeps_inline);
                let answer = Ok(self.service.complete(&sweep, probed));
                return Some(sweep_response(answer, keep_alive, &self.metrics));
            }
            Ok(pending) => pending,
            Err(bad) => return Some(sweep_response(Err(bad), keep_alive, &self.metrics)),
        };
        let conn = self.conns[token].as_mut().expect("caller checked");
        let job = Job {
            shard: self.id,
            token,
            gen: conn.gen,
            keep_alive,
            sweep,
            probed,
        };
        match self.jobs.try_send(job) {
            Ok(()) => {
                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                conn.state = ConnState::Computing;
                conn.deadline = None;
                None
            }
            Err(TrySendError::Full(_)) => {
                // Load shed: refuse at the door, tell the client when
                // to come back.
                Metrics::inc(&self.metrics.shed_total);
                Some((
                    429,
                    http::response(
                        429,
                        "text/plain; charset=utf-8",
                        &["Retry-After: 1".to_owned()],
                        b"compute queue full, retry shortly\n",
                        keep_alive,
                    ),
                ))
            }
            Err(TrySendError::Disconnected(_)) => {
                Some(text(500, b"compute pool unavailable\n", false))
            }
        }
    }

    /// Drains the outbound buffer as far as the socket allows and
    /// performs the post-response transition when it empties.
    fn flush(&mut self, token: usize) -> Flush {
        let Some(conn) = self.conns[token].as_mut() else {
            return Flush::Closed;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(token);
                    return Flush::Closed;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.state = ConnState::Writing;
                    return Flush::Pending;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return Flush::Closed;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_write {
            self.close(token);
            return Flush::Closed;
        }
        conn.state = ConnState::Reading;
        conn.deadline = Some(
            Instant::now() + {
                if conn.buf.is_empty() {
                    self.idle_timeout
                } else {
                    self.read_timeout
                }
            },
        );
        Flush::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// The longest any wait in these tests may take.
    const WAIT: Duration = Duration::from_secs(10);

    /// A hold on the compute pool: while it is set, a worker that takes
    /// a job reports it on `taken`, then waits for one message on
    /// `release` (at most [`WAIT`]) before running it. Only one test
    /// may set it, since every server in this test binary shares it.
    struct Gate {
        taken: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    static GATE: Mutex<Option<Gate>> = Mutex::new(None);

    /// The seam `worker_loop` passes before each job.
    pub(super) fn gate() {
        if let Some(gate) = lock_recover(&GATE).as_ref() {
            let _ = gate.taken.send(());
            let _ = gate.release.recv_timeout(WAIT);
        }
    }

    /// One request over a fresh connection: (status line, headers, body).
    fn get(addr: SocketAddr, target: &str) -> (String, Vec<String>, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(WAIT)).expect("read timeout");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        let split = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response has a header/body boundary");
        let head = String::from_utf8(response[..split].to_vec()).expect("ASCII head");
        let mut lines = head.lines().map(str::to_owned);
        let status = lines.next().expect("status line");
        (status, lines.collect(), response[split + 4..].to_vec())
    }

    fn header<'a>(headers: &'a [String], name: &str) -> Option<&'a str> {
        headers.iter().find_map(|h| {
            let (n, v) = h.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }

    /// One counter value from `/metrics`.
    fn metric(addr: SocketAddr, name: &str) -> u64 {
        let text = String::from_utf8(get(addr, "/metrics").2).expect("metrics are UTF-8");
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .parse()
            .unwrap_or_else(|_| panic!("metric {name} is not an integer"))
    }

    const SWEEP: &str =
        "/sweep?workload=espresso&branches=20000&configs=gshare:h=7,c=2;gas:h=7,c=2;bimodal:a=9";

    #[test]
    fn warm_sweeps_are_answered_while_the_pool_sheds() {
        let dir = std::env::temp_dir().join(format!("bpred-serve-shed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let start = |workers: usize, queue_depth: usize| {
            Server::start(ServerConfig {
                workers,
                queue_depth,
                cache_dir: Some(dir.clone()),
                ..ServerConfig::default()
            })
            .expect("server starts")
        };
        let primer = start(4, 64);
        assert!(get(primer.addr(), SWEEP).0.contains("200"));
        primer.shutdown();

        let server = start(1, 1);
        let addr = server.addr();
        // The pool builds the model; every cell is on disk.
        assert!(get(addr, SWEEP).0.contains("200"));

        // Hold the only worker on a cold sweep, then fill the one-slot
        // queue behind it.
        let (taken_tx, taken) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *lock_recover(&GATE) = Some(Gate {
            taken: taken_tx,
            release: release_rx,
        });
        let cold =
            |h: u32| format!("/sweep?workload=espresso&branches=20000&configs=gshare:h={h},c=2");
        let held = std::thread::spawn({
            let target = cold(9);
            move || get(addr, &target).0
        });
        taken
            .recv_timeout(WAIT)
            .expect("the worker takes the held sweep");
        let queued = std::thread::spawn({
            let target = cold(10);
            move || get(addr, &target).0
        });
        let deadline = Instant::now() + WAIT;
        while metric(addr, "bpred_serve_queue_depth") == 0 {
            assert!(Instant::now() < deadline, "the queued sweep never queued");
            std::thread::sleep(Duration::from_millis(1));
        }

        let (status, headers, _) = get(addr, SWEEP);
        assert!(
            status.contains("200"),
            "warm sweep answered inline: {status}"
        );
        assert_eq!(
            header(&headers, "X-Bpred-Provenance"),
            Some("hits=3 misses=0 coalesced=0")
        );
        let (status, headers, _) = get(addr, &cold(11));
        assert!(status.contains("429"), "cold sweep shed: {status}");
        assert_eq!(header(&headers, "Retry-After"), Some("1"));
        assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 1);
        assert_eq!(metric(addr, "bpred_serve_shed_total"), 1);

        release.send(()).expect("release the held sweep");
        assert!(held.join().expect("held client").contains("200"));
        taken
            .recv_timeout(WAIT)
            .expect("the worker takes the queued sweep");
        release.send(()).expect("release the queued sweep");
        assert!(queued.join().expect("queued client").contains("200"));
        assert_eq!(metric(addr, "bpred_cache_misses_total"), 2);
        assert!(taken.try_recv().is_err(), "one job per dispatched sweep");
        *lock_recover(&GATE) = None;
        // The shed sweep was probed on the event loop but never counted.
        assert_eq!(metric(addr, "bpred_sweep_requests_total"), 4);
        assert_eq!(metric(addr, "bpred_cells_total"), 8);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
