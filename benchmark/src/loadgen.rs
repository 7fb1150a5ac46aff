//! Open-loop HTTP load generator.
//!
//! Requests follow a schedule fixed before the phase starts (seeded
//! Poisson arrivals), so a slow server does not slow the sender: every
//! request is written when it is due whether or not earlier responses
//! have arrived (HTTP/1.1 pipelining on keep-alive connections).
//! Latency is taken from the time a request was *due*, so a stall
//! inflates the latency of every request queued behind it, and the
//! generator's own lateness (sent − due) is reported beside it.
//!
//! One thread drives every connection: it writes due requests, then
//! sleeps in `ppoll(2)` until the next request is due or a response
//! arrives. `ppoll` takes a nanosecond timeout; socket read timeouts
//! would round to scheduler ticks and make the generator milliseconds
//! late.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::{fnv64, Rng};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// When the request is due, from the phase start.
    pub due: Duration,
    /// Connection index.
    pub conn: usize,
    /// Index into the phase's target paths.
    pub target: usize,
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// The plan entry.
    pub planned: Planned,
    /// When the generator handed it to the socket, from phase start.
    pub sent: Duration,
    /// When its response was complete; `None` when it never was.
    pub done: Option<Duration>,
    /// Response status (0 when no response).
    pub status: u16,
    /// FNV-1a 64 of the response body.
    pub body_hash: u64,
    /// Provenance header counts: (hits, misses, coalesced).
    pub provenance: (u32, u32, u32),
}

impl Observed {
    /// Milliseconds from due to response, when answered.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_sub(self.planned.due).as_secs_f64() * 1e3)
    }

    /// Milliseconds the generator sent late.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.planned.due).as_secs_f64() * 1e3
    }

    /// Answered with 200.
    pub fn ok(&self) -> bool {
        self.done.is_some() && self.status == 200
    }
}

/// Poisson arrival offsets at `rate` per second over `duration`.
pub fn poisson(rng: &mut Rng, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut at = 0.0f64;
    let end = duration.as_secs_f64();
    let mut arrivals = Vec::with_capacity((rate * end * 1.1) as usize + 1);
    loop {
        // Exponential inter-arrival gap; 1 - u is in (0, 1].
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= end {
            return arrivals;
        }
        arrivals.push(Duration::from_secs_f64(at));
    }
}

/// Latencies (ms) of answered requests, failing ones counted as
/// missing any limit (infinite).
pub fn latencies_ms(observed: &[Observed]) -> Vec<f64> {
    observed
        .iter()
        .map(|o| {
            if o.ok() {
                o.latency_ms().expect("answered")
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// A set of keep-alive connections to one server.
#[derive(Debug)]
pub struct Client {
    conns: Vec<TcpStream>,
}

/// Per-connection state during a phase.
struct ConnState {
    outbuf: Vec<u8>,
    inbuf: Vec<u8>,
    outstanding: VecDeque<usize>,
    closed: bool,
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load<'a> {
    /// Open loop: each request is sent when due, whatever is still in
    /// flight (the plan is sorted by due time).
    Open(&'a [Planned]),
    /// Closed loop: connection `i` keeps `window` requests of
    /// `targets[i]` in flight, sending the next as each response
    /// lands, until `duration` has passed. A request's due time is its
    /// send time.
    Closed {
        /// Target sequence per connection.
        targets: &'a [Vec<usize>],
        /// Requests in flight per connection.
        window: usize,
        /// How long to keep sending.
        duration: Duration,
    },
}

/// Seconds a phase waits for stragglers after its last due time.
const DRAIN: Duration = Duration::from_secs(10);

impl Client {
    /// Opens `n` keep-alive connections.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Client> {
        let conns = (0..n)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(stream)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Client { conns })
    }

    /// Runs one phase and returns every request's observation, in
    /// send order, plus the phase's start instant.
    pub fn run(&mut self, paths: &[String], load: Load) -> (Vec<Observed>, Instant) {
        let mut observed: Vec<Observed> = Vec::new();
        let mut state: Vec<ConnState> = self
            .conns
            .iter()
            .map(|_| ConnState {
                outbuf: Vec::new(),
                inbuf: Vec::new(),
                outstanding: VecDeque::new(),
                closed: false,
            })
            .collect();
        let mut cursors = vec![0usize; self.conns.len()];
        request_short_slice();
        let origin = Instant::now();
        let mut next = 0;
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            let now = origin.elapsed();
            let (sending, until) = match load {
                Load::Open(plan) => {
                    while next < plan.len() && plan[next].due <= now {
                        enqueue(&mut state, &mut observed, paths, plan[next], now);
                        next += 1;
                    }
                    let until = plan.last().map_or(Duration::ZERO, |p| p.due);
                    (next < plan.len(), until)
                }
                Load::Closed {
                    targets,
                    window,
                    duration,
                } => {
                    let mut more = false;
                    for (conn, sequence) in targets.iter().enumerate() {
                        while now < duration
                            && state[conn].outstanding.len() < window
                            && cursors[conn] < sequence.len()
                        {
                            let target = sequence[cursors[conn]];
                            cursors[conn] += 1;
                            let planned = Planned {
                                due: now,
                                conn,
                                target,
                            };
                            enqueue(&mut state, &mut observed, paths, planned, now);
                        }
                        more |= now < duration && cursors[conn] < sequence.len();
                    }
                    (more, duration)
                }
            };
            for (stream, conn) in self.conns.iter_mut().zip(&mut state) {
                flush(stream, conn);
            }
            let pending = state
                .iter()
                .any(|c| !c.closed && (!c.outstanding.is_empty() || !c.outbuf.is_empty()));
            if !sending && !pending {
                break;
            }
            let now = origin.elapsed();
            let wait = match load {
                Load::Open(plan) if next < plan.len() => plan[next].due.saturating_sub(now),
                Load::Closed { .. } if now < until => until - now,
                _ if now < until + DRAIN => until + DRAIN - now,
                _ => break, // stragglers time out
            };
            let readable = wait_readable(&self.conns, &state, wait);
            for (i, ready) in readable.into_iter().enumerate() {
                if !ready {
                    continue;
                }
                let conn = &mut state[i];
                loop {
                    match self.conns[i].read(&mut scratch) {
                        Ok(0) => {
                            conn.closed = true;
                            break;
                        }
                        Ok(n) => conn.inbuf.extend_from_slice(&scratch[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.closed = true;
                            break;
                        }
                    }
                }
                let done = origin.elapsed();
                while let Some(response) = parse_response(&conn.inbuf) {
                    conn.inbuf.drain(..response.len);
                    let Some(index) = conn.outstanding.pop_front() else {
                        conn.closed = true; // unsolicited response
                        break;
                    };
                    let o = &mut observed[index];
                    o.done = Some(done);
                    o.status = response.status;
                    o.body_hash = response.body_hash;
                    o.provenance = response.provenance;
                }
            }
        }
        (observed, origin)
    }
}

/// Queues one request on its connection and records it as sent now.
fn enqueue(
    state: &mut [ConnState],
    observed: &mut Vec<Observed>,
    paths: &[String],
    planned: Planned,
    now: Duration,
) {
    let conn = &mut state[planned.conn];
    conn.outbuf.extend_from_slice(
        format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\n\r\n",
            paths[planned.target]
        )
        .as_bytes(),
    );
    conn.outstanding.push_back(observed.len());
    observed.push(Observed {
        planned,
        sent: now,
        done: None,
        status: 0,
        body_hash: 0,
        provenance: (0, 0, 0),
    });
}

fn flush(stream: &mut TcpStream, conn: &mut ConnState) {
    while !conn.outbuf.is_empty() && !conn.closed {
        match stream.write(&conn.outbuf) {
            Ok(0) => conn.closed = true,
            Ok(n) => {
                conn.outbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => conn.closed = true,
        }
    }
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Sleeps until a connection is readable (or writable while it has
/// bytes to send) or `wait` passes; returns which are readable.
fn wait_readable(conns: &[TcpStream], state: &[ConnState], wait: Duration) -> Vec<bool> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .zip(state)
        .map(|(stream, conn)| PollFd {
            fd: if conn.closed { -1 } else { stream.as_raw_fd() },
            events: POLLIN | if conn.outbuf.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of
    // `fds.len()` `pollfd` structs laid out as the C type; `timeout`
    // outlives the call; a null sigmask leaves the signal mask alone.
    // The kernel writes only the `revents` fields.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    if ready <= 0 {
        return vec![false; fds.len()];
    }
    fds.iter().map(|f| f.revents != 0).collect()
}

/// `struct sched_attr` from `<linux/sched/types.h>`.
#[repr(C)]
struct SchedAttr {
    size: u32,
    policy: u32,
    flags: u64,
    nice: i32,
    priority: u32,
    runtime: u64,
    deadline: u64,
    period: u64,
    util_min: u32,
    util_max: u32,
}

extern "C" {
    fn syscall(number: i64, ...) -> i64;
}

/// Asks the scheduler for a short time slice for the calling thread
/// (`sched_setattr` with `SCHED_OTHER` and a 100 µs runtime), so the
/// generator preempts server threads the moment a request falls due
/// instead of waiting out their slice. Best effort: kernels without
/// custom slices ignore it.
fn request_short_slice() {
    const SYS_SCHED_SETATTR: i64 = 314;
    let attr = SchedAttr {
        size: std::mem::size_of::<SchedAttr>() as u32,
        policy: 0,
        flags: 0,
        nice: 0,
        priority: 0,
        runtime: 100_000,
        deadline: 0,
        period: 0,
        util_min: 0,
        util_max: 0,
    };
    // SAFETY: `attr` is a fully initialised `sched_attr` whose `size`
    // field states its length; pid 0 targets the calling thread; the
    // kernel only reads the struct.
    let _ = unsafe { syscall(SYS_SCHED_SETATTR, 0i32, &attr as *const SchedAttr, 0u32) };
}

/// One complete HTTP response at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Bytes it occupies (head plus body).
    pub len: usize,
    /// Status code.
    pub status: u16,
    /// FNV-1a 64 of the body.
    pub body_hash: u64,
    /// `X-Bpred-Provenance` counts (hits, misses, coalesced).
    pub provenance: (u32, u32, u32),
}

/// Parses one response from the front of `buf`; `None` until it is
/// complete.
pub fn parse_response(buf: &[u8]) -> Option<Response> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut length = 0usize;
    let mut provenance = (0, 0, 0);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("x-bpred-provenance") {
            for part in value.split_whitespace() {
                let (key, n) = part.split_once('=')?;
                let n: u32 = n.parse().ok()?;
                match key {
                    "hits" => provenance.0 = n,
                    "misses" => provenance.1 = n,
                    "coalesced" => provenance.2 = n,
                    _ => {}
                }
            }
        }
    }
    let body = buf.get(head_end..head_end + length)?;
    Some(Response {
        len: head_end + length,
        status,
        body_hash: fnv64(body),
        provenance,
    })
}

/// One blocking request on a fresh connection (`Connection: close`),
/// for health checks and metric scrapes. Returns (status, body).
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf)?;
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?
        + 4;
    let status = std::str::from_utf8(&buf[..head_end])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, buf[head_end..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson(&mut Rng::new(11, 3), 1000.0, Duration::from_secs(2));
        let b = poisson(&mut Rng::new(11, 3), 1000.0, Duration::from_secs(2));
        let c = poisson(&mut Rng::new(12, 3), 1000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // ~2000 arrivals: well inside five standard deviations.
        assert!((1780..2220).contains(&a.len()), "{}", a.len());
        assert!(a.last().unwrap() < &Duration::from_secs(2));
    }

    #[test]
    fn responses_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Bpred-Provenance: hits=3 misses=1 coalesced=2\r\n\r\nhelloHTTP/1.1";
        let r = parse_response(full).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.len, full.len() - "HTTP/1.1".len());
        assert_eq!(r.body_hash, fnv64(b"hello"));
        assert_eq!(r.provenance, (3, 1, 2));
        assert!(parse_response(&full[..r.len - 1]).is_none());
        assert!(parse_response(b"HTTP/1.1 429 Too Many").is_none());
    }

    /// A pipelined server that answers each request after `delays[i]`,
    /// in order, on one connection.
    fn stalling_server(delays: Vec<Duration>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut scratch = [0u8; 4096];
            for delay in delays {
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = stream.read(&mut scratch).unwrap();
                    buf.extend_from_slice(&scratch[..n]);
                }
                let end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                buf.drain(..end);
                std::thread::sleep(delay);
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_due_time_so_a_stall_delays_later_requests() {
        // Request 0 stalls the connection for 150 ms; requests 1 and 2
        // are due 10 ms and 20 ms in and answered instantly once the
        // stall clears. Timed from when they were sent (closed loop
        // would not even have sent them), they would look instant;
        // timed from due, each carries the wait it spent queued.
        let (addr, server) = stalling_server(vec![
            Duration::from_millis(150),
            Duration::ZERO,
            Duration::ZERO,
        ]);
        let mut client = Client::connect(addr, 1).unwrap();
        let plan: Vec<Planned> = [0u64, 10, 20]
            .iter()
            .map(|&ms| Planned {
                due: Duration::from_millis(ms),
                conn: 0,
                target: 0,
            })
            .collect();
        let (observed, _) = client.run(&["/x".to_owned()], Load::Open(&plan));
        server.join().unwrap();
        assert!(observed.iter().all(Observed::ok));
        let lat: Vec<f64> = observed.iter().map(|o| o.latency_ms().unwrap()).collect();
        assert!(lat[0] >= 150.0, "{lat:?}");
        assert!(lat[1] >= 135.0, "{lat:?}");
        assert!(lat[2] >= 125.0, "{lat:?}");
        // The generator itself kept the schedule.
        assert!(observed.iter().all(|o| o.lag_ms() < 50.0));
        // Every request was sent before the stall cleared.
        assert!(observed[2].sent < Duration::from_millis(100));
    }
}
