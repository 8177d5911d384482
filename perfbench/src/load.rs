//! The open-loop load generator: two connections driven from one thread,
//! every request sent at its scheduled time whether or not earlier replies
//! have arrived, and timed from that scheduled time. Every reply is checked
//! against the oracle.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use atnn_serve::protocol::{FrameRead, FrameReader};
use atnn_serve::{Request, Response};

use crate::life::Oracle;
use crate::trace::SpanLog;
use crate::util::{quantile, Rng};

/// Load connections. One thread drives them all, so the generator takes at
/// most one of the two CPUs from the serving plane.
pub const CONNECTIONS: usize = 2;
/// `k` of every `TopK` and `TopKAll` request.
pub const K: u32 = 10;
/// Items per scoring and `TopK` request.
const ITEMS: u32 = 8;
/// Requests one connection keeps outstanding in a windowed phase: the
/// default batcher queue holds 1024 items, and the costliest request
/// (`TopKAll`, charged `K`) then fits that many times over both
/// connections. A burst after a host stall waits at the client for its
/// window, still timed from its schedule, instead of overflowing the queue.
pub const WINDOW: usize = 1024 / (K as usize) / CONNECTIONS;

/// A workload's request shape.
#[derive(Clone, Copy)]
pub struct Mix {
    /// One request in ten is a catalogue-wide `TopKAll`.
    pub topk_all: bool,
    pub num_items: u32,
    pub half: u32,
}

impl Mix {
    /// Draws one request: cold ids from the unwarmed upper half, warm ids
    /// from the warmed lower half, routed and `TopK` ids from anywhere.
    pub fn request(&self, rng: &mut Rng) -> Request {
        if self.topk_all && rng.below(10) == 0 {
            return Request::TopKAll { k: K };
        }
        let kind = rng.below(4);
        let (lo, span) = match kind {
            0 => (self.half, self.num_items - self.half),
            1 => (0, self.half),
            _ => (0, self.num_items),
        };
        let start = rng.below(span);
        let items: Vec<u32> = (0..ITEMS).map(|i| lo + (start + i) % span).collect();
        match kind {
            0 => Request::ScoreNewArrival { items },
            1 => Request::ScoreWarmItem { items },
            2 => Request::Score { items },
            _ => Request::TopK { items, k: K },
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits until one of `fds` is ready for its events or `wait` passes.
/// `ppoll` sleeps on a high-resolution timer; socket read timeouts round up
/// to scheduler ticks, which made the generator milliseconds late.
fn wait_ready(fds: &mut [PollFd], wait: Duration) {
    let ts = Timespec { tv_sec: wait.as_secs() as i64, tv_nsec: i64::from(wait.subsec_nanos()) };
    // SAFETY: `fds` points at `fds.len()` live, properly laid-out
    // `struct pollfd` values and `ts` at a `struct timespec`, both for the
    // duration of the call; a null signal mask leaves the mask unchanged.
    // An interrupted or failed wait only makes the caller loop once more.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Writes as much of `buf[*written..]` as the socket takes without
/// blocking, and empties `buf` once all of it is written.
fn flush(stream: &mut TcpStream, buf: &mut Vec<u8>, written: &mut usize) {
    while *written < buf.len() {
        match stream.write(&buf[*written..]) {
            Ok(0) => panic!("load connection closed while sending"),
            Ok(n) => *written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => panic!("send request: {e}"),
        }
    }
    buf.clear();
    *written = 0;
}

/// How one reply compared with the oracle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Ok,
    Shed,
    Error,
    Wrong,
    /// No reply before the phase's drain deadline.
    Lost,
}

fn best_first(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Checks `resp` against the oracle; `served` receives a `TopKAll` answer.
pub fn check(req: &Request, resp: &Response, o: &Oracle, served: &mut Option<Vec<u32>>) -> Outcome {
    let bits_eq = |a: f32, b: f32| a.to_bits() == b.to_bits();
    let scores_eq = |items: &[u32], got: &[f32], table: &[f32]| {
        got.len() == items.len()
            && items.iter().zip(got).all(|(&i, &v)| bits_eq(v, table[i as usize]))
    };
    let ok = match (req, resp) {
        (_, Response::Overloaded) => return Outcome::Shed,
        (_, Response::Error(_)) => return Outcome::Error,
        (Request::ScoreNewArrival { items }, Response::Scores(s)) => scores_eq(items, s, &o.cold),
        (Request::ScoreWarmItem { items }, Response::Scores(s)) => scores_eq(items, s, &o.warm),
        (Request::Score { items }, Response::RoutedScores { scores, warm }) => {
            scores.len() == items.len()
                && warm.len() == items.len()
                && items.iter().zip(scores.iter().zip(warm)).all(|(&i, (&v, &w))| {
                    let (want, want_warm) = o.routed(i);
                    bits_eq(v, want) && w == want_warm
                })
        }
        (Request::TopK { items, k }, Response::TopK(got)) => {
            let mut want: Vec<(u32, f32)> = items.iter().map(|&i| (i, o.routed(i).0)).collect();
            want.sort_by(best_first);
            want.truncate(*k as usize);
            got.len() == want.len()
                && got.iter().zip(&want).all(|(g, w)| g.0 == w.0 && bits_eq(g.1, w.1))
        }
        (Request::TopKAll { k }, Response::TopK(got)) => {
            // Approximate retrieval may miss items, but what it returns must
            // carry the exact cold score and come back best first.
            let ok = got.len() == (*k as usize).min(o.cold.len())
                && got.iter().all(|&(i, v)| o.cold.get(i as usize).is_some_and(|&c| bits_eq(v, c)))
                && got.windows(2).all(|w| best_first(&w[0], &w[1]).is_lt());
            if ok {
                *served = Some(got.iter().map(|&(i, _)| i).collect());
            }
            ok
        }
        _ => false,
    };
    if ok {
        Outcome::Ok
    } else {
        Outcome::Wrong
    }
}

/// Per-request record of one phase.
pub struct Sample {
    /// Scheduled send time, seconds from the phase start.
    pub due_s: f64,
    /// Scheduled send time → reply, microseconds (`NaN` if lost).
    pub latency_us: f64,
    /// Actual send time − the generator's send time (the scheduled time,
    /// or the end of an injected stall), microseconds.
    pub late_us: f64,
    pub outcome: Outcome,
    /// The request's lifetime overlapped a model publish.
    pub during_publish: bool,
}

/// What one connection measured.
#[derive(Default)]
pub struct ConnOut {
    pub samples: Vec<Sample>,
    /// Requests sent but unanswered at the moment the last one was sent.
    pub backlog_at_last_send: usize,
    pub topk_all_answers: Vec<Vec<u32>>,
    pub log: SpanLog,
}

/// One connection's share of a phase's schedule: requests `c`, `c + C`,
/// `c + 2C`, … of the phase (C = [`CONNECTIONS`]), request `j` due at
/// `j / rate` seconds, drawn lazily from the connection's own stream.
struct Schedule {
    first: usize,
    total: usize,
    rate: f64,
    hold: Option<Stall>,
    /// At most this many requests outstanding (`None`: no limit).
    window: Option<usize>,
}

/// A stall the generator injects: requests due in `[at, at + len)` are
/// held back and sent together at `at + len`, as after a host stall. They
/// are still timed from when they were due.
#[derive(Clone, Copy)]
pub struct Stall {
    pub at: Duration,
    pub len: Duration,
}

impl Schedule {
    fn due(&self, k: usize) -> Duration {
        Duration::from_secs_f64((self.first + k * CONNECTIONS) as f64 / self.rate)
    }

    /// When the generator sends request `k`: when it is due, or at the end
    /// of the injected stall it falls in.
    fn release(&self, k: usize) -> Duration {
        let due = self.due(k);
        match self.hold {
            Some(h) if due >= h.at && due < h.at + h.len => h.at + h.len,
            _ => due,
        }
    }

    fn len(&self) -> usize {
        (self.total + CONNECTIONS - 1 - self.first) / CONNECTIONS
    }
}

struct InFlight {
    req: Request,
    due: Duration,
    late_us: f64,
    epoch: u64,
    span: usize,
}

/// One load connection and its share of a phase's schedule.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    rng: Rng,
    sched: Schedule,
    n: usize,
    next: usize,
    inflight: VecDeque<InFlight>,
    /// Encoded requests the socket has not taken yet. Writes never block:
    /// a client stuck in a write while the server waits for it to read its
    /// replies would deadlock an overloaded rung.
    pending: Vec<u8>,
    written: usize,
    /// Replies still missing at this instant are lost.
    deadline: Instant,
    out: ConnOut,
}

impl Conn {
    fn new(addr: SocketAddr, rng: Rng, sched: Schedule, t0: Instant) -> Conn {
        let stream = TcpStream::connect(addr).expect("load connection");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        let n = sched.len();
        let deadline = t0 + sched.due(n.saturating_sub(1)) + Duration::from_secs(1);
        let mut out = ConnOut::default();
        out.samples.reserve(n);
        Conn {
            stream,
            reader: FrameReader::new(),
            rng,
            sched,
            n,
            next: 0,
            inflight: VecDeque::new(),
            pending: Vec::new(),
            written: 0,
            deadline,
            out,
        }
    }

    /// The window (if any) has room for another request.
    fn open(&self) -> bool {
        self.sched.window.is_none_or(|w| self.inflight.len() < w)
    }

    fn sending(&self) -> bool {
        self.next < self.n && self.open()
    }

    /// Every request is answered, or the deadline passed with nothing left
    /// that could still be sent.
    fn done(&self) -> bool {
        (self.next == self.n && self.inflight.is_empty())
            || (!self.sending() && Instant::now() >= self.deadline)
    }

    /// When this connection next needs the generator: its next send, or
    /// its deadline while it only waits for replies.
    fn wake(&self, t0: Instant) -> Instant {
        if self.sending() {
            t0 + self.sched.release(self.next)
        } else {
            self.deadline
        }
    }

    /// Sends every request that is due and fits the window.
    ///
    /// `epoch` is odd while a publish is in progress; a request whose epoch
    /// differs at reply time, or is odd, overlapped a publish.
    fn send_due(&mut self, mix: &Mix, t0: Instant, epoch: &AtomicU64, traced: bool) {
        while self.sending() && t0 + self.sched.release(self.next) <= Instant::now() {
            let req = mix.request(&mut self.rng);
            let due = self.sched.due(self.next);
            let sent = Instant::now();
            let span = if traced {
                self.out.log.record("client.request", t0 + due, sent, None)
            } else {
                0
            };
            let payload = req.encode();
            self.pending.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            self.pending.extend_from_slice(&payload);
            if traced {
                self.out.log.record("client.encode", sent, Instant::now(), Some(span));
            }
            let late_us = (sent - (t0 + self.sched.release(self.next))).as_secs_f64() * 1e6;
            self.inflight.push_back(InFlight {
                req,
                due,
                late_us,
                epoch: epoch.load(Ordering::Acquire),
                span,
            });
            self.next += 1;
            if self.next == self.n {
                self.out.backlog_at_last_send = self.inflight.len();
            }
        }
        flush(&mut self.stream, &mut self.pending, &mut self.written);
    }

    /// Reads and checks every reply that has arrived.
    fn read_replies(&mut self, t0: Instant, oracle: &Oracle, epoch: &AtomicU64, traced: bool) {
        loop {
            let payload = match self.reader.read_frame(&mut self.stream).expect("read reply") {
                FrameRead::Frame(payload) => payload,
                FrameRead::Idle => break,
                FrameRead::Eof => panic!("server closed a load connection"),
            };
            let arrived = Instant::now();
            let f = self.inflight.pop_front().expect("reply to a sent request");
            let resp = Response::decode(payload).expect("decode reply");
            let mut served = None;
            let outcome = check(&f.req, &resp, oracle, &mut served);
            if traced {
                self.out.log.spans[f.span].end = Instant::now();
                self.out.log.record("client.decode_check", arrived, Instant::now(), Some(f.span));
            }
            if let Some(ids) = served {
                self.out.topk_all_answers.push(ids);
            }
            let now_epoch = epoch.load(Ordering::Acquire);
            self.out.samples.push(Sample {
                due_s: f.due.as_secs_f64(),
                latency_us: (arrived - (t0 + f.due)).as_secs_f64() * 1e6,
                late_us: f.late_us,
                outcome,
                during_publish: now_epoch != f.epoch || now_epoch % 2 == 1,
            });
        }
    }

    /// Records every unanswered request as lost.
    fn finish(mut self) -> ConnOut {
        self.out.samples.extend(self.inflight.into_iter().map(|f| Sample {
            due_s: f.due.as_secs_f64(),
            latency_us: f64::NAN,
            late_us: f.late_us,
            outcome: Outcome::Lost,
            during_publish: false,
        }));
        // Requests a full window kept from being sent before the deadline.
        let sched = &self.sched;
        self.out.samples.extend((self.next..self.n).map(|k| Sample {
            due_s: sched.due(k).as_secs_f64(),
            latency_us: f64::NAN,
            late_us: f64::NAN,
            outcome: Outcome::Lost,
            during_publish: false,
        }));
        self.out
    }
}

/// Drives every connection of a phase from the calling thread until each
/// is done.
fn drive(
    conns: &mut [Conn],
    mix: &Mix,
    t0: Instant,
    oracle: &Oracle,
    epoch: &AtomicU64,
    traced: bool,
) {
    let mut live = vec![true; conns.len()];
    loop {
        for (c, live) in conns.iter_mut().zip(&mut live) {
            if *live {
                c.send_due(mix, t0, epoch, traced);
                *live = !c.done();
            }
        }
        let active: Vec<&Conn> =
            conns.iter().zip(&live).filter(|(_, &l)| l).map(|(c, _)| c).collect();
        let Some(wake) = active.iter().map(|c| c.wake(t0)).min() else { break };
        let wait = wake.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            let mut fds: Vec<PollFd> = active
                .iter()
                .map(|c| PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: if c.pending.is_empty() { POLLIN } else { POLLIN | POLLOUT },
                    revents: 0,
                })
                .collect();
            wait_ready(&mut fds, wait);
        }
        for (c, _) in conns.iter_mut().zip(&live).filter(|(_, &l)| l) {
            c.read_replies(t0, oracle, epoch, traced);
        }
    }
}

fn p99_with_misses<'a>(samples: impl Iterator<Item = &'a Sample>) -> f64 {
    let mut v: Vec<f64> = samples
        .map(|s| if s.outcome == Outcome::Ok { s.latency_us } else { f64::INFINITY })
        .collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.99)
}

/// One open-loop phase at a fixed offered rate.
pub struct Phase {
    pub rate: f64,
    pub secs: f64,
    pub samples: Vec<Sample>,
    pub backlog: usize,
    pub topk_all_answers: Vec<Vec<u32>>,
    pub log: SpanLog,
}

impl Phase {
    pub fn count(&self, o: Outcome) -> usize {
        self.samples.iter().filter(|s| s.outcome == o).count()
    }

    /// Sent − answered correctly.
    pub fn failed(&self) -> usize {
        self.samples.len() - self.count(Outcome::Ok)
    }

    /// Ascending latencies of every reply (shed and error replies
    /// included, at the time they came back).
    pub fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> =
            self.samples.iter().map(|s| s.latency_us).filter(|l| l.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// p99 with every request that did not get a correct answer counted as
    /// missing any limit.
    pub fn p99_with_misses(&self) -> f64 {
        p99_with_misses(self.samples.iter())
    }

    /// The samples of each `window`-second slice of the schedule.
    fn windows(&self, window: f64) -> Vec<Vec<&Sample>> {
        let slices = (self.secs / window).round().max(1.0) as usize;
        let mut per: Vec<Vec<&Sample>> = vec![Vec::new(); slices];
        for s in &self.samples {
            per[((s.due_s / window) as usize).min(slices - 1)].push(s);
        }
        per
    }

    /// [`Phase::p99_with_misses`] of each `window`-second slice.
    pub fn window_p99_with_misses(&self, window: f64) -> Vec<f64> {
        self.windows(window).into_iter().map(|v| p99_with_misses(v.into_iter())).collect()
    }

    /// The reply-latency p99 of each window of the phase, ascending. A
    /// window holds 1000 requests (ten beyond its p99) and lasts at least
    /// 0.2 s, four of `serve-small`'s publish periods.
    pub fn window_p99s(&self) -> Vec<f64> {
        let window = (1000.0 / self.rate).max(0.2);
        let mut p99s: Vec<f64> = self
            .windows(window)
            .into_iter()
            .map(|w| {
                let mut v: Vec<f64> =
                    w.iter().map(|s| s.latency_us).filter(|l| l.is_finite()).collect();
                v.sort_by(f64::total_cmp);
                quantile(&v, 0.99)
            })
            .collect();
        p99s.sort_by(f64::total_cmp);
        p99s
    }

    pub fn late(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.late_us).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Correct replies that arrived within the phase's `secs`, per second.
    /// Replies drained after the last send do not count, so an overloaded
    /// phase reads at most what the server answered in its window.
    pub fn goodput(&self) -> f64 {
        let in_window = self
            .samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok && s.due_s + s.latency_us / 1e6 <= self.secs)
            .count();
        in_window as f64 / self.secs
    }
}

/// Runs `secs` of open-loop traffic at `rate` requests per second, spread
/// evenly over the connections (fixed spacing, not Poisson: the knee is
/// sharper and runs repeat more closely), with an optional injected stall
/// and an optional limit on the requests each connection keeps outstanding.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    addr: SocketAddr,
    mix: &Mix,
    rate: f64,
    secs: f64,
    hold: Option<Stall>,
    window: Option<usize>,
    rng: &mut Rng,
    oracle: &Oracle,
    epoch: &AtomicU64,
    traced: bool,
) -> Phase {
    let total = ((rate * secs).round() as usize).max(CONNECTIONS);
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|first| {
            let sched = Schedule { first, total, rate, hold, window };
            Conn::new(addr, Rng::new(rng.next_u64()), sched, t0)
        })
        .collect();
    drive(&mut conns, mix, t0, oracle, epoch, traced);
    let outs = conns.into_iter().map(Conn::finish);
    let mut phase = Phase {
        rate,
        secs,
        samples: Vec::new(),
        backlog: 0,
        topk_all_answers: Vec::new(),
        log: SpanLog::default(),
    };
    for o in outs {
        phase.samples.extend(o.samples);
        phase.backlog += o.backlog_at_last_send;
        phase.topk_all_answers.extend(o.topk_all_answers);
        phase.log.merge(o.log);
    }
    phase
}
