//! `serve`: the in-tree daemon (`ServerHandle`) on one channel and one
//! epoll loop, driven by the benchmark's own single-threaded open-loop
//! Poisson client at a fixed rate below this host's knee.
//!
//! Every request is timed from its *due* instant, not from when the
//! client got round to sending it, so a client stall is charged to the
//! requests it delays; how late the generator ran is reported separately
//! and a run where it fell too far behind is refused. Overhead is reply
//! receipt minus due instant minus the reply's `wait_ms` (the scheduled
//! broadcast wait, which is large by design). The daemon's CPU is read per
//! thread from procfs, so the client's own CPU is never counted in it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hybridcast_core::config::HybridConfig;
use hybridcast_server::frame::{Frame, FrameBatch, RequestFrame};
use hybridcast_server::{ServeConfig, ServeParams, ServeSummary, ServerHandle};
use hybridcast_workload::requests::RequestGenerator;
use hybridcast_workload::scenario::ScenarioConfig;

use crate::measure::{
    median, quantile, task_cpu_ns, task_ids, task_syscall, thread_cpu_ns, Metrics,
};
use crate::spans::Recorder;
use crate::{Outcome, Run};

/// Offered load, requests per second: below this host's knee (~250k/s).
const RATE: f64 = 50_000.0;
/// Client connections, capped at the host's core count.
const CONNS: usize = 2;
/// Untimed load before the timed window, seconds.
const WARMUP_S: f64 = 1.0;
/// How long to wait for the last replies after sending stops.
const DRAIN: Duration = Duration::from_secs(5);
/// The overhead p99 a healthy daemon stays under at this rate, ms.
const OVERHEAD_LIMIT_MS: f64 = 5.0;
/// The share of [`OVERHEAD_LIMIT_MS`] the generator's p99 lateness may
/// reach before the run is refused as not open-loop.
const LATE_SHARE: f64 = 0.2;
/// Width of the windows whose overhead quantiles the run takes the median
/// of, seconds. Other tenants of the host stall the daemon for a few ms at
/// a time, several times a second; over a whole run those stalls own the
/// top 1.5% of samples and move p99 by half from run to run. The median
/// over 50 ms windows is the p99 of a typical window, and the stalls stay
/// visible in `server.overhead_p999_ms`.
const WINDOW_S: f64 = 0.05;
/// Client sleep between passes; the kernel's timer slack adds ~50 µs.
const TICK: Duration = Duration::from_micros(50);
/// Daemon start-ups timed for the `setup_s` median.
const SETUP_REPS: usize = 7;
/// Wall milliseconds per broadcast unit (the daemon's default).
const UNIT_MILLIS: f64 = 1.0;

/// x86-64 system call numbers the daemon's threads block in when idle.
const SYS_FUTEX: i64 = 202;
const SYS_EPOLL_WAIT: i64 = 232;
const SYS_EPOLL_PWAIT: i64 = 281;
const SYS_EPOLL_PWAIT2: i64 = 441;

fn config() -> ServeConfig {
    ServeConfig {
        scenario: ScenarioConfig::default(),
        hybrid: HybridConfig::paper(40, 0.5),
        serve: ServeParams {
            addr: "127.0.0.1:0".into(),
            unit_millis: UNIT_MILLIS,
            loop_threads: 1,
            results_path: None,
            ops_addr: None,
            trace_path: None,
            ..ServeParams::default()
        },
    }
}

/// SplitMix64: the client's inter-arrival stream.
struct SplitMix(u64);

impl SplitMix {
    fn exp(&mut self, rate: f64) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        -u.ln() / rate
    }
}

/// One client connection: the outbound bytes not yet written and the
/// inbound decoder.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbox: FrameBatch,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            written: 0,
            inbox: FrameBatch::new(),
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    /// Reads whatever has arrived; `false` at EOF.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<bool> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Ok(false),
                Ok(n) => self.inbox.extend(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Starts a daemon and times start-up until it has accepted a connection
/// and answered one request, net of that request's scheduled wait.
fn timed_start(rec: &mut Recorder) -> io::Result<(ServerHandle, Conn, f64)> {
    rec.begin("server.start", 0);
    let t0 = Instant::now();
    let handle = ServerHandle::start(config())?;
    let mut conn = Conn::open(handle.addr())?;
    conn.stream.set_nonblocking(false)?;
    let probe = RequestFrame {
        seq: u64::MAX,
        class: 0,
        item: 99,
        deadline_ms: 0,
    };
    conn.stream.write_all(&probe.encode())?;
    let mut buf = [0u8; 256];
    let wait_ms = loop {
        let n = conn.stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        conn.inbox.extend(&buf[..n]);
        if let Ok(Some(Frame::Reply(r))) = conn.inbox.decode_next() {
            break r.wait_ms;
        }
    };
    let secs = t0.elapsed().as_secs_f64() - wait_ms / 1e3;
    rec.end();
    conn.stream.set_nonblocking(true)?;
    Ok((handle, conn, secs))
}

/// The daemon's threads, told apart by the system call each blocks in
/// when idle: the epoll loop in `epoll_wait`, the scheduler core on its
/// doorbell's futex. Returns `(core, loop)` tid lists.
fn identify(daemon: &[u32]) -> (Vec<u32>, Vec<u32>, &'static str) {
    for _ in 0..200 {
        let mut cores = Vec::new();
        let mut loops = Vec::new();
        for &tid in daemon {
            match task_syscall(tid) {
                Some(SYS_FUTEX) => cores.push(tid),
                Some(SYS_EPOLL_WAIT | SYS_EPOLL_PWAIT | SYS_EPOLL_PWAIT2) => loops.push(tid),
                _ => {}
            }
        }
        if cores.len() + loops.len() == daemon.len() && !cores.is_empty() && !loops.is_empty() {
            return (cores, loops, "blocking system call");
        }
        std::thread::sleep(Duration::from_micros(300));
    }
    // Creation order: `ServerHandle::start` spawns the core's thread,
    // which then spawns the loop.
    let (first, rest) = daemon.split_at(1.min(daemon.len()));
    (first.to_vec(), rest.to_vec(), "creation order")
}

/// Per-request client books, indexed by `seq`.
struct Books {
    due: Vec<Instant>,
    class: Vec<u8>,
    replies: Vec<u8>,
    timed: Vec<bool>,
}

/// What one daemon run measured.
#[derive(Default)]
struct Measured {
    sent: u64,
    timed_sent: u64,
    served: u64,
    failed: u64,
    window_s: f64,
    overhead_ms: Vec<f64>,
    /// Seconds from the window's start to each overhead sample's due
    /// instant, in step with `overhead_ms`.
    overhead_at: Vec<f64>,
    rtt_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wait_units: Vec<(f64, u64)>,
    core_cpu_ns: u64,
    loop_cpu_ns: u64,
    client_cpu_ns: u64,
    problems: Vec<String>,
    summary: Option<ServeSummary>,
}

/// One daemon lifetime: start, warm up, a timed window of `seconds` at
/// [`RATE`], drain, shut down.
fn serve_once(seed: u64, seconds: f64, rec: &mut Recorder) -> io::Result<Measured> {
    let before = task_ids();
    let (handle, first, _) = timed_start(&mut Recorder::new(false))?;
    let nconns = CONNS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut conns = vec![first];
    for _ in 1..nconns {
        conns.push(Conn::open(handle.addr())?);
    }
    std::thread::sleep(Duration::from_millis(20));
    let daemon: Vec<u32> = task_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    let (cores, loops, how) = identify(&daemon);
    println!(
        "topology: client 1 thread (main), {nconns} connections, open loop at {RATE} req/s; daemon {} thread(s): core {:?}, epoll loop {:?} (identified by {how})",
        daemon.len(),
        cores,
        loops
    );

    let scenario = config().scenario.build();
    let mut draws: RequestGenerator = scenario.request_stream_replication(seed);
    let mut gaps = SplitMix(seed ^ 0xA076_1D64_78BD_642F);
    let cap = ((WARMUP_S + seconds) * RATE * 1.1) as usize + 1024;
    let mut books = Books {
        due: Vec::with_capacity(cap),
        class: Vec::with_capacity(cap),
        replies: Vec::with_capacity(cap),
        timed: Vec::with_capacity(cap),
    };
    let mut m = Measured::default();
    let classes = scenario.classes.len();
    m.wait_units = vec![(0.0, 0); classes];

    let start = Instant::now();
    let window_start = start + Duration::from_secs_f64(WARMUP_S);
    let stop = window_start + Duration::from_secs_f64(seconds);
    let mut next_due = start;
    let mut buf = vec![0u8; 64 * 1024];
    let mut cpu_at_window: Option<(u64, u64, u64)> = None;
    let cpu_of = |tids: &[u32]| tids.iter().map(|&t| task_cpu_ns(t)).sum::<u64>();
    let mut cpu_window = (0u64, 0u64, 0u64);
    let mut answered = 0u64;
    loop {
        let now = Instant::now();
        if cpu_at_window.is_none() && now >= window_start {
            cpu_at_window = Some((cpu_of(&cores), cpu_of(&loops), thread_cpu_ns()));
        }
        let sending = next_due < stop;
        if !sending && cpu_window == (0, 0, 0) {
            let (c0, l0, k0) = cpu_at_window.expect("window opened before it closed");
            cpu_window = (
                cpu_of(&cores) - c0,
                cpu_of(&loops) - l0,
                thread_cpu_ns() - k0,
            );
            m.window_s = (now - window_start).as_secs_f64();
        }
        if !sending && answered == books.due.len() as u64 {
            break;
        }
        if !sending && now > stop + DRAIN {
            break;
        }

        // Send every request now due.
        rec.begin("client.send", books.due.len() as u64);
        while next_due < stop && next_due <= now {
            let req = draws.next_request();
            let seq = books.due.len() as u64;
            let frame = RequestFrame {
                seq,
                class: req.class.0,
                item: req.item.0,
                deadline_ms: 0,
            };
            conns[seq as usize % nconns]
                .out
                .extend_from_slice(&frame.encode());
            let timed = next_due >= window_start;
            if timed {
                m.late_ms.push((now - next_due).as_secs_f64() * 1e3);
                m.timed_sent += 1;
            }
            books.due.push(next_due);
            books.class.push(req.class.0);
            books.replies.push(0);
            books.timed.push(timed);
            next_due += Duration::from_secs_f64(gaps.exp(RATE));
        }
        for c in conns.iter_mut() {
            c.flush()?;
        }
        rec.end();

        // Take in every reply that has arrived.
        rec.begin("client.recv", 0);
        for c in conns.iter_mut() {
            if !c.fill(&mut buf)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed a connection early",
                ));
            }
        }
        let receipt = Instant::now();
        for c in conns.iter_mut() {
            loop {
                let reply = match c.inbox.decode_next() {
                    Ok(Some(Frame::Reply(r))) => r,
                    Ok(Some(_)) => {
                        m.problems.push("daemon sent a non-reply frame".into());
                        continue;
                    }
                    Ok(None) => break,
                    Err(e) => return Err(io::Error::other(e.to_string())),
                };
                let Some(n) = books.replies.get_mut(reply.seq as usize) else {
                    m.problems
                        .push(format!("reply to unknown seq {}", reply.seq));
                    continue;
                };
                *n += 1;
                if *n > 1 {
                    m.problems
                        .push(format!("second reply to seq {}", reply.seq));
                    continue;
                }
                answered += 1;
                let i = reply.seq as usize;
                if !books.timed[i] {
                    continue;
                }
                let rtt = (receipt - books.due[i]).as_secs_f64() * 1e3;
                rec.interval("client.request", reply.seq, books.due[i], receipt);
                if reply.status.is_served() {
                    m.served += 1;
                    m.rtt_ms.push(rtt);
                    m.overhead_ms.push(rtt - reply.wait_ms);
                    m.overhead_at
                        .push((books.due[i] - window_start).as_secs_f64());
                    m.wait_ms.push(reply.wait_ms);
                    let w = &mut m.wait_units[books.class[i] as usize];
                    w.0 += reply.wait_ms / UNIT_MILLIS;
                    w.1 += 1;
                } else {
                    m.failed += 1;
                }
            }
        }
        rec.end();
        if answered < books.due.len() as u64 || sending {
            std::thread::sleep(TICK);
        }
    }
    m.sent = books.due.len() as u64;
    let unanswered = books.replies.iter().filter(|&&n| n == 0).count() as u64;
    if unanswered > 0 {
        m.problems.push(format!("{unanswered} requests unanswered"));
    }
    m.failed += books
        .replies
        .iter()
        .zip(&books.timed)
        .filter(|(n, t)| **n == 0 && **t)
        .count() as u64;
    (m.core_cpu_ns, m.loop_cpu_ns, m.client_cpu_ns) = cpu_window;

    handle.shutdown();
    drop(conns);
    let summary = handle.join()?;
    // The probe request of the start-up is the one accepted request the
    // client's books do not hold.
    if summary.accepted != m.sent + 1 {
        m.problems.push(format!(
            "daemon accepted {} requests, client sent {}",
            summary.accepted,
            m.sent + 1
        ));
    }
    if !summary.conservation_ok {
        m.problems.push("daemon books do not conserve".into());
    }
    m.summary = Some(summary);
    Ok(m)
}

impl Measured {
    /// The median over windows of `width` seconds of each window's `q`
    /// quantile of overhead.
    fn windowed_overhead(&self, q: f64, width: f64) -> f64 {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (&at, &ms) in self.overhead_at.iter().zip(&self.overhead_ms) {
            let w = (at / width) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, Vec::new);
            }
            windows[w].push(ms);
        }
        let per_window: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect();
        median(&per_window)
    }
}

pub fn run(run: &Run, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        match timed_start(rec) {
            Ok((handle, conn, secs)) => {
                setups.push(secs);
                handle.shutdown();
                drop(conn);
                if let Err(e) = handle.join() {
                    out.check_failed(format!("daemon exit: {e}"));
                }
            }
            Err(e) => out.check_failed(format!("daemon start: {e}")),
        }
    }

    // The traced run splits its time between an untraced and a traced
    // daemon lifetime; their overhead p50s give the tracing overhead.
    let seconds = if rec.is_on() {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let untraced = if rec.is_on() {
        match serve_once(run.seed, seconds, &mut Recorder::new(false)) {
            Ok(m) => Some(m),
            Err(e) => {
                out.check_failed(format!("untraced serve: {e}"));
                None
            }
        }
    } else {
        None
    };
    let m = match serve_once(run.seed, seconds, rec) {
        Ok(m) => m,
        Err(e) => {
            out.check_failed(format!("serve: {e}"));
            return out;
        }
    };
    out.attempted = m.timed_sent;
    out.failed = m.failed;
    for p in m.problems.iter().take(5) {
        out.check_failed(p.clone());
    }
    let late_p99 = quantile(&m.late_ms, 0.99);
    if late_p99 > LATE_SHARE * OVERHEAD_LIMIT_MS {
        out.check_failed(format!(
            "generator fell behind: lateness p99 {late_p99:.3} ms exceeds {:.0}% of the {OVERHEAD_LIMIT_MS} ms overhead limit",
            LATE_SHARE * 100.0
        ));
    }
    if !out.check_failures.is_empty() {
        out.failed = out.attempted;
    }
    let completed = m.served.max(1) as f64;
    let daemon_cpu = (m.core_cpu_ns + m.loop_cpu_ns) as f64;
    let cost: f64 = m
        .wait_units
        .iter()
        .zip(config().scenario.classes.iter())
        .map(|(&(sum, n), (_, c))| c.priority * if n > 0 { sum / n as f64 } else { 0.0 })
        .sum();
    println!(
        "timed: {:.3} s, {} requests sent, {} served, {} overhead samples in {} windows of {WINDOW_S} s, lateness p99 {:.3} ms",
        m.window_s,
        m.timed_sent,
        m.served,
        m.overhead_ms.len(),
        (m.window_s / WINDOW_S).ceil(),
        late_p99
    );

    let mut metrics = Metrics::default();
    if rec.is_on() {
        let s = m.summary.as_ref().expect("summary of a finished run");
        metrics.set(
            "server.loop_cpu_us_per_req",
            m.loop_cpu_ns as f64 / 1e3 / completed,
            "us",
        );
        metrics.set(
            "server.core_cpu_us_per_req",
            m.core_cpu_ns as f64 / 1e3 / completed,
            "us",
        );
        metrics.set("server.wait_p50_ms", median(&m.wait_ms), "ms");
        metrics.set("server.wait_p99_ms", quantile(&m.wait_ms, 0.99), "ms");
        metrics.set("server.served_push", s.served_push as f64, "count");
        metrics.set("server.served_pull", s.served_pull as f64, "count");
        metrics.set("server.shed", s.shed as f64, "count");
        metrics.set("server.push_tx", s.push_tx as f64, "count");
        metrics.set("server.pull_tx", s.pull_tx as f64, "count");
        metrics.set(
            "server.requests_per_pull_tx",
            s.served_pull as f64 / s.pull_tx.max(1) as f64,
            "ratio",
        );
        metrics.set(
            "server.overhead_p999_ms",
            quantile(&m.overhead_ms, 0.999),
            "ms",
        );
        metrics.set(
            "server.overhead_samples",
            m.overhead_ms.len() as f64,
            "count",
        );
        metrics.set("client.rtt_p50_ms", median(&m.rtt_ms), "ms");
        metrics.set("client.rtt_p99_ms", quantile(&m.rtt_ms, 0.99), "ms");
        metrics.set("client.late_p99_ms", late_p99, "ms");
        metrics.set(
            "client.cpu_us_per_req",
            m.client_cpu_ns as f64 / 1e3 / completed,
            "us",
        );
        if let Some(u) = &untraced {
            metrics.set(
                "trace.overhead_pct",
                (m.windowed_overhead(0.5, WINDOW_S) / u.windowed_overhead(0.5, WINDOW_S) - 1.0)
                    * 100.0,
                "%",
            );
        }
    } else {
        metrics.set("setup_s", median(&setups), "s");
        metrics.set("throughput_per_s", m.served as f64 / m.window_s, "1/s");
        metrics.set("cpu_us_per_req", daemon_cpu / 1e3 / completed, "us");
        metrics.set("overhead_p50_ms", m.windowed_overhead(0.5, WINDOW_S), "ms");
        metrics.set("overhead_p99_ms", m.windowed_overhead(0.99, WINDOW_S), "ms");
        metrics.set("prioritized_cost", cost, "units");
    }
    out.metrics = metrics;
    out
}
