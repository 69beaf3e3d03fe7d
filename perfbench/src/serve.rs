//! `serve-mix`: an open-loop request mix against a router fronting two
//! single-worker replicas that run in a child process of their own, so
//! the memory measured is the service's.
//!
//! The load comes from one connection driven by two threads: this thread
//! sends each request at its due time and a reader thread timestamps
//! every frame as it arrives. Latency counts from the due time, so a
//! stall also delays the requests queued behind it; how late the sender
//! itself ran is reported, and a run whose sender fell behind is invalid.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sophie_serve::protocol::{parse_request, read_line_bounded};
use sophie_serve::{Client, Json, LocalCluster, RouterConfig, ServeConfig};

use crate::layers::{self, PhaseSpans, RoundTimer};
use crate::mix::{self, MixRequest, Origin, KINDS};
use crate::util::{mean, median, quantile, secs_since, tail, Fnv};
use crate::{Opts, Outcome};

/// Replicas behind the router, and job workers per replica.
pub const REPLICAS: usize = 2;
pub const WORKERS_PER_REPLICA: usize = 1;
/// Worker-pool width inside the service process (`SOPHIE_THREADS`).
pub const SERVICE_THREADS: usize = 1;

/// Offered rate of the main phase, requests per second.
pub const BASE_RATE: f64 = 10.0;
/// Rates tried after the main phase, ascending; the ladder stops at the
/// first rate that misses the limit. Coarse on purpose: on two cores the
/// service sustains well over 20 requests per second and well under 100,
/// so the same code reads the same rate run after run, and only a large
/// change in capacity moves it.
pub const LADDER: [f64; 2] = [20.0, 100.0];
/// A rate is sustained when the p95 latency from due time stays below
/// this, nothing fails and no backlog builds.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Share of `--seconds` spent in the main phase; the ladder shares the rest.
const MAIN_SHARE: f64 = 0.75;
/// Outstanding requests beyond which a rate counts as a growing backlog
/// (below the replicas' admission capacity, so overload is never refused).
const BACKLOG_CAP: usize = 32;
/// p95 sender lateness above which the run is invalid.
pub const GEN_LATE_LIMIT_MS: f64 = 10.0;
/// Service start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Requests whose library results form the fingerprint.
const FINGERPRINT_REQUESTS: usize = 40;
const STATS_POLL: Duration = Duration::from_millis(100);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Entry point of the service process: starts the cluster, announces its
/// addresses on stdout, answers peak-memory queries on stdin, and shuts
/// down when stdin closes.
pub fn child_main() -> i32 {
    let serve = ServeConfig {
        workers: WORKERS_PER_REPLICA,
        ..ServeConfig::default()
    };
    let cluster = match LocalCluster::start(REPLICAS, serve, RouterConfig::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench service: {e}");
            return 1;
        }
    };
    let replicas: Vec<String> = (0..REPLICAS)
        .filter_map(|i| cluster.replica_addr(i))
        .map(|a| a.to_string())
        .collect();
    println!("ready {} {}", cluster.router_addr(), replicas.join(" "));
    std::io::stdout().flush().ok();
    // "rss" asks for the peak RSS so far; end of input shuts down.
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).is_ok_and(|n| n > 0) {
        if line.trim() == "rss" {
            println!("rss {}", crate::util::peak_rss_mb());
            std::io::stdout().flush().ok();
        }
        line.clear();
    }
    cluster.shutdown();
    // The choices the replicas' lazy set-up made (memoized by now).
    for note in crate::warm_process(&[mix::sophie_config().tile_size]) {
        println!("note service {note}");
    }
    println!("done");
    std::io::stdout().flush().ok();
    0
}

/// The service child process; killed and reaped on drop unless stopped.
struct Service {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    router: SocketAddr,
    replicas: Vec<SocketAddr>,
}

impl Service {
    fn start(kernel_cache: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .env("SOPHIE_KERNEL_CACHE", kernel_cache)
            // Each replica's single worker solves on its own thread, so the
            // two workers use the two cores without contending for a pool.
            .env("SOPHIE_THREADS", SERVICE_THREADS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the service: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut svc = Service {
            child: Some(child),
            stdin,
            stdout,
            router: "127.0.0.1:0".parse().expect("literal address"),
            replicas: Vec::new(),
        };
        let mut line = String::new();
        svc.stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let mut words = line.split_whitespace();
        if words.next() != Some("ready") {
            return Err(format!("service did not start: {line:?}"));
        }
        let addrs: Vec<SocketAddr> = words.filter_map(|w| w.parse().ok()).collect();
        if addrs.len() != REPLICAS + 1 {
            return Err(format!("service announced {line:?}"));
        }
        svc.router = addrs[0];
        svc.replicas = addrs[1..].to_vec();
        Ok(svc)
    }

    /// The service's peak RSS so far, in MiB.
    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let stdin = self.stdin.as_mut().expect("service running");
        writeln!(stdin, "rss")
            .and_then(|()| stdin.flush())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        line.strip_prefix("rss ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("service reported {line:?}"))
    }

    /// Asks the service to exit; returns the notes it printed on the way.
    fn stop(mut self) -> Result<Vec<String>, String> {
        drop(self.stdin.take());
        let mut notes = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                break;
            }
            match line.strip_prefix("note ") {
                Some(note) => notes.push(note.trim().to_string()),
                None => break,
            }
        }
        let status = self
            .child
            .take()
            .expect("running child")
            .wait()
            .map_err(|e| e.to_string())?;
        if !status.success() || line.trim() != "done" {
            return Err(format!("service exited with {status} after {line:?}"));
        }
        Ok(notes)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            drop(self.stdin.take());
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One request's fate in a phase.
#[derive(Debug, Clone)]
struct Record {
    idx: usize,
    due: Instant,
    sent: Instant,
    /// Sent during a one-second window in which the queue poller ran.
    polled: bool,
    /// The terminal frame, once it arrived.
    reply: Option<Reply>,
}

/// A terminal frame as the reader thread received it.
#[derive(Debug, Clone)]
struct Reply {
    at: Instant,
    /// `done`, `failed` or `cancelled` for results; the frame type otherwise.
    status: String,
    /// Replica-reported submit-to-result latency.
    server_ms: Option<f64>,
    best_cut: Option<f64>,
    line: String,
}

impl Reply {
    fn parse(line: String, at: Instant) -> Option<(usize, Reply)> {
        let frame = Json::parse(&line).ok()?;
        let kind = frame.get("type").and_then(Json::as_str)?;
        if !matches!(kind, "result" | "rejected" | "error") {
            return None;
        }
        let idx = frame.get("id")?.as_str()?.strip_prefix('r')?.parse().ok()?;
        let status = match kind {
            "result" => frame
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or("unknown"),
            other => other,
        };
        let reply = Reply {
            at,
            status: status.to_string(),
            server_ms: frame.get("latency_ms").and_then(Json::as_f64),
            best_cut: frame
                .get("report")
                .and_then(|r| r.get("best_cut"))
                .and_then(Json::as_f64),
            line,
        };
        Some((idx, reply))
    }
}

impl Record {
    fn status(&self) -> &str {
        self.reply.as_ref().map_or("lost", |r| r.status.as_str())
    }

    fn due_latency_ms(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .map(|r| (r.at - self.due).as_secs_f64() * 1e3)
    }

    fn server_ms(&self) -> Option<f64> {
        self.reply.as_ref().and_then(|r| r.server_ms)
    }

    fn rtt_ms(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .map(|r| (r.at - self.sent).as_secs_f64() * 1e3)
    }
}

/// A phase at one offered rate.
#[derive(Debug)]
struct Phase {
    rate: f64,
    records: Vec<Record>,
    /// Sender lateness per request, ms.
    late_ms: Vec<f64>,
    /// Stopped early because the backlog grew past [`BACKLOG_CAP`].
    backlog: bool,
}

impl Phase {
    fn done(&self) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| r.status() == "done")
            .collect()
    }

    fn due_latencies(&self) -> Vec<f64> {
        self.done()
            .iter()
            .filter_map(|r| r.due_latency_ms())
            .collect()
    }

    fn sustained(&self) -> bool {
        let lat = self.due_latencies();
        !self.backlog
            && lat.len() == self.records.len()
            && !lat.is_empty()
            && quantile(&lat, 0.95) <= LATENCY_LIMIT_MS
            && quantile(&self.late_ms, 0.95) <= GEN_LATE_LIMIT_MS
    }

    /// The rate the sender achieved (requests per second between the
    /// first and last send).
    fn achieved_rate(&self) -> f64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) if self.records.len() > 1 => {
                (self.records.len() - 1) as f64 / (b.sent - a.sent).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

/// Polls the replicas' `stats` verb for the deepest admission queue seen.
struct QueuePoller {
    clients: Vec<Client>,
    max_depth: u64,
    next: Instant,
}

impl QueuePoller {
    fn new(replicas: &[SocketAddr]) -> Result<Self, String> {
        let clients = replicas
            .iter()
            .map(|a| Client::connect(a).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(QueuePoller {
            clients,
            max_depth: 0,
            next: Instant::now(),
        })
    }

    fn poll_if_due(&mut self) {
        if Instant::now() < self.next {
            return;
        }
        self.next = Instant::now() + STATS_POLL;
        for c in &mut self.clients {
            if let Some(d) = c
                .stats()
                .ok()
                .and_then(|s| s.get("queue_depth").and_then(Json::as_u64))
            {
                self.max_depth = self.max_depth.max(d);
            }
        }
    }
}

/// Sends `reqs[first..first + count]` at `rate` per second on a fresh
/// connection and collects every terminal frame.
fn run_phase(
    router: SocketAddr,
    reqs: &[MixRequest],
    first: usize,
    count: usize,
    rate: f64,
    mut poller: Option<&mut QueuePoller>,
) -> Result<Phase, String> {
    let stream = TcpStream::connect(router).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let terminal = Arc::new(AtomicUsize::new(0));
    let replies: Arc<Mutex<Vec<(usize, Reply)>>> = Arc::new(Mutex::new(Vec::new()));
    let reader = {
        let terminal = Arc::clone(&terminal);
        let replies = Arc::clone(&replies);
        let stream = stream.try_clone().map_err(|e| e.to_string())?;
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            while let Ok(Some(line)) = read_line_bounded(&mut reader, 16 << 20) {
                if let Some(reply) = Reply::parse(line, Instant::now()) {
                    replies.lock().expect("replies lock").push(reply);
                    terminal.fetch_add(1, Ordering::SeqCst);
                }
            }
        })
    };

    let started = Instant::now();
    let mut records = Vec::with_capacity(count);
    let mut late_ms = Vec::with_capacity(count);
    let mut backlog = false;
    for k in 0..count {
        let due = started + Duration::from_secs_f64(k as f64 / rate);
        // The poller runs in every other one-second window, so requests
        // sent with and without it interleave through the phase.
        let polled = poller.is_some() && (k as f64 / rate) as u64 % 2 == 1;
        loop {
            if let Some(p) = poller.as_deref_mut().filter(|_| polled) {
                p.poll_if_due();
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            let wait = due - now;
            std::thread::sleep(if polled { wait.min(STATS_POLL) } else { wait });
        }
        if records.len() - terminal.load(Ordering::SeqCst) > BACKLOG_CAP {
            backlog = true;
            break;
        }
        let idx = first + k;
        let frame = reqs[idx].args.to_frame(&format!("r{idx}"));
        let sent = Instant::now();
        writeln!(writer, "{frame}").map_err(|e| format!("send: {e}"))?;
        late_ms.push((sent - due).as_secs_f64() * 1e3);
        records.push(Record {
            idx,
            due,
            sent,
            polled,
            reply: None,
        });
    }
    let drain_start = Instant::now();
    while terminal.load(Ordering::SeqCst) < records.len()
        && !reader.is_finished()
        && drain_start.elapsed() < DRAIN_TIMEOUT
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    stream.shutdown(Shutdown::Both).ok();
    reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())?;
    for (idx, reply) in replies.lock().expect("replies lock").drain(..) {
        if let Some(r) = records.get_mut(idx.wrapping_sub(first)) {
            r.reply = Some(reply);
        }
    }
    Ok(Phase {
        rate,
        records,
        late_ms,
        backlog,
    })
}

/// Starts the service, waits for its router, and runs one request of
/// every kind through it so lazy set-up (kernel autotune, crossover
/// calibration, code paths) is paid before timing. Returns the service,
/// a connected client, and the set-up time.
fn set_up(
    state: &Path,
    attempt: usize,
    warmup: &[MixRequest],
) -> Result<(Service, Client, f64), String> {
    let t = Instant::now();
    let cache = state.join(format!("kernel-tune-service-{attempt}"));
    let svc = Service::start(&cache)?;
    let mut client = Client::connect(svc.router).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(DRAIN_TIMEOUT))
        .map_err(|e| e.to_string())?;
    for (i, req) in warmup.iter().enumerate() {
        let id = format!("warmup-{attempt}-{i}");
        let admitted = client.submit(&id, &req.args).map_err(|e| e.to_string())?;
        if admitted.frame_type() != Some("accepted") {
            return Err(format!("warm-up refused: {}", admitted.line));
        }
        let outcome = client.wait_result(&id).map_err(|e| e.to_string())?;
        if outcome.status != "done" {
            return Err(format!("warm-up {}: {}", req.kind, outcome.frame.line));
        }
    }
    Ok((svc, client, secs_since(t)))
}

pub fn run(o: &Opts, state: &Path) -> Outcome {
    let mut out = Outcome::default();
    let warmup: Vec<MixRequest> = {
        let pool = mix::generate(crate::util::derive_seed(o.seed, 20, 0), mix::BLOCK);
        KINDS
            .iter()
            .filter_map(|k| pool.iter().find(|r| r.kind == *k).cloned())
            .collect()
    };
    let main_count = (BASE_RATE * o.seconds * MAIN_SHARE).ceil() as usize;
    let step_seconds = o.seconds * (1.0 - MAIN_SHARE) / LADDER.len() as f64;
    let step_counts: Vec<usize> = LADDER
        .iter()
        .map(|r| (r * step_seconds).ceil() as usize)
        .collect();
    let reqs = mix::generate(o.seed, main_count + step_counts.iter().sum::<usize>());

    let mut setups = Vec::new();
    let mut live = None;
    for attempt in 0..SETUP_REPEATS {
        match set_up(state, attempt, &warmup) {
            Ok((svc, client, s)) => {
                setups.push(s);
                if attempt + 1 < SETUP_REPEATS {
                    drop(client);
                    if let Err(e) = svc.stop() {
                        out.errors.push(e);
                    }
                } else {
                    live = Some((svc, client));
                }
            }
            Err(e) => {
                out.errors.push(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let (mut svc, mut stats_client) = live.expect("last set-up kept");

    // Main phase at the base rate, then the ladder. A traced run polls
    // the replicas' queue depth in alternate seconds of the main phase.
    let mut poller = if o.trace {
        match QueuePoller::new(&svc.replicas) {
            Ok(p) => Some(p),
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    } else {
        None
    };
    let mut phases = Vec::new();
    match run_phase(svc.router, &reqs, 0, main_count, BASE_RATE, poller.as_mut()) {
        Ok(phase) => phases.push(phase),
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    }
    // Memory at the fixed offered rate, before the ladder's overload.
    let service_rss = match svc.peak_rss_mb() {
        Ok(rss) => rss,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let mut max_rate = if phases[0].sustained() {
        phases[0].achieved_rate()
    } else {
        0.0
    };
    let mut first = main_count;
    for (rate, count) in LADDER.iter().zip(&step_counts) {
        if !phases.last().is_some_and(Phase::sustained) {
            break;
        }
        match run_phase(svc.router, &reqs, first, *count, *rate, None) {
            Ok(phase) => {
                if phase.sustained() {
                    max_rate = phase.achieved_rate();
                }
                phases.push(phase);
            }
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
        first += count;
    }

    let router_stats = stats_client.stats().map_err(|e| e.to_string());
    drop(stats_client);
    match svc.stop() {
        Ok(notes) => out.notes.extend(notes),
        Err(e) => out.errors.push(e),
    }

    // Library replay of every distinct request that was sent.
    let sent: Vec<&Record> = phases.iter().flat_map(|p| p.records.iter()).collect();
    let mut distinct: Vec<usize> = sent.iter().map(|r| reqs[r.idx].distinct).collect();
    distinct.extend(0..FINGERPRINT_REQUESTS.min(reqs.len()));
    distinct.sort_unstable();
    distinct.dedup();
    // A traced run replays on one thread so the replay's layer times are
    // not inflated by contention; otherwise two threads share the work.
    let replays = replay_all(&reqs, &distinct, if o.trace { 1 } else { 2 });

    let mut fp = Fnv::default();
    for idx in 0..FINGERPRINT_REQUESTS.min(reqs.len()) {
        if let Some(Ok(r)) = replays.get(&idx) {
            layers::fingerprint(&mut fp, r.best_cut, &r.ops);
        }
    }

    // Checks: every sent request must come back done with exactly the
    // library's report bytes.
    out.attempted = sent.len() as u64;
    for r in &sent {
        let req = &reqs[r.idx];
        let verdict = match replays.get(&req.distinct) {
            Some(Ok(lib)) if r.status() == "done" => {
                let line = r.reply.as_ref().map_or("", |p| p.line.as_str());
                if line.ends_with(&format!(",\"report\":{}}}", lib.report_json)) {
                    None
                } else {
                    Some(format!(
                        "r{} ({}) differs from the library: {line}",
                        r.idx, req.kind
                    ))
                }
            }
            Some(Err(e)) => Some(format!(
                "r{} ({}) library replay failed: {e}",
                r.idx, req.kind
            )),
            _ => Some(format!(
                "r{} ({}) ended {}: {}",
                r.idx,
                req.kind,
                r.status(),
                r.reply.as_ref().map_or("", |p| p.line.as_str())
            )),
        };
        if let Some(v) = verdict {
            out.failed += 1;
            if out.errors.len() < 10 {
                out.errors.push(v);
            }
        }
    }

    let main = &phases[0];
    let main_lat = main.due_latencies();
    let gen_late_p95 = quantile(&main.late_ms, 0.95);
    if gen_late_p95 > GEN_LATE_LIMIT_MS {
        out.errors.push(format!(
            "invalid run: the sender fell behind (p95 lateness {gen_late_p95:.2} ms > {GEN_LATE_LIMIT_MS} ms)"
        ));
    }
    if main_lat.is_empty() {
        out.errors
            .push("no request of the main phase completed".to_string());
        return out;
    }
    let cut_fracs: Vec<f64> = main
        .done()
        .into_iter()
        .filter(|r| reqs[r.idx].kind == "sophie" && reqs[r.idx].origin != Origin::ExactRepeat)
        .filter_map(|r| Some(r.reply.as_ref()?.best_cut? / reqs[r.idx].total_weight))
        .collect();

    let s = &mut out.sheet;
    s.set("setup_s", median(&setups), "s");
    s.set("latency_p50_ms", median(&main_lat), "ms");
    s.set("latency_p95_ms", tail(&main_lat), "ms");
    s.set("max_rate_rps", max_rate, "1/s");
    s.set(
        "cut_frac",
        if cut_fracs.is_empty() {
            0.0
        } else {
            mean(&cut_fracs)
        },
        "ratio",
    );
    s.set("peak_rss_mb", service_rss, "MiB");

    let (reuse, repeat) = mix::measured_shares(&reqs[..sent.len().min(reqs.len())]);
    out.notes.push(format!(
        "mix: {} requests sent; graph reuse {:.3} (stated {:.3}), exact repeat {:.3} (stated {:.3})",
        sent.len(),
        reuse,
        mix::STATED_GRAPH_REUSE,
        repeat,
        mix::STATED_EXACT_REPEAT
    ));
    out.notes.push(format!(
        "load: open loop, 1 connection, 2 client threads, {REPLICAS} replicas x {WORKERS_PER_REPLICA} worker, \
         service pool width {SERVICE_THREADS}; \
         main phase {} requests at {BASE_RATE}/s, latency limit p95 <= {LATENCY_LIMIT_MS} ms",
        main_lat.len()
    ));
    for p in &phases {
        let lat = p.due_latencies();
        out.notes.push(format!(
            "rate {:>5}/s: sent {:>4}, done {:>4}, p50 {:>8.2} ms, p95 {:>8.2} ms, late p95 {:.2} ms, backlog {}, sustained {}",
            p.rate,
            p.records.len(),
            lat.len(),
            if lat.is_empty() { f64::NAN } else { median(&lat) },
            if lat.is_empty() { f64::NAN } else { quantile(&lat, 0.95) },
            quantile(&p.late_ms, 0.95),
            p.backlog,
            p.sustained()
        ));
    }
    out.notes.push(format!(
        "main phase latency deciles (ms): {:?}",
        (1..10)
            .map(|d| (quantile(&main_lat, f64::from(d) / 10.0) * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!("setup samples (s): {setups:?}"));
    out.fingerprint = Some((
        format!("first {FINGERPRINT_REQUESTS} requests"),
        fp.finish(),
    ));
    s.set("serve.gen_late_ms", gen_late_p95, "ms");

    if o.trace {
        record_serve_layers(&mut out, &reqs, main, &replays, router_stats, poller);
    }
    out
}

type Replays = std::collections::BTreeMap<usize, Result<mix::Replay, String>>;

/// Replays the distinct requests on `threads` threads.
fn replay_all(reqs: &[MixRequest], distinct: &[usize], threads: usize) -> Replays {
    let chunks: Vec<Vec<usize>> = (0..threads)
        .map(|w| distinct.iter().copied().skip(w).step_by(threads).collect())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let registry = sophie::default_registry();
                    chunk
                        .iter()
                        .map(|&i| (i, mix::replay(&reqs[i], &registry)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread"))
            .collect()
    })
}

fn record_serve_layers(
    out: &mut Outcome,
    reqs: &[MixRequest],
    main: &Phase,
    replays: &Replays,
    router_stats: Result<Json, String>,
    poller: Option<QueuePoller>,
) {
    let s = &mut out.sheet;
    let done = main.done();
    let computed = |r: &&&Record| reqs[r.idx].origin != Origin::ExactRepeat;
    for kind in KINDS {
        let ms: Vec<f64> = done
            .iter()
            .filter(computed)
            .filter(|r| reqs[r.idx].kind == kind)
            .filter_map(|r| r.server_ms())
            .collect();
        s.set(
            &format!("serve.server_ms.{kind}"),
            if ms.is_empty() { 0.0 } else { median(&ms) },
            "ms",
        );
    }
    let overhead: Vec<f64> = done
        .iter()
        .filter(computed)
        .filter_map(|r| Some(r.rtt_ms()? - r.server_ms()?))
        .collect();
    s.set("router.overhead_ms", median(&overhead), "ms");

    // Library-side layers of the same requests.
    let lib = |idx: usize| {
        replays
            .get(&reqs[idx].distinct)
            .and_then(|r| r.as_ref().ok())
    };
    let sophie: Vec<&Record> = done
        .iter()
        .copied()
        .filter(|r| reqs[r.idx].kind == "sophie" && reqs[r.idx].origin != Origin::ExactRepeat)
        .collect();
    let spans: Vec<PhaseSpans> = sophie
        .iter()
        .filter_map(|r| lib(r.idx)?.spans.as_ref().map(|s| s.0))
        .collect();
    let setup_lib: f64 = spans.iter().map(PhaseSpans::setup).sum();
    let server_total: f64 = sophie.iter().filter_map(|r| r.server_ms()).sum::<f64>() * 1e-3;
    s.set(
        "serve.setup_share_est",
        if server_total > 0.0 {
            setup_lib / server_total
        } else {
            0.0
        },
        "ratio",
    );
    let lib_total: f64 = spans.iter().map(PhaseSpans::total).sum();
    s.set(
        "core.setup_share",
        if lib_total > 0.0 {
            setup_lib / lib_total
        } else {
            0.0
        },
        "ratio",
    );
    if !spans.is_empty() {
        layers::record_phase_medians(s, &spans);
    }
    let mut ops = sophie_solve::OpCounts::default();
    let mut timers: Vec<&RoundTimer> = Vec::new();
    for r in &sophie {
        if let Some(lib) = lib(r.idx) {
            ops = ops.combined(&lib.ops);
            if let Some((_, t)) = &lib.spans {
                timers.push(t);
            }
        }
    }
    layers::record_rounds(s, &timers);
    out.notes.push(format!(
        "core.* counts on serve-mix: summed over the {} SOPHIE uploads of the main phase",
        sophie.len()
    ));
    let (kernel_ns, gauss_ns) = layers::record_micro(s);
    layers::record_ops(s, &ops, kernel_ns, gauss_ns);
    out.ops = Some(ops);

    for kind in ["qubo", "max-cut", "coloring", "ldpc"] {
        let (mut c, mut d) = (Vec::new(), Vec::new());
        for r in done.iter().filter(|r| reqs[r.idx].kind == kind) {
            if let Some(lib) = lib(r.idx) {
                c.push(lib.compile_s * 1e3);
                d.push(lib.decode_s * 1e3);
            }
        }
        s.set(
            &format!("problems.compile_ms.{kind}"),
            if c.is_empty() { 0.0 } else { median(&c) },
            "ms",
        );
        s.set(
            &format!("problems.decode_ms.{kind}"),
            if d.is_empty() { 0.0 } else { median(&d) },
            "ms",
        );
    }
    let parse_us: Vec<f64> = done
        .iter()
        .map(|r| {
            let line = reqs[r.idx].args.to_frame(&format!("r{}", r.idx));
            let t = Instant::now();
            let parsed = parse_request(std::hint::black_box(&line));
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(parsed.is_ok(), "mix request does not parse: {line}");
            us
        })
        .collect();
    s.set("serve.protocol_parse_us", median(&parse_us), "us");

    match router_stats {
        Ok(stats) => {
            let num = |path: &[&str]| {
                path.iter()
                    .try_fold(&stats, |j, k| j.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let submitted = num(&["submitted"]);
            let hits = num(&["cache", "hits"]);
            s.set(
                "router.cache_hit_frac",
                if submitted > 0.0 {
                    hits / submitted
                } else {
                    0.0
                },
                "ratio",
            );
            out.notes.push(format!(
                "router.cache_hit_frac base: {hits} hits / {submitted} submitted (all phases and warm-up)"
            ));
            s.set("router.retries", num(&["retries"]), "count");
            let rejected = [
                "cluster_degraded",
                "router_busy",
                "shutting_down",
                "upstream",
                "duplicate_id",
            ]
            .iter()
            .map(|k| num(&["rejected", k]))
            .sum();
            s.set("router.rejected", rejected, "count");
        }
        Err(e) => out.errors.push(format!("router stats: {e}")),
    }
    s.set(
        "serve.queue_depth_max",
        poller.map_or(0.0, |p| p.max_depth as f64),
        "count",
    );
    let (polled, plain): (Vec<&Record>, Vec<&Record>) = done.iter().partition(|r| r.polled);
    let p50 = |rs: &[&Record]| {
        median(
            &rs.iter()
                .filter_map(|r| r.due_latency_ms())
                .collect::<Vec<_>>(),
        )
    };
    if !polled.is_empty() && !plain.is_empty() {
        s.set(
            "trace_overhead_frac",
            p50(&polled) / p50(&plain) - 1.0,
            "ratio",
        );
    }
}
