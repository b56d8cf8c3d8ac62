//! `serve-open`: the real `fpserved` over TCP loopback with
//! `--workers = nproc`. One client (this process) with `nproc`
//! connections sends a seeded open-loop schedule at two fixed absolute
//! rates, then closed bursts of the same mix. Every request is timed
//! from its due time, and every reply is checked against the answer the
//! serve layer gives in-process for the same request.
//!
//! The rates are absolute, not a share of measured capacity: a rate
//! relative to capacity would change the offered load whenever capacity
//! changes, and the latency at that load would then not be comparable
//! between two versions of the program.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fp_optimizer::serve::{execute, parse_json, parse_request, Json, ServeState};
use fp_optimizer::SharedBlockCache;
use fp_prng::StdRng;

use crate::inproc::{layers, InProcess};
use crate::report::{mean, median, ms, ratio, tail, Report};
use crate::{timed_setup, Ctx};

/// The light open-loop rate, requests per second.
pub const LOW_RPS: f64 = 20.0;
/// The moderate open-loop rate, requests per second: a third to a half
/// of the capacity the ladder finds on a 2-core host, whose speed varies
/// by half between minutes. Nearer saturation, latency varied by 40-50%
/// between runs there.
pub const HIGH_RPS: f64 = 60.0;
/// Requests per closed burst; `batch_s` is the mean burst time.
pub const BURST: usize = 120;
/// The percentile of the latency tails: the middle of the slowest tenth
/// of the mix, the `anneal` requests. The 90th would fall on the border
/// between the anneals and the rest, and flip between the two.
pub const TAIL_PCT: usize = 95;
/// Rates of the traced run's capacity ladder (`serve.max_rps`).
const LADDER: [f64; 8] = [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0];
/// Seconds per ladder rung.
const LADDER_SECONDS: f64 = 1.5;
/// Tail-latency limit a ladder rung must meet.
const TAIL_LIMIT_MS: f64 = 100.0;
/// Generator lag (p90) beyond which the run is marked invalid: the
/// client, not the server, fell behind the schedule.
pub const LAG_LIMIT_MS: f64 = 5.0;
/// The server's block-cache budget.
pub const CACHE_BYTES: usize = 256 << 20;
/// How long a reply may take before it counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Repeated optimize requests: after the first, each is a cache hit.
pub const HOT_SET: [&str; 6] = [
    r#""method": "optimize", "builtin": "fp1", "n": 6, "seed": 1"#,
    r#""method": "optimize", "builtin": "fp1", "n": 6, "seed": 2"#,
    r#""method": "optimize", "builtin": "fp2", "n": 5, "seed": 1"#,
    r#""method": "optimize", "builtin": "fp2", "n": 5, "seed": 2"#,
    r#""method": "optimize", "builtin": "fp3", "n": 4, "seed": 1"#,
    r#""method": "optimize", "builtin": "fp4", "n": 3, "seed": 1"#,
];

/// The request kinds of the mix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Optimize,
    Pareto,
    Anneal,
    Ping,
    Stats,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Optimize,
        Kind::Pareto,
        Kind::Anneal,
        Kind::Ping,
        Kind::Stats,
    ];

    pub fn execute_metric(self) -> &'static str {
        match self {
            Kind::Optimize => "serve.execute_ms.optimize",
            Kind::Pareto => "serve.execute_ms.pareto",
            Kind::Anneal => "serve.execute_ms.anneal",
            Kind::Ping => "serve.execute_ms.ping",
            Kind::Stats => "serve.execute_ms.stats",
        }
    }
}

/// One request of a schedule.
pub struct Request {
    pub kind: Kind,
    /// The request without its id: equal bodies get equal answers.
    pub body: String,
    /// Due offset from the start of the phase.
    pub due: Duration,
}

impl Request {
    pub fn line(&self, id: usize) -> String {
        format!("{{\"id\": {id}, {}}}", self.body)
    }
}

/// The request mix, dealt from shuffled decks of 20 so every block of 20
/// consecutive requests has the same composition: 9 hot optimizes, 4
/// fresh optimizes (a new module set, so a cache miss), 2 pareto, 2
/// anneal, 2 ping, 1 stats.
pub struct Mix {
    rng: StdRng,
    deck: Vec<u8>,
}

impl Mix {
    const DECK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5];

    pub fn new(seed: u64) -> Self {
        Mix {
            rng: StdRng::seed_from_u64(seed),
            deck: Vec::new(),
        }
    }

    fn next(&mut self, due: Duration) -> Request {
        if self.deck.is_empty() {
            self.deck = Self::DECK.to_vec();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let rng = &mut self.rng;
        let (kind, body) = match self.deck.pop().expect("deck refilled above") {
            0 => (
                Kind::Optimize,
                HOT_SET[rng.gen_range(0..HOT_SET.len())].to_owned(),
            ),
            1 => {
                let builtin = ["fp1", "fp2"][rng.gen_range(0..2usize)];
                let seed = 1000 + rng.gen_range(0..1_000_000_000u64);
                (
                    Kind::Optimize,
                    format!(
                        r#""method": "optimize", "builtin": "{builtin}", "n": 5, "seed": {seed}"#
                    ),
                )
            }
            2 => (
                Kind::Pareto,
                format!(
                    r#""method": "pareto", "builtin": "fp1", "n": 4, "nets": 8, "net_seed": {}"#,
                    rng.gen_range(1..4u64)
                ),
            ),
            3 => (
                Kind::Anneal,
                format!(
                    r#""method": "anneal", "builtin": "fp1", "chains": 2, "moves": 200, "anneal_seed": {}"#,
                    rng.gen_range(1..3u64)
                ),
            ),
            4 => (Kind::Ping, r#""method": "ping""#.to_owned()),
            _ => (Kind::Stats, r#""method": "stats""#.to_owned()),
        };
        Request { kind, body, due }
    }

    /// A Poisson arrival schedule at `rps` for `seconds`.
    pub fn open(&mut self, rps: f64, seconds: f64) -> Vec<Request> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.next_f64()).ln() / rps;
            if t >= seconds {
                return out;
            }
            out.push(self.next(Duration::from_secs_f64(t)));
        }
    }

    /// A burst: `n` requests, all due at once.
    pub fn burst(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next(Duration::ZERO)).collect()
    }
}

/// A running `fpserved`, shut down and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `fpserved` with the scheduling environment cleared and
    /// waits until it answers a ping.
    fn start(ctx: &Ctx) -> Result<Server, String> {
        let mut child = Command::new(&ctx.fpserved)
            .args(["--tcp", "127.0.0.1:0", "--workers"])
            .arg(ctx.nproc.to_string())
            .args(["--cache-bytes", &CACHE_BYTES.to_string()])
            .env_remove("FP_THREADS")
            .env_remove("FP_LRED_WORKERS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.fpserved.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            line.strip_prefix("fpserved: listening on ")
                .map(str::to_owned)
        });
        // Keep draining stderr so the server never blocks on it.
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        let server = Server {
            child,
            addr: addr.unwrap_or_default(),
            stderr: Some(stderr),
        };
        if server.addr.is_empty() {
            return Err("fpserved did not announce its address".to_owned());
        }
        let pong = server.call(r#"{"id": 0, "method": "ping"}"#)?;
        if pong.get("pong").and_then(Json::as_bool) != Some(true) {
            return Err("fpserved did not answer ping".to_owned());
        }
        Ok(server)
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(stream)
    }

    /// One request on a fresh connection, waiting for its reply.
    fn call(&self, line: &str) -> Result<Json, String> {
        let mut stream = self.connect()?;
        writeln!(stream, "{line}").map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| format!("read: {e}"))?;
        parse_json(reply.trim()).map_err(|e| format!("bad reply {reply:?}: {e:?}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.call(r#"{"id": 0, "method": "shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// What one phase observed, per request in schedule order.
struct Phase {
    /// Reply time minus due time, in ms (`None`: no reply).
    latency_ms: Vec<Option<f64>>,
    /// The parsed replies.
    replies: Vec<Option<Json>>,
    /// Generator lag per request, in ms.
    lag_ms: Vec<f64>,
    /// First send to last reply.
    wall: Duration,
}

/// Sends `schedule` over `conns` connections, request `i` on connection
/// `i % conns` at its due time, and collects every reply.
fn run_phase(server: &Server, schedule: &[Request], conns: usize) -> Result<Phase, String> {
    let mut streams: Vec<TcpStream> = (0..conns)
        .map(|_| server.connect())
        .collect::<Result<_, _>>()?;
    let readers: Vec<BufReader<TcpStream>> = streams
        .iter()
        .map(|s| s.try_clone().map(BufReader::new))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("clone socket: {e}"))?;
    let start = Instant::now();
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let (arrivals, written) = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, mut reader)| {
                let expected = (c..schedule.len()).step_by(conns).count();
                scope.spawn(move || {
                    let mut got = Vec::with_capacity(expected);
                    let mut line = String::new();
                    while got.len() < expected {
                        line.clear();
                        if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                            break;
                        }
                        let at = Instant::now();
                        if let Ok(reply) = parse_json(line.trim()) {
                            if let Some(id) = reply.get("id").and_then(Json::as_u64) {
                                got.push((id as usize, at, reply));
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut last_write_end = start;
        let mut written = Ok(());
        for (i, request) in schedule.iter().enumerate() {
            let due = start + request.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let write_start = Instant::now();
            lag_ms.push(ms(
                write_start.saturating_duration_since(due.max(last_write_end))
            ));
            let line = request.line(i) + "\n";
            if let Err(e) = streams[i % conns].write_all(line.as_bytes()) {
                written = Err(format!("write: {e}"));
                // Unblock the readers: no more replies are coming.
                for stream in &streams {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
                break;
            }
            last_write_end = Instant::now();
        }
        let arrivals: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader threads do not panic"))
            .collect();
        (arrivals, written)
    });
    written?;
    let mut latency_ms = vec![None; schedule.len()];
    let mut replies = vec![None; schedule.len()];
    let mut last = start;
    for (id, at, reply) in arrivals {
        if id < schedule.len() {
            latency_ms[id] = Some(ms(at.saturating_duration_since(start + schedule[id].due)));
            replies[id] = Some(reply);
            last = last.max(at);
        }
    }
    Ok(Phase {
        latency_ms,
        replies,
        lag_ms,
        wall: last - start,
    })
}

/// The part of a successful reply that must equal the reference.
fn answer(kind: Kind, reply: &Json) -> Result<Vec<Json>, String> {
    let status = reply.get("status").and_then(Json::as_u64);
    if status != Some(0) {
        return Err(format!("status {status:?}"));
    }
    let fields: &[&str] = match kind {
        Kind::Optimize | Kind::Anneal => &["area"],
        Kind::Pareto => &["front", "hypervolume"],
        Kind::Ping => &["pong"],
        Kind::Stats => &[],
    };
    fields
        .iter()
        .map(|f| reply.get(f).cloned().ok_or_else(|| format!("no {f}")))
        .collect()
}

/// In-process reference answers for every distinct request body, from
/// a state whose block cache holds nothing: every answer is solved cold.
pub struct Reference {
    state: ServeState,
    answers: HashMap<String, Result<Vec<Json>, String>>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            state: ServeState::with_cache(SharedBlockCache::new(0))
                .with_threads(1)
                .with_anneal_backend(fp_anneal::serve_backend()),
            answers: HashMap::new(),
        }
    }

    /// Checks the reply to every request of `schedule`, recording each
    /// request in `report`.
    pub fn check(&mut self, schedule: &[Request], replies: &[Option<Json>], report: &mut Report) {
        for (i, request) in schedule.iter().enumerate() {
            let problem = match &replies[i] {
                None => Some("no reply".to_owned()),
                Some(reply) => {
                    let state = &self.state;
                    let expected = self.answers.entry(request.body.clone()).or_insert_with(|| {
                        let parsed =
                            parse_request(&request.line(0)).map_err(|e| format!("{e:?}"))?;
                        let reply = execute(&parsed, 1, state, None);
                        parse_json(&reply.json)
                            .map_err(|e| format!("{e:?}"))
                            .and_then(|j| answer(request.kind, &j))
                    });
                    match (answer(request.kind, reply), expected) {
                        (Err(e), _) => Some(e),
                        (_, Err(e)) => Some(format!("reference failed: {e}")),
                        (Ok(got), Ok(want)) if &got != want => {
                            Some(format!("answer {got:?}, reference {want:?}"))
                        }
                        _ => None,
                    }
                }
            };
            report.check(problem.map(|p| format!("request {{{}}}: {p}", request.body)));
        }
    }
}

/// Latencies of the requests that got a reply.
fn replied(phase: &Phase) -> Vec<f64> {
    phase.latency_ms.iter().flatten().copied().collect()
}

/// Records `<prefix>_p50.<label>`-style notes and returns `(p50, tail)`.
fn latency_notes(report: &mut Report, label: &str, phase: &Phase) -> (f64, f64) {
    let samples = replied(phase);
    let (p50, (tail_ms, percentile)) = (median(&samples), tail(&samples, TAIL_PCT));
    report.note(&format!("lat_ms_p50.{label}"), p50);
    report.note(&format!("lat_ms_tail.{label}"), tail_ms);
    report.note(&format!("lat_tail_percentile.{label}"), percentile);
    report.note(&format!("requests.{label}"), samples.len());
    (p50, tail_ms)
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    report.note("low_rps", LOW_RPS);
    report.note("high_rps", HIGH_RPS);
    report.note("workers", ctx.nproc);
    let budget = ctx.budget.as_secs_f64();
    // Open-loop phases take 30% of the budget each; bursts take the rest.
    let phase_seconds = 0.3 * budget;
    let mut mix = Mix::new(ctx.derive(300));
    let (low, high) = (
        mix.open(LOW_RPS, phase_seconds),
        mix.open(HIGH_RPS, phase_seconds),
    );
    let mut setup = || Server::start(ctx);
    let server = timed_setup(&mut report, &mut setup)?;
    let started = Instant::now();
    let conns = ctx.nproc;
    let low_phase = run_phase(&server, &low, conns)?;
    let high_phase = run_phase(&server, &high, conns)?;
    let rss = crate::report::peak_rss_mb(&server.child.id().to_string());
    let mut bursts = Vec::new();
    while bursts.len() < 3 || started.elapsed() < ctx.budget {
        let schedule = mix.burst(BURST);
        let phase = run_phase(&server, &schedule, conns)?;
        bursts.push((schedule, phase));
    }
    let stats = server.call(r#"{"id": 0, "method": "stats"}"#)?;
    timed_setup(&mut report, &mut setup)?;

    let mut reference = Reference::new();
    reference.check(&low, &low_phase.replies, &mut report);
    reference.check(&high, &high_phase.replies, &mut report);
    for (schedule, phase) in &bursts {
        reference.check(schedule, &phase.replies, &mut report);
    }
    let lags: Vec<f64> = low_phase
        .lag_ms
        .iter()
        .chain(&high_phase.lag_ms)
        .copied()
        .collect();
    let (lag_tail, _) = tail(&lags, 90);
    report.note("gen_lag_ms_tail", lag_tail);
    report.note("valid", lag_tail <= LAG_LIMIT_MS);
    let (low_p50, low_tail) = latency_notes(&mut report, "low", &low_phase);
    let (high_p50, high_tail) = latency_notes(&mut report, "high", &high_phase);
    let peak = low_phase
        .replies
        .iter()
        .chain(&high_phase.replies)
        .chain(bursts.iter().flat_map(|(_, p)| &p.replies))
        .flatten()
        .filter_map(|r| r.get("peak_impls").and_then(Json::as_u64))
        .max()
        .unwrap_or(0);

    if !trace {
        let walls: Vec<f64> = bursts.iter().map(|(_, p)| p.wall.as_secs_f64()).collect();
        report.set("batch_s", mean(&walls));
        let latencies: Vec<Vec<f64>> = bursts.iter().map(|(_, p)| replied(p)).collect();
        report.set_op_latency(&latencies);
        report.set("peak_impls", peak as f64);
        report.set("peak_rss_mb", rss);
        report.note("bursts", bursts.len());
        return Ok(report);
    }

    // The in-process layers first: the TCP figures below replace the
    // in-process ones of the same name.
    let in_process = InProcess::start(ctx.nproc);
    in_process.prime()?;
    let served = layers(
        ctx,
        &in_process,
        &high,
        &mut mix,
        &mut reference,
        &mut report,
    );
    drop(in_process);
    report.set("serve.loop_ms", low_p50 - median(&served.execute_ms));
    report.set("serve.lat_ms_p50.low", low_p50);
    report.set("serve.lat_ms_tail.low", low_tail);
    report.set("serve.lat_ms_p50.high", high_p50);
    report.set("serve.lat_ms_tail.high", high_tail);
    report.set("gen.lag_ms", lag_tail);
    let counter = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    report.set(
        "serve.cache_hit_ratio",
        ratio(
            counter("cache_hits"),
            counter("cache_hits") + counter("cache_misses"),
        ),
    );
    report.set("serve.shed", counter("shed"));
    let errors = [&low_phase, &high_phase]
        .into_iter()
        .chain(bursts.iter().map(|(_, p)| p))
        .flat_map(|p| &p.replies)
        .flatten()
        .filter(|r| r.get("status").and_then(Json::as_u64) != Some(0))
        .count();
    report.set("serve.errors", errors as f64);
    let max_rps = ladder(ctx, &server, &mut mix, &mut reference, &mut report)?;
    report.set("serve.max_rps", max_rps);
    Ok(report)
}

/// The highest ladder rate whose tail latency meets [`TAIL_LIMIT_MS`]
/// with every reply in, and whose last quarter's median latency is not
/// above its first quarter's by more than a quarter of that limit (no
/// growing backlog). 0 when no rung passes.
fn ladder(
    ctx: &Ctx,
    server: &Server,
    mix: &mut Mix,
    reference: &mut Reference,
    report: &mut Report,
) -> Result<f64, String> {
    let mut best = 0.0;
    for rps in LADDER {
        let schedule = mix.open(rps, LADDER_SECONDS);
        let phase = run_phase(server, &schedule, ctx.nproc)?;
        reference.check(&schedule, &phase.replies, report);
        let samples = replied(&phase);
        let quarter = samples.len() / 4;
        let growing = quarter > 0
            && median(&samples[samples.len() - quarter..]) - median(&samples[..quarter])
                > TAIL_LIMIT_MS / 4.0;
        if samples.len() < schedule.len() || tail(&samples, TAIL_PCT).0 > TAIL_LIMIT_MS || growing {
            break;
        }
        best = rps;
    }
    Ok(best)
}
