//! `serve-inproc`: the serve layer in this process, without sockets or
//! a server child. The seeded request mix of `serve-open` is parsed with
//! `parse_request` and run by `execute` as jobs on an `Executor` of
//! `nproc` workers over one shared block cache, as `fpserved` runs it:
//! open loop at the same two absolute rates, then closed bursts. Every
//! reply is checked against a separate serial `ServeState`.
//!
//! `serve-open` drives the same layers through TCP, but on a 2-core host
//! its client and server share the cores and their hand-offs made its
//! figures spread too far to bound. This workload keeps the executor,
//! `parse_request` and `execute` under a bound.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fp_optimizer::serve::{execute, parse_json, parse_request, Json, Reply, ServeState};
use fp_optimizer::{Executor, JobClass, SharedBlockCache, Tracer};

use crate::report::{mean, median, ms, ratio, tail, Report};
use crate::serve::{
    Kind, Mix, Reference, Request, BURST, HIGH_RPS, HOT_SET, LAG_LIMIT_MS, LOW_RPS, TAIL_PCT,
};
use crate::solve::{fits, TRACE_CAPACITY};
use crate::{timed_setup, Ctx};

/// The block-cache budget. The fresh requests of a run's first seconds
/// fill it, so the cache, and with it the process's peak memory, stops
/// growing early in every run, however many bursts the host's speed
/// allows. The hot set stays cached: it is the most recently used.
const CACHE_BYTES: usize = 8 << 20;

/// The serve layer as `fpserved` assembles it: an executor of `nproc`
/// workers and a shared state with the block cache and the annealer.
/// The executor is shut down on drop.
pub struct InProcess {
    exec: Arc<Executor>,
    state: Arc<ServeState>,
}

/// What one replay observed, per request in schedule order.
pub struct Served {
    /// Completion time minus due time, in ms.
    pub latency_ms: Vec<f64>,
    /// Time inside `execute`, in ms.
    pub execute_ms: Vec<f64>,
    /// Time inside `parse_request`, in µs.
    pub parse_us: Vec<f64>,
    /// The parsed replies (`None`: the reply was not valid JSON).
    pub replies: Vec<Option<Json>>,
    /// How late each request was submitted, in ms.
    pub lag_ms: Vec<f64>,
    /// First due time to last completion.
    pub wall: Duration,
}

impl InProcess {
    /// Builds the executor and the state; each request solves its tree
    /// at one thread.
    pub fn start(nproc: usize) -> Self {
        let exec = Executor::new(nproc);
        let state = Arc::new(
            ServeState::with_cache(SharedBlockCache::new(CACHE_BYTES))
                .with_threads(1)
                .with_executor(Arc::clone(&exec))
                .with_anneal_backend(fp_anneal::serve_backend()),
        );
        InProcess { exec, state }
    }

    /// Executes every request of the hot set once, so that later hot
    /// requests hit the cache. Fails if any of them fails.
    pub fn prime(&self) -> Result<(), String> {
        for (i, body) in HOT_SET.iter().enumerate() {
            let line = format!("{{\"id\": {i}, {body}}}");
            let request = parse_request(&line).map_err(|e| format!("{line}: {e:?}"))?;
            let reply = execute(&request, i as u64, &self.state, None);
            if reply.status != 0 {
                return Err(format!("{line}: {}", reply.json));
            }
        }
        Ok(())
    }

    /// Sends events of every job to `tracer` (`None`: no tracing).
    pub fn trace(&self, tracer: Option<&Tracer>) {
        match tracer {
            Some(tracer) => self.exec.set_tracer(tracer),
            None => self.exec.clear_tracer(),
        }
    }

    /// Replays `schedule` open-loop: this thread parses each request at
    /// its due time and submits it to the executor as a serve job.
    pub fn replay(&self, schedule: &[Request]) -> Served {
        let start = Instant::now();
        let mut parse_us = Vec::with_capacity(schedule.len());
        let mut lag_ms = Vec::with_capacity(schedule.len());
        let mut handles = Vec::with_capacity(schedule.len());
        for (i, request) in schedule.iter().enumerate() {
            let due = start + request.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag_ms.push(ms(Instant::now().saturating_duration_since(due)));
            let line = request.line(i);
            let parsed_at = Instant::now();
            let parsed = parse_request(&line).expect("generated requests parse");
            parse_us.push(parsed_at.elapsed().as_secs_f64() * 1e6);
            let state = Arc::clone(&self.state);
            handles.push(self.exec.submit(JobClass::Serve, move || {
                let executed_at = Instant::now();
                let reply = execute(&parsed, i as u64, &state, None);
                (reply, executed_at, Instant::now())
            }));
        }
        let done: Vec<(Reply, Instant, Instant)> = handles.into_iter().map(|h| h.join()).collect();
        let last = done.iter().map(|(_, _, at)| *at).max().unwrap_or(start);
        let mut served = Served {
            latency_ms: Vec::with_capacity(done.len()),
            execute_ms: Vec::with_capacity(done.len()),
            parse_us,
            replies: Vec::with_capacity(done.len()),
            lag_ms,
            wall: last.saturating_duration_since(start),
        };
        for ((reply, executed_at, at), request) in done.into_iter().zip(schedule) {
            served
                .latency_ms
                .push(ms(at.saturating_duration_since(start + request.due)));
            served.execute_ms.push(ms(at - executed_at));
            served.replies.push(parse_json(&reply.json).ok());
        }
        served
    }
}

impl Drop for InProcess {
    fn drop(&mut self) {
        self.exec.shutdown();
    }
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    report.note("low_rps", LOW_RPS);
    report.note("high_rps", HIGH_RPS);
    report.note("workers", ctx.nproc);
    let mut mix = Mix::new(ctx.derive(300));
    let mut setup = || {
        let server = InProcess::start(ctx.nproc);
        server.prime().map(|()| server)
    };
    let server = timed_setup(&mut report, &mut setup)?;
    let mut reference = Reference::new();
    if trace {
        let high = mix.open(HIGH_RPS, 0.4 * ctx.budget.as_secs_f64());
        layers(ctx, &server, &high, &mut mix, &mut reference, &mut report);
        timed_setup(&mut report, &mut setup)?;
        return Ok(report);
    }

    // Open-loop phases take 15% of the budget each; bursts, which give
    // the end-to-end metrics, take the rest, so that their means cover
    // most of the run. Replies are checked as each phase ends, so the
    // run holds none.
    let phase_seconds = 0.15 * ctx.budget.as_secs_f64();
    let started = Instant::now();
    let mut lags = Vec::new();
    let mut peak = 0;
    for (label, rps) in [("low", LOW_RPS), ("high", HIGH_RPS)] {
        let schedule = mix.open(rps, phase_seconds);
        let served = server.replay(&schedule);
        reference.check(&schedule, &served.replies, &mut report);
        peak = peak.max(peak_impls(&served));
        let (tail_ms, percentile) = tail(&served.latency_ms, TAIL_PCT);
        report.note(&format!("lat_ms_p50.{label}"), median(&served.latency_ms));
        report.note(&format!("lat_ms_tail.{label}"), tail_ms);
        report.note(&format!("lat_tail_percentile.{label}"), percentile);
        lags.extend(served.lag_ms);
    }
    let (lag_tail, _) = tail(&lags, 90);
    report.note("gen_lag_ms_tail", lag_tail);
    report.note("valid", lag_tail <= LAG_LIMIT_MS);
    let (mut walls, mut latencies) = (Vec::new(), Vec::new());
    while walls.len() < 3 || started.elapsed() < ctx.budget {
        let schedule = mix.burst(BURST);
        let served = server.replay(&schedule);
        reference.check(&schedule, &served.replies, &mut report);
        peak = peak.max(peak_impls(&served));
        walls.push(served.wall.as_secs_f64());
        latencies.push(served.latency_ms);
    }
    report.set("batch_s", mean(&walls));
    report.set_op_latency(&latencies);
    report.set("peak_impls", peak as f64);
    report.set("peak_rss_mb", crate::report::peak_rss_mb("self"));
    report.note("bursts", walls.len());
    timed_setup(&mut report, &mut setup)?;
    Ok(report)
}

/// The largest `peak_impls` of the optimize replies in `served`.
fn peak_impls(served: &Served) -> u64 {
    served
        .replies
        .iter()
        .flatten()
        .filter_map(|r| r.get("peak_impls").and_then(Json::as_u64))
        .max()
        .unwrap_or(0)
}

/// The serve and executor per-layer metrics: `schedule` replayed with
/// the executor traced gives parse and execute times per method, queue
/// wait and busy share; then untraced and traced bursts alternate while
/// the budget lasts (at least one pair) for the tracing overhead. Every
/// reply is checked against `reference`.
pub fn layers(
    ctx: &Ctx,
    server: &InProcess,
    schedule: &[Request],
    mix: &mut Mix,
    reference: &mut Reference,
    report: &mut Report,
) -> Served {
    let started = Instant::now();
    let tracer = Tracer::with_capacity(TRACE_CAPACITY);
    let before = server.state.cache().stats();
    server.trace(Some(&tracer));
    let served = server.replay(schedule);
    server.trace(None);
    let summary = tracer.drain().summary();
    let after = server.state.cache().stats();
    reference.check(schedule, &served.replies, report);

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut burst_dropped = 0;
    let mut pair = Duration::ZERO;
    while untraced.is_empty() || fits(ctx, started, pair) {
        let pair_started = Instant::now();
        for (tracing, walls) in [(None, &mut untraced), (Some(&tracer), &mut traced)] {
            let burst = mix.burst(BURST);
            server.trace(tracing);
            let burst_served = server.replay(&burst);
            server.trace(None);
            reference.check(&burst, &burst_served.replies, report);
            walls.push(burst_served.wall.as_secs_f64());
        }
        burst_dropped += tracer.drain().dropped;
        pair = pair_started.elapsed();
    }

    report.set("serve.parse_us", median(&served.parse_us));
    for kind in Kind::ALL {
        let times: Vec<f64> = served
            .execute_ms
            .iter()
            .zip(schedule)
            .filter(|(_, r)| r.kind == kind)
            .map(|(t, _)| *t)
            .collect();
        report.set(kind.execute_metric(), median(&times));
    }
    let lossless = summary.dropped == 0;
    let from_trace = |value: f64| if lossless { value } else { -1.0 };
    report.set(
        "exec.queue_wait_ms",
        from_trace(ratio(
            summary.job_queue_ns as f64 / 1e6,
            summary.jobs as f64,
        )),
    );
    report.set(
        "exec.busy_share",
        from_trace(ratio(
            summary.job_ns as f64 / 1e9,
            ctx.nproc as f64 * served.wall.as_secs_f64(),
        )),
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.set(
        "serve.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    let errors = served
        .replies
        .iter()
        .filter(|r| {
            r.as_ref()
                .and_then(|r| r.get("status"))
                .and_then(Json::as_u64)
                != Some(0)
        })
        .count();
    report.set("serve.errors", errors as f64);
    report.set("gen.lag_ms", tail(&served.lag_ms, 90).0);
    report.set("trace.dropped", (summary.dropped + burst_dropped) as f64);
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&traced) / median(&untraced) - 1.0),
    );
    report.note("overhead_pairs", untraced.len());
    served
}
