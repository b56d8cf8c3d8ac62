//! `session-edit`: one `fp_session::Session` on FP5-10k at
//! one thread, with a block cache that holds the whole instance. A
//! seeded stream alternates an edit step (`update_module` on one module,
//! then `optimize`, which rebuilds the joins on the module's root path)
//! and a resolve step (an unchanged re-`optimize`, all cache hits).

use std::cell::RefCell;
use std::time::Instant;

use fp_geom::{Coord, Rect};
use fp_optimizer::{OptimizeConfig, Optimizer, Tracer};
use fp_prng::StdRng;
use fp_session::Session;
use fp_tree::mega::{fp5_config, mega_floorplan, mega_library};
use fp_tree::{soft_module, Module};

use crate::report::{mean, median, ms, ratio, tail, Report};
use crate::solve::{verify_layout, TRACE_CAPACITY};
use crate::{timed_setup, Ctx};

/// Block-cache budget: far above what FP5-10k occupies, so nothing the
/// stream needs is ever evicted.
const CACHE_BYTES: usize = 1 << 30;
/// Edit/resolve pairs per batch; `batch_s` is the median batch time.
const EDITS_PER_BATCH: usize = 16;
/// One edit in this many is re-solved cold, without the cache, and must
/// give the same area.
const REFERENCE_EVERY: u64 = 8;

/// Timings of one batch.
#[derive(Default)]
struct BatchTimes {
    wall_ms: f64,
    update_us: Vec<f64>,
    edit_ms: Vec<f64>,
    optimize_ms: Vec<f64>,
    resolve_ms: Vec<f64>,
    run_ms: f64,
    verify_ms: f64,
    hits: usize,
    misses: usize,
    resolve_hits: usize,
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let cfg = fp5_config();
    report.note("instance", cfg.name());
    let config = OptimizeConfig::default().with_threads(1);

    let gen_ms = RefCell::new(Vec::new());
    let mut setup = || {
        let started = Instant::now();
        let bench = mega_floorplan(&cfg);
        let library = mega_library(&bench.tree, &cfg);
        gen_ms.borrow_mut().push(ms(started.elapsed()));
        let mut session = Session::open(bench.tree, library, config.clone(), CACHE_BYTES);
        let primed = session.optimize().expect("the generated instance solves");
        (session, primed.outcome.stats.peak_impls)
    };
    let (mut session, prime_peak) = timed_setup(&mut report, &mut setup);

    let before = session.stats().cache;
    let mut rng = StdRng::seed_from_u64(ctx.derive(201));
    let tracer = Tracer::with_capacity(TRACE_CAPACITY);
    let started = Instant::now();
    let mut batches: Vec<(bool, BatchTimes)> = Vec::new();
    let mut dropped = 0;
    let mut edit_no = 0u64;
    let mut rss = 0.0;
    while batches.len() < 2 || started.elapsed() < ctx.budget {
        // Traced runs alternate untraced and traced batches, so the
        // tracing overhead is measured on the same stream.
        let traced = trace && batches.len() % 2 == 1;
        if traced {
            session.set_tracer(tracer.clone());
        }
        let mut times = BatchTimes::default();
        for _ in 0..EDITS_PER_BATCH {
            edit_no += 1;
            edit_step(
                &mut session,
                cfg.impls,
                &mut rng,
                edit_no,
                &mut times,
                &mut report,
            );
        }
        if traced {
            session.clear_tracer();
            dropped += tracer.drain().dropped;
        }
        batches.push((traced, times));
        if batches.len() == 2 {
            // Read after a fixed number of edits: each edit adds blocks
            // to the cache, and how many edits a run makes depends on
            // the host's speed.
            rss = crate::report::peak_rss_mb("self");
        }
    }
    timed_setup(&mut report, &mut setup);

    let plain: Vec<&BatchTimes> = batches.iter().filter(|(t, _)| !t).map(|(_, b)| b).collect();
    let all: Vec<&BatchTimes> = batches.iter().map(|(_, b)| b).collect();
    let collect = |pick: fn(&BatchTimes) -> &Vec<f64>, from: &[&BatchTimes]| -> Vec<f64> {
        from.iter().flat_map(|b| pick(b).iter().copied()).collect()
    };
    let per_batch = |pick: fn(&BatchTimes) -> f64, from: &[&BatchTimes]| -> f64 {
        median(&from.iter().map(|b| pick(b)).collect::<Vec<_>>())
    };
    let resolve_ms = collect(|b| &b.resolve_ms, &plain);
    let (resolve_tail, resolve_label) = tail(&resolve_ms, 90);
    report.note("resolve_ms_p50", median(&resolve_ms));
    report.note("resolve_ms_tail", resolve_tail);
    report.note("resolve_tail_percentile", resolve_label);
    report.note("batches", batches.len());
    if !trace {
        let walls: Vec<f64> = plain.iter().map(|b| b.wall_ms / 1e3).collect();
        report.set("batch_s", mean(&walls));
        let edits: Vec<Vec<f64>> = plain.iter().map(|b| b.edit_ms.clone()).collect();
        report.set_op_latency(&edits);
        report.set("peak_impls", prime_peak as f64);
        report.set("peak_rss_mb", rss);
        return Ok(report);
    }

    let traced: Vec<&BatchTimes> = batches.iter().filter(|(t, _)| *t).map(|(_, b)| b).collect();
    report.set(
        "trace.overhead_pct",
        100.0 * (per_batch(|b| b.wall_ms, &traced) / per_batch(|b| b.wall_ms, &plain) - 1.0),
    );
    report.set("trace.dropped", dropped as f64);
    report.set("tree.gen_ms", median(&gen_ms.borrow()));
    report.set("optimizer.run_ms", per_batch(|b| b.run_ms, &all));
    report.set("tree.verify_ms", per_batch(|b| b.verify_ms, &all));
    report.set(
        "session.update_us",
        median(&collect(|b| &b.update_us, &all)),
    );
    report.set(
        "session.optimize_ms",
        median(&collect(|b| &b.optimize_ms, &all)),
    );
    report.set(
        "session.resolve_ms",
        median(&collect(|b| &b.resolve_ms, &all)),
    );
    let hits: usize = all.iter().map(|b| b.hits).sum();
    let misses: usize = all.iter().map(|b| b.misses).sum();
    let resolve_hits: usize = all.iter().map(|b| b.resolve_hits).sum();
    let per_batch_count = |count: u64| count as f64 / all.len() as f64;
    report.set("cache.hits", per_batch_count(hits as u64));
    report.set("cache.misses", per_batch_count(misses as u64));
    report.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    report.set(
        "cache.hit_us",
        ratio(
            1e3 * collect(|b| &b.resolve_ms, &all).iter().sum::<f64>(),
            resolve_hits as f64,
        ),
    );
    report.set(
        "cache.rebuilt_joins",
        ratio(misses as f64, (all.len() * EDITS_PER_BATCH) as f64),
    );
    let stats = session.stats();
    report.set(
        "memo.insertions",
        per_batch_count(stats.cache.insertions - before.insertions),
    );
    report.set(
        "memo.evictions",
        per_batch_count(stats.cache.evictions - before.evictions),
    );
    report.set("memo.bytes", stats.cache_bytes as f64);
    Ok(report)
}

/// A new module drawn as `mega_library` draws one: three in four hard
/// and rotatable, the rest soft with `impls` shapes. Every edit keeps
/// the instance's module mix, so later batches solve the same kind of
/// instance as earlier ones however many edits a run makes.
fn replacement(edit_no: u64, impls: usize, rng: &mut StdRng) -> Module {
    let area = (50.0 * 100.0f64.powf(rng.gen_range(0.0..1.0))).round() as u64;
    if rng.gen_bool(0.75) {
        let aspect = rng.gen_range(1.0..3.0f64);
        let w = ((area as f64 * aspect).sqrt().round() as Coord).max(1);
        let h = area.div_ceil(w).max(1);
        Module::hard(format!("edit{edit_no}"), Rect::new(w, h), true)
    } else {
        soft_module(format!("edit{edit_no}"), area, 2.5, impls.clamp(2, 16), rng)
    }
}

/// One edit → optimize → verify step, then one all-hit resolve, both
/// checked; every `REFERENCE_EVERY`-th edit (seeded) is also solved cold
/// without the cache.
fn edit_step(
    session: &mut Session,
    impls: usize,
    rng: &mut StdRng,
    edit_no: u64,
    times: &mut BatchTimes,
    report: &mut Report,
) {
    let id = rng.gen_range(0..session.library().len());
    let module = replacement(edit_no, impls, rng);
    let check_cold = rng.gen_range(0..REFERENCE_EVERY) == 0;

    let started = Instant::now();
    let edited = session.update_module(id, module);
    let updated = started.elapsed();
    let optimized = session.optimize();
    let optimize_done = started.elapsed();
    let (edit_area, problem) = match (edited, optimized) {
        (Err(e), _) => (0, Some(format!("update_module({id}): {e}"))),
        (_, Err(e)) => (0, Some(format!("optimize after edit {edit_no}: {e}"))),
        (Ok(_), Ok(run)) => {
            let outcome = run.outcome;
            times.run_ms += ms(outcome.stats.elapsed);
            times.hits += outcome.stats.cache_hits;
            times.misses += outcome.stats.cache_misses;
            let verify_started = Instant::now();
            let problem = verify_layout(
                session.tree(),
                session.library(),
                &outcome.assignment,
                outcome.area,
            );
            times.verify_ms += ms(verify_started.elapsed());
            (outcome.area, problem)
        }
    };
    let edit_ms = ms(started.elapsed());
    times.update_us.push(updated.as_secs_f64() * 1e6);
    times.optimize_ms.push(ms(optimize_done - updated));
    times.edit_ms.push(edit_ms);
    times.wall_ms += edit_ms;
    let problem = problem.or_else(|| {
        if !check_cold {
            return None;
        }
        let cold = Optimizer::new(session.tree(), session.library())
            .config(&OptimizeConfig::default().with_threads(1))
            .run_best();
        match cold {
            Ok(cold) if cold.area == edit_area => None,
            Ok(cold) => Some(format!(
                "edit {edit_no}: cached area {edit_area}, cold area {}",
                cold.area
            )),
            Err(e) => Some(format!("edit {edit_no}: cold reference failed: {e}")),
        }
    });
    report.check(problem);

    let started = Instant::now();
    let resolved = session.optimize();
    let resolve_ms = ms(started.elapsed());
    times.resolve_ms.push(resolve_ms);
    times.wall_ms += resolve_ms;
    let problem = match resolved {
        Err(e) => Some(format!("resolve after edit {edit_no}: {e}")),
        Ok(run) => {
            let stats = &run.outcome.stats;
            times.run_ms += ms(stats.elapsed);
            times.hits += stats.cache_hits;
            times.resolve_hits += stats.cache_hits;
            if stats.cache_misses != 0 || run.outcome.area != edit_area {
                Some(format!(
                    "resolve after edit {edit_no}: {} misses, area {} vs {edit_area}",
                    stats.cache_misses, run.outcome.area
                ))
            } else {
                None
            }
        }
    };
    report.check(problem);
}
