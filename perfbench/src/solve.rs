//! One verified solve, timed from outside, and the per-layer totals the
//! batch workloads (`paper-rl`, `mega-cold`) accumulate over solves.

use std::time::{Duration, Instant};

use fp_optimizer::{OptimizeConfig, Optimizer, RunStats, Trace, TraceEvent, Tracer};
use fp_tree::{layout, FloorplanTree, ModuleLibrary};

use crate::report::{mean, median, ms, ratio, Report};

/// Events per trace ring buffer. Large enough that the biggest instance
/// (FP6-50k) fits without loss; a lossy trace is still detected.
pub const TRACE_CAPACITY: usize = 1 << 21;

/// Most untraced/traced pass pairs behind `trace.overhead_pct`; one
/// pass pair differed by ±25% on a shared host.
const OVERHEAD_PAIRS: usize = 3;

/// A solve followed by layout realization and validation.
pub struct Solved {
    /// The reported area.
    pub area: u128,
    /// The run's own statistics.
    pub stats: RunStats,
    /// Wall time of the whole operation (solve + verify).
    pub wall: Duration,
    /// Wall time of `layout::realize` + `Layout::validate`.
    pub verify: Duration,
    /// Why the result is wrong, if it is.
    pub problem: Option<String>,
}

/// Solves `tree`/`library` under `config` (no cache) and checks that the
/// assignment realizes to a valid layout of exactly the reported area.
pub fn solve_verified(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
    tracer: Option<&Tracer>,
) -> Solved {
    let started = Instant::now();
    let mut optimizer = Optimizer::new(tree, library).config(config);
    if let Some(tracer) = tracer {
        optimizer = optimizer.tracer(tracer);
    }
    let outcome = match optimizer.run_best() {
        Ok(outcome) => outcome,
        Err(e) => {
            return Solved {
                area: 0,
                stats: RunStats::default(),
                wall: started.elapsed(),
                verify: Duration::ZERO,
                problem: Some(format!("solve failed: {e}")),
            }
        }
    };
    let verify_started = Instant::now();
    let problem = verify_layout(tree, library, &outcome.assignment, outcome.area);
    let verify = verify_started.elapsed();
    Solved {
        area: outcome.area,
        stats: outcome.stats,
        wall: started.elapsed(),
        verify,
        problem,
    }
}

/// Realizes `assignment` and checks it is a valid layout of `area`.
pub fn verify_layout(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    assignment: &layout::Assignment,
    area: u128,
) -> Option<String> {
    match layout::realize(tree, library, assignment) {
        Err(e) => Some(format!("layout does not realize: {e}")),
        Ok(placed) => match placed.validate() {
            Some(why) => Some(format!("layout invalid: {why}")),
            None if placed.area() != area => Some(format!(
                "layout area {} differs from reported area {area}",
                placed.area()
            )),
            None => None,
        },
    }
}

/// Per-layer totals over a set of solves.
#[derive(Default)]
pub struct LayerTotals {
    run: Duration,
    selection: Duration,
    verify: Duration,
    generated: u64,
    r_reductions: usize,
    l_reductions: usize,
    joined_out: u64,
    solves_dense: u64,
    solves_monge: u64,
    monge_fallbacks: u64,
    steals: u64,
    replay_discards: u64,
    split_inlines: u64,
    other_ns: u64,
    profiled_run_ns: u64,
    dropped: u64,
}

impl LayerTotals {
    /// Adds one solve and the trace drained right after it.
    pub fn add(&mut self, solved: &Solved, trace: &Trace) {
        let stats = &solved.stats;
        self.run += stats.elapsed;
        self.selection += stats.selection_time;
        self.verify += solved.verify;
        self.generated += stats.generated;
        self.r_reductions += stats.r_reductions;
        self.l_reductions += stats.l_reductions;
        let summary = trace.summary();
        self.dropped += summary.dropped;
        self.solves_dense += summary.selections_dense;
        self.solves_monge += summary.selections_monge;
        self.monge_fallbacks += summary.monge_fallbacks;
        self.steals += summary.steals;
        self.replay_discards += summary.replay_discards;
        self.split_inlines += summary.split_inlines;
        self.joined_out += trace
            .events
            .iter()
            .map(|r| match r.event {
                TraceEvent::JoinDone { out_len, .. } => u64::from(out_len),
                _ => 0,
            })
            .sum::<u64>();
        let profile = trace.profile();
        self.other_ns += profile.other_ns();
        self.profiled_run_ns += profile.run_ns;
    }

    /// Writes the per-layer metrics. Counters that exist only in the
    /// trace are refused (-1) when the trace dropped events; the rest
    /// come from `RunStats` and timings taken outside the program.
    pub fn write(&self, report: &mut Report) {
        let run_ms = ms(self.run);
        report.set("optimizer.run_ms", run_ms);
        report.set("core.selection_ms", ms(self.selection));
        report.set("core.selection_share", ratio(ms(self.selection), run_ms));
        report.set("core.r_reductions", self.r_reductions as f64);
        report.set("core.l_reductions", self.l_reductions as f64);
        report.set("shape.generated", self.generated as f64);
        report.set(
            "shape.gen_per_s",
            ratio(self.generated as f64, self.run.as_secs_f64()),
        );
        report.set("tree.verify_ms", ms(self.verify));
        report.set("trace.dropped", self.dropped as f64);
        let lossless = self.dropped == 0;
        let from_trace = |value: f64| if lossless { value } else { -1.0 };
        report.set("cspp.solves_dense", from_trace(self.solves_dense as f64));
        report.set("cspp.solves_monge", from_trace(self.solves_monge as f64));
        report.set(
            "cspp.monge_fallbacks",
            from_trace(self.monge_fallbacks as f64),
        );
        report.set("sched.steals", from_trace(self.steals as f64));
        report.set(
            "sched.replay_discards",
            from_trace(self.replay_discards as f64),
        );
        report.set("sched.split_inlines", from_trace(self.split_inlines as f64));
        report.set(
            "shape.survival_ratio",
            from_trace(ratio(self.joined_out as f64, self.generated as f64)),
        );
        report.set(
            "optimizer.other_share",
            from_trace(ratio(self.other_ns as f64, self.profiled_run_ns as f64)),
        );
    }
}

/// Times `restructure` and `SoaTree::from_tree` on `tree`, in ms.
pub fn tree_build_ms(tree: &FloorplanTree) -> (f64, f64) {
    let started = Instant::now();
    let bin = fp_tree::restructure::restructure(tree).expect("generated trees are valid");
    let restructure = ms(started.elapsed());
    std::hint::black_box(bin);
    let started = Instant::now();
    let soa = fp_tree::soa::SoaTree::from_tree(tree).expect("generated trees are valid");
    let soa_ms = ms(started.elapsed());
    std::hint::black_box(soa);
    (restructure, soa_ms)
}

/// A generated floorplan instance.
pub struct Instance {
    /// The topology.
    pub tree: FloorplanTree,
    /// The module library.
    pub library: ModuleLibrary,
}

/// One operation of a batch: solve an instance under a configuration.
pub struct Cell {
    /// Index into the instance list.
    pub instance: usize,
    /// Names the cell in failure messages.
    pub label: String,
    /// The configuration, with its thread count pinned.
    pub config: OptimizeConfig,
    /// `(area, M)` pinned from a reference build, when known.
    pub pinned: Option<(u128, usize)>,
}

/// What one pass over the cell list measured.
pub struct Batch {
    /// Wall time of the pass.
    pub wall: Duration,
    /// Per-cell wall time (solve + verify), in ms.
    pub op_ms: Vec<f64>,
    /// The largest `M` of the pass.
    pub peak: usize,
    /// Per-cell reported area.
    pub areas: Vec<u128>,
}

/// Solves and verifies every cell once, recording each in `report`.
/// With `traced`, each solve runs under the tracer and its drained trace
/// is added to the totals.
pub fn run_batch(
    instances: &[Instance],
    cells: &[Cell],
    report: &mut Report,
    mut traced: Option<(&Tracer, &mut LayerTotals)>,
) -> Batch {
    let started = Instant::now();
    let mut op_ms = Vec::with_capacity(cells.len());
    let mut peak = 0;
    let mut areas = Vec::with_capacity(cells.len());
    for cell in cells {
        let Instance { tree, library } = &instances[cell.instance];
        let tracer = traced.as_ref().map(|(tracer, _)| *tracer);
        let solved = solve_verified(tree, library, &cell.config, tracer);
        if let Some((tracer, totals)) = traced.as_mut() {
            totals.add(&solved, &tracer.drain());
        }
        op_ms.push(ms(solved.wall));
        peak = peak.max(solved.stats.peak_impls);
        areas.push(solved.area);
        let problem = solved.problem.or_else(|| match cell.pinned {
            Some(pin) if pin != (solved.area, solved.stats.peak_impls) => Some(format!(
                "(area, M) = ({}, {}), pinned {pin:?}",
                solved.area, solved.stats.peak_impls
            )),
            _ => None,
        });
        report.check(problem.map(|p| format!("{}: {p}", cell.label)));
    }
    Batch {
        wall: started.elapsed(),
        op_ms,
        peak,
        areas,
    }
}

/// Runs a batch workload. Untraced: whole passes over `cells` until the
/// budget would be exceeded (at least one), with `between` run after
/// every pass, reporting the end-to-end metrics as means over passes.
/// Traced: alternating untraced and traced passes, up to
/// [`OVERHEAD_PAIRS`] pairs while the budget lasts (at least one),
/// reporting the last traced pass's per-layer metrics and the tracing
/// overhead from the medians.
pub fn measure(
    ctx: &crate::Ctx,
    trace: bool,
    report: &mut Report,
    instances: &[Instance],
    cells: &[Cell],
    between: &mut dyn FnMut(&mut Report),
) {
    let started = Instant::now();
    if !trace {
        let mut walls = Vec::new();
        let mut op_ms = Vec::new();
        let mut peak = 0;
        loop {
            let batch = run_batch(instances, cells, report, None);
            walls.push(batch.wall.as_secs_f64());
            op_ms.push(batch.op_ms);
            peak = peak.max(batch.peak);
            if walls.len() == 1 {
                // The first pass's peak: later passes raise the process's
                // high-water mark as the heap fragments, and how many
                // there are depends on the host's speed.
                report.set("peak_rss_mb", crate::report::peak_rss_mb("self"));
            }
            between(report);
            if !fits(ctx, started, batch.wall) {
                break;
            }
        }
        report.set("batch_s", mean(&walls));
        report.set_op_latency(&op_ms);
        report.set("peak_impls", peak as f64);
        report.note("batches", walls.len());
        report.note(
            "batch_walls",
            walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        return;
    }
    let tracer = Tracer::with_capacity(TRACE_CAPACITY);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut totals = LayerTotals::default();
    let mut pair = Duration::ZERO;
    while untraced_s.is_empty() || (untraced_s.len() < OVERHEAD_PAIRS && fits(ctx, started, pair)) {
        let pair_started = Instant::now();
        untraced_s.push(run_batch(instances, cells, report, None).wall.as_secs_f64());
        totals = LayerTotals::default();
        let traced = run_batch(instances, cells, report, Some((&tracer, &mut totals)));
        traced_s.push(traced.wall.as_secs_f64());
        pair = pair_started.elapsed();
    }
    totals.write(report);
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_s) / median(&untraced_s) - 1.0),
    );
    let (mut restructure, mut soa) = (0.0, 0.0);
    for instance in instances {
        let (r, s) = tree_build_ms(&instance.tree);
        restructure += r;
        soa += s;
    }
    report.set("tree.restructure_ms", restructure);
    report.set("tree.soa_ms", soa);
}

/// Whether a round as long as `round` still ends within the budget when
/// it starts now, `started` being the start of the measured phase.
pub fn fits(ctx: &crate::Ctx, started: Instant, round: Duration) -> bool {
    started.elapsed() + round <= ctx.budget
}
