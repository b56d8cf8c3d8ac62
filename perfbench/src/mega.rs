//! `mega-cold`: FP5-10k (balanced) and FP6-50k (deep) from
//! `fp_tree::mega`, one and two generator seeds, solved cold at
//! `threads = nproc` with the default policies (no selection, no cache).
//! Rectangle-heavy kernels, restructuring, the intra-tree scheduler and
//! layout verification do the work.

use std::time::{Duration, Instant};

use fp_optimizer::OptimizeConfig;
use fp_tree::mega::{fp5_config, fp6_config, mega_floorplan, mega_library, MegaConfig};

use crate::report::{median, Report};
use crate::solve::{fits, measure, run_batch, Cell, Instance};
use crate::{timed_setup, Ctx};

/// Generator seeds per family in one batch (FP5, FP6). Unequal counts
/// keep the median operation inside one family.
const SEEDS_PER_FAMILY: [u64; 2] = [1, 2];
/// Most paired (nproc, 1-thread) passes behind `sched.speedup`.
const SPEEDUP_PAIRS: usize = 3;

pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut configs: Vec<MegaConfig> = Vec::new();
    for (family, base) in [fp5_config(), fp6_config()].into_iter().enumerate() {
        for i in 0..SEEDS_PER_FAMILY[family] {
            let seed = ctx.derive(100 + 10 * family as u64 + i) % 1_000_000;
            configs.push(base.clone().with_seed(seed));
        }
    }
    report.note(
        "instances",
        configs
            .iter()
            .map(MegaConfig::name)
            .collect::<Vec<_>>()
            .join(" "),
    );
    let mut setup = || -> Vec<Instance> {
        configs
            .iter()
            .map(|cfg| {
                let bench = mega_floorplan(cfg);
                Instance {
                    library: mega_library(&bench.tree, cfg),
                    tree: bench.tree,
                }
            })
            .collect()
    };
    let instances = timed_setup(&mut report, &mut setup);
    let cells_at = |threads: usize| -> Vec<Cell> {
        configs
            .iter()
            .enumerate()
            .map(|(instance, cfg)| Cell {
                instance,
                label: format!("{} threads={threads}", cfg.name()),
                config: OptimizeConfig::default().with_threads(threads),
                pinned: None,
            })
            .collect()
    };
    let cells = cells_at(ctx.nproc);
    report.note("threads", ctx.nproc);
    if trace {
        let setup_ms = report.metrics["setup_s"] * 1e3;
        report.set("tree.gen_ms", setup_ms);
    }
    let started = Instant::now();
    measure(ctx, trace, &mut report, &instances, &cells, &mut |_| {});
    timed_setup(&mut report, &mut setup);
    if trace {
        // Scheduler speed-up, from paired passes at nproc and at one
        // thread while the budget lasts (at least one pair); the pair
        // also checks that thread count never changes results.
        let serial = cells_at(1);
        let (mut parallel_s, mut serial_s) = (Vec::new(), Vec::new());
        let mut pair = Duration::ZERO;
        while parallel_s.is_empty()
            || (parallel_s.len() < SPEEDUP_PAIRS && fits(ctx, started, pair))
        {
            let pair_started = Instant::now();
            let p = run_batch(&instances, &cells, &mut report, None);
            let s = run_batch(&instances, &serial, &mut report, None);
            report.check(
                (p.areas != s.areas)
                    .then(|| format!("areas differ between 1 and {} threads", ctx.nproc)),
            );
            parallel_s.push(p.wall.as_secs_f64());
            serial_s.push(s.wall.as_secs_f64());
            pair = pair_started.elapsed();
        }
        report.set("sched.speedup", median(&serial_s) / median(&parallel_s));
    }
    Ok(report)
}
