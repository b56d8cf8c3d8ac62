//! `paper-rl`: cells of the paper's Tables 3–4 where selection engages,
//! all under the 800 000-implementation cap, cold, uncached, one thread:
//!
//! - Table 3 case 3: FP3 at `N = 28`, module set 103, `K1 ∈ {28, 42, 56}`;
//! - Table 4 cases 1 and 2: FP4 at `N = 16`, module sets 201 and 202,
//!   `K1 = 32`, `K2 = 1000`, prefilter 10 000.
//!
//! Table 4's cases 3–4 (FP4 at `N = 40`) are left out. One such solve
//! takes 3–5 s on a shared 2-core host, so a run fitted only three
//! passes, and their median followed the host's speed from one run to
//! the next: ten runs spread 0.3–0.4 of their median. Without them a
//! pass takes about 2.5 s and a run makes about ten. `batch_s` is their
//! mean and `setup_s` the median of set-ups timed between them, so both
//! cover the whole run. `L_Selection` still engages in both FP4 cells:
//! it cuts `M` there (Table 4).
//!
//! The instances are the paper's and do not depend on the workload
//! seed: the paper's other module sets differ in solve time by up to a
//! quarter, which swamped the run-to-run spread. The cells run in the
//! tables' order in every pass. A seeded order made the heap's layout,
//! and with it `peak_rss_mb`, differ from seed to seed. Every cell's
//! area and `M` must equal the values pinned below, which were produced
//! by the reference build: the optimizer's output is byte-identical by
//! contract, so any change is a correctness failure.

use std::time::Duration;

use fp_optimizer::OptimizeConfig;
use fp_select::LReductionPolicy;
use fp_tree::generators::{fp3, fp4, module_library};

use crate::report::Report;
use crate::solve::{measure, Cell, Instance};
use crate::{timed_setup, timed_setup_for, Ctx};

/// The paper's emulated machine memory, in implementations.
const PAPER_MEMORY_CAP: usize = 800_000;
/// FP3: implementations per module, module set, and per `K1` the pinned
/// `(area, M)`.
const FP3_N: usize = 28;
const FP3_SEED: u64 = 103;
const FP3_CELLS: [(usize, (u128, usize)); 3] = [
    (28, (32054, 72473)),
    (42, (31537, 117_480)),
    (56, (31525, 170_801)),
];
/// FP4: per case `(N, module set, K1)` and the pinned `(area, M)`, all at
/// `K2 = 1000` with prefilter 10 000.
const FP4_CASES: [(usize, u64, usize, (u128, usize)); 2] =
    [(16, 201, 32, (66495, 57496)), (16, 202, 32, (72372, 50894))];
const FP4_K2: usize = 1000;
const FP4_PREFILTER: usize = 10_000;
/// Set-up time timed after every pass, so that `setup_s` is a median
/// over the same stretch of the run as `batch_s`.
const SETUP_BETWEEN_PASSES: Duration = Duration::from_millis(100);

pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = || {
        let (fp3, fp4) = (fp3(), fp4());
        let mut instances = vec![Instance {
            library: module_library(&fp3.tree, FP3_N, FP3_SEED),
            tree: fp3.tree,
        }];
        for (n, seed, _, _) in FP4_CASES {
            instances.push(Instance {
                library: module_library(&fp4.tree, n, seed),
                tree: fp4.tree.clone(),
            });
        }
        instances
    };
    let instances = timed_setup(&mut report, &mut setup);
    let capped = OptimizeConfig::default()
        .with_memory_limit(Some(PAPER_MEMORY_CAP))
        .with_threads(1);
    let mut cells = Vec::new();
    for (k1, pin) in FP3_CELLS {
        cells.push(Cell {
            instance: 0,
            label: format!("FP3 N={FP3_N} seed={FP3_SEED} K1={k1}"),
            config: capped.clone().with_r_selection(k1),
            pinned: Some(pin),
        });
    }
    let policy = LReductionPolicy::new(FP4_K2).with_prefilter(FP4_PREFILTER);
    for (i, (n, seed, k1, pin)) in FP4_CASES.into_iter().enumerate() {
        cells.push(Cell {
            instance: 1 + i,
            label: format!("FP4 N={n} seed={seed} K1={k1} K2={FP4_K2}"),
            config: capped
                .clone()
                .with_r_selection(k1)
                .with_l_selection(policy.clone()),
            pinned: Some(pin),
        });
    }
    if trace {
        let setup_ms = report.metrics["setup_s"] * 1e3;
        report.set("tree.gen_ms", setup_ms);
    }
    let mut between = |report: &mut Report| {
        timed_setup_for(report, &mut setup, 1, SETUP_BETWEEN_PASSES);
    };
    measure(ctx, trace, &mut report, &instances, &cells, &mut between);
    Ok(report)
}
