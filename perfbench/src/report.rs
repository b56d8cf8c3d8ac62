//! Metric names, sample statistics, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run. Every workload
/// reports every one of them, each in that workload's own terms (see
/// README.md).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_impls", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run of every workload in
/// `BENCHMARK.json`. A layer the workload does not exercise reads 0; a
/// trace-only counter refused because the trace was lossy reads -1.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("optimizer.run_ms", "ms"),
    ("optimizer.other_share", "ratio"),
    ("core.selection_ms", "ms"),
    ("core.selection_share", "ratio"),
    ("core.r_reductions", "count"),
    ("core.l_reductions", "count"),
    ("cspp.solves_dense", "count"),
    ("cspp.solves_monge", "count"),
    ("cspp.monge_fallbacks", "count"),
    ("shape.generated", "count"),
    ("shape.gen_per_s", "1/s"),
    ("shape.survival_ratio", "ratio"),
    ("tree.gen_ms", "ms"),
    ("tree.restructure_ms", "ms"),
    ("tree.soa_ms", "ms"),
    ("tree.verify_ms", "ms"),
    ("sched.speedup", "ratio"),
    ("sched.steals", "count"),
    ("sched.replay_discards", "count"),
    ("sched.split_inlines", "count"),
    ("session.update_us", "us"),
    ("session.optimize_ms", "ms"),
    ("session.resolve_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_us", "us"),
    ("cache.rebuilt_joins", "count"),
    ("memo.insertions", "count"),
    ("memo.evictions", "count"),
    ("memo.bytes", "bytes"),
    ("serve.parse_us", "us"),
    ("serve.execute_ms.optimize", "ms"),
    ("serve.execute_ms.pareto", "ms"),
    ("serve.execute_ms.anneal", "ms"),
    ("serve.execute_ms.ping", "ms"),
    ("serve.execute_ms.stats", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.errors", "count"),
    ("exec.queue_wait_ms", "ms"),
    ("exec.busy_share", "ratio"),
    ("gen.lag_ms", "ms"),
    ("trace.dropped", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics of the `serve-open` workload's traced run.
pub const SERVE_LAYERS: [(&str, &str); 20] = [
    ("serve.parse_us", "us"),
    ("serve.execute_ms.optimize", "ms"),
    ("serve.execute_ms.pareto", "ms"),
    ("serve.execute_ms.anneal", "ms"),
    ("serve.execute_ms.ping", "ms"),
    ("serve.execute_ms.stats", "ms"),
    ("serve.loop_ms", "ms"),
    ("serve.lat_ms_p50.low", "ms"),
    ("serve.lat_ms_tail.low", "ms"),
    ("serve.lat_ms_p50.high", "ms"),
    ("serve.lat_ms_tail.high", "ms"),
    ("serve.max_rps", "1/s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("exec.queue_wait_ms", "ms"),
    ("exec.busy_share", "ratio"),
    ("gen.lag_ms", "ms"),
    ("trace.dropped", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run of one workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (solves, edits, requests).
    pub attempted: u64,
    /// Operations that failed, were shed, or gave a wrong answer.
    pub failed: u64,
    /// Human-readable descriptions of the first few failures.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra facts recorded on the `env` line (tail percentiles, rates).
    pub notes: BTreeMap<String, String>,
    /// Every set-up time of the run, in seconds.
    pub setup_s: Vec<f64>,
}

impl Report {
    /// Records one checked operation; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a note for the `env` line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_owned(), value.to_string());
    }

    /// Sets `op_ms_p50` and `op_ms_tail` from the operation times of a
    /// run's batches: the means over batches of each batch's median and
    /// of each batch's p90 ([`batch_tail`]). A run makes as many batches
    /// as the host's speed allows, and the median of all its operations
    /// would fall between two cells' times in one run and inside one
    /// cell's in the next. A batch's own median is always the same cell.
    /// And on a shared host a few slow seconds fill the top decile of a
    /// whole run but leave the typical batch alone.
    pub fn set_op_latency(&mut self, batches_ms: &[Vec<f64>]) {
        let medians: Vec<f64> = batches_ms.iter().map(|b| median(b)).collect();
        let tails: Vec<f64> = batches_ms.iter().map(|b| batch_tail(b)).collect();
        self.set("op_ms_p50", mean(&medians));
        self.set("op_ms_tail", mean(&tails));
        self.note("op_samples", batches_ms.iter().map(Vec::len).sum::<usize>());
        self.note("op_tail_percentile", "mean batch p90");
    }
}

/// The mean of `samples` (0 when empty). Run-level figures are means
/// over a run's batches: the host switches between a fast and a slow
/// state for seconds at a time, and the median of a run's batches
/// jumped between the two where the mean follows the time spent in
/// each.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median of `samples` (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail of `samples` and its label: the `pct`-th percentile
/// (nearest rank) when at least ten samples lie beyond it, else the
/// maximum. The percentile is fixed rather than the highest one the
/// sample count allows, because a run's sample count varies with the
/// host's speed and a percentile that moved with it would make the
/// metric jump between runs.
#[must_use]
pub fn tail(samples: &[f64], pct: usize) -> (f64, String) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (n * pct).div_ceil(100).max(1);
    match n {
        0 => (0.0, "none".to_owned()),
        _ if n - rank >= 10 => (sorted[rank - 1], format!("p{pct}")),
        _ => (sorted[n - 1], "max".to_owned()),
    }
}

/// The nearest-rank 90th percentile of one batch's operation times: the
/// slowest operation in batches of up to nine.
#[must_use]
pub fn batch_tail(op_ms: &[f64]) -> f64 {
    let mut sorted = op_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * 9).div_ceil(10);
    rank.checked_sub(1).map_or(0.0, |i| sorted[i])
}

/// Milliseconds in `d`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of process `pid` (`self` for this one), in MB,
/// from the kernel's `VmHWM` high-water mark.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// where `metrics` holds every name of `names` (0 where unmeasured).
#[must_use]
pub fn result_line(report: &Report, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = report
                .metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples, 90), (90.0, "p90".to_owned()));
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples, 90), (900.0, "p90".to_owned()));
        assert_eq!(tail(&samples, 95), (950.0, "p95".to_owned()));
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&samples, 90), (99.0, "max".to_owned()));
        assert_eq!(batch_tail(&[3.0, 1.0, 2.0]), 3.0);
        let batch: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(batch_tail(&batch), 15.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
