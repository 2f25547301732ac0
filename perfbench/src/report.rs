//! Turns untraced repetitions and traced twins into the named metrics, and
//! prints the traced run's layer breakdown.

use std::fmt::Write as _;

use crate::probe::{ReplayTotals, ReportTotals, Totals};
use crate::workload::{Kind, Rep, Spec, TracedRun, THREADS};

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the nearest ranks; 0 for no values.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The end-to-end metrics of the untraced repetitions, and the process's
/// peak resident set.
///
/// `agent_rounds_per_s` divides the agent-rounds of all repetitions by
/// their summed wall time: N × rounds ÷ wall seconds over the whole run.
/// `setup_s` is the median over repetitions, each of which sets up anew.
pub fn end_to_end(kind: Kind, reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let agent_rounds: f64 = reps.iter().map(Rep::agent_rounds).sum();
    let wall: f64 = reps.iter().map(|r| r.wall_for_rate(kind)).sum();
    let setup: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    vec![
        metric("agent_rounds_per_s", agent_rounds / wall, "1/s"),
        metric("setup_s", quantile(&setup, 0.5), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// The traced twins' sums.
#[derive(Debug, Default)]
struct TraceSums {
    /// Every round's lap, in nanoseconds, over all twins.
    pub laps_ns: Vec<f64>,
    /// Σ laps.
    pub lap_ns: u64,
    /// Wrapped-layer time inside the laps.
    pub in_laps: Totals,
    /// Wrapped-layer time over the whole runs.
    pub all: Totals,
    /// Sums over the round reports.
    pub reports: ReportTotals,
    /// The matching replay.
    pub replay: ReplayTotals,
    /// N × rounds executed by the twins.
    pub agent_rounds: f64,
}

impl TraceSums {
    /// Sums the twins of a workload with target `n`.
    fn new(n: u64, traced: &[TracedRun]) -> TraceSums {
        let mut sums = TraceSums::default();
        for t in traced {
            sums.laps_ns.extend(t.laps_ns.iter().map(|&ns| ns as f64));
            sums.lap_ns += t.laps_ns.iter().sum::<u64>();
            sums.in_laps.add(&t.in_laps);
            sums.all.add(&t.all);
            sums.reports.add(&t.reports);
            sums.replay.add(&t.replay);
            sums.agent_rounds += n as f64 * t.laps_ns.len() as f64;
        }
        sums
    }

    /// Lap time not spent inside a wrapped layer: matching, adversary
    /// alterations, and the engine's own bookkeeping.
    fn self_ns(&self) -> u64 {
        self.lap_ns.saturating_sub(self.in_laps.wrapped_ns())
    }
}

/// The per-layer metrics.
///
/// `dispatch_us` are empty-body `ShardPool` dispatch latencies; `attempted`
/// and `failed` count checked runs or jobs.
pub fn per_layer(
    spec: &Spec,
    reps: &[Rep],
    traced: &[TracedRun],
    dispatch_us: &[f64],
    attempted: usize,
    failed: usize,
) -> Vec<Metric> {
    let s = TraceSums::new(spec.n, traced);
    let agents = s.replay.agents as f64;
    let all = &s.all;
    let per = |ns: u64, items: u64| ratio(ns as f64, items as f64);
    let mem: Vec<f64> = traced
        .iter()
        .map(|t| t.mem_bytes as f64 / spec.n as f64)
        .collect();

    // Batch accounting from the untraced repetitions' job boundaries. The
    // engine workloads run one job per repetition on the calling thread.
    let job_s: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.runs.iter().map(|run| run.wall_s))
        .collect();
    let workers = match spec.kind {
        Kind::Sweep4k => THREADS,
        Kind::Clean4m | Kind::Churn16k => 1,
    };
    let batch_wall: f64 = reps.iter().map(|r| r.wall_s).sum();
    let busy_share = ratio(job_s.iter().sum(), workers as f64 * batch_wall);

    // Agent-rounds per second spent in `Engine::run`, traced vs untraced.
    let untraced_rounds: f64 = reps
        .iter()
        .flat_map(|r| r.runs.iter().map(|run| run.agent_rounds))
        .sum();
    let untraced_run_s: f64 = reps
        .iter()
        .flat_map(|r| r.runs.iter().map(|run| run.run_s))
        .sum();
    let trace_overhead = ratio(
        ratio(s.agent_rounds, s.lap_ns as f64 / 1e9),
        ratio(untraced_rounds, untraced_run_s),
    );

    vec![
        metric("engine.round_ms_p50", quantile(&s.laps_ns, 0.5) / 1e6, "ms"),
        metric("engine.round_ms_p90", quantile(&s.laps_ns, 0.9) / 1e6, "ms"),
        metric(
            "engine.self_ns_per_agent_round",
            ratio(s.self_ns() as f64, agents),
            "ns",
        ),
        metric("engine.mem_bytes_per_agent", quantile(&mem, 0.5), "B"),
        metric(
            "matching.sample_ns_per_agent",
            ratio(s.replay.sample_ns as f64, agents),
            "ns",
        ),
        metric(
            "matching.sample_par_ns_per_agent",
            ratio(s.replay.sample_par_ns as f64, agents),
            "ns",
        ),
        metric(
            "matching.partner_table_ns_per_agent",
            ratio(s.replay.partner_table_ns as f64, agents),
            "ns",
        ),
        metric(
            "matching.matched_fraction",
            ratio(s.replay.matched as f64, agents),
            "ratio",
        ),
        metric(
            "columns.step_ns_per_agent",
            per(all.step.ns, all.step.items),
            "ns",
        ),
        metric(
            "columns.load_ns_per_agent",
            per(all.load.ns, all.load.items),
            "ns",
        ),
        metric("columns.loads", all.load.calls as f64, "count"),
        metric(
            "columns.store_ns_per_agent",
            per(all.store.ns, all.store.items),
            "ns",
        ),
        metric("columns.stores", all.store.calls as f64, "count"),
        metric(
            "columns.apply_ns_per_round",
            per(all.apply.ns, all.apply.calls),
            "ns",
        ),
        metric("columns.splits", all.splits as f64, "count"),
        metric("columns.deaths", all.deaths as f64, "count"),
        metric(
            "adversary.act_ns_per_round",
            per(all.act.ns, all.act.calls),
            "ns",
        ),
        metric(
            "adversary.alterations",
            s.reports.alterations as f64,
            "count",
        ),
        metric(
            "metrics.observe_ns_per_agent",
            per(all.observe.ns, all.observe.items),
            "ns",
        ),
        metric("batch.job_s_p50", quantile(&job_s, 0.5), "s"),
        metric("batch.job_s_p90", quantile(&job_s, 0.9), "s"),
        metric("batch.worker_busy_share", busy_share, "ratio"),
        metric(
            "shard_pool.dispatch_us_p50",
            quantile(dispatch_us, 0.5),
            "us",
        ),
        metric(
            "shard_pool.dispatch_us_p90",
            quantile(dispatch_us, 0.9),
            "us",
        ),
        metric("trace_overhead", trace_overhead, "ratio"),
        metric(
            "failure_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ]
}

/// The traced run's lapped round time split by layer, largest first, with
/// the largest layer named. The rows add up to the lapped time exactly:
/// engine self time is the lap minus the wrapped layers.
pub fn breakdown(spec: &Spec, traced: &[TracedRun]) -> String {
    let s = TraceSums::new(spec.n, traced);
    let rounds = s.laps_ns.len().max(1) as f64;
    let w = &s.in_laps;
    let mut rows = vec![
        (
            "engine self (matching, alterations, bookkeeping)",
            s.self_ns(),
        ),
        ("columns.step (wire + step pass)", w.step.ns),
        ("columns.load", w.load.ns),
        ("columns.store", w.store.ns),
        ("columns.apply", w.apply.ns),
        ("adversary.act", w.act.ns),
        ("observer.on_round", w.observe.ns),
    ];
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    let total: u64 = rows.iter().map(|r| r.1).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: traced twin, {} rounds, {:.3} ms per lapped round",
        spec.kind.name(),
        s.laps_ns.len(),
        s.lap_ns as f64 / rounds / 1e6
    );
    for (name, ns) in &rows {
        let _ = writeln!(
            out,
            "  {name:<50} {:>10.4} ms/round {:>6.1}%",
            *ns as f64 / rounds / 1e6,
            100.0 * ratio(*ns as f64, s.lap_ns as f64)
        );
    }
    let r = &s.replay;
    let _ = writeln!(
        out,
        "  replayed matching, per round: sample {:.4} ms, sample_par {:.4} ms, partner table {:.4} ms",
        r.sample_ns as f64 / rounds / 1e6,
        r.sample_par_ns as f64 / rounds / 1e6,
        r.partner_table_ns as f64 / rounds / 1e6
    );
    let _ = writeln!(
        out,
        "  layers sum to {:.3} ms of {:.3} ms lapped; largest layer: {}",
        total as f64 / 1e6,
        s.lap_ns as f64 / 1e6,
        rows[0].0
    );
    out
}
