//! Runs one workload and prints its metrics.
//!
//! ```text
//! popstab-perfbench --workload <clean-4m|churn-16k|sweep-4k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every invocation does the same work: untraced repetitions for
//! `--seconds` (at least three), then the traced twin of the first
//! repetition, then a `ShardPool` dispatch probe. The last line of standard
//! output is one JSON object; `--trace 0` puts the end-to-end metrics in
//! it, `--trace 1` the per-layer metrics. The layer breakdown and every
//! failed check go to standard error.
//!
//! Exit codes: 0 when every check passed, 1 when a check failed (the JSON
//! line says `"correct": false`), 2 when the arguments are bad or a metric
//! cannot be measured on this host (no JSON line).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use popstab_perfbench::probe::dispatch_latency_us;
use popstab_perfbench::report::{breakdown, end_to_end, per_layer, Metric};
use popstab_perfbench::workload::{run_rep, run_traced, Kind, Spec, THREADS};

/// Repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Empty-body dispatches the `ShardPool` probe times.
const DISPATCH_SAMPLES: usize = 4000;

const USAGE: &str = "usage: popstab-perfbench --workload <clean-4m|churn-16k|sweep-4k> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(bad("not a whole number of seconds ≥ 1")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("must be 0 or 1")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    let kb: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("cannot parse VmHWM {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("popstab-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::bench(args.kind);

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let rep = reps.len() as u64;
        let r = run_rep(&spec, &spec.run_seeds(args.seed, rep), rep == 0);
        eprintln!(
            "rep {rep}: {:.0} agent-rounds/s, set-up {:.6} s, wall {:.3} s",
            r.agent_rounds() / r.wall_for_rate(spec.kind),
            r.setup_s(),
            r.wall_s
        );
        reps.push(r);
    }
    // Read before the traced twin runs: the figure describes the untraced
    // workload alone.
    let peak_rss_mb = match peak_rss_mb() {
        Ok(mb) => mb,
        Err(e) => {
            eprintln!("popstab-perfbench: peak_rss_mb cannot be measured: {e}");
            return ExitCode::from(2);
        }
    };

    let traced = run_traced(&spec, &spec.run_seeds(args.seed, 0));
    let dispatch_us = dispatch_latency_us(THREADS, DISPATCH_SAMPLES);

    // The twin must end where the untraced first repetition ended; its own
    // check failures count against that repetition's run or job.
    for (run, twin) in reps[0].runs.iter_mut().zip(&traced) {
        let untraced = run.state.as_ref().map(|s| (s.agents, s.fnv));
        if run.state.as_ref() != Some(&twin.state) {
            run.failures.push(format!(
                "traced twin ended in a different agents() state: (agents, fnv) {:?} vs untraced {untraced:?}",
                (twin.state.agents, twin.state.fnv)
            ));
        }
        run.failures.extend(twin.failures.iter().cloned());
    }
    let runs = reps.iter().flat_map(|r| &r.runs);
    let attempted = runs.clone().count();
    let failed = runs.clone().filter(|r| !r.failures.is_empty()).count();
    for run in runs {
        for reason in &run.failures {
            eprintln!(
                "popstab-perfbench: FAILED {} seed {}: {reason}",
                spec.kind.name(),
                run.seed
            );
        }
    }

    eprint!("{}", breakdown(&spec, &traced));
    let metrics = if args.trace {
        per_layer(&spec, &reps, &traced, &dispatch_us, attempted, failed)
    } else {
        end_to_end(spec.kind, &reps, peak_rss_mb)
    };
    for m in &metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
