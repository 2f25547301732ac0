//! Experiment harness CLI.
//!
//! ```sh
//! experiments [--quick] [--jobs N] [--round-threads N] [--n LIST] <id>...
//! experiments all
//! experiments --list
//! experiments scenario <name>...
//! experiments snapshot <name> --at <round> -o <file>
//! experiments resume <file> [--rounds N] [--trace]
//! experiments run-recoverable <name> --rounds N [--every K] [--keep M]
//!             [--checkpoints BASE] [--kill-at R] [--trace]
//! ```
//!
//! Ids (see DESIGN.md §4): `stability` (T1), `lemmas` (T2–T6), `drift`
//! (F1), `attack` (F2), `ksweep` (F3), `baselines` (F4 + T8), `gamma`
//! (F5), `accounting` (T7), `healing` (F6), `estimator` (F7),
//! `equilibrium` (F7b), `bench` (B1 → `BENCH_engine.json`).
//!
//! `--list` prints the named scenario registry (protocol, adversary,
//! config summary) and `scenario <name>...` runs registry entries by name.
//!
//! `--jobs N` caps the worker count of every `BatchRunner` trial fan-out
//! (default: one worker per core, divided by `--round-threads` when that
//! is above 1). `--round-threads N` shards the step phase *inside* every
//! protocol round across N workers (default: serial rounds). Both are
//! parsed once into an [`Options`] value handed to every experiment; no
//! environment variable is read. By the determinism contracts the figures
//! are identical for every value of both flags — CI diffs
//! `--round-threads 1` against `--round-threads 4` to prove it.
//!
//! `--n LIST` (comma-separated population targets, each a power of four
//! ≥ 1024) overrides the `bench` experiment's scale plan — e.g.
//! `experiments --n 1048576,4194304 bench` for a large-N-only sweep.
//! Other experiments ignore it.
//!
//! `snapshot <name> --at R -o FILE` runs registry entry `<name>` to round
//! `R` and writes the engine state as a versioned snapshot; `resume FILE
//! --rounds N` restores it (rebuilding protocol and adversary from the
//! entry the snapshot is labeled with) and runs `N` more rounds. By the
//! snapshot contract a resumed run is bit-identical to the uninterrupted
//! one, which the CI snapshot-determinism leg enforces via `--trace`
//! (golden-format per-round lines on stdout, nothing else).
//!
//! `run-recoverable <name> --rounds N` is the crash-safe driver: it
//! auto-checkpoints registry entry `<name>` every `--every K` rounds (default
//! 10) into a rotation of `--keep M` files (default 3) under `--checkpoints
//! BASE` (default `<name>.ckpt`), and on startup scans that rotation for the
//! latest *valid* checkpoint — corrupt or truncated files are reported to
//! stderr and skipped — resuming from it instead of starting over. A run
//! that crashes mid-way (simulate one with `--kill-at R`, which exits with
//! code 42 after round `R`) and is re-invoked therefore finishes with the
//! exact trace suffix of an uninterrupted run, which the CI fault-injection
//! leg diffs byte for byte.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use popstab_bench::{experiments, Options};
use popstab_sim::{BatchRunner, Checkpoint, OnRound, RoundReport, RunSpec, Snapshot, Tee, Threads};

/// (id, description, runner) — the runner receives the parsed command line.
type Experiment = (&'static str, &'static str, fn(&Options));

const IDS: &[Experiment] = &[
    (
        "stability",
        "T1: stability with no adversary",
        experiments::stability::run,
    ),
    (
        "lemmas",
        "T2-T6: bookkeeping lemmas 3-7",
        experiments::lemmas::run,
    ),
    (
        "drift",
        "F1: restoring drift field (Lemma 8)",
        experiments::drift::run,
    ),
    (
        "attack",
        "F2: stability under the attack suite",
        experiments::attack::run,
    ),
    (
        "ksweep",
        "F3: adversary tolerance threshold",
        experiments::ksweep::run,
    ),
    (
        "baselines",
        "F4/T8: baseline failure modes",
        experiments::baselines::run,
    ),
    (
        "gamma",
        "F5: matching-fraction robustness",
        experiments::gamma::run,
    ),
    (
        "accounting",
        "T7: states/memory/message accounting",
        experiments::accounting::run,
    ),
    ("healing", "F6: trauma recovery", experiments::healing::run),
    (
        "estimator",
        "F7: variance-based size estimation",
        experiments::estimator::run,
    ),
    (
        "equilibrium",
        "F7b: finite-size equilibrium",
        experiments::equilibrium::run,
    ),
    (
        "malice",
        "F8: malicious agents (extended model)",
        experiments::malice::run,
    ),
    (
        "ablation",
        "F9: constant ablations",
        experiments::ablation::run,
    ),
    (
        "bench",
        "B1: engine throughput -> BENCH_engine.json",
        experiments::bench::run,
    ),
];

fn usage() {
    eprintln!(
        "usage: experiments [--quick] [--jobs N] [--round-threads N] [--n LIST] <id>... | all"
    );
    eprintln!("       experiments --list | scenario <name>...");
    eprintln!("       experiments snapshot <name> --at <round> -o <file>");
    eprintln!("       experiments resume <file> [--rounds N] [--trace]");
    eprintln!(
        "       experiments run-recoverable <name> --rounds N [--every K] [--keep M] \
         [--checkpoints BASE] [--kill-at R] [--trace]"
    );
    eprintln!("experiments:");
    for (id, desc, _) in IDS {
        eprintln!("  {id:<12} {desc}");
    }
}

/// `experiments snapshot <name> --at R -o FILE`.
fn cmd_snapshot(name: &str, at: u64, out: Option<&str>, threads: Threads) -> ExitCode {
    let Some(out) = out else {
        eprintln!("snapshot needs an output path (-o FILE)");
        return ExitCode::FAILURE;
    };
    let Some(entry) = popstab_bench::scenario::find(name) else {
        eprintln!("unknown scenario `{name}`; see `experiments --list`");
        return ExitCode::FAILURE;
    };
    let Some(hook) = entry.snapshot else {
        eprintln!("scenario `{name}` has no snapshot support (non-PopulationStability state)");
        return ExitCode::FAILURE;
    };
    let mut engine = hook().engine();
    engine.run(RunSpec::rounds(at).threads(threads), &mut ());
    let mut snap = engine.snapshot();
    snap.label = name.to_string();
    if let Err(e) = snap.write_to_file(out) {
        eprintln!("writing snapshot to `{out}`: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "snapshot {name}: round={} population={} -> {out}",
        snap.round(),
        snap.population()
    );
    ExitCode::SUCCESS
}

/// One golden-format trace line: the per-round format the CI determinism
/// legs byte-diff across thread counts, resumes and crash recoveries.
fn print_trace_line(r: &RoundReport) {
    println!(
        "{} {} {} {} {} {} {} {} {}",
        r.round,
        r.population_before,
        r.population_after,
        r.inserted,
        r.deleted,
        r.modified,
        r.matched,
        r.splits,
        r.deaths
    );
}

/// `experiments run-recoverable <name> --rounds N [--every K] [--keep M]
/// [--checkpoints BASE] [--kill-at R] [--trace]`.
#[allow(clippy::too_many_arguments)]
fn cmd_run_recoverable(
    name: &str,
    rounds: u64,
    every: u64,
    keep: usize,
    checkpoints: Option<&str>,
    kill_at: Option<u64>,
    trace: bool,
    threads: Threads,
) -> ExitCode {
    let Some(entry) = popstab_bench::scenario::find(name) else {
        eprintln!("unknown scenario `{name}`; see `experiments --list`");
        return ExitCode::FAILURE;
    };
    let Some(hook) = entry.snapshot else {
        eprintln!("scenario `{name}` has no snapshot support (non-PopulationStability state)");
        return ExitCode::FAILURE;
    };
    let base = checkpoints
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{name}.ckpt")));
    // Crash recovery: scan the rotation for the newest checkpoint that
    // decodes cleanly. Corrupt or truncated slots are reported and skipped
    // — a half-written file from the crash must never poison the resume.
    let scan = Checkpoint::scan(&base, keep);
    for (path, err) in &scan.skipped {
        eprintln!("skipping checkpoint `{}`: {err}", path.display());
    }
    let (mut engine, from) = match scan.best {
        Some((path, snap)) => {
            if snap.label != name {
                eprintln!(
                    "checkpoint `{}` is labeled `{}`, not `{name}`; refusing to resume",
                    path.display(),
                    snap.label
                );
                return ExitCode::FAILURE;
            }
            let scenario = hook();
            match popstab_sim::Engine::restore(scenario.protocol, scenario.adversary, &snap) {
                Ok(engine) => {
                    eprintln!(
                        "resuming `{name}` from `{}` at round {}",
                        path.display(),
                        snap.round()
                    );
                    (engine, snap.round())
                }
                Err(e) => {
                    eprintln!("restoring `{}`: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None => (hook().engine(), 0),
    };
    if from >= rounds {
        eprintln!("`{name}` already ran {from} of {rounds} rounds; nothing to do");
        return ExitCode::SUCCESS;
    }
    let mut checkpoint = Checkpoint::every(every, &base).keep(keep).label(name);
    let spec = RunSpec::rounds(rounds - from).threads(threads);
    // The checkpoint observer runs *first* in the tee: when `--kill-at`
    // fires mid-round-callback, the round's checkpoint (if due) is already
    // on disk, exactly as it would be in a real crash after a write.
    engine.run(
        spec,
        &mut Tee(
            &mut checkpoint,
            OnRound(|r: &RoundReport| {
                if trace {
                    print_trace_line(r);
                }
                if kill_at.is_some_and(|k| r.round + 1 >= k) {
                    // Simulated crash: abandon the process without unwinding,
                    // like a SIGKILL would. 42 lets harnesses tell scheduled
                    // crashes from real failures.
                    std::process::exit(42);
                }
            }),
        ),
    );
    for (round, err) in checkpoint.errors() {
        eprintln!("checkpoint at round {round} failed: {err}");
    }
    if !trace {
        println!(
            "run-recoverable {name}: from_round={from} rounds={} population={} checkpoints={}",
            rounds - from,
            engine.population(),
            checkpoint.written()
        );
    }
    ExitCode::SUCCESS
}

/// `experiments resume FILE [--rounds N] [--trace]`.
fn cmd_resume(file: &str, rounds: u64, trace: bool, threads: Threads) -> ExitCode {
    let snap = match Snapshot::read_from_file(file) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("reading snapshot `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(entry) = popstab_bench::scenario::find(&snap.label) else {
        eprintln!(
            "snapshot `{file}` is labeled `{}`, which is not a registry scenario",
            snap.label
        );
        return ExitCode::FAILURE;
    };
    let Some(hook) = entry.snapshot else {
        eprintln!("scenario `{}` has no snapshot support", snap.label);
        return ExitCode::FAILURE;
    };
    let scenario = hook();
    let mut engine =
        match popstab_sim::Engine::restore(scenario.protocol, scenario.adversary, &snap) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("restoring `{file}`: {e}");
                return ExitCode::FAILURE;
            }
        };
    let spec = RunSpec::rounds(rounds).threads(threads);
    if trace {
        // Golden-trace format, one line per executed round, nothing else:
        // the CI snapshot-determinism leg byte-diffs this output.
        engine.run(spec, &mut OnRound(print_trace_line));
    } else {
        let outcome = engine.run(spec, &mut ());
        println!(
            "resumed {}: from_round={} rounds={} population={} halted={}",
            snap.label,
            snap.round(),
            outcome.executed,
            engine.population(),
            match outcome.halted {
                None => "no".to_string(),
                Some(reason) => format!("{reason:?}"),
            }
        );
    }
    ExitCode::SUCCESS
}

/// Parses a `--jobs`, `--round-threads`, `--every` or `--keep` value;
/// `None` on anything that is not a positive integer.
fn parse_positive(value: Option<&str>) -> Option<usize> {
    value?.parse::<usize>().ok().filter(|&n| n > 0)
}

/// Parses a `--n` scale list for the bench experiment; `None` unless every
/// comma-separated entry is a power of four ≥ 1024 (the targets
/// [`Params::for_target`](popstab_core::params::Params) accepts).
fn parse_bench_ns(value: Option<&str>) -> Option<Vec<u64>> {
    let ns: Vec<u64> = value?
        .split(',')
        .map(|part| part.trim().parse::<u64>().ok())
        .collect::<Option<_>>()?;
    (!ns.is_empty() && ns.iter().all(|&n| experiments::bench::valid_target(n))).then_some(ns)
}

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut jobs: Option<usize> = None;
    let mut round_threads: Option<usize> = None;
    let mut at: u64 = 0;
    let mut out: Option<String> = None;
    let mut rounds: u64 = 0;
    let mut trace = false;
    let mut every: u64 = 10;
    let mut keep: usize = 3;
    let mut checkpoints: Option<String> = None;
    let mut kill_at: Option<u64> = None;
    let mut selected: Vec<String> = Vec::new();
    // `--jobs=N`, `--round-threads=N` and `--n=LIST` are the flag and its
    // value in one word: split them so one match arm parses both spellings.
    let mut args = std::env::args()
        .skip(1)
        .flat_map(|arg| match arg.split_once('=') {
            Some((flag @ ("--jobs" | "--round-threads" | "--n"), value)) => {
                vec![flag.to_string(), value.to_string()]
            }
            _ => vec![arg],
        });
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => opts.quick = true,
            "--trace" => trace = true,
            "--at" | "--rounds" | "--kill-at" => {
                let Some(n) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("{arg} needs a non-negative integer");
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--at" => at = n,
                    "--rounds" => rounds = n,
                    _ => kill_at = Some(n),
                }
            }
            "--every" | "--keep" => {
                let Some(n) = parse_positive(args.next().as_deref()) else {
                    eprintln!("{arg} needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if arg == "--every" {
                    every = n as u64;
                } else {
                    keep = n;
                }
            }
            "--checkpoints" => {
                let Some(path) = args.next() else {
                    eprintln!("--checkpoints needs a base path");
                    return ExitCode::FAILURE;
                };
                checkpoints = Some(path);
            }
            "--out" | "-o" => {
                let Some(path) = args.next() else {
                    eprintln!("{arg} needs a file path");
                    return ExitCode::FAILURE;
                };
                out = Some(path);
            }
            "--list" => {
                popstab_bench::scenario::print_list();
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--jobs" | "-j" => {
                jobs = parse_positive(args.next().as_deref());
                if jobs.is_none() {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                }
            }
            "--round-threads" => {
                round_threads = parse_positive(args.next().as_deref());
                if round_threads.is_none() {
                    eprintln!("--round-threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
            }
            "--n" => {
                opts.bench_ns = parse_bench_ns(args.next().as_deref());
                if opts.bench_ns.is_none() {
                    eprintln!("--n needs a comma-separated list of powers of four >= 1024");
                    return ExitCode::FAILURE;
                }
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    // The two parallelism axes multiply: every batch job spins up its own
    // intra-round pool. Unless the batch width was pinned explicitly, shrink
    // it so jobs × round-threads ≈ the machine (oversubscribing CPU-bound
    // threads only adds contention; results are identical either way).
    let rt = round_threads.unwrap_or(1);
    opts.runner = match jobs {
        Some(n) => BatchRunner::new(n),
        None => BatchRunner::new(BatchRunner::default().workers() / rt),
    };
    opts.threads = if rt > 1 {
        Threads::Sharded(rt)
    } else {
        Threads::Serial
    };
    opts.round_threads_given = round_threads.is_some();
    // `snapshot <name>` / `resume <file>` drive the checkpoint tooling.
    if selected[0] == "snapshot" {
        let Some(name) = selected.get(1) else {
            eprintln!("snapshot needs a scenario name; see `experiments --list`");
            return ExitCode::FAILURE;
        };
        return cmd_snapshot(name, at, out.as_deref(), opts.threads);
    }
    if selected[0] == "resume" {
        let Some(file) = selected.get(1) else {
            eprintln!("resume needs a snapshot file path");
            return ExitCode::FAILURE;
        };
        return cmd_resume(file, rounds, trace, opts.threads);
    }
    if selected[0] == "run-recoverable" {
        let Some(name) = selected.get(1) else {
            eprintln!("run-recoverable needs a scenario name; see `experiments --list`");
            return ExitCode::FAILURE;
        };
        return cmd_run_recoverable(
            name,
            rounds,
            every,
            keep,
            checkpoints.as_deref(),
            kill_at,
            trace,
            opts.threads,
        );
    }
    // `scenario <name>...` runs registry entries instead of experiment ids.
    if selected[0] == "scenario" {
        let names = &selected[1..];
        if names.is_empty() {
            eprintln!("scenario needs at least one name; see `experiments --list`");
            return ExitCode::FAILURE;
        }
        for name in names {
            let Some(entry) = popstab_bench::scenario::find(name) else {
                eprintln!("unknown scenario `{name}`; see `experiments --list`");
                return ExitCode::FAILURE;
            };
            (entry.run)(&opts);
        }
        return ExitCode::SUCCESS;
    }
    if selected.iter().any(|s| s == "all") {
        // `bench` overwrites the committed BENCH_engine.json with
        // machine-local numbers, so the figures bundle excludes it; run it
        // explicitly when refreshing the perf trajectory.
        selected = IDS
            .iter()
            .map(|(id, _, _)| id.to_string())
            .filter(|id| id != "bench")
            .collect();
    }
    for want in &selected {
        let Some((_, _, runner)) = IDS.iter().find(|(id, _, _)| id == want) else {
            eprintln!("unknown experiment `{want}`");
            usage();
            return ExitCode::FAILURE;
        };
        println!("================================================================");
        let start = Instant::now();
        runner(&opts);
        println!(
            "[{want} finished in {:.1}s]\n",
            start.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_positive;

    #[test]
    fn parse_positive_rejects_zero_negatives_and_junk() {
        assert_eq!(parse_positive(Some("1")), Some(1));
        assert_eq!(parse_positive(Some("12")), Some(12));
        for bad in ["0", "-1", "", "2.5", "x", "18446744073709551616"] {
            assert_eq!(parse_positive(Some(bad)), None, "{bad:?}");
        }
        assert_eq!(parse_positive(None), None);
    }
}
