//! Golden-trace differential tests for the engine.
//!
//! Each scenario runs a fixed-seed simulation and formats every per-round
//! [`RoundReport`] as one line; the concatenation must match the committed
//! fixture under `tests/golden/` **byte for byte**, so any change to the
//! round semantics, the RNG consumption order, or the matching sampler
//! shows up here as a diff. Every scenario is driven twice through the
//! unified driver — `Threads::Serial` and `Threads::Sharded(3)` — and both
//! trajectories must match the fixture, pinning the engine's determinism
//! contract alongside its semantics. The fixtures are pinned to the stream
//! versions `popstab_sim::rng::AGENT_STREAM_VERSION` and
//! `popstab_sim::matching::MATCHING_STREAM_VERSION`; see
//! `tests/golden/README.md` for the version history and the re-capture
//! protocol.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test engine_golden
//! ```
//!
//! and commit the updated fixtures together with an explanation.

use std::fmt::Write as _;
use std::path::PathBuf;

use population_stability::adversary::{Trauma, TraumaKind};
use population_stability::baselines::Attempt1;
use population_stability::prelude::*;
use population_stability::sim::protocols::Inert;
use population_stability::sim::{Adversary, OnRound, Protocol, RoundReport, RunSpec, Threads};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn format_trace(reports: &[RoundReport]) -> String {
    let mut out = String::with_capacity(reports.len() * 44);
    out.push_str("round pop_before pop_after inserted deleted modified matched splits deaths\n");
    for r in reports {
        writeln!(
            out,
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
        )
        .expect("write to string");
    }
    out
}

/// Compares `reports` against `tests/golden/<name>.txt`, or rewrites the
/// fixture when `GOLDEN_REGEN` is set.
fn check_golden(name: &str, reports: &[RoundReport]) {
    let path = golden_dir().join(format!("{name}.txt"));
    let actual = format_trace(reports);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    if expected != actual {
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| {
                format!(
                    "first differing line {}:\n  expected: {}\n  actual:   {}",
                    i,
                    expected.lines().nth(i).unwrap_or("<missing>"),
                    actual.lines().nth(i).unwrap_or("<missing>")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: expected {}, actual {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!("golden trace `{name}` diverged from the pre-refactor engine\n{first_diff}");
    }
}

fn collect_rounds<P: Protocol, A: Adversary<P::State>>(
    engine: &mut Engine<P, A>,
    rounds: u64,
    threads: Threads,
) -> Vec<RoundReport> {
    let mut reports = Vec::new();
    engine.run(
        RunSpec::rounds(rounds).threads(threads),
        &mut OnRound(|r: &RoundReport| reports.push(*r)),
    );
    reports
}

/// Runs the scenario built by `build` through the serial *and* the sharded
/// driver and requires both trajectories to match the fixture byte for
/// byte: the `RunSpec` thread configuration must never change a
/// simulation.
fn check_golden_all_specs<P: Protocol, A: Adversary<P::State>>(
    name: &str,
    rounds: u64,
    build: impl Fn() -> Engine<P, A>,
) {
    check_golden(name, &collect_rounds(&mut build(), rounds, Threads::Serial));
    check_golden(
        name,
        &collect_rounds(&mut build(), rounds, Threads::Sharded(3)),
    );
}

#[test]
fn golden_inert_partial_matching() {
    check_golden_all_specs("inert_partial_matching", 64, || {
        let cfg = SimConfig::builder()
            .seed(0xA11CE)
            .matching(MatchingModel::RandomFraction { min_gamma: 0.4 })
            .build()
            .unwrap();
        Engine::with_population(Inert, cfg, 192)
    });
}

#[test]
fn golden_popstab_n1024() {
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    // One full epoch plus a few rounds of the next (crosses the epoch
    // boundary: leader selection, recruitment, evaluation all exercised).
    check_golden_all_specs("popstab_n1024", epoch + 17, || {
        let cfg = SimConfig::builder()
            .seed(0xB0B)
            .target(1024)
            .build()
            .unwrap();
        Engine::with_population(PopulationStability::new(params.clone()), cfg, 1024)
    });
}

#[test]
fn golden_attempt1_oblivious_deleter() {
    use population_stability::baselines::ObliviousDeleter;
    let proto = Attempt1::new(1024);
    let epoch = u64::from(proto.epoch_len());
    check_golden_all_specs("attempt1_oblivious_deleter", 2 * epoch, || {
        let cfg = SimConfig::builder()
            .seed(0xC0FFEE)
            .adversary_budget(2)
            .target(1024)
            .max_population(16 * 1024)
            .build()
            .unwrap();
        Engine::with_adversary(
            proto.clone(),
            ObliviousDeleter::with_period(2, 3),
            cfg,
            1024,
        )
    });
}

#[test]
fn golden_popstab_trauma_adversary() {
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    check_golden_all_specs("popstab_trauma_adversary", epoch + 11, || {
        let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.5, epoch / 2);
        let cfg = SimConfig::builder()
            .seed(0xDEAD)
            .target(1024)
            .adversary_budget(SimConfig::UNBOUNDED_BUDGET)
            .build()
            .unwrap();
        Engine::with_adversary(PopulationStability::new(params.clone()), adv, cfg, 1024)
    });
}
