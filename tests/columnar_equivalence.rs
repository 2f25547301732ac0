//! Integration: the columnar (struct-of-arrays) step path is bit-identical
//! to the scalar `Protocol::step` loop on the paper's protocol.
//!
//! The columnar store keeps the population resident across rounds on the
//! fast path (`()`/`OnRound` observers, no-op adversary) and transposes
//! back on demand, so these properties drive every gating decision the
//! engine makes: long resident stretches, per-round materialization for a
//! recording observer, column reloads after adversarial churn, and
//! snapshot/restore through the columnar path — comparing per-round
//! reports, the **full agent state vector** (every field, every slot), the
//! halt state, and the encoded snapshot bytes across random
//! `(seed, rounds, workers)`, plus one fixed million-agent case. Every
//! engine steps on the columnar path by default; the hidden
//! `Engine::set_columnar(false)` hook forces the scalar side. The golden
//! fixtures pin the same trajectories against history; this suite pins the
//! two live paths against each other.

use proptest::prelude::*;

use population_stability::adversary::{Trauma, TraumaKind};
use population_stability::core::state::AgentState;
use population_stability::prelude::*;
use population_stability::sim::{
    MetricsRecorder, NoOpAdversary, OnRound, RecordStats, RoundReport, RunSpec, Threads,
};

const TARGET: u64 = 1024;

fn clean_scenario_at(target: u64, seed: u64) -> Scenario<PopulationStability> {
    let params = Params::for_target(target).unwrap();
    let cfg = SimConfig::builder()
        .seed(seed)
        .target(target)
        .build()
        .unwrap();
    Scenario::new(PopulationStability::new(params), cfg, target as usize)
}

fn clean_engine(seed: u64) -> Engine<PopulationStability> {
    clean_scenario_at(TARGET, seed).engine()
}

fn trauma_engine(seed: u64) -> Engine<PopulationStability, Trauma> {
    let params = Params::for_target(TARGET).unwrap();
    let epoch = u64::from(params.epoch_len());
    let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.4, epoch / 3);
    let cfg = SimConfig::builder()
        .seed(seed)
        .target(TARGET)
        .adversary_budget(SimConfig::UNBOUNDED_BUDGET)
        .build()
        .unwrap();
    Engine::with_adversary(PopulationStability::new(params), adv, cfg, TARGET as usize)
}

/// Runs `rounds` rounds and fingerprints everything observable afterwards:
/// the per-round report trace, the final agent vector, the round counter,
/// and the engine's snapshot bytes (label-free, so byte-comparable).
fn fingerprint<A>(
    mut engine: Engine<PopulationStability, A>,
    columnar: bool,
    rounds: u64,
    threads: Threads,
) -> (Vec<RoundReport>, Vec<AgentState>, u64, Vec<u8>)
where
    A: Adversary<AgentState>,
{
    engine.set_columnar(columnar);
    assert_eq!(engine.columnar_enabled(), columnar);
    let mut trace = Vec::new();
    engine.run(
        RunSpec::rounds(rounds).threads(threads),
        &mut OnRound(|r: &RoundReport| trace.push(*r)),
    );
    let bytes = engine.snapshot().to_bytes();
    (trace, engine.agents().to_vec(), engine.round(), bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clean runs: the resident fast path (an `OnRound` observer never
    /// needs the vector, so the columns stay loaded for the entire run)
    /// equals the scalar loop for every worker count.
    #[test]
    fn columnar_runs_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..1100,
        workers in 2usize..5,
    ) {
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            let scalar = fingerprint(clean_engine(seed), false, rounds, threads);
            let columnar = fingerprint(clean_engine(seed), true, rounds, threads);
            prop_assert_eq!(&scalar.0, &columnar.0, "report traces diverged");
            prop_assert_eq!(&scalar.1, &columnar.1, "agent vectors diverged");
            prop_assert_eq!(scalar.2, columnar.2);
            prop_assert_eq!(&scalar.3, &columnar.3, "snapshot bytes diverged");
        }
    }

    /// Adversarial runs: every round materializes the vector for the
    /// adversary and reloads the columns after its alterations, so the
    /// load/store transposes round-trip mid-run, not just at the edges.
    #[test]
    fn columnar_adversarial_runs_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..700,
        workers in 2usize..5,
    ) {
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            let scalar = fingerprint(trauma_engine(seed), false, rounds, threads);
            let columnar = fingerprint(trauma_engine(seed), true, rounds, threads);
            prop_assert_eq!(&scalar.0, &columnar.0, "report traces diverged");
            prop_assert_eq!(&scalar.1, &columnar.1, "agent vectors diverged");
            prop_assert_eq!(scalar.2, columnar.2);
            prop_assert_eq!(&scalar.3, &columnar.3, "snapshot bytes diverged");
        }
    }
}

/// A recording observer reads the agent slice after every round, forcing a
/// per-round materialize *without* invalidating the resident columns — the
/// stats and the trajectory must still match the scalar path exactly.
#[test]
fn columnar_recorded_stats_match_scalar() {
    let params = Params::for_target(TARGET).unwrap();
    let rounds = 2 * u64::from(params.epoch_len()) + 7;
    let run = |columnar: bool| {
        let mut engine = clean_engine(0xC01);
        engine.set_columnar(columnar);
        let mut rec = MetricsRecorder::new();
        engine.run(RunSpec::rounds(rounds), &mut RecordStats::new(&mut rec));
        (
            rec.rounds().to_vec(),
            engine.agents().to_vec(),
            engine.population(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// Snapshot mid-run on the columnar path, restore, continue columnar: the
/// stitched trajectory equals both the uninterrupted columnar run and the
/// scalar run — format v2 passes through the columns unchanged. Also pins
/// the default: a scenario's engine, a fork branch and a restored engine
/// all step on the columnar path without being asked to.
#[test]
fn columnar_snapshot_resume_round_trips() {
    let params = Params::for_target(TARGET).unwrap();
    let epoch = u64::from(params.epoch_len());
    let (r, total) = (epoch / 2 + 3, epoch + 11);

    assert!(clean_scenario_at(TARGET, 7).engine().columnar_enabled());
    let forked = clean_scenario_at(TARGET, 7).fork(
        r,
        vec![ForkBranch::new(0, NoOpAdversary)],
        &BatchRunner::new(1),
        |_, engine| engine.columnar_enabled(),
    );
    assert_eq!(forked, vec![true], "fork branches must step columnar");

    let scalar = fingerprint(clean_engine(7), false, total, Threads::Serial);
    let straight = fingerprint(clean_engine(7), true, total, Threads::Serial);
    assert_eq!(scalar.1, straight.1);
    assert_eq!(scalar.3, straight.3);

    let mut prefix = clean_engine(7);
    let mut sink = Vec::new();
    prefix.run(
        RunSpec::rounds(r),
        &mut OnRound(|rep: &RoundReport| sink.push(*rep)),
    );
    let snap = Snapshot::from_bytes(&prefix.snapshot().to_bytes()).expect("round-trip");
    let restored =
        Engine::restore(PopulationStability::new(params), NoOpAdversary, &snap).expect("restore");
    assert!(restored.columnar_enabled(), "restores must step columnar");
    let tail = fingerprint(restored, true, total - r, Threads::Serial);
    assert_eq!(tail.1, straight.1, "resumed columnar agents diverged");
    assert_eq!(tail.2, straight.2);
    assert_eq!(tail.3, straight.3, "resumed snapshot bytes diverged");
}

/// The million-agent scale the columnar store exists for: at N = 2^20,
/// serial and 4-way sharded rounds alike, the columnar path equals the
/// scalar loop (report trace, agent vector, snapshot bytes), and a columnar
/// run resumed from a mid-run snapshot reproduces the uninterrupted suffix.
#[test]
fn columnar_matches_scalar_and_resumes_at_a_million_agents() {
    const N: u64 = 1 << 20;
    const MID: u64 = 10;
    const ROUNDS: u64 = 20;
    let params = Params::for_target(N).unwrap();
    for threads in [Threads::Serial, Threads::Sharded(4)] {
        let engine = || clean_scenario_at(N, 21).engine();
        let scalar = fingerprint(engine(), false, ROUNDS, threads);
        let columnar = fingerprint(engine(), true, ROUNDS, threads);
        assert_eq!(scalar.0, columnar.0, "report traces diverged ({threads:?})");
        // `assert!` over `assert_eq!`: a failure must not print megabytes.
        assert!(
            scalar.1 == columnar.1,
            "agent vectors diverged ({threads:?})"
        );
        assert!(
            scalar.3 == columnar.3,
            "snapshot bytes diverged ({threads:?})"
        );

        let mut prefix = engine();
        prefix.run(RunSpec::rounds(MID).threads(threads), &mut ());
        let snap = Snapshot::from_bytes(&prefix.snapshot().to_bytes()).expect("round-trip");
        drop(prefix);
        let restored = Engine::restore(
            PopulationStability::new(params.clone()),
            NoOpAdversary,
            &snap,
        )
        .expect("restore");
        let tail = fingerprint(restored, true, ROUNDS - MID, threads);
        assert_eq!(
            &columnar.0[MID as usize..],
            &tail.0[..],
            "resumed suffix diverged"
        );
        assert!(
            tail.3 == columnar.3,
            "resumed snapshot bytes diverged ({threads:?})"
        );
    }
}
