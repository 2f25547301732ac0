//! Integration: intra-round parallel execution is bit-identical to the
//! serial engine on the paper's protocol.
//!
//! The property suite in `crates/sim` checks serial ≡ parallel on a
//! synthetic protocol; these tests check it end-to-end on
//! [`PopulationStability`] — leader coins, recruitment, evaluation splits,
//! adversarial churn — comparing the **full agent state vector** (every
//! field, every slot, via `AgentState: Eq`), the recorded metrics and the
//! per-round reports across worker counts. This is the same guarantee the
//! CI determinism step checks at the `experiments` level with
//! `--round-threads 1` vs `--round-threads 4`.

use population_stability::adversary::{Trauma, TraumaKind};
use population_stability::core::state::AgentState;
use population_stability::prelude::*;
use population_stability::sim::{
    MetricsRecorder, OnRound, RecordStats, RoundReport, RoundStats, RunSpec, Stride, Threads,
};

type Snapshot = (Vec<AgentState>, Vec<RoundStats>, u64, usize);

fn run_clean(workers: Option<usize>) -> Snapshot {
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    let cfg = SimConfig::builder()
        .seed(0xFEED)
        .target(1024)
        .build()
        .unwrap();
    let mut engine = Engine::with_population(PopulationStability::new(params), cfg, 1024);
    let rounds = 2 * epoch + 5;
    let threads = match workers {
        None => Threads::Serial,
        Some(w) => Threads::Sharded(w),
    };
    let mut rec = MetricsRecorder::new();
    engine.run(
        RunSpec::rounds(rounds).threads(threads),
        &mut Stride::new(epoch, RecordStats::new(&mut rec)),
    );
    (
        engine.agents().to_vec(),
        rec.rounds().to_vec(),
        engine.round(),
        engine.population(),
    )
}

#[test]
fn paper_protocol_par_rounds_bit_identical_across_worker_counts() {
    let serial = run_clean(None);
    for workers in [1usize, 2, 4] {
        let par = run_clean(Some(workers));
        assert_eq!(
            serial, par,
            "parallel run at {workers} workers diverged from serial"
        );
    }
}

#[test]
fn adversarial_par_fast_path_matches_serial_fast_path() {
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    let run = |workers: Option<usize>| {
        let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.5, epoch / 2);
        let cfg = SimConfig::builder()
            .seed(0xD00D)
            .target(1024)
            .adversary_budget(SimConfig::UNBOUNDED_BUDGET)
            .build()
            .unwrap();
        let mut engine =
            Engine::with_adversary(PopulationStability::new(params.clone()), adv, cfg, 1024);
        let mut trace = Vec::new();
        let collect = |trace: &mut Vec<(u64, usize, usize, usize)>,
                       r: &population_stability::sim::RoundReport| {
            trace.push((r.round, r.population_after, r.splits, r.deaths));
            false
        };
        let threads = match workers {
            None => Threads::Serial,
            Some(w) => Threads::Sharded(w),
        };
        engine.run(
            RunSpec::until(epoch + 11, |r| collect(&mut trace, r)).threads(threads),
            &mut (),
        );
        (trace, engine.agents().to_vec(), engine.population())
    };
    let serial = run(None);
    for workers in [1usize, 3, 4] {
        assert_eq!(serial, run(Some(workers)), "{workers} workers diverged");
    }
}

#[test]
fn par_rounds_bit_identical_above_the_keyed_permutation_threshold() {
    // Populations ≥ 2¹⁶ take the sharded keyed-permutation matching branch
    // (the smaller suites above all run the inline keyed shuffle), so this
    // is the one end-to-end check that the *parallel matching* construction
    // merges bit-identically for every worker count.
    use population_stability::sim::protocols::Inert;
    let run = |workers: Option<usize>| {
        let cfg = SimConfig::builder()
            .seed(0xBEEF)
            .matching(MatchingModel::RandomFraction { min_gamma: 0.5 })
            .build()
            .unwrap();
        let mut engine = Engine::with_population(Inert, cfg, 70_000);
        let mut matched = Vec::new();
        let threads = match workers {
            None => Threads::Serial,
            Some(w) => Threads::Sharded(w),
        };
        engine.run(
            RunSpec::rounds(4).threads(threads),
            &mut OnRound(|r: &RoundReport| matched.push(r.matched)),
        );
        matched
    };
    let serial = run(None);
    assert!(
        serial.iter().all(|&m| m >= 35_000),
        "matching undershoots γ"
    );
    for workers in [1usize, 2, 4] {
        assert_eq!(serial, run(Some(workers)), "{workers} workers diverged");
    }
}

#[test]
fn single_sharded_round_equals_single_serial_round() {
    let params = Params::for_target(1024).unwrap();
    let mk = || {
        let cfg = SimConfig::builder().seed(9).target(1024).build().unwrap();
        Engine::with_population(PopulationStability::new(params.clone()), cfg, 1024)
    };
    let mut serial = mk();
    let mut par = mk();
    for _ in 0..5 {
        let a = serial.run(RunSpec::rounds(1), &mut ()).last;
        let b = par.run(RunSpec::rounds(1).sharded(4), &mut ()).last;
        assert_eq!(a, b);
        assert_eq!(serial.agents(), par.agents());
    }
}
