//! Integration: intra-round parallel execution is bit-identical to the
//! serial engine on the paper's protocol.
//!
//! The property suite in `crates/sim` checks serial ≡ parallel on a
//! synthetic protocol; these tests check it end-to-end on
//! [`PopulationStability`] — leader coins, recruitment, evaluation splits,
//! adversarial churn — comparing the **full agent state vector** (every
//! field, every slot, via `AgentState: Eq`), the recorded metrics and the
//! per-round reports across worker counts. The §1.2 malice extension, a
//! protocol without a columnar stepper, pins the engine's serial row step
//! the same way. This is the same guarantee the
//! CI determinism step checks at the `experiments` level with
//! `--round-threads 1` vs `--round-threads 4`.

use population_stability::adversary::{Trauma, TraumaKind};
use population_stability::core::state::AgentState;
use population_stability::extensions::{malicious_count, MaliciousInserter, WithMalice};
use population_stability::prelude::*;
use population_stability::sim::{
    EngineView, MetricsRecorder, Observer, OnRound, RecordStats, RoundReport, RoundStats, RunSpec,
    Stride, Threads,
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

/// Per-round malicious-agent counts, read from the full post-round agent
/// vector (so the run materializes it every round).
struct MaliceCounts(Vec<usize>);

impl Observer<WithMalice<PopulationStability>> for MaliceCounts {
    fn on_round(
        &mut self,
        _report: &RoundReport,
        view: &EngineView<'_, WithMalice<PopulationStability>>,
    ) {
        self.0.push(malicious_count(view.agents()));
    }
}

#[test]
fn row_protocol_with_kills_is_bit_identical_across_worker_counts() {
    // The §1.2 malice extension has no columnar stepper, so it takes the
    // engine's serial row step (with `KillPartner`) while the matching and
    // the adversary run under the spec's threads. Compare the full state:
    // traces, per-round malicious counts, final agent vectors and snapshot
    // bytes.
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    let run = |threads: Threads| {
        let cfg = SimConfig::builder()
            .seed(0xBAD)
            .target(1024)
            .adversary_budget(2)
            .max_population(16 * 1024)
            .build()
            .unwrap();
        let proto = WithMalice::new(PopulationStability::new(params.clone()));
        let mut engine = Engine::with_adversary(proto, MaliciousInserter::new(2, 3), cfg, 1024);
        assert!(!engine.columnar_enabled());
        let mut trace = Vec::new();
        let mut counts = MaliceCounts(Vec::new());
        engine.run(
            RunSpec::until(epoch + 17, |r| {
                trace.push(*r);
                false
            })
            .threads(threads),
            &mut counts,
        );
        let snapshot = engine.snapshot().to_bytes();
        (trace, counts.0, engine.agents().to_vec(), snapshot)
    };
    let serial = run(Threads::Serial);
    assert!(
        serial.1.windows(2).any(|w| w[1] < w[0] + 2),
        "no round killed an inserted malicious agent: {:?}",
        serial.1
    );
    assert!(serial.1.iter().any(|&m| m > 0));
    for workers in [2usize, 3, 8] {
        assert!(
            serial == run(Threads::Sharded(workers)),
            "{workers} workers diverged"
        );
    }
}
