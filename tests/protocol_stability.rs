//! Integration: multi-epoch stability of the full protocol (Theorem 1),
//! with and without adversaries, across seeds.
//!
//! Budgets are metered **per epoch** (via `Throttle`): the paper's
//! per-round budget regime requires `K·T ≤ N^{1/4}/8`, unreachable at any
//! simulable `N` — see `popstab_adversary::throttle`. The protocol's
//! per-epoch absorption capacity is `γ(√N − 8)/8` (3 agents/epoch at
//! N = 1024), so per-epoch budgets of 1–2 are the strongest pressure the
//! theory predicts it survives indefinitely at this scale.
//!
//! Seed and adversary sweeps run as [`BatchRunner`] batches; population
//! bands are folded out of the per-round reports on the engine's
//! recording-free fast path wherever the full metrics trace is not needed.

use population_stability::adversary::{
    throttled_suite, ColorFlooder, Composite, DesyncInserter, LeaderSniper, Throttle,
};
use population_stability::prelude::*;
use population_stability::sim::{BatchRunner, MetricsRecorder, RecordStats, RunSpec};

const N: u64 = 1024;

fn params() -> Params {
    Params::for_target(N).unwrap()
}

#[test]
fn stable_without_adversary_across_seeds() {
    let params = params();
    let epoch = u64::from(params.epoch_len());
    let m_star = equilibrium_population(&params);
    let outcomes = BatchRunner::default().run((0..5u64).collect(), |_, seed| {
        let cfg = SimConfig::builder().seed(seed).target(N).build().unwrap();
        let mut engine =
            Engine::with_population(PopulationStability::new(params.clone()), cfg, N as usize);
        let range = engine
            .run(RunSpec::rounds(20 * epoch), &mut ())
            .population_range();
        (seed, engine.halted(), range)
    });
    for (seed, halted, (lo, hi)) in outcomes {
        assert_eq!(halted, None, "seed {seed} halted");
        assert!(lo as f64 >= 0.7 * m_star, "seed {seed}: fell to {lo}");
        assert!(
            hi as f64 <= 1.3 * m_star.max(N as f64),
            "seed {seed}: rose to {hi}"
        );
    }
}

#[test]
fn stable_under_every_suite_adversary_per_epoch_budget() {
    let params = params();
    let epoch = u64::from(params.epoch_len());
    let m_star = equilibrium_population(&params);
    let k = 2; // per-epoch alterations; absorption capacity is 3/epoch
    let suite_len = throttled_suite(&params, k).len();
    // One job per suite adversary; each job rebuilds the (deterministic)
    // suite locally, so the boxed adversaries never cross threads.
    let outcomes = BatchRunner::default().run((0..suite_len).collect(), |_, idx| {
        let adversary = throttled_suite(&params, k).swap_remove(idx);
        let name = adversary.name();
        let cfg = SimConfig::builder()
            .seed(77)
            .target(N)
            .adversary_budget(k)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(
            PopulationStability::new(params.clone()),
            adversary,
            cfg,
            N as usize,
        );
        let range = engine
            .run(RunSpec::rounds(15 * epoch), &mut ())
            .population_range();
        (name, engine.halted(), range)
    });
    for (name, halted, (lo, hi)) in outcomes {
        assert_eq!(halted, None, "{name} halted the run");
        // Under ±2/epoch forcing the shifted equilibria are 256·(3±2)
        // = 256 or 1280; over 15 epochs from N the trajectory stays well
        // inside [0.55·m*, 1.7·m*].
        assert!(lo as f64 >= 0.55 * m_star, "{name}: fell to {lo}");
        assert!(hi as f64 <= 1.7 * m_star, "{name}: rose to {hi}");
    }
}

#[test]
fn stable_under_combined_assault() {
    let params = params();
    let epoch = u64::from(params.epoch_len());
    let m_star = equilibrium_population(&params);
    let combo = Composite::new(
        "combined",
        vec![
            Box::new(Throttle::per_epoch(
                LeaderSniper::new(1, Some(Color::One)),
                params.epoch_len(),
            )),
            Box::new(Throttle::per_epoch(
                ColorFlooder::new(params.clone(), 1, Color::Zero),
                params.epoch_len(),
            )),
            Box::new(Throttle::per_epoch(
                DesyncInserter::new(params.clone(), 1, 13),
                params.epoch_len(),
            )),
        ],
    );
    let cfg = SimConfig::builder()
        .seed(3)
        .target(N)
        .adversary_budget(3)
        .build()
        .unwrap();
    let mut engine = Engine::with_adversary(
        PopulationStability::new(params.clone()),
        combo,
        cfg,
        N as usize,
    );
    let (lo, hi) = engine
        .run(RunSpec::rounds(15 * epoch), &mut ())
        .population_range();
    assert!(lo as f64 >= 0.55 * m_star, "fell to {lo}");
    assert!(hi as f64 <= 1.7 * m_star, "rose to {hi}");
}

#[test]
fn lemma_invariants_hold_under_attack() {
    use population_stability::analysis::invariants::check_invariants;
    let params = params();
    let epoch = u64::from(params.epoch_len());
    let k = 2;
    let suite_len = throttled_suite(&params, k).len();
    // Full metrics stay on here: the invariant checker consumes the trace.
    let reports = BatchRunner::default().run((0..suite_len).collect(), |_, idx| {
        let adversary = throttled_suite(&params, k).swap_remove(idx);
        let name = adversary.name();
        let cfg = SimConfig::builder()
            .seed(11)
            .target(N)
            .adversary_budget(k)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(
            PopulationStability::new(params.clone()),
            adversary,
            cfg,
            N as usize,
        );
        let mut rec = MetricsRecorder::new();
        engine.run(RunSpec::rounds(10 * epoch), &mut RecordStats::new(&mut rec));
        (name, check_invariants(&params, 1.0, rec.rounds()))
    });
    for (name, report) in reports {
        assert!(
            report.lemma3_wrong_round.pass,
            "{name}: lemma 3 {:?}",
            report.lemma3_wrong_round
        );
        assert!(
            report.lemma4_active_fraction.pass,
            "{name}: lemma 4 {:?}",
            report.lemma4_active_fraction
        );
        assert!(
            report.lemma6_color_deviation.pass,
            "{name}: lemma 6 {:?}",
            report.lemma6_color_deviation
        );
        assert!(
            report.lemma7_epoch_deviation.pass,
            "{name}: lemma 7 {:?}",
            report.lemma7_epoch_deviation
        );
    }
}

#[test]
fn partial_matching_gamma_quarter_still_stable() {
    let params = params();
    let epoch = u64::from(params.epoch_len());
    let cfg = SimConfig::builder()
        .seed(5)
        .target(N)
        .matching(MatchingModel::ExactFraction(0.25))
        .build()
        .unwrap();
    let mut engine =
        Engine::with_population(PopulationStability::new(params.clone()), cfg, N as usize);
    let (lo, hi) = engine
        .run(RunSpec::rounds(20 * epoch), &mut ())
        .population_range();
    assert_eq!(engine.halted(), None);
    // γ = 1/4 quarters both drift and noise; recruitment still completes
    // because T_inner = log²N ≫ 1/γ·log N. Constants shift, so use a loose
    // band.
    assert!(lo > N as usize / 2, "fell to {lo}");
    assert!(hi < 2 * N as usize, "rose to {hi}");
}

#[test]
fn sustained_pressure_beyond_capacity_breaks_the_protocol() {
    // Negative control: the absorption ceiling γ(√N−8)/8 = 3/epoch is real.
    // A deleter taking 8/epoch (continuous, not throttled: 8 ≈ 3 + margin)
    // must drag the population below the band — stability is a property of
    // the budget regime, not an artifact of the tests.
    use population_stability::adversary::RandomDeleter;
    let params = params();
    let epoch = u64::from(params.epoch_len());
    let m_star = equilibrium_population(&params);
    let adv = Throttle::per_epoch(RandomDeleter::new(8), params.epoch_len());
    let cfg = SimConfig::builder()
        .seed(13)
        .target(N)
        .adversary_budget(8)
        .build()
        .unwrap();
    let mut engine = Engine::with_adversary(
        PopulationStability::new(params.clone()),
        adv,
        cfg,
        N as usize,
    );
    engine.run(RunSpec::rounds(80 * epoch), &mut ());
    assert!(
        (engine.population() as f64) < 0.55 * m_star,
        "population {} should have been dragged below the band by -8/epoch \
         (capacity is +3/epoch)",
        engine.population()
    );
}
