//! Empirical measurement of the per-epoch restoring drift (Lemma 8).
//!
//! [`measure_drift`] starts engines at a chosen off-target population,
//! runs exactly one epoch, and summarizes the observed population change
//! across independent seeds. [`drift_field`] sweeps a range of starting
//! populations to trace the full restoring-force curve that the harness
//! prints as experiment F1.
//!
//! Trials are independent `(config, seed)` jobs and run through
//! [`BatchRunner`], so they fan out across cores; per-trial seeds are fixed
//! functions of the caller's seed, so the summary is bit-identical for any
//! worker count.

use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_sim::{Adversary, BatchRunner, MatchingModel, RunSpec, Scenario, SimConfig};

use crate::equilibrium::{equilibrium_population, exact_epoch_drift};
use crate::stats::Summary;

/// One point of the drift field.
#[derive(Debug, Clone, Copy)]
pub struct DriftPoint {
    /// Epoch-start population.
    pub m0: usize,
    /// Observed drift summary over trials.
    pub observed: Summary,
    /// Model prediction from [`exact_epoch_drift`] (the finite-`N` Poisson
    /// model, not the linear CLT approximation).
    pub predicted: f64,
}

/// Runs `trials` single-epoch simulations starting at population `m0` with
/// no adversary and returns the summary of `Δ = end − start`. Trials fan
/// out over one worker per core ([`BatchRunner::default`]).
pub fn measure_drift(params: &Params, m0: usize, gamma: f64, trials: u32, seed: u64) -> Summary {
    measure_drift_with(
        &BatchRunner::default(),
        params,
        m0,
        gamma,
        trials,
        seed,
        || popstab_sim::NoOpAdversary,
        0,
    )
}

/// As [`measure_drift`], but on `runner`'s workers and under an adversary
/// built per-trial by `make_adversary`, with per-round budget `k`.
///
/// Trials fan out across `runner`'s worker pool;
/// `make_adversary` is therefore called from worker threads (hence `Fn +
/// Sync`), once per trial, on the thread that runs that trial. Per-trial
/// seeds depend only on `seed` and the trial index, so the result does not
/// depend on the worker count.
#[allow(clippy::too_many_arguments)]
pub fn measure_drift_with<A, F>(
    runner: &BatchRunner,
    params: &Params,
    m0: usize,
    gamma: f64,
    trials: u32,
    seed: u64,
    make_adversary: F,
    k: usize,
) -> Summary
where
    A: Adversary<popstab_core::state::AgentState>,
    F: Fn() -> A + Sync,
{
    let epoch = u64::from(params.epoch_len());
    let deltas = runner.run((0..trials).collect(), |_, trial: u32| {
        let cfg = SimConfig::builder()
            .seed(
                seed.wrapping_add(u64::from(trial))
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
            .matching(if gamma >= 1.0 {
                MatchingModel::Full
            } else {
                MatchingModel::ExactFraction(gamma)
            })
            .adversary_budget(k)
            .target(params.target())
            .build()
            .expect("valid drift config");
        let protocol = PopulationStability::new(params.clone());
        let scenario = Scenario::new(protocol, cfg, m0).against(make_adversary());
        let (engine, _) = scenario.run(RunSpec::rounds(epoch), &mut ());
        engine.population() as f64 - m0 as f64
    });
    let mut summary = Summary::new();
    for delta in deltas {
        summary.push(delta);
    }
    summary
}

/// Sweeps `fractions`·m* starting populations and measures the drift at
/// each, producing the restoring-force curve.
pub fn drift_field(
    params: &Params,
    fractions: &[f64],
    gamma: f64,
    trials: u32,
    seed: u64,
) -> Vec<DriftPoint> {
    let m_star = equilibrium_population(params);
    fractions
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let m0 = (f * m_star).round().max(2.0) as usize;
            let observed = measure_drift(
                params,
                m0,
                gamma,
                trials,
                seed.wrapping_add(i as u64 * 7919),
            );
            let predicted = exact_epoch_drift(params, m0 as f64, gamma);
            DriftPoint {
                m0,
                observed,
                predicted,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_restoring_empirically() {
        // Sample far from the exact equilibrium (≈ 0.78·m* at N = 1024)
        // where the per-trial signal-to-noise is highest — 0.05·m* below
        // (predicted ≈ +1.9, sd ≈ 5) and 2·m* above (predicted ≈ −4.1,
        // sd ≈ 8.3); at these trial counts the expected sign sits ≥ 4σ
        // from zero, so a fixed seed passes with wide margin. Nearer
        // fractions (the 0.3·m* the test used before stream v3) have
        // ≤ 0.15σ per trial and need thousands of trials for a stable sign.
        let params = Params::for_target(1024).unwrap();
        let m_star = equilibrium_population(&params) as usize; // 768
        let below = measure_drift(&params, (m_star as f64 * 0.05) as usize, 1.0, 160, 11);
        let above = measure_drift(&params, (m_star as f64 * 2.0) as usize, 1.0, 80, 12);
        assert!(
            below.mean() > 0.0,
            "below equilibrium should grow, got {}",
            below.mean()
        );
        assert!(
            above.mean() < 0.0,
            "above equilibrium should shrink, got {}",
            above.mean()
        );
    }

    #[test]
    fn drift_field_has_one_point_per_fraction() {
        let params = Params::for_target(1024).unwrap();
        let points = drift_field(&params, &[0.4, 1.0, 1.6], 1.0, 2, 5);
        assert_eq!(points.len(), 3);
        assert!(points[0].m0 < points[1].m0 && points[1].m0 < points[2].m0);
        for p in &points {
            assert_eq!(p.observed.count(), 2);
        }
        // Predictions bracket zero across the sweep.
        assert!(points[0].predicted > 0.0);
        assert!(points[2].predicted < 0.0);
    }
}
