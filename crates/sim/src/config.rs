//! Engine configuration.

use crate::error::SimError;
use crate::matching::{MatchingModel, UNMATCHED};

/// Configuration of a simulation run.
///
/// Construct with [`SimConfig::builder`]; all fields have sensible defaults
/// (full matching, no adversary budget, generous safety caps). Metrics
/// recording is not configured here: it is an observer concern — see
/// [`RecordStats`](crate::RecordStats).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// How the per-round random matching is sampled.
    pub matching: MatchingModel,
    /// Per-round adversary alteration budget `K`. The engine truncates any
    /// excess alterations an adversary returns. Together with
    /// `max_population` it bounds the population a round matches, so the
    /// two must sum to less than [`SimConfig::SLOT_LIMIT`].
    pub adversary_budget: usize,
    /// Master seed; all randomness (agents, matching, adversary) derives
    /// from it through independent streams.
    pub seed: u64,
    /// Safety cap: the engine halts with [`HaltReason::Exploded`] if the
    /// population exceeds this (protects runaway baselines).
    ///
    /// [`HaltReason::Exploded`]: crate::engine::HaltReason::Exploded
    pub max_population: usize,
    /// The population target `N` exposed to adversaries via
    /// [`RoundContext::target`](crate::RoundContext::target).
    pub target: u64,
}

impl SimConfig {
    /// Exclusive bound on `max_population + adversary_budget`. A round
    /// starts with at most `max_population` agents and the adversary may
    /// insert up to `adversary_budget` more before the matching indexes
    /// them with `u32` slots, whose top value is the
    /// [`UNMATCHED`] sentinel.
    pub const SLOT_LIMIT: usize = UNMATCHED as usize;

    /// A per-round budget no scenario comes near (2³⁰ alterations), for
    /// adversaries that exceed the paper's `K` by design, such as the
    /// trauma shocks. With it, any cap below `3·2³⁰ − 1` (the default is
    /// 2²⁸) keeps the sum under [`SLOT_LIMIT`](Self::SLOT_LIMIT).
    pub const UNBOUNDED_BUDGET: usize = 1 << 30;

    /// Starts building a configuration.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Checks the invariants [`SimConfigBuilder::build`] enforces; snapshot
    /// restore re-checks them on the decoded configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the matching fraction is out of
    /// range, the cap is zero, or `max_population + adversary_budget`
    /// reaches [`SLOT_LIMIT`](Self::SLOT_LIMIT).
    pub fn validate(&self) -> Result<(), SimError> {
        self.matching.validate()?;
        if self.max_population == 0 {
            return Err(SimError::invalid_config(
                "max_population",
                "must be positive",
            ));
        }
        match self.max_population.checked_add(self.adversary_budget) {
            Some(reach) if reach < Self::SLOT_LIMIT => Ok(()),
            _ => Err(SimError::invalid_config(
                "max_population",
                format!(
                    "max_population {} + adversary_budget {} must stay below {} \
                     (u32 slot indices)",
                    self.max_population,
                    self.adversary_budget,
                    Self::SLOT_LIMIT
                ),
            )),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::builder()
            .build()
            .expect("default config is valid")
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    matching: MatchingModel,
    adversary_budget: usize,
    seed: u64,
    max_population: usize,
    target: u64,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            matching: MatchingModel::Full,
            adversary_budget: 0,
            seed: 0,
            max_population: 1 << 28,
            target: 0,
        }
    }
}

impl SimConfigBuilder {
    /// Sets the matching model.
    pub fn matching(&mut self, model: MatchingModel) -> &mut Self {
        self.matching = model;
        self
    }

    /// Sets the per-round adversary budget `K`.
    pub fn adversary_budget(&mut self, k: usize) -> &mut Self {
        self.adversary_budget = k;
        self
    }

    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the runaway-population safety cap.
    pub fn max_population(&mut self, cap: usize) -> &mut Self {
        self.max_population = cap;
        self
    }

    /// Sets the population target `N` exposed to adversaries.
    pub fn target(&mut self, n: u64) -> &mut Self {
        self.target = n;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on any violation
    /// [`SimConfig::validate`] lists.
    pub fn build(&self) -> Result<SimConfig, SimError> {
        let cfg = SimConfig {
            matching: self.matching,
            adversary_budget: self.adversary_budget,
            seed: self.seed,
            max_population: self.max_population,
            target: self.target,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.adversary_budget, 0);
        assert_eq!(cfg.matching, MatchingModel::Full);
        assert_eq!(cfg.target, 0);
    }

    #[test]
    fn builder_sets_all_fields() {
        let cfg = SimConfig::builder()
            .matching(MatchingModel::ExactFraction(0.25))
            .adversary_budget(7)
            .seed(99)
            .max_population(1000)
            .target(512)
            .build()
            .unwrap();
        assert_eq!(cfg.matching, MatchingModel::ExactFraction(0.25));
        assert_eq!(cfg.adversary_budget, 7);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.max_population, 1000);
        assert_eq!(cfg.target, 512);
    }

    #[test]
    fn builder_rejects_invalid_gamma() {
        let err = SimConfig::builder()
            .matching(MatchingModel::ExactFraction(2.0))
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn builder_rejects_zero_cap() {
        assert!(SimConfig::builder().max_population(0).build().is_err());
    }

    #[test]
    fn builder_rejects_caps_whose_reach_hits_the_slot_limit() {
        let build = |cap: usize, budget: usize| {
            SimConfig::builder()
                .max_population(cap)
                .adversary_budget(budget)
                .build()
        };
        let limit = SimConfig::SLOT_LIMIT;
        assert!(build(limit - 1, 0).is_ok());
        assert!(build(limit - 11, 10).is_ok());
        assert!(build(1 << 28, SimConfig::UNBOUNDED_BUDGET).is_ok());
        for (cap, budget) in [
            (limit, 0),
            (limit - 10, 10),
            (1, limit - 1),
            (1 << 28, usize::MAX),
            (usize::MAX, 1),
        ] {
            match build(cap, budget) {
                Err(SimError::InvalidConfig { field, reason }) => {
                    assert_eq!(field, "max_population");
                    assert!(reason.contains("u32"), "{reason}");
                }
                other => panic!("cap {cap} + budget {budget} accepted: {other:?}"),
            }
        }
    }
}
