//! Adversary strategies for the population stability problem.
//!
//! The paper's adversary (§2) observes the memory contents of every agent
//! and may insert agents with arbitrary state, delete arbitrary agents, or
//! modify agent memory — up to `K` operations per round. This crate
//! implements the concrete attacks the paper identifies as most dangerous,
//! plus generic churn and the one-shot "trauma" events used by the
//! biological-motivation experiments:
//!
//! * [`RandomDeleter`] / [`RandomInserter`] / [`Churn`] — bulk pressure,
//! * [`ObliviousDeleter`] — state-blind deletion (the weak adversary model
//!   under which Attempt 1 works),
//! * [`LeaderSniper`] — deletes leaders as soon as they are chosen, the
//!   attack that kills leader-election-style protocols (§1.3.1),
//! * [`ColorFlooder`] — inserts leaders of one fixed color to bias the
//!   color distribution (footnote 9),
//! * [`ClusterPoisoner`] — deletes active agents of the minority color to
//!   amplify color imbalance at evaluation time,
//! * [`DesyncInserter`] — inserts agents with wrong round counters to
//!   confuse the epoch clock (the attack Algorithm 7 defends against),
//! * [`DeviationAmplifier`] — pushes the population away from the target,
//!   whichever direction it is already drifting,
//! * [`Trauma`] — one-shot deletion/insertion of a large fraction of the
//!   population (injury / hyper-proliferation),
//! * [`Composite`] — round-robin combination of sub-strategies.
//!
//! Every strategy above that decides from the population size and its
//! majority epoch round alone — the bulk ones, [`ColorFlooder`],
//! [`DesyncInserter`], [`DeviationAmplifier`], [`Trauma`], and [`Throttle`]
//! around any of them — also answers
//! [`Adversary::act_on_stats`](popstab_sim::Adversary::act_on_stats)
//! through the same decision function as `act`, so an engine holding the
//! population in resident columns never transposes it for them.
//! [`LeaderSniper`] and [`ClusterPoisoner`] read agent state and decline;
//! so does [`Composite`], since a later part declining after an earlier
//! one decided would leave the earlier part's state and draws consumed.

/// The two entry points of a strategy that decides from [`Seen`] alone,
/// both routed through its inherent `decide(&mut self, ctx, seen, rng)`:
/// expands inside its `impl Adversary<AgentState>` block.
macro_rules! decide_from_seen {
    () => {
        fn act(
            &mut self,
            ctx: &popstab_sim::RoundContext,
            agents: &[popstab_core::state::AgentState],
            rng: &mut popstab_sim::SimRng,
        ) -> Vec<popstab_sim::Alteration<popstab_core::state::AgentState>> {
            self.decide(ctx, $crate::Seen::Agents(agents), rng)
        }

        fn act_on_stats(
            &mut self,
            ctx: &popstab_sim::RoundContext,
            stats: &popstab_sim::RoundStats,
            rng: &mut popstab_sim::SimRng,
        ) -> Option<Vec<popstab_sim::Alteration<popstab_core::state::AgentState>>> {
            Some(self.decide(ctx, $crate::Seen::Stats(stats), rng))
        }
    };
}

pub mod bulk;
pub mod composite;
pub mod targeted;
pub mod throttle;
pub mod trauma;

pub use bulk::{Churn, ObliviousDeleter, RandomDeleter, RandomInserter};
pub use composite::Composite;
pub use targeted::{
    ClusterPoisoner, ColorFlooder, DesyncInserter, DeviationAmplifier, LeaderSniper,
};
pub use throttle::Throttle;
pub use trauma::{Trauma, TraumaKind};

use std::collections::BTreeMap;

use popstab_core::state::AgentState;
use popstab_sim::metrics::{RoundStats, RoundTally};

/// Returns the most common `round` value among the given agents, or `None`
/// if the slice is empty. Adversaries use this to forge agents that blend
/// in with (or deliberately clash with) the honest clock.
///
/// It folds through [`RoundTally`], the rule behind
/// [`RoundStats::majority_round`], so ties go to the largest round (never
/// a hash order: the result seeds forged agents) and a strategy deciding
/// from the stats of a population decides exactly as one reading it.
pub fn majority_round(agents: &[AgentState]) -> Option<u32> {
    let mut counts = BTreeMap::new();
    let mut tally = RoundTally::new(&mut counts);
    for a in agents {
        tally.push(a.round);
    }
    tally.finish().0
}

/// What a stats-only strategy decides from: the agents ([`act`]) or their
/// aggregate stats ([`act_on_stats`]). Each such strategy has one decision
/// function over this, so its two entry points cannot drift apart.
///
/// [`act`]: popstab_sim::Adversary::act
/// [`act_on_stats`]: popstab_sim::Adversary::act_on_stats
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seen<'a> {
    Agents(&'a [AgentState]),
    Stats(&'a RoundStats),
}

impl Seen<'_> {
    /// The population size.
    pub(crate) fn population(self) -> usize {
        match self {
            Seen::Agents(agents) => agents.len(),
            Seen::Stats(stats) => stats.population,
        }
    }

    /// The majority epoch round (see [`majority_round`]).
    pub(crate) fn majority_round(self) -> Option<u32> {
        match self {
            Seen::Agents(agents) => majority_round(agents),
            Seen::Stats(stats) => stats.majority_round,
        }
    }
}

/// The full attack suite at raw (per-round) budget `k`: every strategy the
/// paper's analysis must survive. At simulation scales you almost always
/// want [`throttled_suite`] instead — see [`throttle`] for why.
pub fn attack_suite(
    params: &popstab_core::params::Params,
    k: usize,
) -> Vec<Box<dyn popstab_sim::Adversary<AgentState>>> {
    use popstab_core::state::Color;
    vec![
        Box::new(RandomDeleter::new(k)),
        Box::new(RandomInserter::new(params.clone(), k)),
        Box::new(Churn::new(params.clone(), k)),
        Box::new(LeaderSniper::new(k, None)),
        Box::new(LeaderSniper::new(k, Some(Color::One))),
        Box::new(ColorFlooder::new(params.clone(), k, Color::Zero)),
        Box::new(ClusterPoisoner::new(k)),
        Box::new(DesyncInserter::new(params.clone(), k, 7)),
        Box::new(DeviationAmplifier::new(params.clone(), k)),
    ]
}

/// The attack suite metered to `k` alterations **per epoch** (the
/// scale-faithful budget; see [`throttle`]). Each strategy fires once per
/// epoch in round 1, right after leader selection — the protocol's most
/// sensitive moment.
pub fn throttled_suite(
    params: &popstab_core::params::Params,
    k: usize,
) -> Vec<Box<dyn popstab_sim::Adversary<AgentState>>> {
    let epoch = params.epoch_len();
    attack_suite(params, k)
        .into_iter()
        .map(|inner| {
            Box::new(Throttle::per_epoch(inner, epoch))
                as Box<dyn popstab_sim::Adversary<AgentState>>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_core::columns::StabilityColumns;
    use popstab_core::params::Params;
    use popstab_core::state::Color;
    use popstab_sim::rng::rng_from_seed;
    use popstab_sim::{Adversary, ColumnarStep, RoundContext, SimRng};
    use rand::Rng;

    type Boxed = Box<dyn Adversary<AgentState>>;

    /// Up to 300 agents mixing fresh, desynced, active and leader states
    /// over a handful of epoch rounds (some out of range), so majority
    /// ties are common.
    fn random_population(p: &Params, g: &mut SimRng) -> Vec<AgentState> {
        let t = p.epoch_len();
        let rounds = [0, 1, 2, 5, t - 1, t + 3];
        (0..g.random_range(0..300usize))
            .map(|_| {
                let r = rounds[g.random_range(0..rounds.len())];
                match g.random_range(0..4u32) {
                    0 => AgentState::fresh(p),
                    1 => AgentState::desynced(p, r),
                    2 => AgentState::active_at(p, r % t, Color::One),
                    _ => AgentState::leader(p, Color::Zero, g.random::<u64>() | 1),
                }
            })
            .collect()
    }

    /// Random populations, one per round, with a target that straddles
    /// their sizes.
    fn rounds_of_populations(p: &Params) -> impl Iterator<Item = (RoundContext, Vec<AgentState>)> {
        let p = p.clone();
        let mut g = rng_from_seed(0x57a7);
        (0..64u64).map(move |round| {
            let ctx = RoundContext {
                round,
                budget: 8,
                target: g.random_range(0..300u64),
            };
            (ctx, random_population(&p, &mut g))
        })
    }

    /// Drives two instances of one strategy side by side, one through
    /// `act` on each population, the other through `act_on_stats` on that
    /// population's stats: every decision must agree, and the two RNGs must
    /// stay in step.
    fn assert_decides_from_stats(make: impl Fn(&Params) -> Boxed) {
        let p = Params::for_target(1024).unwrap();
        let (mut by_agents, mut by_stats) = (make(&p), make(&p));
        let (mut ra, mut rs) = (rng_from_seed(9), rng_from_seed(9));
        let mut fired = 0;
        for (ctx, agents) in rounds_of_populations(&p) {
            let want = by_agents.act(&ctx, &agents, &mut ra);
            fired += usize::from(!want.is_empty());
            let got = by_stats.act_on_stats(&ctx, &RoundStats::observe(0, &agents), &mut rs);
            assert_eq!(
                got,
                Some(want),
                "{} at round {}",
                by_agents.name(),
                ctx.round
            );
            assert_eq!(ra.random::<u64>(), rs.random::<u64>());
        }
        assert!(fired > 0, "{} never acted", by_agents.name());
    }

    /// A declining strategy returns `None` without drawing, and what it
    /// then does through `act` equals what a twin never asked does.
    fn assert_declines(make: impl Fn(&Params) -> Boxed) {
        let p = Params::for_target(1024).unwrap();
        let (mut asked, mut twin) = (make(&p), make(&p));
        for (ctx, agents) in rounds_of_populations(&p) {
            let mut rng = rng_from_seed(ctx.round);
            let stats = RoundStats::observe(0, &agents);
            assert_eq!(asked.act_on_stats(&ctx, &stats, &mut rng), None);
            assert_eq!(rng, rng_from_seed(ctx.round), "a declining strategy drew");
            assert_eq!(
                asked.act(&ctx, &agents, &mut rng),
                twin.act(&ctx, &agents, &mut rng_from_seed(ctx.round)),
                "{} changed state while declining",
                asked.name()
            );
        }
    }

    #[test]
    fn random_deleter_decides_from_stats() {
        assert_decides_from_stats(|_| Box::new(RandomDeleter::new(5)));
    }

    #[test]
    fn oblivious_deleter_decides_from_stats() {
        assert_decides_from_stats(|_| Box::new(ObliviousDeleter::new(5)));
    }

    #[test]
    fn random_inserter_decides_from_stats() {
        assert_decides_from_stats(|p| Box::new(RandomInserter::new(p.clone(), 3)));
    }

    #[test]
    fn churn_decides_from_stats() {
        assert_decides_from_stats(|p| Box::new(Churn::new(p.clone(), 5)));
    }

    #[test]
    fn desync_inserter_decides_from_stats() {
        assert_decides_from_stats(|p| Box::new(DesyncInserter::new(p.clone(), 3, 7)));
    }

    #[test]
    fn deviation_amplifier_decides_from_stats() {
        assert_decides_from_stats(|p| Box::new(DeviationAmplifier::new(p.clone(), 4)));
    }

    #[test]
    fn color_flooder_decides_from_stats() {
        assert_decides_from_stats(|p| Box::new(ColorFlooder::new(p.clone(), 2, Color::One)));
    }

    #[test]
    fn trauma_decides_from_stats() {
        assert_decides_from_stats(|p| Box::new(Trauma::new(p.clone(), TraumaKind::Injury, 0.3, 5)));
        assert_decides_from_stats(|p| {
            Box::new(Trauma::new(p.clone(), TraumaKind::Proliferation, 0.3, 5))
        });
    }

    #[test]
    fn throttle_decides_from_stats_around_a_stats_only_strategy() {
        assert_decides_from_stats(|p| Box::new(Throttle::new(Churn::new(p.clone(), 4), 5, 1)));
    }

    #[test]
    fn state_reading_strategies_decline() {
        assert_declines(|_| Box::new(LeaderSniper::new(3, None)));
        assert_declines(|_| Box::new(LeaderSniper::new(3, Some(Color::One))));
        assert_declines(|_| Box::new(ClusterPoisoner::new(3)));
        // Even of stats-only parts: a later part declining after an earlier
        // one decided would break the touch-nothing rule.
        assert_declines(|p| {
            Box::new(Composite::new(
                "combo",
                vec![
                    Box::new(RandomDeleter::new(1)),
                    Box::new(Churn::new(p.clone(), 2)),
                ],
            ))
        });
    }

    #[test]
    fn throttle_forwards_the_hook_only_on_firing_rounds() {
        let p = Params::for_target(1024).unwrap();
        let mut adv = Throttle::new(LeaderSniper::new(2, None), 5, 1);
        for (ctx, agents) in rounds_of_populations(&p) {
            let mut rng = rng_from_seed(ctx.round);
            let got = adv.act_on_stats(&ctx, &RoundStats::observe(0, &agents), &mut rng);
            let want = if ctx.round % 5 == 1 {
                None
            } else {
                Some(Vec::new())
            };
            assert_eq!(got, want, "round {}", ctx.round);
            assert_eq!(rng, rng_from_seed(ctx.round));
        }
    }

    /// One majority rule: the adversary's, the vector stats' and the
    /// resident columns' agree on a multi-valued population whose two most
    /// common rounds tie, in runs that interleave.
    #[test]
    fn majority_round_agrees_with_both_stats_paths() {
        let p = Params::for_target(1024).unwrap();
        let t = p.epoch_len();
        let agents: Vec<AgentState> = [9, 9, 2, 9, 5, 2, 2, t - 1, 5, 9, 2]
            .iter()
            .map(|&r| AgentState::desynced(&p, r))
            .collect();
        let mut columns = StabilityColumns::new(p.clone());
        columns.load(&agents, None);
        let from_columns = columns
            .observe(0, &mut BTreeMap::new())
            .expect("the protocol's columns observe");
        assert_eq!(
            majority_round(&agents),
            Some(9),
            "ties go to the larger round"
        );
        assert_eq!(RoundStats::observe(0, &agents).majority_round, Some(9));
        assert_eq!(from_columns.majority_round, Some(9));
    }

    #[test]
    fn majority_round_of_empty_is_none() {
        assert_eq!(majority_round(&[]), None);
    }

    #[test]
    fn majority_round_picks_mode() {
        let p = Params::for_target(1024).unwrap();
        let mut agents = vec![AgentState::desynced(&p, 7); 5];
        agents.push(AgentState::desynced(&p, 3));
        agents.push(AgentState::desynced(&p, 3));
        assert_eq!(majority_round(&agents), Some(7));
    }

    #[test]
    fn attack_suite_is_nonempty_and_named() {
        let p = Params::for_target(1024).unwrap();
        let suite = attack_suite(&p, 3);
        assert!(suite.len() >= 8);
        let mut names: Vec<&str> = suite.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert!(names.len() >= 8, "strategy names should be distinct");
    }
}
