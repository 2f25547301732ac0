//! Bulk (untargeted) adversaries: raw insertion/deletion pressure.

use popstab_core::params::Params;
use popstab_core::state::AgentState;
use popstab_sim::{Adversary, Alteration, RoundContext, SimRng};
use rand::Rng;

use crate::Seen;

/// Deletes `k` uniformly random agents per round, chosen with full knowledge
/// of the state slice (though for uniform deletion the knowledge is unused).
#[derive(Debug, Clone, Copy)]
pub struct RandomDeleter {
    k: usize,
}

impl RandomDeleter {
    /// Deletes `k` agents per round.
    pub fn new(k: usize) -> Self {
        RandomDeleter { k }
    }

    fn decide(
        &mut self,
        _ctx: &RoundContext,
        seen: Seen<'_>,
        rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        sample_distinct(seen.population(), self.k, rng)
            .into_iter()
            .map(Alteration::Delete)
            .collect()
    }
}

impl Adversary<AgentState> for RandomDeleter {
    fn name(&self) -> &'static str {
        "random-delete"
    }

    decide_from_seen!();
}

/// A *state-oblivious* deleter: removes the `k` oldest slots (lowest
/// indices) each round, a schedule fixed in advance that never depends on
/// agent state or coin flips. This is the weak adversary model of §1.3.1
/// under which Attempt 1 is sound.
#[derive(Debug, Clone, Copy)]
pub struct ObliviousDeleter {
    k: usize,
}

impl ObliviousDeleter {
    /// Deletes `k` agents per round by fixed schedule.
    pub fn new(k: usize) -> Self {
        ObliviousDeleter { k }
    }

    fn decide(
        &mut self,
        _ctx: &RoundContext,
        seen: Seen<'_>,
        _rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        (0..self.k.min(seen.population()))
            .map(Alteration::Delete)
            .collect()
    }
}

impl Adversary<AgentState> for ObliviousDeleter {
    fn name(&self) -> &'static str {
        "oblivious-delete"
    }

    decide_from_seen!();
}

/// Inserts `k` fresh agents per round, forged with the honest majority round
/// so they blend in immediately (the strongest pure-growth pressure: the
/// consistency check never catches them).
#[derive(Debug, Clone)]
pub struct RandomInserter {
    params: Params,
    k: usize,
}

impl RandomInserter {
    /// Inserts `k` agents per round.
    pub fn new(params: Params, k: usize) -> Self {
        RandomInserter { params, k }
    }

    fn decide(
        &mut self,
        _ctx: &RoundContext,
        seen: Seen<'_>,
        _rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        let round = seen.majority_round().unwrap_or(0);
        (0..self.k)
            .map(|_| Alteration::Insert(AgentState::desynced(&self.params, round)))
            .collect()
    }
}

impl Adversary<AgentState> for RandomInserter {
    fn name(&self) -> &'static str {
        "random-insert"
    }

    decide_from_seen!();
}

/// Half deletions, half insertions each round: maximum turnover with zero
/// net direct pressure — every agent the protocol colored may vanish and be
/// replaced by a blank one.
#[derive(Debug, Clone)]
pub struct Churn {
    params: Params,
    k: usize,
}

impl Churn {
    /// Performs `⌊k/2⌋` deletions and `⌈k/2⌉` insertions per round.
    pub fn new(params: Params, k: usize) -> Self {
        Churn { params, k }
    }

    fn decide(
        &mut self,
        _ctx: &RoundContext,
        seen: Seen<'_>,
        rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        let deletes = self.k / 2;
        let inserts = self.k - deletes;
        let round = seen.majority_round().unwrap_or(0);
        let mut out: Vec<Alteration<AgentState>> = sample_distinct(seen.population(), deletes, rng)
            .into_iter()
            .map(Alteration::Delete)
            .collect();
        out.extend(
            (0..inserts).map(|_| Alteration::Insert(AgentState::desynced(&self.params, round))),
        );
        out
    }
}

impl Adversary<AgentState> for Churn {
    fn name(&self) -> &'static str {
        "churn"
    }

    decide_from_seen!();
}

/// Samples up to `k` distinct indices from `0..len` (all of them if
/// `k ≥ len`), returned in ascending order.
pub(crate) fn sample_distinct(len: usize, k: usize, rng: &mut SimRng) -> Vec<usize> {
    if k >= len {
        return (0..len).collect();
    }
    // Floyd's algorithm: k distinct samples in O(k log k) time. The set is
    // ordered on purpose: a HashSet here would hand back the sampled
    // indices in per-process random order, and that order reaches results —
    // the engine truncates an over-budget alteration list positionally
    // (`take(adversary_budget)`), so *which* deletions survive would depend
    // on the hash seed, not on the simulation seed.
    use std::collections::BTreeSet;
    let mut chosen = BTreeSet::new();
    for j in (len - k)..len {
        let t = rng.random_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::rng::rng_from_seed;

    fn params() -> Params {
        Params::for_target(1024).unwrap()
    }

    fn ctx(budget: usize) -> RoundContext {
        RoundContext {
            round: 0,
            budget,
            target: 1024,
        }
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = rng_from_seed(1);
        for _ in 0..100 {
            let s = sample_distinct(50, 20, &mut rng);
            assert_eq!(s.len(), 20);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 20);
            assert!(sorted.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn sample_distinct_saturates() {
        let mut rng = rng_from_seed(2);
        assert_eq!(sample_distinct(5, 10, &mut rng).len(), 5);
        assert!(sample_distinct(0, 3, &mut rng).is_empty());
    }

    #[test]
    fn random_deleter_emits_k_deletes() {
        let p = params();
        let agents = vec![AgentState::fresh(&p); 30];
        let mut adv = RandomDeleter::new(4);
        let out = adv.act(&ctx(4), &agents, &mut rng_from_seed(3));
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|a| a.is_delete()));
    }

    #[test]
    fn oblivious_deleter_is_schedule_based() {
        let p = params();
        let agents = vec![AgentState::fresh(&p); 10];
        let mut adv = ObliviousDeleter::new(3);
        let out = adv.act(&ctx(3), &agents, &mut rng_from_seed(4));
        assert_eq!(
            out,
            vec![
                Alteration::Delete(0),
                Alteration::Delete(1),
                Alteration::Delete(2)
            ]
        );
    }

    #[test]
    fn inserter_forges_majority_round() {
        let p = params();
        let agents = vec![AgentState::desynced(&p, 42); 10];
        let mut adv = RandomInserter::new(p.clone(), 2);
        let out = adv.act(&ctx(2), &agents, &mut rng_from_seed(5));
        assert_eq!(out.len(), 2);
        for alt in out {
            match alt {
                Alteration::Insert(s) => assert_eq!(s.round, 42),
                other => panic!("expected insert, got {other:?}"),
            }
        }
    }

    #[test]
    fn churn_mixes_deletes_and_inserts() {
        let p = params();
        let agents = vec![AgentState::fresh(&p); 20];
        let mut adv = Churn::new(p.clone(), 5);
        let out = adv.act(&ctx(5), &agents, &mut rng_from_seed(6));
        let deletes = out.iter().filter(|a| a.is_delete()).count();
        let inserts = out.iter().filter(|a| a.is_insert()).count();
        assert_eq!(deletes, 2);
        assert_eq!(inserts, 3);
    }
}
