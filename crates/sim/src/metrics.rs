//! Per-round metrics derived from generic agent observations.

use std::collections::BTreeMap;

use crate::agent::{Observable, Observation};

/// Aggregate statistics of one recorded round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Global round number (0-based).
    pub round: u64,
    /// Population after the round's splits/deaths were applied.
    pub population: usize,
    /// Number of active (colored) agents.
    pub active: usize,
    /// Active agents with color 0.
    pub color0: usize,
    /// Active agents with color 1.
    pub color1: usize,
    /// Agents flagged as leaders this epoch (instrumentation).
    pub leaders: usize,
    /// Agents currently recruiting.
    pub recruiting: usize,
    /// Agents reporting they are in their evaluation round.
    pub in_eval: usize,
    /// The most common epoch-round value among agents, if any report one.
    pub majority_round: Option<u32>,
    /// Agents whose epoch-round differs from the majority value.
    pub wrong_round: usize,
    /// Splits executed this round.
    pub splits: usize,
    /// Protocol-initiated deaths this round (excludes adversarial deletion).
    pub deaths: usize,
    /// Agents inserted by the adversary this round.
    pub adv_inserted: usize,
    /// Agents deleted by the adversary this round.
    pub adv_deleted: usize,
    /// Agents whose memory the adversary overwrote this round.
    pub adv_modified: usize,
}

impl RoundStats {
    /// Builds the observation-derived part of the stats from a population.
    pub fn observe<S: Observable>(round: u64, agents: &[S]) -> RoundStats {
        RoundStats::observe_with(round, agents, &mut BTreeMap::new())
    }

    /// As [`observe`](RoundStats::observe), but reusing `round_counts` as the
    /// epoch-round histogram scratch (cleared on entry), so a recorder that
    /// observes every round allocates it once.
    pub fn observe_with<S: Observable>(
        round: u64,
        agents: &[S],
        round_counts: &mut BTreeMap<u32, usize>,
    ) -> RoundStats {
        let mut stats = RoundStats {
            round,
            population: agents.len(),
            ..RoundStats::default()
        };
        let mut tally = RoundTally::new(round_counts);
        for agent in agents {
            let obs: Observation = agent.observe();
            if obs.active {
                stats.active += 1;
                match obs.color {
                    Some(false) => stats.color0 += 1,
                    Some(true) => stats.color1 += 1,
                    None => {}
                }
            }
            if obs.recruiting {
                stats.recruiting += 1;
            }
            if obs.in_eval_phase {
                stats.in_eval += 1;
            }
            if obs.is_leader {
                stats.leaders += 1;
            }
            if let Some(r) = obs.round_in_epoch {
                tally.push(r);
            }
        }
        (stats.majority_round, stats.wrong_round) = tally.finish();
        stats
    }

    /// Signed color imbalance `c0 − c1` among active agents.
    pub fn color_imbalance(&self) -> i64 {
        self.color0 as i64 - self.color1 as i64
    }

    /// Fraction of the population that is active (0 if empty).
    pub fn active_fraction(&self) -> f64 {
        if self.population == 0 {
            0.0
        } else {
            self.active as f64 / self.population as f64
        }
    }
}

/// The epoch-round histogram behind [`RoundStats::majority_round`] and
/// [`RoundStats::wrong_round`], filled run by run: consecutive agents
/// reporting the same round cost one map update per run, not one per
/// agent. [`RoundStats::observe_with`] and every column-native
/// [`ColumnarStep::observe`](crate::ColumnarStep::observe) fold through it,
/// so the two paths share one majority rule.
#[derive(Debug)]
pub struct RoundTally<'a> {
    counts: &'a mut BTreeMap<u32, usize>,
    value: u32,
    run: usize,
}

impl<'a> RoundTally<'a> {
    /// Starts a tally into `counts`, clearing it.
    pub fn new(counts: &'a mut BTreeMap<u32, usize>) -> RoundTally<'a> {
        counts.clear();
        RoundTally {
            counts,
            value: 0,
            run: 0,
        }
    }

    /// Counts one agent reporting epoch round `r`.
    #[inline]
    pub fn push(&mut self, r: u32) {
        if self.run > 0 && r == self.value {
            self.run += 1;
        } else {
            self.flush();
            self.value = r;
            self.run = 1;
        }
    }

    fn flush(&mut self) {
        if self.run > 0 {
            *self.counts.entry(self.value).or_insert(0) += self.run;
        }
    }

    /// Closes the tally: `(majority_round, wrong_round)`. The majority is
    /// the most common round, the largest one among equally common rounds
    /// (the map iterates in key order, so the tie-break is deterministic —
    /// a `HashMap` here would resolve ties in per-process random order);
    /// `wrong_round` counts every tallied agent off it.
    pub fn finish(mut self) -> (Option<u32>, usize) {
        self.flush();
        match self.counts.iter().max_by_key(|&(_, c)| *c) {
            Some((&majority, &count)) => {
                let total: usize = self.counts.values().sum();
                (Some(majority), total - count)
            }
            None => (None, 0),
        }
    }
}

/// Collects [`RoundStats`] over a run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    stats: Vec<RoundStats>,
}

impl MetricsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Appends one round's stats.
    pub fn record(&mut self, stats: RoundStats) {
        self.stats.push(stats);
    }

    /// All recorded rounds, in order.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.stats
    }

    /// The most recent record, if any.
    pub fn last(&self) -> Option<&RoundStats> {
        self.stats.last()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Discards all records (e.g. after a warm-up phase).
    pub fn clear(&mut self) {
        self.stats.clear();
    }

    /// Trajectory view over the recorded rounds.
    pub fn trajectory(&self) -> crate::trace::Trajectory<'_> {
        crate::trace::Trajectory::new(self.rounds())
    }

    /// Minimum and maximum population over all records, if any.
    pub fn population_range(&self) -> Option<(usize, usize)> {
        let mut it = self.stats.iter().map(|s| s.population);
        let first = it.next()?;
        let mut lo = first;
        let mut hi = first;
        for p in it {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Some((lo, hi))
    }

    /// Maximum `wrong_round` over all records (Lemma 3 diagnostics).
    pub fn max_wrong_round(&self) -> usize {
        self.stats.iter().map(|s| s.wrong_round).max().unwrap_or(0)
    }

    /// Maximum active fraction over all records (Lemma 4 diagnostics).
    pub fn max_active_fraction(&self) -> f64 {
        self.stats
            .iter()
            .map(|s| s.active_fraction())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Observation;

    struct Fake(Observation);
    impl Observable for Fake {
        fn observe(&self) -> Observation {
            self.0
        }
    }

    fn agent(active: bool, color: Option<bool>, round: Option<u32>) -> Fake {
        Fake(Observation {
            active,
            color,
            round_in_epoch: round,
            ..Observation::default()
        })
    }

    #[test]
    fn observe_counts_colors_and_rounds() {
        let pop = vec![
            agent(true, Some(false), Some(3)),
            agent(true, Some(true), Some(3)),
            agent(true, Some(true), Some(3)),
            agent(false, None, Some(5)),
        ];
        let s = RoundStats::observe(7, &pop);
        assert_eq!(s.round, 7);
        assert_eq!(s.population, 4);
        assert_eq!(s.active, 3);
        assert_eq!(s.color0, 1);
        assert_eq!(s.color1, 2);
        assert_eq!(s.majority_round, Some(3));
        assert_eq!(s.wrong_round, 1);
        assert_eq!(s.color_imbalance(), -1);
        assert!((s.active_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn observe_empty_population() {
        let pop: Vec<Fake> = vec![];
        let s = RoundStats::observe(0, &pop);
        assert_eq!(s.population, 0);
        assert_eq!(s.majority_round, None);
        assert_eq!(s.active_fraction(), 0.0);
    }

    #[test]
    fn tally_merges_runs_and_breaks_ties_toward_the_larger_round() {
        let mut counts = BTreeMap::from([(7, 100)]);
        let mut tally = RoundTally::new(&mut counts);
        for r in [4, 4, 9, 9, 9, 4, 1] {
            tally.push(r);
        }
        assert_eq!(tally.finish(), (Some(9), 4));
        assert_eq!(counts, BTreeMap::from([(1, 1), (4, 3), (9, 3)]));
        assert_eq!(RoundTally::new(&mut counts).finish(), (None, 0));
    }

    #[test]
    fn recorder_range_and_maxima() {
        let mut rec = MetricsRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.population_range(), None);
        for (i, p) in [10usize, 14, 8, 12].iter().enumerate() {
            rec.record(RoundStats {
                round: i as u64,
                population: *p,
                active: *p / 2,
                wrong_round: i,
                ..RoundStats::default()
            });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.population_range(), Some((8, 14)));
        assert_eq!(rec.max_wrong_round(), 3);
        assert!((rec.max_active_fraction() - 0.5).abs() < 1e-9);
        rec.clear();
        assert!(rec.is_empty());
    }
}
