//! Trajectory views over recorded metrics, plus CSV export.

use std::io::{self, Write};

use crate::metrics::RoundStats;

/// A read-only view over a run's recorded rounds with convenience analytics.
#[derive(Debug, Clone, Copy)]
pub struct Trajectory<'a> {
    stats: &'a [RoundStats],
}

impl<'a> Trajectory<'a> {
    /// Wraps a slice of recorded rounds.
    pub fn new(stats: &'a [RoundStats]) -> Self {
        Trajectory { stats }
    }

    /// The underlying records.
    pub fn rounds(&self) -> &'a [RoundStats] {
        self.stats
    }

    /// Population value of each recorded round.
    pub fn population_series(&self) -> Vec<usize> {
        self.stats.iter().map(|s| s.population).collect()
    }

    /// Populations sampled at the end of each epoch of length `epoch_len`
    /// (records whose round number is `≡ epoch_len − 1 (mod epoch_len)`).
    pub fn epoch_end_populations(&self, epoch_len: u64) -> Vec<usize> {
        assert!(epoch_len > 0, "epoch_len must be positive");
        self.stats
            .iter()
            .filter(|s| s.round % epoch_len == epoch_len - 1)
            .map(|s| s.population)
            .collect()
    }

    /// Largest absolute population change between consecutive epoch ends.
    pub fn max_epoch_deviation(&self, epoch_len: u64) -> Option<u64> {
        let pops = self.epoch_end_populations(epoch_len);
        pops.windows(2).map(|w| w[1].abs_diff(w[0]) as u64).max()
    }

    /// Whether every recorded population lies in `[lo, hi]`.
    pub fn stays_within(&self, lo: usize, hi: usize) -> bool {
        self.stats.iter().all(|s| (lo..=hi).contains(&s.population))
    }

    /// First recorded round whose population leaves `[lo, hi]`, if any.
    pub fn first_violation(&self, lo: usize, hi: usize) -> Option<u64> {
        self.stats
            .iter()
            .find(|s| !(lo..=hi).contains(&s.population))
            .map(|s| s.round)
    }

    /// Writes the trajectory as CSV (header + one row per record).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(
            out,
            "round,population,active,color0,color1,leaders,recruiting,in_eval,wrong_round,\
             splits,deaths,adv_inserted,adv_deleted,adv_modified"
        )?;
        for s in self.stats {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                s.round,
                s.population,
                s.active,
                s.color0,
                s.color1,
                s.leaders,
                s.recruiting,
                s.in_eval,
                s.wrong_round,
                s.splits,
                s.deaths,
                s.adv_inserted,
                s.adv_deleted,
                s.adv_modified
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(round: u64, population: usize) -> RoundStats {
        RoundStats {
            round,
            population,
            ..RoundStats::default()
        }
    }

    #[test]
    fn series_and_bounds() {
        let rounds: Vec<_> = (0..10usize)
            .map(|r| stats_with(r as u64, 100 + r))
            .collect();
        let t = Trajectory::new(&rounds);
        assert_eq!(t.population_series().len(), 10);
        assert!(t.stays_within(100, 109));
        assert!(!t.stays_within(100, 105));
        assert_eq!(t.first_violation(100, 105), Some(6));
        assert_eq!(t.first_violation(0, 1000), None);
    }

    #[test]
    fn epoch_sampling() {
        let rounds: Vec<_> = (0..20usize)
            .map(|r| stats_with(r as u64, (r + 1) * 10))
            .collect();
        let t = Trajectory::new(&rounds);
        // epoch_len 5 -> rounds 4, 9, 14, 19
        assert_eq!(t.epoch_end_populations(5), vec![50, 100, 150, 200]);
        assert_eq!(t.max_epoch_deviation(5), Some(50));
    }

    #[test]
    #[should_panic(expected = "epoch_len must be positive")]
    fn zero_epoch_len_panics() {
        let rounds = [stats_with(0, 1)];
        Trajectory::new(&rounds).epoch_end_populations(0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rounds = [stats_with(0, 5), stats_with(1, 6)];
        let mut buf = Vec::new();
        Trajectory::new(&rounds).write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("round,population"));
        assert!(lines[1].starts_with("0,5,"));
        assert!(lines[2].starts_with("1,6,"));
    }
}
