//! Attempt 2 (§1.3.1): independent coloring.
//!
//! Every epoch (three rounds here): each agent flips a fair color, then
//! observes the colors of its neighbors in the next two rounds and compares
//! *them*. Meeting the same agent twice forces equality, so
//! `P(equal) = ½ + 1/(2(m−1))` at population `m` — a vanishing signal about
//! `m`. With split probability `1 − 2/N` on "equal" and certain death on
//! "unequal", the expected drift is zero exactly at `m = N`… but the
//! restoring force is `Θ(1)` per epoch while the noise is `Θ(√m)`, so the
//! population behaves like a random walk and wanders `Θ(√(epochs·m))` away
//! — "even worse than the empty protocol", as the paper puts it, and the
//! reason the real protocol correlates colors through clusters instead.

use popstab_sim::snapshot::{self, SnapshotError, SnapshotReader, SnapshotState};
use popstab_sim::{Action, Observable, Observation, Protocol, SimRng};
use rand::Rng;

/// Baseline protocol: independent coloring.
#[derive(Debug, Clone, Copy)]
pub struct Attempt2 {
    target: u64,
}

/// Epoch length of [`Attempt2`] in rounds.
pub const EPOCH_LEN: u32 = 3;

impl Attempt2 {
    /// Creates the baseline for target `n`.
    pub fn new(n: u64) -> Attempt2 {
        assert!(n >= 4, "target must be at least 4");
        Attempt2 { target: n }
    }

    /// The population target.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// The split probability on equal colors, `1 − 2/N`.
    pub fn split_probability(&self) -> f64 {
        1.0 - 2.0 / self.target as f64
    }
}

/// Attempt-2 agent state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct A2State {
    /// Round within the 3-round epoch.
    pub round: u32,
    /// This epoch's own color.
    pub color: bool,
    /// The first observed neighbor color, if any.
    pub first: Option<bool>,
}

impl Observable for A2State {
    fn observe(&self) -> Observation {
        Observation {
            round_in_epoch: Some(self.round),
            active: true,
            color: Some(self.color),
            ..Observation::default()
        }
    }
}

impl SnapshotState for A2State {
    fn state_tag() -> String {
        "attempt2".to_string()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        snapshot::write_u32(out, self.round);
        snapshot::write_bool(out, self.color);
        // The optional first-neighbor color as a 3-way tag.
        snapshot::write_u8(
            out,
            match self.first {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            },
        );
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(A2State {
            round: r.u32()?,
            color: r.bool()?,
            first: match r.u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                _ => return Err(r.malformed("unknown attempt2 first-color tag")),
            },
        })
    }
}

impl Protocol for Attempt2 {
    type State = A2State;
    type Message = bool;

    fn initial_state(&self, rng: &mut SimRng) -> A2State {
        A2State {
            round: 0,
            color: rng.random(),
            first: None,
        }
    }

    fn message(&self, state: &A2State) -> bool {
        state.color
    }

    fn step(&self, s: &mut A2State, incoming: Option<&bool>, rng: &mut SimRng) -> Action {
        s.round %= EPOCH_LEN;
        match s.round {
            0 => {
                s.color = rng.random();
                s.first = None;
                s.round = 1;
                Action::Continue
            }
            1 => {
                s.first = incoming.copied();
                s.round = 2;
                Action::Continue
            }
            _ => {
                let second = incoming.copied();
                let action = match (s.first, second) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            if rng.random_bool(self.split_probability()) {
                                Action::Split
                            } else {
                                Action::Continue
                            }
                        } else {
                            Action::Die
                        }
                    }
                    // Unmatched in either round: abstain this epoch.
                    _ => Action::Continue,
                };
                s.first = None;
                s.round = 0;
                action
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_analysis::stats::Summary;
    use popstab_sim::{Engine, RunSpec, SimConfig};

    const N: u64 = 1024;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::builder()
            .seed(seed)
            .target(N)
            .max_population(64 * N as usize)
            .build()
            .unwrap()
    }

    #[test]
    fn drift_is_near_zero_at_target() {
        // One epoch from m = N: expected change ≈ 0 (weak restoring force).
        // 20 independent single-epoch trials as one batch.
        let deltas_vec =
            popstab_sim::BatchRunner::default().run((0..20u64).collect(), |_, seed| {
                let mut engine = Engine::with_population(Attempt2::new(N), cfg(seed), N as usize);
                engine.run(RunSpec::rounds(u64::from(EPOCH_LEN)), &mut ());
                engine.population() as f64 - N as f64
            });
        let mut deltas = Summary::new();
        for d in deltas_vec {
            deltas.push(d);
        }
        // Per-epoch sd is Θ(√N) ≈ 30; the mean over 20 trials should be small.
        assert!(deltas.mean().abs() < 25.0, "mean drift {}", deltas.mean());
    }

    #[test]
    fn population_random_walks_far_from_target() {
        // Over many epochs the deviation grows far beyond what the real
        // protocol allows; with no adversary at all. Each seed is one batch
        // job on the fast path, stopping as soon as its walk leaves the 20%
        // band (the run is existential: only the max deviation matters).
        let devs = popstab_sim::BatchRunner::default().run((100..104u64).collect(), |_, seed| {
            let mut engine = Engine::with_population(Attempt2::new(N), cfg(seed), N as usize);
            let mut dev = 0f64;
            engine.run(
                RunSpec::until(3000 * u64::from(EPOCH_LEN), |r| {
                    dev = dev.max((r.population_after as f64 - N as f64).abs());
                    dev > N as f64 * 0.2
                }),
                &mut (),
            );
            dev
        });
        let max_dev = devs.into_iter().fold(0f64, f64::max);
        assert!(
            max_dev > N as f64 * 0.2,
            "random walk stayed within 20% over 3000 epochs (dev={max_dev}); \
             that would contradict the paper's Attempt-2 analysis"
        );
    }

    #[test]
    fn unmatched_agents_abstain() {
        let proto = Attempt2::new(N);
        let mut rng = popstab_sim::rng::rng_from_seed(5);
        let mut s = A2State {
            round: 2,
            color: true,
            first: Some(true),
        };
        // No second observation: must continue and reset.
        assert_eq!(proto.step(&mut s, None, &mut rng), Action::Continue);
        assert_eq!(s.round, 0);
        assert_eq!(s.first, None);
    }

    #[test]
    fn unequal_observations_kill() {
        let proto = Attempt2::new(N);
        let mut rng = popstab_sim::rng::rng_from_seed(6);
        let mut s = A2State {
            round: 2,
            color: true,
            first: Some(true),
        };
        assert_eq!(proto.step(&mut s, Some(&false), &mut rng), Action::Die);
    }

    #[test]
    fn equal_observations_mostly_split() {
        let proto = Attempt2::new(N);
        let mut rng = popstab_sim::rng::rng_from_seed(7);
        let mut splits = 0;
        for _ in 0..1000 {
            let mut s = A2State {
                round: 2,
                color: false,
                first: Some(true),
            };
            if proto.step(&mut s, Some(&true), &mut rng) == Action::Split {
                splits += 1;
            }
        }
        assert!(splits > 950, "splits={splits}, want ≈ 1000·(1−2/N)");
    }
}
