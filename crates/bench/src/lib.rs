//! Experiment harness for the population-stability reproduction.
//!
//! The paper (PODC 2018) is a theory result with no empirical section, so
//! each analysis claim defines one experiment (see DESIGN.md §4 for the
//! index). The `experiments` binary regenerates every table/figure:
//!
//! ```sh
//! cargo run --release -p popstab-bench --bin experiments -- all
//! cargo run --release -p popstab-bench --bin experiments -- drift --quick
//! cargo run --release -p popstab-bench --bin experiments -- --list
//! cargo run --release -p popstab-bench --bin experiments -- scenario clean-1024
//! ```
//!
//! Experiment drivers are declarative: a [`JobSpec`] describes one
//! protocol run (seed, matching, budget, epochs, recording stride),
//! [`run_protocol`] lowers it onto a [`Scenario`] +
//! [`Engine::run`](popstab_sim::Engine::run) with a
//! [`RecordStats`] observer, and the [`scenario`] module names ready-made
//! protocol/adversary/config combos the binary resolves by name.
//! Criterion micro-benchmarks for the hot paths live in `benches/`.

pub mod experiments;
pub mod scenario;

use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_core::state::AgentState;
use popstab_sim::{
    Adversary, BatchRunner, Engine, MatchingModel, MetricsRecorder, NoOpAdversary, RecordStats,
    RunOutcome, RunSpec, Scenario, SimConfig, Threads, Trajectory,
};

/// What one `experiments` invocation asked for, parsed once from the
/// command line and handed by reference to every experiment and registry
/// entry. By the determinism contracts the two worker counts never change
/// a result, only how fast it arrives.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// `--quick`: shorter horizons, same table shapes.
    pub quick: bool,
    /// The trial fan-out (`--jobs N`; default one worker per core).
    pub runner: BatchRunner,
    /// How every protocol round executes (`--round-threads N`; default
    /// serial rounds).
    pub threads: Threads,
    /// Whether `--round-threads` was given at all, so the `bench`
    /// experiment can tell an explicit `--round-threads 1` from the
    /// default.
    pub round_threads_given: bool,
    /// `--n LIST`: the `bench` experiment's scale plan; `None` keeps its
    /// default.
    pub bench_ns: Option<Vec<u64>>,
}

/// Declarative description of one protocol experiment job.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// RNG seed.
    pub seed: u64,
    /// Initial population (defaults to the target `N` if `None`).
    pub initial: Option<usize>,
    /// Matched fraction (1.0 = full matching), used when `matching` is
    /// `None`.
    pub gamma: f64,
    /// Explicit matching-model override (e.g. `RandomFraction`); takes
    /// precedence over `gamma`.
    pub matching: Option<MatchingModel>,
    /// Per-round adversary budget enforced by the engine.
    pub budget: usize,
    /// Number of epochs to run.
    pub epochs: u64,
    /// Recording stride as `(every, phase)` for the
    /// [`RecordStats`] observer; `None` records every round. Experiments
    /// that only consume per-epoch samples (e.g. via
    /// `epoch_end_populations` or the variance estimator) set a stride and
    /// skip the per-round observation scan.
    pub metrics: Option<(u64, u64)>,
}

impl JobSpec {
    /// A default spec: start at `N`, full matching, no adversary budget,
    /// full recording.
    pub fn new(seed: u64, epochs: u64) -> JobSpec {
        JobSpec {
            seed,
            initial: None,
            gamma: 1.0,
            matching: None,
            budget: 0,
            epochs,
            metrics: None,
        }
    }

    /// Records only epoch-end rounds (the `epoch_end_populations` /
    /// `max_epoch_deviation` sampling points) instead of every round.
    pub fn record_epoch_ends(mut self, params: &Params) -> JobSpec {
        self.metrics = Some((u64::from(params.epoch_len()), 0));
        self
    }

    /// Records only the evaluation-round snapshots the variance estimator
    /// harvests: the rounds whose stats report `majority_round ==
    /// eval_round` are those executed one round before the epoch boundary.
    pub fn record_eval_rounds(mut self, params: &Params) -> JobSpec {
        let epoch = u64::from(params.epoch_len());
        self.metrics = Some((epoch, epoch - 1));
        self
    }
}

/// A finished protocol run: the engine (for state inspection), the metrics
/// the [`RecordStats`] observer collected, and the driver outcome.
#[derive(Debug)]
pub struct ProtocolRun<A: Adversary<AgentState> = NoOpAdversary> {
    /// The engine after the run.
    pub engine: Engine<PopulationStability, A>,
    /// The recorded metrics (per the [`JobSpec::metrics`] stride).
    pub metrics: MetricsRecorder,
    /// What the driver did.
    pub outcome: RunOutcome,
}

impl<A: Adversary<AgentState>> ProtocolRun<A> {
    /// Final population.
    pub fn population(&self) -> usize {
        self.engine.population()
    }

    /// `(min, max)` of the population over every recorded round.
    pub fn population_range(&self) -> Option<(usize, usize)> {
        self.metrics.population_range()
    }

    /// Trajectory view over the recorded metrics.
    pub fn trajectory(&self) -> Trajectory<'_> {
        self.metrics.trajectory()
    }
}

/// Lowers a [`JobSpec`] onto the [`Scenario`] it describes without running
/// it. [`run_protocol`] is `protocol_scenario` + drive-to-horizon; the
/// snapshot/resume/fork tooling builds engines from the scenario directly
/// (the `epochs` field of the spec is a run-time concern and is ignored
/// here).
pub fn protocol_scenario<A: Adversary<AgentState>>(
    params: &Params,
    adversary: A,
    spec: &JobSpec,
) -> Scenario<PopulationStability, A> {
    let matching = spec.matching.unwrap_or(if spec.gamma >= 1.0 {
        MatchingModel::Full
    } else {
        MatchingModel::ExactFraction(spec.gamma)
    });
    let cfg = SimConfig::builder()
        .seed(spec.seed)
        .target(params.target())
        .adversary_budget(spec.budget)
        .matching(matching)
        .max_population(64 * params.target() as usize)
        .build()
        .expect("valid experiment config");
    let initial = spec.initial.unwrap_or(params.target() as usize);
    Scenario::new(PopulationStability::new(params.clone()), cfg, initial).against(adversary)
}

/// Builds and runs a protocol engine per `spec`, returning the run for
/// inspection. Each round executes as `threads` says (the `experiments`
/// binary passes its `--round-threads` choice); by the engine's
/// determinism contract the results are bit-identical for every value.
pub fn run_protocol<A: Adversary<AgentState>>(
    params: &Params,
    adversary: A,
    spec: JobSpec,
    threads: Threads,
) -> ProtocolRun<A> {
    let epoch = u64::from(params.epoch_len());
    let scenario = protocol_scenario(params, adversary, &spec);
    let run_spec = RunSpec::rounds(spec.epochs * epoch).threads(threads);
    let mut metrics = MetricsRecorder::new();
    let (every, phase) = spec.metrics.unwrap_or((1, 0));
    let (engine, outcome) = scenario.run(
        run_spec,
        &mut RecordStats::stride(&mut metrics, every, phase),
    );
    ProtocolRun {
        engine,
        metrics,
        outcome,
    }
}

/// Convenience: run with no adversary.
pub fn run_clean(params: &Params, spec: JobSpec, threads: Threads) -> ProtocolRun {
    run_protocol(params, NoOpAdversary, spec, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_clean_executes_requested_epochs() {
        let params = Params::for_target(1024).unwrap();
        let run = run_clean(&params, JobSpec::new(1, 2), Threads::Serial);
        assert_eq!(run.engine.round(), 2 * u64::from(params.epoch_len()));
        assert_eq!(run.outcome.executed, run.engine.round());
        assert!(run.population() > 0);
        assert_eq!(run.metrics.len() as u64, run.outcome.executed);
    }

    #[test]
    fn job_spec_initial_override() {
        let params = Params::for_target(1024).unwrap();
        let mut spec = JobSpec::new(2, 0);
        spec.initial = Some(300);
        let run = run_clean(&params, spec, Threads::Serial);
        assert_eq!(run.population(), 300);
    }

    #[test]
    fn epoch_end_stride_records_once_per_epoch() {
        let params = Params::for_target(1024).unwrap();
        let spec = JobSpec::new(3, 2).record_epoch_ends(&params);
        let run = run_clean(&params, spec, Threads::Serial);
        assert_eq!(run.metrics.len(), 2);
    }
}
