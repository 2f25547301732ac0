//! The benchmark's workloads: how each engine is built and run, untraced
//! and as a traced twin, and the checks every run must pass.
//!
//! Engines are built directly with `Engine::with_population` /
//! `Engine::with_adversary` (which install the columnar stepper by
//! themselves) and threads are passed explicitly, so the benchmark reads
//! no process-global knob or environment variable.

use std::sync::Arc;
use std::time::Instant;

use popstab_adversary::Churn;
use popstab_core::{AgentState, Params, PopulationStability};
use popstab_sim::batch::{job_seed, ShardPool};
use popstab_sim::{
    Adversary, BatchRunner, Engine, MetricsRecorder, NoOpAdversary, Observer, Protocol,
    RecordStats, RunOutcome, RunSpec, SimConfig, SnapshotState, Tee,
};

use crate::probe::{
    Clocks, Laps, MatchingReplay, ProbedAdversary, ProbedProtocol, ReplayTotals, ReportTotals,
    TimedObserver, Totals,
};

/// Worker threads: `sharded(THREADS)` inside one engine's rounds, or
/// `BatchRunner::new(THREADS)` across the sweep's jobs.
pub const THREADS: usize = 2;

/// Per-round alteration budget of the churn adversary: 2 deletions and 2
/// insertions every round, below `N^¼` at every size the workload uses.
pub const CHURN_K: usize = 4;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// N = 2²², no adversary, `()` observer, `sharded(2)`: the large-N
    /// fast path, where matching and the step kernels dominate.
    Clean4m,
    /// N = 2¹⁴ under raw per-round churn, `sharded(2)`, whole epochs: the
    /// paper's adversary model, forcing a store and a load every round.
    Churn16k,
    /// Independent N = 4096 jobs on `BatchRunner::new(2)`, 4 epochs each,
    /// recording stats every round: how the paper's figures are made.
    Sweep4k,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::Clean4m, Kind::Churn16k, Kind::Sweep4k];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Clean4m => "clean-4m",
            Kind::Churn16k => "churn-16k",
            Kind::Sweep4k => "sweep-4k",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload at a given size and run length.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// The population target N (a power of four, at least 1024).
    pub n: u64,
    /// Rounds per run for `Clean4m`; epochs per run or job otherwise.
    pub length: u64,
    /// Jobs per batch for `Sweep4k`; the engine workloads run one engine
    /// per repetition.
    pub jobs: usize,
}

impl Spec {
    /// The workload as the benchmark runs it. One repetition lasts about
    /// 0.5–1.2 s on a 2-core x86-64 host, so a run of thirty seconds covers
    /// some thirty repetitions.
    pub fn bench(kind: Kind) -> Spec {
        match kind {
            Kind::Clean4m => Spec {
                kind,
                n: 1 << 22,
                length: 16,
                jobs: 1,
            },
            Kind::Churn16k => Spec {
                kind,
                n: 1 << 14,
                length: 1,
                jobs: 1,
            },
            Kind::Sweep4k => Spec {
                kind,
                n: 1 << 12,
                length: 4,
                jobs: 8,
            },
        }
    }

    /// The same workload shape at a small N, for the self-test. `Clean4m`
    /// stays at 2¹⁶ so the sharded keyed-permutation matching still runs.
    pub fn small(kind: Kind) -> Spec {
        match kind {
            Kind::Clean4m => Spec {
                kind,
                n: 1 << 16,
                length: 12,
                jobs: 1,
            },
            Kind::Churn16k => Spec {
                kind,
                n: 1 << 10,
                length: 1,
                jobs: 1,
            },
            Kind::Sweep4k => Spec {
                kind,
                n: 1 << 10,
                length: 1,
                jobs: 3,
            },
        }
    }

    /// The protocol parameters for N.
    fn params(&self) -> Params {
        Params::for_target(self.n).expect("workload sizes are powers of four of at least 1024")
    }

    /// Rounds each run or job executes.
    pub fn rounds(&self) -> u64 {
        match self.kind {
            Kind::Clean4m => self.length,
            Kind::Churn16k | Kind::Sweep4k => self.length * u64::from(self.params().epoch_len()),
        }
    }

    /// The engine configuration of the run seeded `seed`.
    fn config(&self, seed: u64) -> SimConfig {
        let budget = match self.kind {
            Kind::Churn16k => CHURN_K,
            Kind::Clean4m | Kind::Sweep4k => 0,
        };
        SimConfig::builder()
            .seed(seed)
            .target(self.n)
            .adversary_budget(budget)
            .build()
            .expect("workload configurations are valid")
    }

    /// The seeds of repetition `rep`: one engine, or one per sweep job.
    pub fn run_seeds(&self, master: u64, rep: u64) -> Vec<u64> {
        let rep_seed = job_seed(master, rep);
        match self.kind {
            Kind::Clean4m | Kind::Churn16k => vec![rep_seed],
            Kind::Sweep4k => (0..self.jobs as u64)
                .map(|j| job_seed(rep_seed, j))
                .collect(),
        }
    }

    fn run_spec(&self) -> RunSpec {
        let epoch_len = u64::from(self.params().epoch_len());
        match self.kind {
            Kind::Clean4m => RunSpec::rounds(self.length).sharded(THREADS),
            Kind::Churn16k => RunSpec::epochs(self.length, epoch_len).sharded(THREADS),
            Kind::Sweep4k => RunSpec::epochs(self.length, epoch_len),
        }
    }

    /// Why `outcome` counts as a failed run, if it does.
    fn check(&self, outcome: &RunOutcome) -> Vec<String> {
        let mut failures = Vec::new();
        if let Some(reason) = outcome.halted {
            failures.push(format!("the engine halted: {reason:?}"));
        }
        if outcome.executed != self.rounds() {
            failures.push(format!(
                "executed {} rounds, expected {}",
                outcome.executed,
                self.rounds()
            ));
        }
        let (lo, hi) = outcome.population_range();
        let n = self.n as usize;
        if lo < n / 2 || hi > 2 * n {
            failures.push(format!(
                "population left [N/2, 2N] = [{}, {}]: range [{lo}, {hi}]",
                n / 2,
                2 * n
            ));
        }
        failures
    }
}

/// Populations up to this size keep their full encoded state, so the twin
/// comparison is byte for byte; larger ones compare a digest.
pub const KEEP_BYTES_UP_TO: usize = 1 << 16;

/// A population's final state: size, a 64-bit FNV-1a digest of every
/// agent's snapshot encoding in slot order, and the encoding itself for
/// populations of at most [`KEEP_BYTES_UP_TO`] agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalState {
    /// Agents in the population.
    pub agents: usize,
    /// FNV-1a 64 over the encoding.
    pub fnv: u64,
    /// The encoding, for small populations.
    pub bytes: Option<Vec<u8>>,
}

impl FinalState {
    /// Captures `agents`.
    pub fn of(agents: &[AgentState]) -> FinalState {
        let keep = agents.len() <= KEEP_BYTES_UP_TO;
        let mut bytes = Vec::new();
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for agent in agents {
            let from = bytes.len();
            agent.encode(&mut bytes);
            for &b in &bytes[from..] {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            if !keep {
                bytes.clear();
            }
        }
        FinalState {
            agents: agents.len(),
            fnv,
            bytes: keep.then_some(bytes),
        }
    }
}

/// One untraced engine run (a repetition of an engine workload, or one
/// sweep job).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run's seed.
    pub seed: u64,
    /// Engine construction, before the first round.
    pub setup_s: f64,
    /// `Engine::run` wall time (the columnar `load` of round 1 included).
    pub run_s: f64,
    /// Construction, run and checks: the job's wall time.
    pub wall_s: f64,
    /// N × rounds executed.
    pub agent_rounds: f64,
    /// The final population, when the run is the traced twin's reference.
    pub state: Option<FinalState>,
    /// Every check the run failed, with its reason.
    pub failures: Vec<String>,
}

/// One repetition: an engine run, or one batch of sweep jobs.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The repetition's runs, in seed order.
    pub runs: Vec<RunRecord>,
    /// Wall time of the whole repetition.
    pub wall_s: f64,
}

impl Rep {
    /// N × rounds executed, summed over the repetition's runs.
    pub fn agent_rounds(&self) -> f64 {
        self.runs.iter().map(|r| r.agent_rounds).sum()
    }

    /// The wall seconds `agent_rounds_per_s` divides by: `Engine::run` for
    /// an engine workload, the whole batch for the sweep.
    pub fn wall_for_rate(&self, kind: Kind) -> f64 {
        match kind {
            Kind::Clean4m | Kind::Churn16k => self.runs.iter().map(|r| r.run_s).sum(),
            Kind::Sweep4k => self.wall_s,
        }
    }

    /// Engine construction time, summed over the repetition's runs.
    pub fn setup_s(&self) -> f64 {
        self.runs.iter().map(|r| r.setup_s).sum()
    }
}

/// Runs one untraced repetition over `seeds`. `keep_state` records each
/// run's final population for the traced twin to compare against.
pub fn run_rep(spec: &Spec, seeds: &[u64], keep_state: bool) -> Rep {
    let start = Instant::now();
    let runs = match spec.kind {
        Kind::Clean4m | Kind::Churn16k => seeds
            .iter()
            .map(|&seed| untraced_run(spec, seed, keep_state))
            .collect(),
        Kind::Sweep4k => BatchRunner::new(THREADS).run(seeds.to_vec(), |_, seed| {
            untraced_run(spec, seed, keep_state)
        }),
    };
    Rep {
        runs,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn untraced_run(spec: &Spec, seed: u64, keep_state: bool) -> RunRecord {
    let start = Instant::now();
    let protocol = PopulationStability::new(spec.params());
    let cfg = spec.config(seed);
    let n = spec.n as usize;
    let mut record = match spec.kind {
        Kind::Clean4m => timed_run(
            spec,
            seed,
            || Engine::with_population(protocol, cfg, n),
            &mut (),
            keep_state,
        ),
        Kind::Churn16k => timed_run(
            spec,
            seed,
            || Engine::with_adversary(protocol, Churn::new(spec.params(), CHURN_K), cfg, n),
            &mut (),
            keep_state,
        ),
        Kind::Sweep4k => {
            let mut rec = MetricsRecorder::new();
            let mut out = timed_run(
                spec,
                seed,
                || Engine::with_population(protocol, cfg, n),
                &mut RecordStats::new(&mut rec),
                keep_state,
            );
            if rec.len() as u64 != spec.rounds() {
                out.failures.push(format!(
                    "RecordStats kept {} rounds, expected {}",
                    rec.len(),
                    spec.rounds()
                ));
            }
            out
        }
    };
    record.wall_s = start.elapsed().as_secs_f64();
    record
}

/// Builds an engine (timed as set-up), runs it (timed), and checks it.
fn timed_run<P, A, O>(
    spec: &Spec,
    seed: u64,
    build: impl FnOnce() -> Engine<P, A>,
    obs: &mut O,
    keep_state: bool,
) -> RunRecord
where
    P: Protocol<State = AgentState> + Sync,
    P::Message: Send,
    A: Adversary<AgentState>,
    O: Observer<P>,
{
    let start = Instant::now();
    let mut engine = build();
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let outcome = engine.run(spec.run_spec(), obs);
    let run_s = start.elapsed().as_secs_f64();
    RunRecord {
        seed,
        setup_s,
        run_s,
        wall_s: 0.0,
        agent_rounds: spec.n as f64 * outcome.executed as f64,
        state: keep_state.then(|| FinalState::of(engine.agents())),
        failures: spec.check(&outcome),
    }
}

/// The traced twin of one run: the same engine and seed behind the probes.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Nanoseconds of each round.
    pub laps_ns: Vec<u64>,
    /// The wrapped layers' time inside the laps.
    pub in_laps: Totals,
    /// The wrapped layers' time over the whole run (adds the final store).
    pub all: Totals,
    /// Sums over the round reports.
    pub reports: ReportTotals,
    /// The matching replay.
    pub replay: ReplayTotals,
    /// `Engine::approx_mem_bytes` after the run.
    pub mem_bytes: usize,
    /// The final population.
    pub state: FinalState,
    /// Every check the run failed, with its reason.
    pub failures: Vec<String>,
}

/// Runs the traced twins of the runs seeded `seeds`.
pub fn run_traced(spec: &Spec, seeds: &[u64]) -> Vec<TracedRun> {
    match spec.kind {
        Kind::Clean4m | Kind::Churn16k => seeds
            .iter()
            .map(|&seed| traced_run(spec, seed, THREADS))
            .collect(),
        // Sweep jobs run serially inside, so their `_par` replay gets a
        // one-shard pool (dispatches run inline, no threads spawned).
        Kind::Sweep4k => {
            BatchRunner::new(THREADS).run(seeds.to_vec(), |_, seed| traced_run(spec, seed, 1))
        }
    }
}

fn traced_run(spec: &Spec, seed: u64, replay_shards: usize) -> TracedRun {
    let clocks = Arc::new(Clocks::default());
    let protocol =
        ProbedProtocol::new(PopulationStability::new(spec.params()), Arc::clone(&clocks));
    let cfg = spec.config(seed);
    let model = cfg.matching;
    let n = spec.n as usize;
    ShardPool::with(replay_shards, |pool| {
        let replay = MatchingReplay::new(seed, model, pool);
        match spec.kind {
            Kind::Clean4m => {
                let adversary = ProbedAdversary::new(NoOpAdversary, Arc::clone(&clocks));
                let engine = Engine::with_adversary(protocol, adversary, cfg, n);
                traced(spec, engine, (), &clocks, replay)
            }
            Kind::Churn16k => {
                let churn = Churn::new(spec.params(), CHURN_K);
                let adversary = ProbedAdversary::new(churn, Arc::clone(&clocks));
                let engine = Engine::with_adversary(protocol, adversary, cfg, n);
                traced(spec, engine, (), &clocks, replay)
            }
            Kind::Sweep4k => {
                let adversary = ProbedAdversary::new(NoOpAdversary, Arc::clone(&clocks));
                let engine = Engine::with_adversary(protocol, adversary, cfg, n);
                let mut rec = MetricsRecorder::new();
                let mut run = traced(spec, engine, RecordStats::new(&mut rec), &clocks, replay);
                if rec.len() as u64 != spec.rounds() {
                    run.failures.push(format!(
                        "traced RecordStats kept {} rounds, expected {}",
                        rec.len(),
                        spec.rounds()
                    ));
                }
                run
            }
        }
    })
}

/// Runs `engine` with `inner` timed and the lap observer after it, then
/// checks the outcome, the matching replay, and that the probes saw every
/// round.
fn traced<P, A, O>(
    spec: &Spec,
    mut engine: Engine<P, A>,
    inner: O,
    clocks: &Arc<Clocks>,
    replay: MatchingReplay<'_>,
) -> TracedRun
where
    P: Protocol<State = AgentState> + Sync,
    P::Message: Send,
    A: Adversary<AgentState>,
    O: Observer<P>,
{
    let mut obs = Tee(
        TimedObserver::new(inner, Arc::clone(clocks)),
        Laps::new(Arc::clone(clocks), replay),
    );
    let outcome = engine.run(spec.run_spec(), &mut obs);
    let laps = obs.1;
    let all = clocks.read();
    let mut failures = spec.check(&outcome);
    failures.extend(laps.replay.totals.mismatches.iter().cloned());
    let rounds = outcome.executed;
    let seen = laps.in_laps;
    for (layer, calls) in [
        ("ColumnarStep::step", seen.step.calls),
        ("ColumnarStep::apply", seen.apply.calls),
        ("Adversary::act", seen.act.calls),
        ("Observer::on_round", seen.observe.calls),
    ] {
        if calls != rounds {
            failures.push(format!(
                "probe saw {calls} {layer} calls in {rounds} rounds"
            ));
        }
    }
    if (seen.splits, seen.deaths) != (laps.reports.splits, laps.reports.deaths) {
        failures.push(format!(
            "probe saw {} splits and {} deaths, the round reports {} and {}",
            seen.splits, seen.deaths, laps.reports.splits, laps.reports.deaths
        ));
    }
    TracedRun {
        laps_ns: laps.laps_ns,
        in_laps: laps.in_laps,
        all,
        reports: laps.reports,
        replay: laps.replay.totals,
        mem_bytes: engine.approx_mem_bytes(),
        state: FinalState::of(engine.agents()),
        failures,
    }
}
