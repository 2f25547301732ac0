//! Integration: the columnar (struct-of-arrays) step path is bit-identical
//! to the scalar `Protocol::step` loop on the paper's protocol.
//!
//! The columnar store keeps the population resident across rounds on the
//! fast path (`()`/`OnRound`/`RecordStats` observers; the no-op adversary
//! or one deciding from aggregate stats, whose alterations land in the
//! columns in place) and transposes back on demand, so these properties
//! drive every gating decision the engine makes: long resident stretches,
//! per-round materialization for an observer or adversary that reads the
//! agents, column reloads after alterations applied to the vector, and
//! snapshot/restore through the columnar path — comparing per-round
//! reports, the per-round `RecordStats` figures (taken straight from the
//! resident columns on the columnar side), the **full agent state vector**
//! (every field, every slot), the halt state, and the encoded snapshot
//! bytes across random
//! `(seed, rounds, workers)`, plus one fixed million-agent case. Every
//! engine steps on the columnar path by default; the hidden
//! `Engine::set_columnar(false)` hook forces the scalar side. The golden
//! fixtures pin the same trajectories against history; this suite pins the
//! two live paths against each other.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use proptest::prelude::*;

use population_stability::adversary::{
    attack_suite, throttled_suite, Churn, LeaderSniper, Trauma, TraumaKind,
};
use population_stability::core::state::AgentState;
use population_stability::core::Message;
use population_stability::prelude::*;
use population_stability::sim::batch::ShardPool;
use population_stability::sim::{
    ColumnarStep, EngineView, MetricsRecorder, NoOpAdversary, OnRound, RecordStats, RoundReport,
    RoundStats, RunSpec, Threads,
};

const TARGET: u64 = 1024;

fn clean_scenario_at(target: u64, seed: u64) -> Scenario<PopulationStability> {
    let params = Params::for_target(target).unwrap();
    let cfg = SimConfig::builder()
        .seed(seed)
        .target(target)
        .build()
        .unwrap();
    Scenario::new(PopulationStability::new(params), cfg, target as usize)
}

fn clean_engine(seed: u64) -> Engine<PopulationStability> {
    clean_scenario_at(TARGET, seed).engine()
}

fn trauma_engine(seed: u64) -> Engine<PopulationStability, Trauma> {
    let params = Params::for_target(TARGET).unwrap();
    let epoch = u64::from(params.epoch_len());
    let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.4, epoch / 3);
    let cfg = SimConfig::builder()
        .seed(seed)
        .target(TARGET)
        .adversary_budget(SimConfig::UNBOUNDED_BUDGET)
        .build()
        .unwrap();
    Engine::with_adversary(PopulationStability::new(params), adv, cfg, TARGET as usize)
}

/// Runs `rounds` rounds and fingerprints everything observable afterwards:
/// the per-round report trace, the final agent vector, the round counter,
/// and the engine's snapshot bytes (label-free, so byte-comparable).
fn fingerprint<A>(
    mut engine: Engine<PopulationStability, A>,
    columnar: bool,
    rounds: u64,
    threads: Threads,
) -> (Vec<RoundReport>, Vec<AgentState>, u64, Vec<u8>)
where
    A: Adversary<AgentState>,
{
    engine.set_columnar(columnar);
    assert_eq!(engine.columnar_enabled(), columnar);
    let mut trace = Vec::new();
    engine.run(
        RunSpec::rounds(rounds).threads(threads),
        &mut OnRound(|r: &RoundReport| trace.push(*r)),
    );
    let bytes = engine.snapshot().to_bytes();
    (trace, engine.agents().to_vec(), engine.round(), bytes)
}

/// As [`fingerprint`], but watched by two recorders — every round, and
/// every `every`-th round at `phase` — whose stats replace the report trace.
fn recorded_fingerprint<A>(
    mut engine: Engine<PopulationStability, A>,
    columnar: bool,
    rounds: u64,
    threads: Threads,
    (every, phase): (u64, u64),
) -> (Vec<RoundStats>, Vec<RoundStats>, Vec<AgentState>, Vec<u8>)
where
    A: Adversary<AgentState>,
{
    engine.set_columnar(columnar);
    let (mut all, mut strided) = (MetricsRecorder::new(), MetricsRecorder::new());
    engine.run(
        RunSpec::rounds(rounds).threads(threads),
        &mut Tee(
            RecordStats::new(&mut all),
            RecordStats::stride(&mut strided, every, phase),
        ),
    );
    let bytes = engine.snapshot().to_bytes();
    (
        all.rounds().to_vec(),
        strided.rounds().to_vec(),
        engine.agents().to_vec(),
        bytes,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Recording runs: `RecordStats` reads each round's stats from the
    /// resident columns on the columnar side and from the vector on the
    /// scalar side; every recorded round, the final agents and the snapshot
    /// bytes must agree, clean and adversarial, serial and sharded.
    #[test]
    fn columnar_recorded_stats_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..600,
        workers in 2usize..5,
        every in 1u64..9,
        phase_seed in 0u64..1000,
    ) {
        let stride = (every, phase_seed % every);
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            let scalar = recorded_fingerprint(clean_engine(seed), false, rounds, threads, stride);
            let columnar = recorded_fingerprint(clean_engine(seed), true, rounds, threads, stride);
            prop_assert_eq!(&scalar, &columnar, "clean run diverged");
            let scalar = recorded_fingerprint(trauma_engine(seed), false, rounds, threads, stride);
            let columnar = recorded_fingerprint(trauma_engine(seed), true, rounds, threads, stride);
            prop_assert_eq!(&scalar, &columnar, "adversarial run diverged");
        }
    }

    /// Clean runs: the resident fast path (an `OnRound` observer never
    /// needs the vector, so the columns stay loaded for the entire run)
    /// equals the scalar loop for every worker count.
    #[test]
    fn columnar_runs_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..1100,
        workers in 2usize..5,
    ) {
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            let scalar = fingerprint(clean_engine(seed), false, rounds, threads);
            let columnar = fingerprint(clean_engine(seed), true, rounds, threads);
            prop_assert_eq!(&scalar.0, &columnar.0, "report traces diverged");
            prop_assert_eq!(&scalar.1, &columnar.1, "agent vectors diverged");
            prop_assert_eq!(scalar.2, columnar.2);
            prop_assert_eq!(&scalar.3, &columnar.3, "snapshot bytes diverged");
        }
    }

    /// Every suite strategy, raw and metered per epoch, plus both trauma
    /// kinds: stats-only strategies decide from the resident columns and
    /// alter them in place; the rest materialize the vector, act on it,
    /// and reload. Either way the trajectory must equal the scalar loop's.
    #[test]
    fn columnar_runs_under_every_strategy_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..200,
        workers in 2usize..5,
        k in 1usize..6,
        bounded in any::<bool>(),
        trauma_at in 0u64..200,
    ) {
        let params = Params::for_target(TARGET).unwrap();
        let strategies = || {
            let mut all = attack_suite(&params, k);
            all.extend(throttled_suite(&params, k));
            for kind in [TraumaKind::Injury, TraumaKind::Proliferation] {
                all.push(Box::new(Trauma::new(params.clone(), kind, 0.3, trauma_at)));
            }
            all
        };
        let cfg = SimConfig::builder()
            .seed(seed)
            .target(TARGET)
            .adversary_budget(if bounded { k } else { SimConfig::UNBOUNDED_BUDGET })
            .build()
            .unwrap();
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            for (scalar_adv, columnar_adv) in strategies().into_iter().zip(strategies()) {
                let name = scalar_adv.name();
                let engine = |adv| {
                    let protocol = PopulationStability::new(params.clone());
                    Engine::with_adversary(protocol, adv, cfg.clone(), TARGET as usize)
                };
                let scalar = fingerprint(engine(scalar_adv), false, rounds, threads);
                let columnar = fingerprint(engine(columnar_adv), true, rounds, threads);
                prop_assert_eq!(&scalar.0, &columnar.0, "{} report traces diverged", name);
                prop_assert_eq!(&scalar.1, &columnar.1, "{} agent vectors diverged", name);
                prop_assert_eq!(scalar.2, columnar.2);
                prop_assert_eq!(&scalar.3, &columnar.3, "{} snapshot bytes diverged", name);
            }
        }
    }

    /// Adversarial runs: every round materializes the vector for the
    /// adversary and reloads the columns after its alterations, so the
    /// load/store transposes round-trip mid-run, not just at the edges.
    #[test]
    fn columnar_adversarial_runs_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..700,
        workers in 2usize..5,
    ) {
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            let scalar = fingerprint(trauma_engine(seed), false, rounds, threads);
            let columnar = fingerprint(trauma_engine(seed), true, rounds, threads);
            prop_assert_eq!(&scalar.0, &columnar.0, "report traces diverged");
            prop_assert_eq!(&scalar.1, &columnar.1, "agent vectors diverged");
            prop_assert_eq!(scalar.2, columnar.2);
            prop_assert_eq!(&scalar.3, &columnar.3, "snapshot bytes diverged");
        }
    }
}

/// A recording observer takes its stats from the resident columns, never
/// materializing mid-run — the stats and the trajectory must still match
/// the scalar path exactly across whole epochs.
#[test]
fn columnar_recorded_stats_match_scalar() {
    let params = Params::for_target(TARGET).unwrap();
    let rounds = 2 * u64::from(params.epoch_len()) + 7;
    let run = |columnar: bool| {
        let mut engine = clean_engine(0xC01);
        engine.set_columnar(columnar);
        let mut rec = MetricsRecorder::new();
        engine.run(RunSpec::rounds(rounds), &mut RecordStats::new(&mut rec));
        (
            rec.rounds().to_vec(),
            engine.agents().to_vec(),
            engine.population(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// How often a [`StoreCounter`] transposed each way.
#[derive(Debug, Default)]
struct Transposes {
    loads: AtomicUsize,
    stores: AtomicUsize,
}

impl Transposes {
    /// `(loads, stores)` since the last take, resetting both.
    fn take(&self) -> (usize, usize) {
        (self.loads.swap(0, Relaxed), self.stores.swap(0, Relaxed))
    }
}

/// The paper's protocol behind a columnar stepper that counts its `load`
/// and `store` calls and forwards everything else, `observe` and `alter`
/// included.
struct CountingStores {
    inner: PopulationStability,
    counts: Arc<Transposes>,
}

#[derive(Debug)]
struct StoreCounter {
    inner: Box<dyn ColumnarStep<AgentState>>,
    counts: Arc<Transposes>,
}

impl Protocol for CountingStores {
    type State = AgentState;
    type Message = Message;

    fn initial_state(&self, rng: &mut SimRng) -> AgentState {
        self.inner.initial_state(rng)
    }

    fn message(&self, state: &AgentState) -> Message {
        self.inner.message(state)
    }

    fn step(&self, state: &mut AgentState, incoming: Option<&Message>, rng: &mut SimRng) -> Action {
        self.inner.step(state, incoming, rng)
    }

    fn columnar(&self) -> Option<Box<dyn ColumnarStep<AgentState>>> {
        Some(Box::new(StoreCounter {
            inner: self.inner.columnar()?,
            counts: Arc::clone(&self.counts),
        }))
    }
}

impl ColumnarStep<AgentState> for StoreCounter {
    fn load(&mut self, agents: &[AgentState], pool: Option<&ShardPool>) {
        self.counts.loads.fetch_add(1, Relaxed);
        self.inner.load(agents, pool);
    }

    fn step(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        self.inner.step(partners, round_key, pool, splits, deaths);
    }

    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        self.inner.apply(splits, deaths);
    }

    fn store(&self, agents: &mut Vec<AgentState>) {
        self.counts.stores.fetch_add(1, Relaxed);
        self.inner.store(agents);
    }

    fn observe(&self, round: u64, counts: &mut BTreeMap<u32, usize>) -> Option<RoundStats> {
        self.inner.observe(round, counts)
    }

    fn alter(
        &mut self,
        inserts: &[AgentState],
        modifies: &[(usize, AgentState)],
        deletes: &[usize],
    ) -> bool {
        self.inner.alter(inserts, modifies, deletes)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// A [`CountingStores`] engine at the test target, seed 3.
fn counting_engine<A: Adversary<AgentState>>(
    adversary: A,
    budget: usize,
    counts: &Arc<Transposes>,
) -> Engine<CountingStores, A> {
    let params = Params::for_target(TARGET).unwrap();
    let cfg = SimConfig::builder()
        .seed(3)
        .target(TARGET)
        .adversary_budget(budget)
        .build()
        .unwrap();
    let protocol = CountingStores {
        inner: PopulationStability::new(params),
        counts: Arc::clone(counts),
    };
    Engine::with_adversary(protocol, adversary, cfg, TARGET as usize)
}

/// An observer that reads the agent slice, so it keeps the default
/// `needs_engine_state() == true`.
struct ReadsAgents(usize);

impl<P: Protocol> Observer<P> for ReadsAgents {
    fn on_round(&mut self, _report: &RoundReport, view: &EngineView<'_, P>) {
        self.0 += view.agents().len();
    }
}

/// Recording keeps the columns resident: `RecordStats` alone stores once
/// (the final materialize) however many rounds it records, while a
/// recorder teed with an observer that reads the agents still stores
/// after every round.
#[test]
fn record_stats_keeps_the_columns_resident() {
    const ROUNDS: u64 = 40;
    let counts = Arc::new(Transposes::default());
    let engine = || counting_engine(NoOpAdversary, 0, &counts);

    let mut rec = MetricsRecorder::new();
    engine().run(RunSpec::rounds(ROUNDS), &mut RecordStats::new(&mut rec));
    assert_eq!(rec.len() as u64, ROUNDS);
    assert_eq!(counts.take().1, 1, "RecordStats alone");

    let mut rec = MetricsRecorder::new();
    let mut obs = Tee(RecordStats::new(&mut rec), ReadsAgents(0));
    engine().run(RunSpec::rounds(ROUNDS), &mut obs);
    assert!(obs.1 .0 > 0);
    assert_eq!(
        counts.take().1 as u64,
        ROUNDS,
        "RecordStats + agents reader"
    );
}

/// A stats-only adversary keeps the columns resident too: `Churn` decides
/// from the columns' stats and alters them in place, so a run loads once
/// (round 0's alterations land on the fresh vector) and stores once (the
/// final materialize). `LeaderSniper` reads agent state, so every round
/// it snipes still stores the vector for it and reloads after it.
#[test]
fn stats_only_adversaries_keep_the_columns_resident() {
    let params = Params::for_target(TARGET).unwrap();
    let counts = Arc::new(Transposes::default());
    fn run<A: Adversary<AgentState>>(
        mut engine: Engine<CountingStores, A>,
        rounds: u64,
    ) -> Vec<RoundReport> {
        let mut trace = Vec::new();
        engine.run(
            RunSpec::rounds(rounds),
            &mut OnRound(|r: &RoundReport| trace.push(*r)),
        );
        trace
    }

    let trace = run(counting_engine(Churn::new(params, 4), 4, &counts), 40);
    assert!(trace.iter().all(|r| r.inserted == 2 && r.deleted == 2));
    assert_eq!(counts.take(), (1, 1), "Churn");

    // Seed 3 selects three leaders in round 0; one is sniped per round.
    let trace = run(counting_engine(LeaderSniper::new(1, None), 1, &counts), 4);
    assert!(trace[1..].iter().all(|r| r.deleted == 1), "{trace:?}");
    let rounds = trace.len();
    assert_eq!(counts.take(), (rounds, rounds), "LeaderSniper");
}

/// Snapshot mid-run on the columnar path, restore, continue columnar: the
/// stitched trajectory equals both the uninterrupted columnar run and the
/// scalar run — format v2 passes through the columns unchanged. Also pins
/// the default: a scenario's engine, a fork branch and a restored engine
/// all step on the columnar path without being asked to.
#[test]
fn columnar_snapshot_resume_round_trips() {
    let params = Params::for_target(TARGET).unwrap();
    let epoch = u64::from(params.epoch_len());
    let (r, total) = (epoch / 2 + 3, epoch + 11);

    assert!(clean_scenario_at(TARGET, 7).engine().columnar_enabled());
    let forked = clean_scenario_at(TARGET, 7).fork(
        r,
        vec![ForkBranch::new(0, NoOpAdversary)],
        &BatchRunner::new(1),
        |_, engine| engine.columnar_enabled(),
    );
    assert_eq!(forked, vec![true], "fork branches must step columnar");

    let scalar = fingerprint(clean_engine(7), false, total, Threads::Serial);
    let straight = fingerprint(clean_engine(7), true, total, Threads::Serial);
    assert_eq!(scalar.1, straight.1);
    assert_eq!(scalar.3, straight.3);

    let mut prefix = clean_engine(7);
    let mut sink = Vec::new();
    prefix.run(
        RunSpec::rounds(r),
        &mut OnRound(|rep: &RoundReport| sink.push(*rep)),
    );
    let snap = Snapshot::from_bytes(&prefix.snapshot().to_bytes()).expect("round-trip");
    let restored =
        Engine::restore(PopulationStability::new(params), NoOpAdversary, &snap).expect("restore");
    assert!(restored.columnar_enabled(), "restores must step columnar");
    let tail = fingerprint(restored, true, total - r, Threads::Serial);
    assert_eq!(tail.1, straight.1, "resumed columnar agents diverged");
    assert_eq!(tail.2, straight.2);
    assert_eq!(tail.3, straight.3, "resumed snapshot bytes diverged");
}

/// The million-agent scale the columnar store exists for: at N = 2^20,
/// serial and 4-way sharded rounds alike, the columnar path equals the
/// scalar loop (report trace, agent vector, snapshot bytes), and a columnar
/// run resumed from a mid-run snapshot reproduces the uninterrupted suffix.
#[test]
fn columnar_matches_scalar_and_resumes_at_a_million_agents() {
    const N: u64 = 1 << 20;
    const MID: u64 = 10;
    const ROUNDS: u64 = 20;
    let params = Params::for_target(N).unwrap();
    for threads in [Threads::Serial, Threads::Sharded(4)] {
        let engine = || clean_scenario_at(N, 21).engine();
        let scalar = fingerprint(engine(), false, ROUNDS, threads);
        let columnar = fingerprint(engine(), true, ROUNDS, threads);
        assert_eq!(scalar.0, columnar.0, "report traces diverged ({threads:?})");
        // `assert!` over `assert_eq!`: a failure must not print megabytes.
        assert!(
            scalar.1 == columnar.1,
            "agent vectors diverged ({threads:?})"
        );
        assert!(
            scalar.3 == columnar.3,
            "snapshot bytes diverged ({threads:?})"
        );

        let mut prefix = engine();
        prefix.run(RunSpec::rounds(MID).threads(threads), &mut ());
        let snap = Snapshot::from_bytes(&prefix.snapshot().to_bytes()).expect("round-trip");
        drop(prefix);
        let restored = Engine::restore(
            PopulationStability::new(params.clone()),
            NoOpAdversary,
            &snap,
        )
        .expect("restore");
        let tail = fingerprint(restored, true, ROUNDS - MID, threads);
        assert_eq!(
            &columnar.0[MID as usize..],
            &tail.0[..],
            "resumed suffix diverged"
        );
        assert!(
            tail.3 == columnar.3,
            "resumed snapshot bytes diverged ({threads:?})"
        );
    }
}
