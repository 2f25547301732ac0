//! The synchronous round engine.
//!
//! Round structure (matching §2 of the paper):
//!
//! 1. the **adversary** observes the full state of every agent and commits up
//!    to `K` alterations (insert / delete / modify),
//! 2. a random **matching** covering the configured fraction of the surviving
//!    agents is sampled (the adversary cannot see it in advance),
//! 3. matched agents simultaneously **exchange messages** composed from their
//!    pre-round states; every agent then **steps** once,
//! 4. **splits** and **deaths** decided during the step are applied.
//!
//! The engine is generic over the [`Protocol`] and the [`Adversary`] and
//! halts on extinction or population explosion (a safety cap for baselines
//! that are *supposed* to diverge).
//!
//! All execution goes through one generic driver, [`Engine::run`], which
//! takes a [`RunSpec`] (stop condition + thread configuration) and a
//! composable [`Observer`] (see [`crate::driver`]). Recording is an
//! observer concern ([`RecordStats`](crate::RecordStats)); the engine
//! itself holds no metrics.
//!
//! Every round runs one path: the adversary and the matching, then the
//! population holder's `step` and `apply`. The holder is either the
//! protocol's [`ColumnarStep`] or, for a protocol without one, the scalar
//! [`Protocol::step`] loop over a plain agent vector.
//!
//! Agent randomness is **counter-based** (see [`crate::rng::counter_seed`]):
//! agent slot `s` in round `r` flips coins from a stateless stream keyed on
//! `(seed, r, s)`, so the step phase has no serial RNG dependency between
//! agents and a columnar stepper can shard it across threads
//! ([`Threads::Sharded`]) with results bit-identical to the serial path for
//! every worker count. The matching is counter-keyed the same way (see
//! [`crate::matching`]): round `r`'s pairs are a pure function of
//! `round_key(match_key, r)`, and for large populations their construction
//! shards across the same pool.

use std::collections::BTreeMap;

use crate::adversary::{Adversary, Alteration, NoOpAdversary, RoundContext};
use crate::agent::{Action, Protocol};
use crate::batch::ShardPool;
use crate::columns::ColumnarStep;
use crate::config::SimConfig;
use crate::driver::{EngineView, Observer, RunOutcome, RunSpec, Stop, Threads};
use crate::matching::{sample_partners_into, UNMATCHED};
use crate::rng::{derive_seed, derive_stream, round_key, slot_rng, SimRng};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotState};

/// Why a run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Every agent died or was deleted.
    Extinct,
    /// The population exceeded [`SimConfig::max_population`].
    Exploded,
}

/// Summary of a single executed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundReport {
    /// Global round number of this report.
    pub round: u64,
    /// Population before the adversary acted.
    pub population_before: usize,
    /// Population after splits/deaths were applied.
    pub population_after: usize,
    /// Adversarial insertions applied.
    pub inserted: usize,
    /// Adversarial deletions applied.
    pub deleted: usize,
    /// Adversarial modifications applied.
    pub modified: usize,
    /// Agents matched this round (`2 ×` the sampled pairs). Pins the
    /// matching stream in golden traces even when no agent acts on its
    /// partner (an inert population's counts are otherwise invariant).
    pub matched: usize,
    /// Protocol splits this round.
    pub splits: usize,
    /// Protocol deaths this round.
    pub deaths: usize,
}

/// Persistent per-round working memory.
///
/// The engine's round loop needs several population-sized buffers (the
/// matching's partner table and shuffle scratch, the split/death work
/// lists). Allocating them fresh every round dominated the hot path at
/// large `N`, so they live here and are reused; buffer reuse is invisible
/// to the simulation semantics (asserted round-for-round by the
/// `scratch_engine_matches_fresh_allocation_engine` property test and by
/// the golden-trace fixtures under `tests/golden/`).
#[derive(Debug)]
struct RoundScratch<S> {
    shuffle: Vec<u32>,
    partners: Vec<u32>,
    splits: Vec<usize>,
    deaths: Vec<usize>,
    alterations: AlterationPlan<S>,
    /// Epoch-round histogram scratch for the stats a resident-path
    /// adversary decides from ([`ColumnarStep::observe`]).
    counts: BTreeMap<u32, usize>,
}

impl<S> Default for RoundScratch<S> {
    fn default() -> Self {
        RoundScratch {
            shuffle: Vec::new(),
            partners: Vec::new(),
            splits: Vec::new(),
            deaths: Vec::new(),
            alterations: AlterationPlan::default(),
            counts: BTreeMap::new(),
        }
    }
}

/// One round's adversary alterations, budgeted and partitioned into the
/// three operations both population representations apply alike: the
/// vector through [`apply_to`](Self::apply_to), resident columns through
/// [`ColumnarStep::alter`]. Keeping the rules here means the engine's two
/// adversary paths cannot disagree on them.
#[derive(Debug)]
struct AlterationPlan<S> {
    inserts: Vec<S>,
    modifies: Vec<(usize, S)>,
    deletes: Vec<usize>,
}

impl<S> Default for AlterationPlan<S> {
    fn default() -> Self {
        AlterationPlan {
            inserts: Vec::new(),
            modifies: Vec::new(),
            deletes: Vec::new(),
        }
    }
}

impl<S> AlterationPlan<S> {
    /// Replaces the plan with the first `budget` of `alterations`, in
    /// order. `Delete` and `Modify` indices refer to the `original_len`
    /// agents the adversary saw; out-of-range ones are dropped (still
    /// consuming budget). Inserts keep their order, modifies keep theirs
    /// (a later overwrite of the same index wins), and deletes end up
    /// sorted ascending and deduplicated.
    fn partition(&mut self, alterations: Vec<Alteration<S>>, budget: usize, original_len: usize) {
        self.inserts.clear();
        self.modifies.clear();
        self.deletes.clear();
        for alt in alterations.into_iter().take(budget) {
            match alt {
                // Duplicates are collected here and collapsed by the
                // sort+dedup below (a repeat delete still consumes budget)
                // — a per-push `contains` probe made bulk-delete
                // adversaries O(budget²).
                Alteration::Delete(i) if i < original_len => self.deletes.push(i),
                Alteration::Insert(state) => self.inserts.push(state),
                Alteration::Modify(i, state) if i < original_len => self.modifies.push((i, state)),
                Alteration::Delete(_) | Alteration::Modify(..) => {}
            }
        }
        self.deletes.sort_unstable();
        self.deletes.dedup();
    }

    /// Whether the plan alters nothing.
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.modifies.is_empty() && self.deletes.is_empty()
    }

    /// Applies the plan to `agents`: overwrite the modified slots, append
    /// the inserts, then swap-remove the deletes in descending order so
    /// earlier indices stay valid. Drains the insert and modify buffers.
    fn apply_to(&mut self, agents: &mut Vec<S>) {
        for (i, state) in self.modifies.drain(..) {
            agents[i] = state;
        }
        agents.append(&mut self.inserts);
        for &i in self.deletes.iter().rev() {
            agents.swap_remove(i);
        }
    }
}

/// The scalar step phase over a plain agent vector: what a protocol
/// without a columnar stepper runs, and what the hidden
/// [`Engine::set_columnar`]`(false)` forces. Always serial; only the
/// matching before it shards.
#[derive(Debug)]
struct RowStep<S, M> {
    agents: Vec<S>,
    /// The simultaneous message snapshot, reused across rounds.
    messages: Vec<Option<M>>,
}

impl<S: Clone, M> RowStep<S, M> {
    /// Simultaneous message exchange, then one step per agent under its
    /// `(round, slot)`-keyed RNG. Messages are composed from pre-step state
    /// for every matched agent; splits and deaths are pushed in slot order.
    fn step<P: Protocol<State = S, Message = M>>(
        &mut self,
        protocol: &P,
        partners: &[u32],
        round_key: u64,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let RowStep { agents, messages } = self;
        messages.clear();
        messages.extend(partners.iter().map(|&p| {
            if p == UNMATCHED {
                None
            } else {
                Some(protocol.message(&agents[p as usize]))
            }
        }));
        for (i, incoming) in messages.iter().enumerate() {
            let mut rng = slot_rng(round_key, i as u64);
            match protocol.step(&mut agents[i], incoming.as_ref(), &mut rng) {
                Action::Continue => {}
                Action::Split => splits.push(i),
                Action::Die => deaths.push(i),
                // Extended model (§1.2): remove the matched partner. A
                // kill and a same-round split of the victim both take
                // effect: the daughter survives, the victim does not.
                Action::KillPartner => {
                    let j = partners[i];
                    if j != UNMATCHED {
                        deaths.push(j as usize);
                    }
                }
            }
        }
    }

    /// Appends a copy of each splitting agent, then swap-removes the deaths
    /// (sorted, deduplicated) in descending order so earlier indices stay
    /// valid — the semantics [`ColumnarStep::apply`] mirrors.
    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        for &i in splits {
            let daughter = self.agents[i].clone();
            self.agents.push(daughter);
        }
        for &i in deaths.iter().rev() {
            self.agents.swap_remove(i);
        }
    }
}

/// Which copy of a columnar population is current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    /// Only the vector: the columns reload from it before the next step.
    Vector,
    /// Both copies agree.
    Both,
    /// Only the columns: the vector is stale until stored back.
    Columns,
}

/// The engine's population and the one stepper that advances it.
#[derive(Debug)]
enum Stepper<S, M> {
    /// A protocol without a columnar stepper: the vector is the only copy.
    Rows(RowStep<S, M>),
    /// The protocol's resident columns plus the materialized vector, with
    /// `residency` naming which of the two is current. The columns load
    /// lazily, on the first step after the vector changed.
    Columns {
        columns: Box<dyn ColumnarStep<S>>,
        agents: Vec<S>,
        residency: Residency,
    },
}

impl<S: Clone, M> Stepper<S, M> {
    /// Holds `agents` on `columns` when the protocol offers them, else on
    /// the scalar loop.
    fn new(agents: Vec<S>, columns: Option<Box<dyn ColumnarStep<S>>>) -> Self {
        match columns {
            Some(columns) => Stepper::Columns {
                columns,
                agents,
                residency: Residency::Vector,
            },
            None => Stepper::Rows(RowStep {
                agents,
                messages: Vec::new(),
            }),
        }
    }

    /// The agent vector, current or not.
    fn vector(&self) -> &Vec<S> {
        match self {
            Stepper::Rows(rows) => &rows.agents,
            Stepper::Columns { agents, .. } => agents,
        }
    }

    /// The resident columns while they hold the only current copy.
    fn stale_columns(&self) -> Option<&dyn ColumnarStep<S>> {
        match self {
            Stepper::Columns {
                columns,
                residency: Residency::Columns,
                ..
            } => Some(columns.as_ref()),
            _ => None,
        }
    }

    /// The live population, read from whichever copy is current.
    fn len(&self) -> usize {
        self.stale_columns()
            .map_or_else(|| self.vector().len(), |c| c.len())
    }

    /// Stores the columns into the vector if only the columns are current.
    fn materialize(&mut self) {
        if let Stepper::Columns {
            columns,
            agents,
            residency: residency @ Residency::Columns,
        } = self
        {
            columns.store(agents);
            *residency = Residency::Both;
        }
    }

    /// The current agent vector, for mutation: materialized first, and the
    /// columns marked for a reload before the next step.
    fn vector_mut(&mut self) -> &mut Vec<S> {
        self.materialize();
        match self {
            Stepper::Rows(rows) => &mut rows.agents,
            Stepper::Columns {
                agents, residency, ..
            } => {
                *residency = Residency::Vector;
                agents
            }
        }
    }

    /// The step phase: advances every agent one round against `partners`
    /// and pushes the split and death slots in slot order. Columns reload
    /// first if the vector changed, and stay the only current copy after.
    fn step<P: Protocol<State = S, Message = M>>(
        &mut self,
        protocol: &P,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        match self {
            Stepper::Rows(rows) => rows.step(protocol, partners, round_key, splits, deaths),
            Stepper::Columns {
                columns,
                agents,
                residency,
            } => {
                if *residency == Residency::Vector {
                    columns.load(agents, pool);
                }
                columns.step(partners, round_key, pool, splits, deaths);
                *residency = Residency::Columns;
            }
        }
    }

    /// Applies the step's splits, then its deaths (sorted, deduplicated).
    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        match self {
            Stepper::Rows(rows) => rows.apply(splits, deaths),
            Stepper::Columns { columns, .. } => columns.apply(splits, deaths),
        }
    }

    /// Applies a non-empty alteration plan to the current copy: in place in
    /// resident columns when they accept it ([`ColumnarStep::alter`]),
    /// otherwise to the vector, which the columns reload from before the
    /// next step.
    fn alter(&mut self, plan: &mut AlterationPlan<S>) {
        if let Stepper::Columns {
            columns,
            residency: Residency::Columns,
            ..
        } = self
        {
            if columns.alter(&plan.inserts, &plan.modifies, &plan.deletes) {
                plan.inserts.clear();
                plan.modifies.clear();
                return;
            }
        }
        plan.apply_to(self.vector_mut());
    }

    /// Approximate resident bytes of the vector, the row step's message
    /// buffer and the columns.
    fn mem_bytes(&self) -> usize {
        let agents = self.vector().capacity() * std::mem::size_of::<S>();
        agents
            + match self {
                Stepper::Rows(rows) => rows.messages.capacity() * std::mem::size_of::<Option<M>>(),
                Stepper::Columns { columns, .. } => columns.mem_bytes(),
            }
    }
}

/// A running simulation: population, protocol, adversary, RNG streams.
///
/// The population lives in one holder with one stepper. A protocol that
/// offers a columnar stepper ([`Protocol::columnar`]) keeps its agents
/// resident as columns, which shard the step phase across a
/// [`Threads::Sharded`] pool; any other protocol steps serially through
/// [`Protocol::step`] over a plain vector, with only its matching sharded.
/// Both produce the same trajectory for every worker count, and both are
/// invisible to observers, adversaries, traces and snapshots.
#[derive(Debug)]
pub struct Engine<P: Protocol, A: Adversary<P::State> = NoOpAdversary> {
    protocol: P,
    adversary: A,
    cfg: SimConfig,
    round: u64,
    /// Master key of the counter-based agent randomness: agent `slot`'s
    /// coin flips in round `r` are `slot_rng(round_key(agent_key, r), slot)`
    /// — addressable per agent, independent of execution order.
    agent_key: u64,
    /// Master key of the counter-keyed matching stream: round `r`'s pairs
    /// are a pure function of `round_key(match_key, r)` — addressable per
    /// round, shardable within one (see [`crate::matching`]).
    match_key: u64,
    adv_rng: SimRng,
    halted: Option<HaltReason>,
    scratch: RoundScratch<P::State>,
    /// The population and its stepper. Outside [`Engine::run`] the vector
    /// is always current.
    stepper: Stepper<P::State, P::Message>,
}

impl<P: Protocol> Engine<P, NoOpAdversary> {
    /// Creates an engine with `population` fresh agents and no adversary.
    pub fn with_population(protocol: P, cfg: SimConfig, population: usize) -> Self {
        Engine::with_adversary(protocol, NoOpAdversary, cfg, population)
    }
}

impl<P: Protocol, A: Adversary<P::State>> Engine<P, A> {
    /// Creates an engine with `population` fresh agents and an adversary.
    pub fn with_adversary(protocol: P, adversary: A, cfg: SimConfig, population: usize) -> Self {
        // Initial states draw from a sequential stream (construction is not
        // a round and runs once); per-round agent flips use the counter key.
        let mut init_rng = derive_stream(cfg.seed, "agents");
        let adv_rng = derive_stream(cfg.seed, "adversary");
        let agents = (0..population)
            .map(|_| protocol.initial_state(&mut init_rng))
            .collect();
        Engine::assemble(protocol, adversary, cfg, agents, 0, adv_rng, None)
    }

    /// The one constructor behind [`with_adversary`](Self::with_adversary)
    /// and [`restore`](Self::restore): re-derives the per-round keys from
    /// the seed and installs the protocol's stepper.
    fn assemble(
        protocol: P,
        adversary: A,
        cfg: SimConfig,
        agents: Vec<P::State>,
        round: u64,
        adv_rng: SimRng,
        halted: Option<HaltReason>,
    ) -> Self {
        let stepper = Stepper::new(agents, protocol.columnar());
        Engine {
            agent_key: derive_seed(cfg.seed, "agent-counter"),
            match_key: derive_seed(cfg.seed, "matching"),
            protocol,
            adversary,
            cfg,
            round,
            adv_rng,
            halted,
            scratch: RoundScratch::default(),
            stepper,
        }
    }

    /// Current population size.
    pub fn population(&self) -> usize {
        self.stepper.len()
    }

    /// Read access to all agent states (what the adversary sees).
    ///
    /// # Panics
    ///
    /// After a panic unwound out of [`Engine::run`] mid-round, which can
    /// leave the resident columns the only current copy.
    pub fn agents(&self) -> &[P::State] {
        self.view().agents()
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Why the engine halted, if it did.
    pub fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    /// Whether the step phase currently runs on the columnar
    /// (struct-of-arrays) path.
    pub fn columnar_enabled(&self) -> bool {
        matches!(self.stepper, Stepper::Columns { .. })
    }

    /// Installs the serial row stepper, the scalar [`Protocol::step`] loop
    /// (`false`), or reinstalls the protocol's columnar stepper (`true`,
    /// the construction default). Both
    /// paths produce the same trajectory by the determinism contract of
    /// [`crate::columns`]; this hook exists only so the equivalence tests
    /// and the scalar-vs-columnar bench can pin them against each other.
    #[doc(hidden)]
    pub fn set_columnar(&mut self, enabled: bool) {
        let agents = std::mem::take(self.stepper.vector_mut());
        let columns = if enabled {
            self.protocol.columnar()
        } else {
            None
        };
        self.stepper = Stepper::new(agents, columns);
    }

    /// Approximate resident bytes of the simulation state: the agent
    /// vector, the reusable round scratch, and the stepper's retained
    /// buffers. Capacities (not lengths) are counted where available — this
    /// is the figure behind the bench harness's `mem_bytes_per_agent`.
    pub fn approx_mem_bytes(&self) -> usize {
        let s = &self.scratch;
        let scratch = s.shuffle.capacity() * std::mem::size_of::<u32>()
            + s.partners.capacity() * std::mem::size_of::<u32>()
            + (s.splits.capacity() + s.deaths.capacity() + s.alterations.deletes.capacity())
                * std::mem::size_of::<usize>()
            + s.alterations.inserts.capacity() * std::mem::size_of::<P::State>()
            + s.alterations.modifies.capacity() * std::mem::size_of::<(usize, P::State)>();
        scratch + self.stepper.mem_bytes()
    }

    /// The read-only view observers get: the vector, plus the resident
    /// columns while the vector is stale.
    fn view(&self) -> EngineView<'_, P> {
        EngineView {
            agents: self.stepper.vector(),
            stale_columns: self.stepper.stale_columns(),
            round: self.round,
            halted: self.halted,
            config: &self.cfg,
            adv_rng_state: self.adv_rng.raw_state(),
        }
    }

    /// Runs the engine per `spec`, notifying `obs` after every executed
    /// round.
    ///
    /// This is the one execution entry point: the stop condition
    /// ([`Stop::Rounds`] / [`Stop::Until`] / [`Stop::Epochs`]) and the
    /// thread configuration ([`Threads::Serial`] /
    /// [`Threads::Sharded`], one pool persisting across all rounds) live in
    /// the [`RunSpec`]; recording and any other instrumentation live in the
    /// [`Observer`]. With the `()` observer the loop is the allocation-free
    /// fast path; with [`RecordStats`](crate::RecordStats) it reproduces the
    /// engine's former built-in stats recording. The trajectory is a pure
    /// function of the seed: the spec's thread configuration and the
    /// observer never change it.
    ///
    /// [`Threads::Sharded`] shards the two `O(population)` stretches of a
    /// round across one persistent [`ShardPool`]: above
    /// [`KEYED_PERMUTATION_MIN_POPULATION`](crate::matching::KEYED_PERMUTATION_MIN_POPULATION)
    /// the matching, sampled straight into the partner table, and the step
    /// phase of a columnar stepper. A protocol without one steps serially.
    /// The per-agent counter RNG and the counter-keyed matching permutation
    /// make the results **bit-identical to the serial loop for every worker
    /// count** (asserted by the `sharded_run_*` property tests and the CI
    /// determinism diff). The remaining phases (adversary, split/death
    /// application) stay serial — they are `O(K + splits + deaths)` work.
    /// Sharding is worth it only when single rounds are large: the pool
    /// synchronizes several times per round, so at small populations
    /// [`Threads::Serial`] wins.
    ///
    /// The thread configuration is [normalized](Threads::normalized)
    /// before dispatch: `Sharded(0)` and `Sharded(1)` describe a serial
    /// trajectory (the determinism contract makes them identical to
    /// [`Threads::Serial`]), so they start no pool.
    pub fn run<F, O>(&mut self, spec: RunSpec<F>, obs: &mut O) -> RunOutcome
    where
        F: FnMut(&RoundReport) -> bool,
        O: Observer<P>,
    {
        match spec.threads.normalized() {
            Threads::Serial => self.drive(spec, obs, None),
            Threads::Sharded(workers) => {
                ShardPool::with(workers, |pool| self.drive(spec, obs, Some(pool)))
            }
        }
    }

    /// The run loop: executes rounds until the spec is exhausted, the
    /// engine halts, or an [`Stop::Until`] predicate fires, notifying `obs`
    /// after every round.
    fn drive<F, O>(&mut self, spec: RunSpec<F>, obs: &mut O, pool: Option<&ShardPool>) -> RunOutcome
    where
        F: FnMut(&RoundReport) -> bool,
        O: Observer<P>,
    {
        let mut scratch = std::mem::take(&mut self.scratch);
        let max_rounds = spec.max_rounds();
        let mut stop = spec.stop;
        let mut executed = 0u64;
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        let mut last: Option<RoundReport> = None;
        let mut stopped_early = false;
        // Observers that declare they never read the agent slice let the
        // columnar path keep its columns resident across rounds instead of
        // transposing the vector back after every step.
        let needs_state = obs.needs_engine_state();
        while executed < max_rounds && self.halted.is_none() {
            let report = self.round_impl(&mut scratch, pool);
            executed += 1;
            lo = lo.min(report.population_after);
            hi = hi.max(report.population_after);
            if needs_state {
                self.stepper.materialize();
            }
            obs.on_round(&report, &self.view());
            last = Some(report);
            if let Stop::Until { stop, .. } = &mut stop {
                if stop(&report) {
                    stopped_early = true;
                    break;
                }
            }
        }
        self.scratch = scratch;
        // The vector is authoritative again from here on out.
        self.stepper.materialize();
        let population = self.stepper.len();
        if executed == 0 {
            lo = population;
            hi = population;
        }
        RunOutcome {
            executed,
            halted: self.halted,
            stopped_early,
            last: last.unwrap_or(RoundReport {
                round: self.round,
                population_before: population,
                population_after: population,
                ..RoundReport::default()
            }),
            min_population: lo,
            max_population: hi,
        }
    }

    /// Checkpoints the engine into a [`Snapshot`]: config, round counter,
    /// halt flag, adversary-stream position, and every agent's encoded
    /// state. [`Engine::restore`] of the result continues bit-for-bit
    /// identically to this engine (see the [`crate::snapshot`] module docs
    /// for what is and is not captured).
    ///
    /// # Panics
    ///
    /// As [`Engine::agents`].
    pub fn snapshot(&self) -> Snapshot
    where
        P::State: SnapshotState,
    {
        self.view().snapshot()
    }

    /// Rebuilds an engine from a [`Snapshot`], resuming exactly where
    /// [`Engine::snapshot`] left off — no `initial_state` calls, the
    /// per-round agent/matching keys re-derived from the snapshot's seed,
    /// the adversary stream repositioned. The caller supplies the protocol
    /// and adversary instances (they are not serialized); supplying a
    /// *different* adversary, or a [`Snapshot::fork`] branch, is how
    /// counterfactual futures are spawned.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StateTagMismatch`] when the snapshot holds a
    /// different protocol's states, [`SnapshotError::InvalidConfig`] when
    /// its configuration fails [`SimConfig::validate`] (say, a cap the `u32`
    /// slot space cannot hold), [`SnapshotError::Truncated`] /
    /// [`SnapshotError::Malformed`] when the agent column does not decode
    /// to exactly the captured population.
    pub fn restore(protocol: P, adversary: A, snap: &Snapshot) -> Result<Self, SnapshotError>
    where
        P::State: SnapshotState,
    {
        snap.config.validate()?;
        let expected = P::State::state_tag();
        if snap.state_tag != expected {
            return Err(SnapshotError::StateTagMismatch {
                found: snap.state_tag.clone(),
                expected,
            });
        }
        let mut reader = SnapshotReader::new(&snap.agent_bytes);
        reader.set_section("agent states");
        if snap.agent_count > crate::snapshot::MAX_SNAPSHOT_AGENTS {
            return Err(reader.malformed("agent count exceeds the sanity cap"));
        }
        let count = usize::try_from(snap.agent_count)
            .map_err(|_| reader.malformed("population too large"))?;
        // Pre-reserve from the *byte column*, not the claimed count: a
        // hand-sealed snapshot may claim billions of agents over an empty
        // column, and the decode loop below errors out long before the Vec
        // would grow that far.
        let mut agents = Vec::with_capacity(count.min(snap.agent_bytes.len().max(1024)));
        for _ in 0..count {
            agents.push(P::State::decode(&mut reader)?);
        }
        if reader.remaining() != 0 {
            return Err(reader.malformed("agent column longer than the captured population"));
        }
        Ok(Engine::assemble(
            protocol,
            adversary,
            snap.config.clone(),
            agents,
            snap.round,
            SimRng::from_raw_state(snap.adv_rng_state),
            snap.halted,
        ))
    }

    /// One synchronous round: adversary and matching, then the stepper's
    /// step and its splits and deaths. `pool` shards the matching and a
    /// columnar step; it never changes the result.
    fn round_impl(
        &mut self,
        scratch: &mut RoundScratch<P::State>,
        pool: Option<&ShardPool>,
    ) -> RoundReport {
        let mut report = RoundReport {
            round: self.round,
            population_before: self.stepper.len(),
            ..RoundReport::default()
        };
        self.phase_adversary_and_matching(scratch, &mut report, pool);
        let RoundScratch {
            partners,
            splits,
            deaths,
            ..
        } = scratch;
        splits.clear();
        deaths.clear();
        let rkey = round_key(self.agent_key, self.round);
        self.stepper
            .step(&self.protocol, partners, rkey, pool, splits, deaths);
        // Kills may duplicate an own-death.
        deaths.sort_unstable();
        deaths.dedup();
        report.splits = splits.len();
        report.deaths = deaths.len();
        self.stepper.apply(splits, deaths);

        let population = self.stepper.len();
        report.population_after = population;
        self.round += 1;
        if population == 0 {
            self.halted = Some(HaltReason::Extinct);
        } else if population > self.cfg.max_population {
            self.halted = Some(HaltReason::Exploded);
        }
        report
    }

    /// Phases 1–2: adversary alterations, then the matching over survivors,
    /// sampled straight into its compact partner table. The matching is
    /// counter-keyed per round, so the serial and the pool-sharded round
    /// make the same call and get the same table — `pool` only changes who
    /// computes it.
    fn phase_adversary_and_matching(
        &mut self,
        scratch: &mut RoundScratch<P::State>,
        report: &mut RoundReport,
        pool: Option<&ShardPool>,
    ) {
        // Phase 1: adversary (sees everything, blind to the coming matching).
        let ctx = RoundContext {
            round: self.round,
            budget: self.cfg.adversary_budget,
            target: self.cfg.target,
        };
        let alterations = match self.act_resident(&ctx, &mut scratch.counts) {
            Some(alterations) => alterations,
            None => {
                // An adversary that reads agent state must see the
                // authoritative vector; the declared no-op
                // ([`Adversary::is_noop`]) never reads it, which is what
                // lets the columnar path keep its columns resident.
                if !self.adversary.is_noop() {
                    self.stepper.materialize();
                }
                let alterations =
                    self.adversary
                        .act(&ctx, self.stepper.vector(), &mut self.adv_rng);
                // An `is_noop` adversary that alters anyway broke its
                // contract (it acted on a possibly-stale slice); the
                // alterations still apply coherently below.
                debug_assert!(
                    alterations.is_empty() || self.stepper.stale_columns().is_none(),
                    "is_noop adversary returned alterations"
                );
                alterations
            }
        };
        if !alterations.is_empty() {
            let plan = &mut scratch.alterations;
            plan.partition(alterations, self.cfg.adversary_budget, self.stepper.len());
            report.inserted = plan.inserts.len();
            report.modified = plan.modifies.len();
            report.deleted = plan.deletes.len();
            if !plan.is_empty() {
                self.stepper.alter(plan);
            }
        }

        // Phase 2: matching over survivors.
        let mkey = round_key(self.match_key, self.round);
        report.matched = sample_partners_into(
            &mut scratch.partners,
            &mut scratch.shuffle,
            self.stepper.len(),
            self.cfg.matching,
            mkey,
            pool,
        );
    }

    /// The resident arm of phase 1: while the columns hold the only current
    /// population, ask the adversary to decide from the columns' aggregate
    /// stats ([`Adversary::act_on_stats`]). `None` — the vector is current,
    /// the adversary is the no-op, the stepper cannot observe, or the
    /// adversary declines — leaves the decision to `act` over the vector.
    fn act_resident(
        &mut self,
        ctx: &RoundContext,
        counts: &mut BTreeMap<u32, usize>,
    ) -> Option<Vec<Alteration<P::State>>> {
        if self.adversary.is_noop() {
            return None;
        }
        let stats = self.stepper.stale_columns()?.observe(self.round, counts)?;
        self.adversary.act_on_stats(ctx, &stats, &mut self.adv_rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Observable, Observation};
    use crate::matching::MatchingModel;
    use crate::metrics::RoundStats;
    use crate::protocols::{Inert, InertState};
    use rand::Rng;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Every matched agent splits once, then goes quiet. Used to test split
    /// application.
    struct SplitOnce;

    #[derive(Debug, Clone)]
    struct SplitState {
        done: bool,
    }
    impl Observable for SplitState {
        fn observe(&self) -> Observation {
            Observation {
                active: self.done,
                ..Observation::default()
            }
        }
    }

    impl Protocol for SplitOnce {
        type State = SplitState;
        type Message = ();
        fn initial_state(&self, _rng: &mut SimRng) -> SplitState {
            SplitState { done: false }
        }
        fn message(&self, _s: &SplitState) {}
        fn step(&self, s: &mut SplitState, incoming: Option<&()>, _rng: &mut SimRng) -> Action {
            if !s.done && incoming.is_some() {
                s.done = true;
                Action::Split
            } else {
                Action::Continue
            }
        }
    }

    /// Everyone dies immediately.
    struct DieAll;
    #[derive(Debug, Clone)]
    struct Unit;
    impl Observable for Unit {
        fn observe(&self) -> Observation {
            Observation::default()
        }
    }
    impl Protocol for DieAll {
        type State = Unit;
        type Message = ();
        fn initial_state(&self, _rng: &mut SimRng) -> Unit {
            Unit
        }
        fn message(&self, _s: &Unit) {}
        fn step(&self, _s: &mut Unit, _m: Option<&()>, _rng: &mut SimRng) -> Action {
            Action::Die
        }
    }

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::builder().seed(seed).build().unwrap()
    }

    /// One round through the driver, returning its report.
    fn round<P: Protocol, A: Adversary<P::State>>(engine: &mut Engine<P, A>) -> RoundReport {
        engine.run(RunSpec::rounds(1), &mut ()).last
    }

    #[test]
    fn inert_population_is_stable() {
        let mut engine = Engine::with_population(Inert, cfg(1), 50);
        let mut rec = crate::MetricsRecorder::new();
        let outcome = engine.run(RunSpec::rounds(20), &mut crate::RecordStats::new(&mut rec));
        assert_eq!(outcome.executed, 20);
        assert_eq!(engine.population(), 50);
        assert_eq!(engine.halted(), None);
        assert_eq!(outcome.population_range(), (50, 50));
        assert_eq!(rec.len(), 20);
    }

    #[test]
    fn splits_double_matched_agents() {
        let mut engine = Engine::with_population(SplitOnce, cfg(2), 10);
        let report = round(&mut engine);
        // Full matching on 10 agents: all matched, all split.
        assert_eq!(report.splits, 10);
        assert_eq!(engine.population(), 20);
    }

    #[test]
    fn extinction_halts_engine() {
        let mut engine = Engine::with_population(DieAll, cfg(3), 8);
        let report = round(&mut engine);
        assert_eq!(report.deaths, 8);
        assert_eq!(engine.population(), 0);
        assert_eq!(engine.halted(), Some(HaltReason::Extinct));
        // Further rounds are inert.
        let outcome = engine.run(RunSpec::rounds(5), &mut ());
        assert_eq!(outcome.executed, 0);
        assert_eq!(outcome.halted, Some(HaltReason::Extinct));
        assert_eq!(outcome.population_range(), (0, 0));
        assert_eq!(outcome.last.population_before, 0);
    }

    #[test]
    fn explosion_cap_halts_engine() {
        /// Splits every round forever.
        struct Exploder;
        impl Protocol for Exploder {
            type State = Unit;
            type Message = ();
            fn initial_state(&self, _r: &mut SimRng) -> Unit {
                Unit
            }
            fn message(&self, _s: &Unit) {}
            fn step(&self, _s: &mut Unit, _m: Option<&()>, _r: &mut SimRng) -> Action {
                Action::Split
            }
        }
        let cfg = SimConfig::builder()
            .seed(4)
            .max_population(100)
            .build()
            .unwrap();
        let mut engine = Engine::with_population(Exploder, cfg, 10);
        engine.run(RunSpec::rounds(10), &mut ());
        assert_eq!(engine.halted(), Some(HaltReason::Exploded));
        assert!(engine.population() > 100);
    }

    #[test]
    fn budget_truncates_alterations() {
        struct GreedyDeleter;
        impl Adversary<InertState> for GreedyDeleter {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                agents: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                (0..agents.len()).map(Alteration::Delete).collect()
            }
        }
        let cfg = SimConfig::builder()
            .seed(5)
            .adversary_budget(3)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, GreedyDeleter, cfg, 10);
        let report = round(&mut engine);
        assert_eq!(report.deleted, 3);
        assert_eq!(engine.population(), 7);
    }

    #[test]
    fn duplicate_and_out_of_range_deletes_are_ignored() {
        struct Sloppy;
        impl Adversary<InertState> for Sloppy {
            fn name(&self) -> &'static str {
                "sloppy"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                vec![
                    Alteration::Delete(0),
                    Alteration::Delete(0),
                    Alteration::Delete(999),
                ]
            }
        }
        let cfg = SimConfig::builder()
            .seed(6)
            .adversary_budget(10)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, Sloppy, cfg, 5);
        let report = round(&mut engine);
        assert_eq!(report.deleted, 1);
        assert_eq!(engine.population(), 4);
    }

    #[test]
    fn inserts_and_modifies_are_applied() {
        struct Meddler;
        impl Adversary<InertState> for Meddler {
            fn name(&self) -> &'static str {
                "meddler"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                vec![
                    Alteration::Insert(InertState),
                    Alteration::Insert(InertState),
                    Alteration::Modify(0, InertState),
                ]
            }
        }
        let cfg = SimConfig::builder()
            .seed(7)
            .adversary_budget(10)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, Meddler, cfg, 5);
        let report = round(&mut engine);
        assert_eq!(report.inserted, 2);
        assert_eq!(report.modified, 1);
        assert_eq!(engine.population(), 7);
    }

    #[test]
    fn kill_partner_removes_the_matched_agent() {
        /// Agents alternate: even seeds kill, odd do nothing. Using a state
        /// flag: killers kill any partner.
        struct Killer;
        #[derive(Debug, Clone)]
        struct KState {
            lethal: bool,
        }
        impl Observable for KState {
            fn observe(&self) -> Observation {
                Observation {
                    active: self.lethal,
                    ..Observation::default()
                }
            }
        }
        impl Protocol for Killer {
            type State = KState;
            type Message = bool;
            fn initial_state(&self, _r: &mut SimRng) -> KState {
                KState { lethal: false }
            }
            fn message(&self, s: &KState) -> bool {
                s.lethal
            }
            fn step(&self, s: &mut KState, m: Option<&bool>, _r: &mut SimRng) -> Action {
                match m {
                    Some(_) if s.lethal => Action::KillPartner,
                    _ => Action::Continue,
                }
            }
        }
        struct ArmHalf;
        impl Adversary<KState> for ArmHalf {
            fn name(&self) -> &'static str {
                "arm-half"
            }
            fn act(
                &mut self,
                ctx: &RoundContext,
                agents: &[KState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<KState>> {
                if ctx.round == 0 {
                    (0..agents.len() / 2)
                        .map(|i| Alteration::Modify(i, KState { lethal: true }))
                        .collect()
                } else {
                    Vec::new()
                }
            }
        }
        let cfg = SimConfig::builder()
            .seed(21)
            .adversary_budget(100)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Killer, ArmHalf, cfg, 20);
        let report = round(&mut engine);
        // Full matching pairs all 20 agents: with k killer-killer pairs there
        // are also k victim-victim pairs (no deaths) and 10 − 2k mixed pairs
        // (victim dies), so exactly 2k + (10 − 2k) = 10 agents die whatever
        // the matching.
        assert_eq!(report.deaths, 10, "deaths={}", report.deaths);
        assert_eq!(engine.population(), 20 - report.deaths);
        // Killers never die to non-killers, so the missing killers come in
        // killer-killer pairs: an even number is gone.
        let lethal_left = engine.agents().iter().filter(|a| a.lethal).count();
        assert_eq!(
            (10 - lethal_left) % 2,
            0,
            "killers died singly: lethal_left={lethal_left}"
        );
    }

    #[test]
    fn mutual_kills_remove_both_without_double_count() {
        /// Everyone kills their partner.
        struct AllKill;
        impl Protocol for AllKill {
            type State = Unit;
            type Message = ();
            fn initial_state(&self, _r: &mut SimRng) -> Unit {
                Unit
            }
            fn message(&self, _s: &Unit) {}
            fn step(&self, _s: &mut Unit, m: Option<&()>, _r: &mut SimRng) -> Action {
                if m.is_some() {
                    Action::KillPartner
                } else {
                    Action::Continue
                }
            }
        }
        let cfg = SimConfig::builder().seed(22).build().unwrap();
        let mut engine = Engine::with_population(AllKill, cfg, 10);
        let report = round(&mut engine);
        assert_eq!(report.deaths, 10);
        assert_eq!(engine.halted(), Some(HaltReason::Extinct));
    }

    #[test]
    fn population_accounting_identity() {
        // end = start + inserted - deleted + splits - deaths, on every round.
        struct Churn;
        impl Adversary<SplitState> for Churn {
            fn name(&self) -> &'static str {
                "churn"
            }
            fn act(
                &mut self,
                ctx: &RoundContext,
                agents: &[SplitState],
                rng: &mut SimRng,
            ) -> Vec<Alteration<SplitState>> {
                let mut out = Vec::new();
                if !agents.is_empty() && rng.random::<bool>() {
                    out.push(Alteration::Delete(rng.random_range(0..agents.len())));
                }
                if ctx.round.is_multiple_of(2) {
                    out.push(Alteration::Insert(SplitState { done: false }));
                }
                out
            }
        }
        let cfg = SimConfig::builder()
            .seed(8)
            .adversary_budget(4)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(SplitOnce, Churn, cfg, 30);
        for _ in 0..20 {
            let before = engine.population();
            let r = round(&mut engine);
            assert_eq!(r.population_before, before);
            assert_eq!(
                r.population_after,
                before + r.inserted - r.deleted + r.splits - r.deaths,
                "round {} accounting mismatch",
                r.round
            );
            assert_eq!(r.population_after, engine.population());
        }
    }

    #[test]
    fn metrics_stride_reduces_records() {
        let mut engine = Engine::with_population(Inert, cfg(9), 10);
        let mut rec = crate::MetricsRecorder::new();
        engine.run(
            RunSpec::rounds(20),
            &mut crate::RecordStats::stride(&mut rec, 5, 0),
        );
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            // A random matched fraction makes the trajectory seed-dependent.
            let cfg = SimConfig::builder()
                .seed(seed)
                .matching(MatchingModel::RandomFraction { min_gamma: 0.25 })
                .build()
                .unwrap();
            let mut e = Engine::with_population(SplitOnce, cfg, 64);
            let mut pops = Vec::new();
            e.run(
                RunSpec::rounds(5),
                &mut crate::OnRound(|r: &RoundReport| pops.push(r.population_after)),
            );
            pops
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn partial_matching_leaves_agents_unmatched() {
        let cfg = SimConfig::builder()
            .seed(10)
            .matching(MatchingModel::ExactFraction(0.5))
            .build()
            .unwrap();
        let mut engine = Engine::with_population(SplitOnce, cfg, 100);
        let report = round(&mut engine);
        // Exactly half are matched; only those split.
        assert_eq!(report.splits, 50);
    }

    #[test]
    fn serial_and_sharded_specs_agree() {
        let run = |threads: Threads| {
            let cfg = SimConfig::builder()
                .seed(77)
                .matching(MatchingModel::RandomFraction { min_gamma: 0.4 })
                .build()
                .unwrap();
            let mut e = Engine::with_population(SplitOnce, cfg, 120);
            let mut trace = Vec::new();
            let outcome = e.run(
                RunSpec::rounds(12).threads(threads),
                &mut crate::OnRound(|r: &RoundReport| trace.push(*r)),
            );
            (
                trace,
                outcome.executed,
                outcome.population_range(),
                e.population(),
            )
        };
        let serial = run(Threads::Serial);
        for workers in [1usize, 2, 4] {
            assert_eq!(serial, run(Threads::Sharded(workers)), "{workers} workers");
        }
    }

    #[test]
    fn until_spec_stops_early_and_reports_it() {
        let mut engine = Engine::with_population(SplitOnce, cfg(14), 64);
        let outcome = engine.run(RunSpec::until(50, |r| r.population_after > 100), &mut ());
        assert!(outcome.stopped_early);
        assert_eq!(outcome.executed, 1);
        assert!(outcome.last.population_after > 100);
        // Exhausting the cap is not an early stop.
        let outcome = engine.run(RunSpec::until(3, |_| false), &mut ());
        assert!(!outcome.stopped_early);
        assert_eq!(outcome.executed, 3);
    }

    #[test]
    fn epochs_spec_runs_the_full_grid() {
        let mut engine = Engine::with_population(Inert, cfg(15), 10);
        let outcome = engine.run(RunSpec::epochs(4, 7), &mut ());
        assert_eq!(outcome.executed, 28);
        assert_eq!(engine.round(), 28);
    }

    #[test]
    fn zero_budget_silences_adversary() {
        struct Deleter;
        impl Adversary<InertState> for Deleter {
            fn name(&self) -> &'static str {
                "del"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                vec![Alteration::Delete(0)]
            }
        }
        let mut engine = Engine::with_adversary(Inert, Deleter, cfg(11), 5);
        let report = round(&mut engine);
        assert_eq!(report.deleted, 0);
        assert_eq!(engine.population(), 5);
    }

    #[test]
    fn sharded_one_takes_the_serial_path() {
        // `Sharded(0 | 1)` normalizes to `Serial` at the dispatch (the
        // `Threads::normalized` unit tests pin the mapping itself); here we
        // pin that the degenerate sharded specs drive the same trajectory
        // as the serial spec on a seed-sensitive protocol.
        let run = |threads: Threads| {
            let cfg = SimConfig::builder()
                .seed(99)
                .matching(MatchingModel::RandomFraction { min_gamma: 0.5 })
                .build()
                .unwrap();
            let mut e = Engine::with_population(SplitOnce, cfg, 96);
            let mut trace = Vec::new();
            e.run(
                RunSpec::rounds(8).threads(threads),
                &mut crate::OnRound(|r: &RoundReport| trace.push(*r)),
            );
            trace
        };
        let serial = run(Threads::Serial);
        assert_eq!(serial, run(Threads::Sharded(0)));
        assert_eq!(serial, run(Threads::Sharded(1)));
    }

    #[test]
    fn bulk_duplicate_deletes_still_dedup_and_consume_budget() {
        // A repeat delete consumes budget without freeing a second agent —
        // the first-seen semantics the O(budget²) `contains` probe used to
        // implement, now via sort+dedup.
        struct Hammer;
        impl Adversary<InertState> for Hammer {
            fn name(&self) -> &'static str {
                "hammer"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                // 6 in-budget alterations: indices 2,2,0,5,2,0 → uniques {0,2,5}.
                vec![2usize, 2, 0, 5, 2, 0]
                    .into_iter()
                    .map(Alteration::Delete)
                    .collect()
            }
        }
        let cfg = SimConfig::builder()
            .seed(23)
            .adversary_budget(6)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, Hammer, cfg, 10);
        let report = round(&mut engine);
        assert_eq!(report.deleted, 3);
        assert_eq!(engine.population(), 7);
    }

    #[test]
    fn zero_round_spec_reports_the_live_engine() {
        let mut engine = Engine::with_population(Inert, cfg(31), 12);
        engine.run(RunSpec::rounds(3), &mut ());
        let outcome = engine.run(RunSpec::rounds(0), &mut ());
        assert_eq!(outcome.executed, 0);
        assert!(!outcome.stopped_early);
        assert_eq!(outcome.halted, None);
        // The synthetic `last` report mirrors the live engine exactly.
        assert_eq!(outcome.population_range(), (12, 12));
        assert_eq!(outcome.last.round, engine.round());
        assert_eq!(outcome.last.population_before, engine.population());
        assert_eq!(outcome.last.population_after, engine.population());
    }

    #[test]
    fn halted_engine_outcome_agrees_with_live_state() {
        let mut engine = Engine::with_population(DieAll, cfg(32), 6);
        engine.run(RunSpec::rounds(1), &mut ());
        assert_eq!(engine.halted(), Some(HaltReason::Extinct));
        let outcome = engine.run(RunSpec::rounds(10), &mut ());
        assert_eq!(outcome.executed, 0);
        assert_eq!(outcome.halted, Some(HaltReason::Extinct));
        assert_eq!(outcome.population_range(), (0, 0));
        assert_eq!(outcome.last.round, engine.round());
        assert_eq!(outcome.last.population_before, 0);
        assert_eq!(outcome.last.population_after, 0);
    }

    #[test]
    fn halt_on_first_round_still_counts_the_round() {
        let mut engine = Engine::with_population(DieAll, cfg(33), 5);
        let outcome = engine.run(RunSpec::rounds(5), &mut ());
        // The extinction round executed; only the remaining four were cut.
        assert_eq!(outcome.executed, 1);
        assert_eq!(outcome.halted, Some(HaltReason::Extinct));
        assert_eq!(outcome.population_range(), (0, 0));
        assert_eq!(outcome.last.population_before, 5);
        assert_eq!(outcome.last.population_after, 0);
        assert_eq!(outcome.last.deaths, 5);
        assert_eq!(engine.population(), 0);
    }

    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        let cfg = || {
            SimConfig::builder()
                .seed(0x5EED)
                .matching(MatchingModel::RandomFraction { min_gamma: 0.4 })
                .build()
                .unwrap()
        };
        let mut straight = Engine::with_population(Inert, cfg(), 40);
        let mut full = Vec::new();
        straight.run(
            RunSpec::rounds(20),
            &mut crate::OnRound(|r: &RoundReport| full.push(*r)),
        );

        let mut prefix = Engine::with_population(Inert, cfg(), 40);
        prefix.run(RunSpec::rounds(7), &mut ());
        let snap = prefix.snapshot();
        assert_eq!(snap.round(), 7);
        assert_eq!(snap.population(), 40);

        // Round-trip through the byte format into a fresh engine.
        let bytes = snap.to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let mut resumed = Engine::restore(Inert, NoOpAdversary, &snap).unwrap();
        let mut tail = Vec::new();
        resumed.run(
            RunSpec::rounds(13),
            &mut crate::OnRound(|r: &RoundReport| tail.push(*r)),
        );
        assert_eq!(&full[7..], &tail[..]);
        assert_eq!(resumed.round(), straight.round());
        assert_eq!(resumed.population(), straight.population());
    }

    #[test]
    fn restore_rejects_a_foreign_state_tag() {
        let engine = Engine::with_population(Inert, cfg(40), 4);
        let snap = engine.snapshot();
        // InertState's tag is "inert"; decoding it as a different protocol
        // must fail loudly rather than misinterpret bytes.
        #[derive(Debug, Clone)]
        struct OtherState;
        impl Observable for OtherState {
            fn observe(&self) -> Observation {
                Observation::default()
            }
        }
        impl crate::snapshot::SnapshotState for OtherState {
            fn state_tag() -> String {
                "other".to_string()
            }
            fn encode(&self, _out: &mut Vec<u8>) {}
            fn decode(_r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(OtherState)
            }
        }
        #[derive(Debug)]
        struct Other;
        impl Protocol for Other {
            type State = OtherState;
            type Message = ();
            fn initial_state(&self, _r: &mut SimRng) -> OtherState {
                OtherState
            }
            fn message(&self, _s: &OtherState) {}
            fn step(&self, _s: &mut OtherState, _m: Option<&()>, _r: &mut SimRng) -> Action {
                Action::Continue
            }
        }
        match Engine::restore(Other, NoOpAdversary, &snap) {
            Err(SnapshotError::StateTagMismatch { found, expected }) => {
                assert_eq!(found, "inert");
                assert_eq!(expected, "other");
            }
            other => panic!("expected a state-tag mismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_a_cap_the_slot_space_cannot_hold() {
        let engine = Engine::with_population(Inert, cfg(41), 4);
        for (cap, budget) in [
            (SimConfig::SLOT_LIMIT, 0),
            (SimConfig::SLOT_LIMIT - 3, 3),
            (1 << 28, usize::MAX),
        ] {
            let mut snap = engine.snapshot();
            snap.config_mut().max_population = cap;
            snap.config_mut().adversary_budget = budget;
            // The byte format carries the cap as-is; restore is the gate.
            let snap = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            match Engine::restore(Inert, NoOpAdversary, &snap) {
                Err(SnapshotError::InvalidConfig(crate::SimError::InvalidConfig {
                    field, ..
                })) => assert_eq!(field, "max_population"),
                other => panic!("cap {cap} + budget {budget} restored: {other:?}"),
            }
        }
        let mut snap = engine.snapshot();
        snap.config_mut().max_population = SimConfig::SLOT_LIMIT - 1;
        assert!(Engine::restore(Inert, NoOpAdversary, &snap).is_ok());
    }

    #[test]
    fn snapshot_of_a_halted_engine_restores_halted() {
        let cap_cfg = SimConfig::builder()
            .seed(42)
            .adversary_budget(4)
            .max_population(2)
            .build()
            .unwrap();
        struct Bomb;
        impl Adversary<InertState> for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                (0..4).map(|_| Alteration::Insert(InertState)).collect()
            }
        }
        let mut exploding = Engine::with_adversary(Inert, Bomb, cap_cfg, 2);
        exploding.run(RunSpec::rounds(3), &mut ());
        assert_eq!(exploding.halted(), Some(HaltReason::Exploded));
        let snap = exploding.snapshot();
        assert_eq!(snap.halted(), Some(HaltReason::Exploded));
        let mut restored = Engine::restore(Inert, NoOpAdversary, &snap).unwrap();
        assert_eq!(restored.halted(), Some(HaltReason::Exploded));
        // A halted engine stays inert after restore, too.
        assert_eq!(restored.run(RunSpec::rounds(5), &mut ()).executed, 0);
    }

    /// [`SplitOnce`] with a columnar twin: the `done` flags held resident as
    /// one `Vec<bool>`. The flags opt the stepper into
    /// [`ColumnarStep::observe`] and [`ColumnarStep::alter`]; with neither
    /// (the default) it drives stale-vector views and the `round_stats`
    /// store fallback.
    #[derive(Debug, Clone, Copy, Default)]
    struct ColumnarSplitOnce {
        observes: bool,
        alters: bool,
    }

    #[derive(Debug, Default)]
    struct DoneColumn {
        done: Vec<bool>,
        hooks: ColumnarSplitOnce,
    }

    impl ColumnarStep<SplitState> for DoneColumn {
        fn load(&mut self, agents: &[SplitState], _pool: Option<&ShardPool>) {
            self.done = agents.iter().map(|a| a.done).collect();
        }
        fn step(
            &mut self,
            partners: &[u32],
            _round_key: u64,
            _pool: Option<&ShardPool>,
            splits: &mut Vec<usize>,
            _deaths: &mut Vec<usize>,
        ) {
            for (i, done) in self.done.iter_mut().enumerate() {
                if !*done && partners[i] != UNMATCHED {
                    *done = true;
                    splits.push(i);
                }
            }
        }
        fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
            for &i in splits {
                let daughter = self.done[i];
                self.done.push(daughter);
            }
            for &i in deaths.iter().rev() {
                self.done.swap_remove(i);
            }
        }
        fn store(&self, agents: &mut Vec<SplitState>) {
            agents.clear();
            agents.extend(self.done.iter().map(|&done| SplitState { done }));
        }
        fn observe(&self, round: u64, counts: &mut BTreeMap<u32, usize>) -> Option<RoundStats> {
            self.hooks.observes.then(|| {
                let mut agents = Vec::new();
                self.store(&mut agents);
                RoundStats::observe_with(round, &agents, counts)
            })
        }
        fn alter(
            &mut self,
            inserts: &[SplitState],
            modifies: &[(usize, SplitState)],
            deletes: &[usize],
        ) -> bool {
            if !self.hooks.alters {
                return false;
            }
            self.done.extend(inserts.iter().map(|s| s.done));
            for (i, s) in modifies {
                self.done[*i] = s.done;
            }
            for &i in deletes.iter().rev() {
                self.done.swap_remove(i);
            }
            true
        }
        fn len(&self) -> usize {
            self.done.len()
        }
    }

    impl Protocol for ColumnarSplitOnce {
        type State = SplitState;
        type Message = ();
        fn initial_state(&self, rng: &mut SimRng) -> SplitState {
            SplitOnce.initial_state(rng)
        }
        fn message(&self, _s: &SplitState) {}
        fn step(&self, s: &mut SplitState, incoming: Option<&()>, rng: &mut SimRng) -> Action {
            SplitOnce.step(s, incoming, rng)
        }
        fn columnar(&self) -> Option<Box<dyn ColumnarStep<SplitState>>> {
            Some(Box::new(DoneColumn {
                done: Vec::new(),
                hooks: *self,
            }))
        }
    }

    /// An observer that declares it never reads the agent slice and hands
    /// every view to `f`.
    struct ViewOnly<F>(F);

    impl<P: Protocol, F: FnMut(&RoundReport, &EngineView<'_, P>)> Observer<P> for ViewOnly<F> {
        fn on_round(&mut self, report: &RoundReport, view: &EngineView<'_, P>) {
            (self.0)(report, view);
        }
        fn needs_engine_state(&self) -> bool {
            false
        }
    }

    fn half_matched_split_once(seed: u64) -> Engine<ColumnarSplitOnce> {
        let cfg = SimConfig::builder()
            .seed(seed)
            .matching(MatchingModel::ExactFraction(0.5))
            .build()
            .unwrap();
        Engine::with_population(ColumnarSplitOnce::default(), cfg, 64)
    }

    #[test]
    fn stale_views_report_the_live_population() {
        let mut engine = half_matched_split_once(16);
        assert!(engine.columnar_enabled());
        let mut seen = Vec::new();
        engine.run(
            RunSpec::rounds(6),
            &mut ViewOnly(|r: &RoundReport, v: &EngineView<'_, ColumnarSplitOnce>| {
                seen.push((r.population_after, v.population(), r.splits));
            }),
        );
        assert!(seen.iter().filter(|s| s.2 > 0).count() > 1, "{seen:?}");
        for (after, live, _) in seen {
            assert_eq!(after, live);
        }
    }

    #[test]
    #[should_panic(expected = "read a stale vector")]
    fn agents_on_a_stale_view_panic() {
        half_matched_split_once(17).run(
            RunSpec::rounds(1),
            &mut ViewOnly(|_: &RoundReport, v: &EngineView<'_, ColumnarSplitOnce>| {
                let _ = v.agents();
            }),
        );
    }

    #[test]
    #[should_panic(expected = "read a stale vector")]
    fn agents_after_a_run_unwound_mid_round_panic() {
        // A panic out of the observer leaves only the columns current.
        let mut engine = half_matched_split_once(20);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(
                RunSpec::rounds(1),
                &mut ViewOnly(|_: &RoundReport, _: &EngineView<'_, ColumnarSplitOnce>| {
                    panic!("observer failed")
                }),
            )
        }));
        assert!(unwound.is_err());
        let _ = engine.agents();
    }

    #[test]
    fn record_stats_stores_when_the_stepper_declines_to_observe() {
        let run = |columnar: bool| {
            let mut engine = half_matched_split_once(18);
            engine.set_columnar(columnar);
            let mut rec = crate::MetricsRecorder::new();
            engine.run(RunSpec::rounds(6), &mut crate::RecordStats::new(&mut rec));
            rec.rounds().to_vec()
        };
        let stats = run(true);
        assert_eq!(stats, run(false));
        assert!(stats.windows(2).any(|w| w[0].active != w[1].active));
    }

    /// Decides from the population size alone, through either entry point,
    /// with sloppy alterations past a budget of 6: a repeated delete,
    /// out-of-range indices, and a truncated insert. Counts its
    /// `act_on_stats` decisions.
    struct StatsChurn(Rc<Cell<usize>>);

    impl StatsChurn {
        fn decide(n: usize, rng: &mut SimRng) -> Vec<Alteration<SplitState>> {
            let i = rng.random_range(0..n);
            vec![
                Alteration::Delete(i),
                Alteration::Delete(i),
                Alteration::Delete(n + 3),
                Alteration::Modify(n / 2, SplitState { done: false }),
                Alteration::Modify(n, SplitState { done: true }),
                Alteration::Insert(SplitState { done: false }),
                Alteration::Insert(SplitState { done: true }),
            ]
        }
    }

    impl Adversary<SplitState> for StatsChurn {
        fn name(&self) -> &'static str {
            "stats-churn"
        }
        fn act(
            &mut self,
            _c: &RoundContext,
            agents: &[SplitState],
            rng: &mut SimRng,
        ) -> Vec<Alteration<SplitState>> {
            StatsChurn::decide(agents.len(), rng)
        }
        fn act_on_stats(
            &mut self,
            _c: &RoundContext,
            stats: &RoundStats,
            rng: &mut SimRng,
        ) -> Option<Vec<Alteration<SplitState>>> {
            self.0.set(self.0.get() + 1);
            Some(StatsChurn::decide(stats.population, rng))
        }
    }

    #[test]
    fn stats_only_adversaries_alter_the_columns_or_fall_back_to_the_vector() {
        const ROUNDS: u64 = 12;
        let run = |columnar: bool, hooks: ColumnarSplitOnce| {
            let cfg = SimConfig::builder()
                .seed(19)
                .matching(MatchingModel::ExactFraction(0.5))
                .adversary_budget(6)
                .build()
                .unwrap();
            let resident = Rc::new(Cell::new(0));
            let adv = StatsChurn(Rc::clone(&resident));
            let mut engine = Engine::with_adversary(hooks, adv, cfg, 64);
            engine.set_columnar(columnar);
            let mut trace = Vec::new();
            engine.run(
                RunSpec::rounds(ROUNDS),
                &mut crate::OnRound(|r: &RoundReport| trace.push(*r)),
            );
            let done: Vec<bool> = engine.agents().iter().map(|a| a.done).collect();
            (trace, done, resident.get())
        };
        let scalar = run(false, ColumnarSplitOnce::default());
        assert_eq!(scalar.2, 0, "no columns, nothing to decide from");
        assert!(scalar
            .0
            .iter()
            .all(|r| (r.deleted, r.modified, r.inserted) == (1, 1, 1)));
        assert!(scalar.0.iter().any(|r| r.splits > 0));
        for (observes, alters) in [(false, false), (true, false), (true, true)] {
            let columnar = run(true, ColumnarSplitOnce { observes, alters });
            let label = format!("observes {observes}, alters {alters}");
            assert_eq!(columnar.0, scalar.0, "{label}");
            assert_eq!(columnar.1, scalar.1, "{label}");
            // Round 0 acts on the fresh vector; every later round finds the
            // columns resident and decides from their stats if they observe.
            let want = if observes { ROUNDS - 1 } else { 0 };
            let want = usize::try_from(want).unwrap();
            assert_eq!(columnar.2, want, "{label}");
        }
    }
}
