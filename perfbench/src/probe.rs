//! Outside-in probes: delegating wrappers around the engine's public trait
//! boundaries, a per-round lap observer, and a replay of each round's
//! matching.
//!
//! Nothing here reaches into the engine. The wrappers implement the same
//! public traits the engine calls ([`Protocol`] and its [`ColumnarStep`],
//! [`Adversary`], [`Observer`]) and forward every call unchanged, timing it
//! on the way through. The matching layer has no trait boundary, so it is
//! measured by calling the engine's own public sampler functions again with
//! the engine's own key derivation. The benchmark's self-test shows the
//! probes never change a trajectory.
//!
//! Two splits are out of reach from outside: the columnar wire pass versus
//! the step pass (both run inside one [`ColumnarStep::step`] call), and a
//! [`ShardPool`] worker's busy time versus its barrier wait (both run
//! inside one `dispatch`). Splitting those needs clocks inside the engine.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use popstab_sim::batch::ShardPool;
use popstab_sim::matching::{sample_matching_into, sample_matching_into_par};
use popstab_sim::rng::{derive_seed, round_key};
use popstab_sim::{
    Action, Adversary, Alteration, ColumnarStep, EngineView, Matching, MatchingModel, Observer,
    Protocol, RoundContext, RoundReport, SimRng,
};

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calls, busy nanoseconds and items (agents, alterations) of one wrapped
/// layer. Atomic because the batch workload's jobs run on two threads and
/// the wrappers must be `Send`/`Sync`; the counters publish no other data,
/// so `Relaxed` suffices.
#[derive(Debug, Default)]
struct LayerClock {
    calls: AtomicU64,
    ns: AtomicU64,
    items: AtomicU64,
}

impl LayerClock {
    /// Records one call that began at `start` and covered `items` items.
    fn record(&self, start: Instant, items: usize) {
        self.ns.fetch_add(ns_since(start), Relaxed);
        self.calls.fetch_add(1, Relaxed);
        self.items.fetch_add(items as u64, Relaxed);
    }

    fn read(&self) -> LayerTotals {
        LayerTotals {
            calls: self.calls.load(Relaxed),
            ns: self.ns.load(Relaxed),
            items: self.items.load(Relaxed),
        }
    }
}

/// A point-in-time copy of one wrapped layer's clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Calls made through the wrapper.
    pub calls: u64,
    /// Nanoseconds spent inside those calls.
    pub ns: u64,
    /// Items the calls covered (agents loaded, stored, stepped, observed).
    pub items: u64,
}

impl LayerTotals {
    fn add(&mut self, other: &LayerTotals) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.items += other.items;
    }
}

/// The clocks shared by one traced engine's wrappers.
#[derive(Debug, Default)]
pub struct Clocks {
    load: LayerClock,
    step: LayerClock,
    apply: LayerClock,
    store: LayerClock,
    act: LayerClock,
    observe: LayerClock,
    splits: AtomicU64,
    deaths: AtomicU64,
}

impl Clocks {
    /// Reads every clock.
    pub fn read(&self) -> Totals {
        Totals {
            load: self.load.read(),
            step: self.step.read(),
            apply: self.apply.read(),
            store: self.store.read(),
            act: self.act.read(),
            observe: self.observe.read(),
            splits: self.splits.load(Relaxed),
            deaths: self.deaths.load(Relaxed),
        }
    }
}

/// A copy of all of one engine's [`Clocks`]: what each wrapped layer did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// `ColumnarStep::load`: items are agents transposed into the columns.
    pub load: LayerTotals,
    /// `ColumnarStep::step` (wire and step pass together): items are agents.
    pub step: LayerTotals,
    /// `ColumnarStep::apply`: items are splits plus deaths applied.
    pub apply: LayerTotals,
    /// `ColumnarStep::store`: items are agents transposed back.
    pub store: LayerTotals,
    /// `Adversary::act`: items are alterations returned.
    pub act: LayerTotals,
    /// `Observer::on_round` of the workload's own observer: items are
    /// agents in the observed population.
    pub observe: LayerTotals,
    /// Splits handed to `apply`.
    pub splits: u64,
    /// Deaths handed to `apply`.
    pub deaths: u64,
}

impl Totals {
    /// Nanoseconds spent inside all wrapped layers.
    pub fn wrapped_ns(&self) -> u64 {
        self.load.ns + self.step.ns + self.apply.ns + self.store.ns + self.act.ns + self.observe.ns
    }

    /// Adds another engine's totals (the batch workload sums its jobs).
    pub fn add(&mut self, other: &Totals) {
        self.load.add(&other.load);
        self.step.add(&other.step);
        self.apply.add(&other.apply);
        self.store.add(&other.store);
        self.act.add(&other.act);
        self.observe.add(&other.observe);
        self.splits += other.splits;
        self.deaths += other.deaths;
    }
}

/// A [`Protocol`] that forwards to `inner` and wraps the columnar stepper
/// `inner` installs, timing its `load`/`step`/`apply`/`store` calls.
#[derive(Debug, Clone)]
pub struct ProbedProtocol<P> {
    inner: P,
    clocks: Arc<Clocks>,
}

impl<P> ProbedProtocol<P> {
    /// Wraps `inner`, reporting into `clocks`.
    pub fn new(inner: P, clocks: Arc<Clocks>) -> Self {
        ProbedProtocol { inner, clocks }
    }
}

impl<P> Protocol for ProbedProtocol<P>
where
    P: Protocol,
    P::State: 'static,
{
    type State = P::State;
    type Message = P::Message;

    fn initial_state(&self, rng: &mut SimRng) -> P::State {
        self.inner.initial_state(rng)
    }

    fn message(&self, state: &P::State) -> P::Message {
        self.inner.message(state)
    }

    fn step(
        &self,
        state: &mut P::State,
        incoming: Option<&P::Message>,
        rng: &mut SimRng,
    ) -> Action {
        self.inner.step(state, incoming, rng)
    }

    fn columnar(&self) -> Option<Box<dyn ColumnarStep<P::State>>> {
        let inner = self.inner.columnar()?;
        Some(Box::new(ProbedColumns {
            inner,
            clocks: Arc::clone(&self.clocks),
        }))
    }
}

/// The timing wrapper around an engine's columnar stepper.
#[derive(Debug)]
struct ProbedColumns<S> {
    inner: Box<dyn ColumnarStep<S>>,
    clocks: Arc<Clocks>,
}

impl<S: std::fmt::Debug> ColumnarStep<S> for ProbedColumns<S> {
    fn load(&mut self, agents: &[S], pool: Option<&ShardPool>) {
        let start = Instant::now();
        self.inner.load(agents, pool);
        self.clocks.load.record(start, agents.len());
    }

    fn step(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let start = Instant::now();
        self.inner.step(partners, round_key, pool, splits, deaths);
        self.clocks.step.record(start, partners.len());
    }

    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        let start = Instant::now();
        self.inner.apply(splits, deaths);
        self.clocks.apply.record(start, splits.len() + deaths.len());
        self.clocks.splits.fetch_add(splits.len() as u64, Relaxed);
        self.clocks.deaths.fetch_add(deaths.len() as u64, Relaxed);
    }

    fn store(&self, agents: &mut Vec<S>) {
        let start = Instant::now();
        self.inner.store(agents);
        self.clocks.store.record(start, agents.len());
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn mem_bytes(&self) -> usize {
        self.inner.mem_bytes()
    }
}

/// An [`Adversary`] that forwards to `inner`, timing `act`.
#[derive(Debug)]
pub struct ProbedAdversary<A> {
    inner: A,
    clocks: Arc<Clocks>,
}

impl<A> ProbedAdversary<A> {
    /// Wraps `inner`, reporting into `clocks`.
    pub fn new(inner: A, clocks: Arc<Clocks>) -> Self {
        ProbedAdversary { inner, clocks }
    }
}

impl<S, A: Adversary<S>> Adversary<S> for ProbedAdversary<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn act(&mut self, ctx: &RoundContext, agents: &[S], rng: &mut SimRng) -> Vec<Alteration<S>> {
        let start = Instant::now();
        let out = self.inner.act(ctx, agents, rng);
        self.clocks.act.record(start, out.len());
        out
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
}

/// An [`Observer`] that forwards to `inner`, timing `on_round`.
#[derive(Debug)]
pub struct TimedObserver<O> {
    inner: O,
    clocks: Arc<Clocks>,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`, reporting into `clocks`.
    pub fn new(inner: O, clocks: Arc<Clocks>) -> Self {
        TimedObserver { inner, clocks }
    }
}

impl<P: Protocol, O: Observer<P>> Observer<P> for TimedObserver<O> {
    fn on_round(&mut self, report: &RoundReport, view: &EngineView<'_, P>) {
        let start = Instant::now();
        self.inner.on_round(report, view);
        self.clocks.observe.record(start, view.population());
    }

    fn needs_engine_state(&self) -> bool {
        self.inner.needs_engine_state()
    }
}

/// Replays each round's matching with the engine's own public sampler
/// calls and key derivation, timing them and checking the matched count.
pub struct MatchingReplay<'p> {
    match_key: u64,
    model: MatchingModel,
    pool: &'p ShardPool,
    serial: Matching,
    par: Matching,
    serial_shuffle: Vec<u32>,
    par_shuffle: Vec<u32>,
    partners: Vec<u32>,
    /// Accumulated results.
    pub totals: ReplayTotals,
}

/// What the matching replay measured over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayTotals {
    /// Rounds replayed.
    pub rounds: u64,
    /// Σ post-adversary population over the replayed rounds.
    pub agents: u64,
    /// Σ matched agents over the replayed rounds.
    pub matched: u64,
    /// Nanoseconds in `sample_matching_into`.
    pub sample_ns: u64,
    /// Nanoseconds in `sample_matching_into_par`.
    pub sample_par_ns: u64,
    /// Nanoseconds in `partner_table_into`.
    pub partner_table_ns: u64,
    /// One line per round whose replay disagreed with the engine.
    pub mismatches: Vec<String>,
}

impl ReplayTotals {
    /// Adds another run's replay (the batch workload sums its jobs).
    pub fn add(&mut self, other: &ReplayTotals) {
        self.rounds += other.rounds;
        self.agents += other.agents;
        self.matched += other.matched;
        self.sample_ns += other.sample_ns;
        self.sample_par_ns += other.sample_par_ns;
        self.partner_table_ns += other.partner_table_ns;
        self.mismatches.extend(other.mismatches.iter().cloned());
    }
}

impl<'p> MatchingReplay<'p> {
    /// A replay of the matchings of the engine seeded `seed` under `model`;
    /// the `_par` sampler runs on `pool`.
    pub fn new(seed: u64, model: MatchingModel, pool: &'p ShardPool) -> Self {
        MatchingReplay {
            match_key: derive_seed(seed, "matching"),
            model,
            pool,
            serial: Matching::default(),
            par: Matching::default(),
            serial_shuffle: Vec::new(),
            par_shuffle: Vec::new(),
            partners: Vec::new(),
            totals: ReplayTotals::default(),
        }
    }

    /// Replays the matching of the round `report` describes.
    pub fn replay(&mut self, report: &RoundReport) {
        // The engine samples after the adversary acted: over the survivors
        // plus the inserted agents.
        let population = (report.population_before + report.inserted)
            .checked_sub(report.deleted)
            .expect("the adversary cannot delete more agents than exist");
        let mkey = round_key(self.match_key, report.round);

        let start = Instant::now();
        sample_matching_into(
            &mut self.serial,
            &mut self.serial_shuffle,
            population,
            self.model,
            mkey,
        );
        self.totals.sample_ns += ns_since(start);

        let start = Instant::now();
        sample_matching_into_par(
            &mut self.par,
            &mut self.par_shuffle,
            population,
            self.model,
            mkey,
            self.pool,
        );
        self.totals.sample_par_ns += ns_since(start);

        let start = Instant::now();
        self.serial
            .partner_table_into(&mut self.partners, population);
        self.totals.partner_table_ns += ns_since(start);
        black_box(&self.partners);

        let matched = self.serial.matched_agents();
        if matched != report.matched {
            self.totals.mismatches.push(format!(
                "round {}: replayed matching pairs {matched} agents, the engine reported {}",
                report.round, report.matched
            ));
        }
        if self.par.pairs() != self.serial.pairs() {
            self.totals.mismatches.push(format!(
                "round {}: sample_matching_into_par disagrees with sample_matching_into",
                report.round
            ));
        }
        self.totals.rounds += 1;
        self.totals.agents += population as u64;
        self.totals.matched += matched as u64;
    }
}

/// Round sums taken from the engine's own [`RoundReport`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportTotals {
    /// Rounds reported.
    pub rounds: u64,
    /// Σ adversary insertions, deletions and modifications applied.
    pub alterations: u64,
    /// Σ protocol splits.
    pub splits: u64,
    /// Σ protocol deaths.
    pub deaths: u64,
}

impl ReportTotals {
    /// Adds another run's sums.
    pub fn add(&mut self, other: &ReportTotals) {
        self.rounds += other.rounds;
        self.alterations += other.alterations;
        self.splits += other.splits;
        self.deaths += other.deaths;
    }
}

/// The lap observer: times each round from the end of the previous
/// callback to this one, then replays the round's matching outside the lap.
///
/// It never reads the agent slice (`needs_engine_state() == false`), so it
/// does not make the engine materialize its columns. Place it *after* the
/// workload's own (timed) observer in a `Tee`, so the lap includes the
/// observer's time.
pub struct Laps<'p> {
    clocks: Arc<Clocks>,
    start: Instant,
    /// Nanoseconds of each round, in order.
    pub laps_ns: Vec<u64>,
    /// The wrapped layers' totals as of the end of the last lap: the part
    /// of the clocks that lies inside the laps (the engine stores its
    /// columns once more after the last round, outside every lap).
    pub in_laps: Totals,
    /// Sums over the engine's round reports.
    pub reports: ReportTotals,
    /// The matching replay.
    pub replay: MatchingReplay<'p>,
}

impl<'p> Laps<'p> {
    /// A lap observer reading `clocks`; the first lap starts now, so build
    /// it right before `Engine::run`.
    pub fn new(clocks: Arc<Clocks>, replay: MatchingReplay<'p>) -> Self {
        Laps {
            clocks,
            start: Instant::now(),
            laps_ns: Vec::new(),
            in_laps: Totals::default(),
            reports: ReportTotals::default(),
            replay,
        }
    }
}

impl<P: Protocol> Observer<P> for Laps<'_> {
    fn on_round(&mut self, report: &RoundReport, _view: &EngineView<'_, P>) {
        self.laps_ns.push(ns_since(self.start));
        self.in_laps = self.clocks.read();
        let r = &mut self.reports;
        r.rounds += 1;
        r.alterations += (report.inserted + report.deleted + report.modified) as u64;
        r.splits += report.splits as u64;
        r.deaths += report.deaths as u64;
        self.replay.replay(report);
        self.start = Instant::now();
    }

    fn needs_engine_state(&self) -> bool {
        false
    }
}

/// Latency of `samples` empty-body dispatches on a fresh pool of `shards`
/// shards, in microseconds, after a warm-up.
pub fn dispatch_latency_us(shards: usize, samples: usize) -> Vec<f64> {
    ShardPool::with(shards, |pool| {
        for _ in 0..samples / 10 {
            pool.dispatch(&|s| {
                black_box(s);
            });
        }
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                pool.dispatch(&|s| {
                    black_box(s);
                });
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    })
}
