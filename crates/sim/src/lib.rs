//! Synchronous population-model simulation substrate.
//!
//! This crate implements the communication and execution model of
//! *Population Stability: Regulating Size in the Presence of an Adversary*
//! (Goldwasser, Ostrovsky, Scafuro, Sealfon — PODC 2018), which is a
//! synchronous variant of the population model of Angluin et al.:
//!
//! * time proceeds in **rounds**; in each round a random matching covering at
//!   least a `γ` fraction of the agents is sampled and matched agents exchange
//!   one message each,
//! * agents may **split** into two identical copies or **self-destruct**,
//! * a worst-case **adversary** observes the complete state of every agent and
//!   may insert, delete or modify up to `K` agents per round, *before* the
//!   round's matching is sampled (the schedule is unknown to the adversary in
//!   advance).
//!
//! The substrate is protocol-agnostic: a protocol is anything implementing
//! [`Protocol`], and the paper's protocol as well as all baselines are
//! expressed against this trait. The engine is deterministic given a seed.
//!
//! # Quick example
//!
//! One generic driver runs everything: [`Engine::run`] takes a [`RunSpec`]
//! (stop condition + thread configuration) and an [`Observer`] (what to
//! watch — `()` for nothing, [`RecordStats`] for a metrics trace, composed
//! with [`Stride`]/[`Tee`]/[`OnRound`]).
//!
//! ```
//! use popstab_sim::{protocols::Inert, Engine, MetricsRecorder, RecordStats, RunSpec, SimConfig};
//!
//! // An inert population: nobody splits, nobody dies.
//! let cfg = SimConfig::builder().seed(7).build().unwrap();
//! let mut engine = Engine::with_population(Inert, cfg, 100);
//!
//! // Recording-free fast path; the outcome carries the population band.
//! let outcome = engine.run(RunSpec::rounds(10), &mut ());
//! assert_eq!(outcome.executed, 10);
//! assert_eq!(outcome.population_range(), (100, 100));
//!
//! // Same trajectory with a full metrics trace, owned by the caller.
//! let mut rec = MetricsRecorder::new();
//! engine.run(RunSpec::rounds(10), &mut RecordStats::new(&mut rec));
//! assert_eq!(rec.len(), 10);
//! assert_eq!(engine.population(), 100);
//! ```
//!
//! A declarative [`batch::Scenario`] bundles the `(protocol, adversary,
//! config, initial population)` tuple so sweeps and registries can build
//! jobs without hand-rolling engine construction.
//!
//! Running engines checkpoint exactly: [`Engine::snapshot`] captures
//! everything the future depends on into a versioned [`Snapshot`]
//! (std-only binary format, [`snapshot::SNAPSHOT_FORMAT_VERSION`]),
//! [`Engine::restore`] resumes it bit-for-bit, and
//! [`Snapshot::fork`] / [`batch::Scenario::fork`] branch one shared prefix
//! into many divergent futures — see the [`snapshot`] module docs.
//!
//! The substrate is also fault-tolerant without giving up determinism:
//! [`batch::BatchRunner::run_faulty`] retries and quarantines panicking
//! jobs (a retried job re-derives identical inputs, so recovery is
//! bit-exact), snapshots carry a verified checksum and are written
//! atomically, [`Checkpoint`] auto-checkpoints a running engine and
//! [`Checkpoint::scan`] finds the latest valid file to resume from, and
//! [`fault::FaultPlan`] injects reproducible faults to prove all of it —
//! see the [`batch`], [`snapshot`] and [`fault`] module docs.
//!
//! # Parallel execution and the determinism contract
//!
//! The substrate parallelizes on two axes, and **both are bit-identical to
//! serial execution for every worker count and scheduling order**:
//!
//! * **Across jobs** — observing the paper's asymptotic guarantees takes
//!   many independent trials at large `N`. The [`batch`] module fans
//!   `(protocol, adversary, config, seed)` jobs across a scoped thread
//!   pool: [`BatchRunner::run`] returns results in job order, each job
//!   derives all of its randomness from its own seed ([`batch::job_seed`] /
//!   [`rng::derive_seed`]), and no mutable state is shared between jobs, so
//!   a parallel sweep reproduces a serial one exactly. Trial loops
//!   throughout the workspace (the drift measurements, the experiment
//!   sweeps, the figures with their `--jobs` flag) are expressed as
//!   batches.
//! * **Inside a round** — agent randomness is *counter-output*
//!   ([`rng::counter_seed`] keying [`rng::CounterRng`], stream version
//!   [`rng::AGENT_STREAM_VERSION`]): agent slot `s` in round `r` draws
//!   from a stateless stream keyed on `(seed, r, s)`, never from a shared
//!   sequential stream. Because no agent's coins depend on any other
//!   agent having drawn first, the engine's step phase shards across a
//!   persistent [`batch::ShardPool`] ([`Threads::Sharded`] in the
//!   [`RunSpec`]) with per-shard split/death lists merged in slot order.
//!   The matching is counter-*keyed* the same way
//!   ([`matching::MATCHING_STREAM_VERSION`]): each round's pairs are a
//!   pure function of its round key, and above
//!   [`matching::KEYED_PERMUTATION_MIN_POPULATION`] the engine samples
//!   them straight into the partner table in one pass sharded across the
//!   same pool ([`matching::sample_partners_into`]; each shard writes the
//!   slots of its own pairs, disjoint because the keyed permutation is a
//!   bijection) — `--round-threads 32` and `--round-threads 1` produce the
//!   same trajectory byte for byte (CI diffs them every push).
//!
//! Observers never perturb the trajectory: the round loop is identical
//! whether a run records everything or nothing, so a recording run, a
//! sharded run and the `()` fast path replay the same simulation from the
//! same seed (golden fixtures under `tests/golden/` pin this byte for
//! byte).

#![deny(clippy::cast_possible_truncation)]

pub mod adversary;
pub mod agent;
pub mod batch;
pub mod columns;
pub mod config;
pub mod driver;
pub mod engine;
pub mod error;
pub mod fault;
pub mod matching;
pub mod metrics;
pub mod protocols;
pub mod rng;
pub mod snapshot;
pub mod trace;

pub use adversary::{Adversary, Alteration, NoOpAdversary, RoundContext};
pub use agent::{Action, Observable, Observation, Protocol};
pub use batch::{
    BatchReport, BatchRunner, ForkBranch, JobFailure, JobOutcome, RetryPolicy, Scenario, ShardPanic,
};
pub use columns::{ColumnarProtocol, ColumnarStep};
pub use config::{SimConfig, SimConfigBuilder};
pub use driver::{
    EngineView, Observer, OnRound, RecordStats, RunOutcome, RunSpec, Stop, Stride, Tee, Threads,
};
pub use engine::{Engine, HaltReason, RoundReport};
pub use error::SimError;
pub use fault::FaultPlan;
pub use matching::{Matching, MatchingModel};
pub use metrics::{MetricsRecorder, RoundStats};
pub use rng::SimRng;
pub use snapshot::{
    Checkpoint, RecoveryScan, Snapshot, SnapshotError, SnapshotReader, SnapshotState,
    SNAPSHOT_FORMAT_VERSION,
};
pub use trace::Trajectory;
