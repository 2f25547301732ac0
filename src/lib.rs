//! # population-stability
//!
//! Facade crate for the reproduction of *Population Stability: Regulating
//! Size in the Presence of an Adversary* (Goldwasser, Ostrovsky, Scafuro,
//! Sealfon — PODC 2018).
//!
//! This crate re-exports the whole workspace so downstream users can depend
//! on a single crate:
//!
//! * [`sim`] — the synchronous population-model substrate (rounds, random
//!   matchings, split/die semantics, adversary interface, the unified
//!   `RunSpec`/`Observer` run driver, metrics),
//! * [`core`] — the paper's protocol (Algorithms 1–7): coloring epochs,
//!   three-bit messages, `polylog(N)` states,
//! * [`adversary`] — the attack library (leader snipers, color flooders,
//!   round desynchronizers, churn, trauma events, …),
//! * [`baselines`] — the strawman protocols the paper discusses (Attempt 1,
//!   Attempt 2, the empty protocol, the high-memory unique-ID protocol),
//! * [`analysis`] — statistics, concentration bounds, invariant checkers for
//!   the paper's lemmas, the finite-size equilibrium models and the
//!   variance-based population estimator,
//! * [`extensions`] — the §1.2 extended model in which agents can remove
//!   maliciously-programmed partners they detect.
//!
//! # Quickstart
//!
//! Everything runs through one driver: build an [`Engine`](prelude::Engine),
//! describe the run with a [`RunSpec`](prelude::RunSpec) (stop condition +
//! thread configuration) and watch it with an
//! [`Observer`](prelude::Observer) (`()` observes nothing; a
//! [`RecordStats`](prelude::RecordStats) adapter collects a
//! [`MetricsRecorder`](prelude::MetricsRecorder) trace).
//!
//! ```
//! use population_stability::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's protocol with target N = 1024 agents.
//! let params = Params::for_target(1024)?;
//! let protocol = PopulationStability::new(params.clone());
//! let cfg = SimConfig::builder().seed(7).target(1024).build()?;
//! let mut engine = Engine::with_population(protocol, cfg, 1024);
//!
//! // Run three epochs on the recording-free fast path and check the
//! // population stayed near the finite-size equilibrium m* = N − 8√N.
//! let epoch = u64::from(params.epoch_len());
//! let outcome = engine.run(RunSpec::rounds(3 * epoch), &mut ());
//! let m_star = equilibrium_population(&params);
//! assert!((engine.population() as f64 - m_star).abs() < 0.5 * m_star);
//!
//! // Same API, now with a metrics trace (recorded every round) and the
//! // step phase of each round sharded over 2 workers — the trajectory is
//! // bit-identical by the determinism contract.
//! let (min, max) = outcome.population_range();
//! let mut rec = MetricsRecorder::new();
//! engine.run(
//!     RunSpec::rounds(epoch).sharded(2),
//!     &mut RecordStats::new(&mut rec),
//! );
//! assert_eq!(rec.len() as u64, epoch);
//! assert!(min <= max);
//! # Ok(())
//! # }
//! ```
//!
//! # Migrating from the pre-driver API
//!
//! PR 5 collapsed the engine's eight `run_*` entry points and two recording
//! side channels into `Engine::run(RunSpec, &mut impl Observer)`:
//!
//! | old entry point | replacement |
//! |---|---|
//! | `engine.run_round()` | `engine.run(RunSpec::rounds(1), &mut obs).last` |
//! | `engine.run_rounds(n)` | `engine.run(RunSpec::rounds(n), &mut obs).executed` |
//! | `engine.run_until(max, pred)` | `engine.run(RunSpec::until(max, pred), &mut obs)` |
//! | `engine.run_range(n)` | `engine.run(RunSpec::rounds(n), &mut ()).population_range()` |
//! | `engine.run_epochs(e, len)` | `engine.run(RunSpec::epochs(e, len), &mut Stride::new(len, RecordStats::new(&mut rec)))` |
//! | `engine.par_round(w)` | `engine.run(RunSpec::rounds(1).sharded(w), &mut obs).last` |
//! | `engine.run_rounds_par(n, w)` | `engine.run(RunSpec::rounds(n).sharded(w), &mut obs)` |
//! | `engine.run_until_par(max, w, pred)` | `engine.run(RunSpec::until(max, pred).sharded(w), &mut obs)` |
//! | `engine.set_recording(false)` | pass `&mut ()` as the observer |
//! | `engine.metrics()` / `engine.trajectory()` | own a `MetricsRecorder`, fill it via `RecordStats::new(&mut rec)` |
//! | `SimConfig::metrics_every` / `metrics_phase` | `RecordStats::stride(&mut rec, every, phase)` |
//!
//! `Engine::run` carries no `Send`/`Sync` bounds: only a protocol's own
//! columnar stepper shares step work across threads, so any protocol runs
//! under any [`Threads`](sim::Threads) configuration.
//!
//! The named `(protocol, adversary, config)` combos the experiment harness
//! runs are declared as [`sim::Scenario`] values; `experiments --list`
//! prints the registry and `experiments scenario <name>` runs one.
//!
//! # Checkpoint, resume, fork
//!
//! [`Engine::snapshot`](prelude::Engine) serializes an engine mid-run into
//! a versioned, dependency-free [`Snapshot`](prelude::Snapshot) (config,
//! round counter, halt state, every agent's protocol state, and the
//! adversary RNG's exact stream position — the protocol and adversary
//! *instances* are rebuilt by the caller). Because every other per-round
//! random quantity is counter-addressable, `Engine::restore` + run to `2R`
//! is bit-identical to the uninterrupted run, serial or sharded.
//! [`Scenario::fork`](prelude::Scenario) runs the shared prefix once and
//! fans N [`ForkBranch`](prelude::ForkBranch)es (seed salt + adversary +
//! optional budget override) over a [`BatchRunner`](prelude::BatchRunner)
//! for counterfactual "what if the attack had differed from round R?"
//! ensembles; salt `0` is the identity branch. On the CLI:
//! `experiments snapshot <name> --at <round> -o <file>`,
//! `experiments resume <file> --rounds <n> [--trace]`, and the `fork-*`
//! registry scenarios.
//!
//! # Memory layout & scaling
//!
//! Every engine holds its population behind one stepper. A protocol that
//! offers a columnar stepper keeps it in a struct-of-arrays column store
//! tuned for million-agent populations, with a `Vec<AgentState>` copy
//! materialized on demand; any other protocol (the baselines, the §1.2
//! malice extension) steps serially over a plain vector, with only its
//! matching sharded under [`Threads::Sharded`](sim::Threads):
//!
//! * **On by default, never a semantic switch.** Every engine running
//!   [`PopulationStability`](prelude::PopulationStability) steps on
//!   [`core::columns::StabilityColumns`] — 1-bit and 1-byte columns
//!   (alive/color/phase flags, packed wire bytes) evaluated 64 agents per
//!   machine word with the lane-batched `_x8` [`CounterRng`](prelude::SimRng)
//!   kernels. The columns stay *resident* across rounds whenever the
//!   observer does not read the agent slice — `()`, `OnRound`, and
//!   [`RecordStats`](prelude::RecordStats), which takes each round's stats
//!   straight from the columns (popcounts over the flag words, a
//!   run-length histogram of the round column), so recording the paper's
//!   per-round figures costs no transpose — and the adversary is a no-op
//!   or decides from those stats alone
//!   ([`Adversary::act_on_stats`](sim::Adversary::act_on_stats): churn,
//!   bulk deletion and insertion, clock-skew insertion, color flooding,
//!   deviation amplification, trauma, and their per-epoch throttles), in
//!   which case its alterations are written into the columns in place.
//!   They transpose back to the vector only when something actually reads
//!   it (an observer that reads agents, an adversary that reads agent
//!   state such as the leader sniper, [`Engine::snapshot`](prelude::Engine),
//!   [`Engine::agents`](prelude::Engine)). There is no switch to turn it
//!   on: scenarios, forks, restores and the CLI all get it.
//! * **Bit-for-bit identical, by construction and by gate.** Batching can
//!   never move a draw: every agent draw is already addressed by `(seed,
//!   round, slot)`, so evaluating eight slots per call reads exactly the
//!   words the scalar loop would have read. No stream version changes —
//!   agent stream v3, matching stream v2 and snapshot format v2 are
//!   untouched, old snapshots restore, and the golden fixtures pass
//!   unchanged against the columnar path. `tests/columnar_equivalence.rs`
//!   drives random `(seed, rounds, workers)` through both paths (clean and
//!   adversarial, plus one fixed case at N = 2²⁰), comparing traces,
//!   recorded stats, full agent vectors and snapshot bytes; a hidden
//!   test-only hook installs the scalar row stepper for the other side.
//! * **Byte budget.** At large N the resident footprint is the agent
//!   vector plus a few dozen bits of column state per agent — ~46 B/agent
//!   total at N = 2²⁰/2²² ([`Engine::approx_mem_bytes`](prelude::Engine)),
//!   recorded per workload as `mem_bytes_per_agent` in `BENCH_engine.json`
//!   (`experiments bench`, scales overridable via `--n`). The committed
//!   baseline tracks ~2× fast-path rounds/sec over the scalar loop at
//!   N = 65536 on one core.
//!
//! # Failure semantics & recovery
//!
//! The fault-tolerance layer (PR 8) keeps crashes, panics and corrupted
//! files from either losing work or — worse — silently changing results:
//!
//! * **Job panics are contained.**
//!   [`BatchRunner::run_faulty`](prelude::BatchRunner) catches a panicking
//!   job, retries it under a bounded
//!   [`RetryPolicy`](prelude::RetryPolicy), and quarantines jobs that fail
//!   every attempt into a structured
//!   [`BatchReport`](prelude::BatchReport) of
//!   [`JobOutcome`](prelude::JobOutcome)s instead of aborting the sweep.
//!   Because a retry re-derives the identical `(index, &job)` inputs, a
//!   job that succeeds on attempt three returns exactly the bytes it would
//!   have returned on attempt one: fault recovery never perturbs results.
//!   Inside a round, a panicking worker shard cannot wedge the
//!   `ShardPool` barrier — `dispatch` re-raises the panic only after every
//!   shard has finished, and `try_dispatch` reports it as a
//!   [`ShardPanic`](prelude::ShardPanic) error naming the shard, leaving
//!   the pool usable.
//! * **Snapshots are tamper-evident and torn-write-proof.** Format v2
//!   appends an FNV-1a 64 checksum over the entire payload, verified at
//!   decode before any field is parsed; `Snapshot::write_to_file` writes
//!   through a temp file + fsync + atomic rename, so a crash mid-write
//!   leaves the previous file intact. Every decode error carries the byte
//!   offset and section name of the damage
//!   ([`SnapshotError`](prelude::SnapshotError)), and a malformed file of
//!   any shape — truncated anywhere, any single bit flipped, absurd length
//!   prefixes — is rejected with `Err`, never a panic or an OOM.
//! * **Long runs auto-checkpoint and crash-recover.** The
//!   [`Checkpoint`](prelude::Checkpoint) observer snapshots a running
//!   engine every `k` rounds into a rotation of files, and
//!   [`Checkpoint::scan`](prelude::Checkpoint) finds the newest rotation
//!   slot that still decodes cleanly — corrupt slots are reported and
//!   skipped ([`RecoveryScan`](prelude::RecoveryScan)). On the CLI,
//!   `experiments run-recoverable <name> --rounds N` resumes from that
//!   checkpoint automatically; a run that crashes, recovers and finishes
//!   is bit-identical to one that never crashed (the CI fault-injection
//!   leg diffs the traces every push).
//! * **Faults themselves are deterministic.** A
//!   [`FaultPlan`](prelude::FaultPlan) schedules job panics, worker stalls
//!   and snapshot corruption as a pure function of `(fault_seed, domain,
//!   key)`, so every fault-tolerance property above is pinned by
//!   reproducible proptests (`tests/fault_tolerance.rs`) rather than by
//!   flaky chaos.
//!
//! # Determinism contract & how it's enforced
//!
//! Every trajectory is a pure function of `(seed, RunSpec)`: the agent
//! stream is keyed by `(seed, round, slot)` and the matching stream by
//! `(match_key, round)`, so serial and sharded runs are bit-identical and
//! any round can be replayed in isolation. A sharded run splits the
//! matching and a columnar step across the pool; a row protocol's step
//! stays serial, so its trajectory cannot depend on the worker count.
//! Golden fixtures under `tests/golden/` pin both streams byte-for-byte;
//! bumping `AGENT_STREAM_VERSION` or `MATCHING_STREAM_VERSION` is a
//! coordinated event (constant + fixtures + README table +
//! `BENCH_engine.json` together). Snapshots extend the contract across
//! process boundaries: every snapshot embeds the stream versions it was
//! captured under (plus `SNAPSHOT_FORMAT_VERSION` for the byte layout
//! itself), and restore refuses a file from a different stream scheme.
//!
//! The contract is enforced *statically* in two layers, both CI gates.
//!
//! **Clippy** owns the hazards it can name with full type resolution.
//! `crates/clippy.toml` (and an identical `shims/rand/clippy.toml`, since
//! that shim is in the result crates' dependency closure) bans the hash
//! containers, whose iteration order is per-process random
//! (`disallowed_types`: `HashMap`, `HashSet`), the clocks (`Instant`,
//! `SystemTime`), and every `std::env` read (`disallowed_methods`). The root
//! manifest's `[workspace.lints.clippy]` denies those two lints plus
//! `undocumented_unsafe_blocks`, and every member inherits it. `crates/bench`
//! has its own empty `clippy.toml`: timing runs and parsing argv are its
//! job. A provably harmless use is escaped in place with
//! `#[expect(clippy::disallowed_methods, reason = "…")]`; a stale `expect`
//! is itself a warning, and CI runs clippy with `-D warnings`, so an escape
//! cannot outlive its hazard.
//!
//! **`popstab-lint`** (`cargo run -p popstab-lint`) keeps the checks clippy
//! cannot express. It lexes every workspace source file into code/comment
//! channels, parses the code channel into items, links an approximate
//! workspace-wide call graph filtered by the manifests' dependency
//! closure, and checks six rules over it. One of them,
//! `workspace-manifest-invariants`, also keeps the clippy layer wired up:
//! every result crate and every crate they depend on must resolve to a
//! `clippy.toml` holding every ban, so a clock read laundered through a
//! helper crate is still a clippy error. The table below is generated from
//! the rule registry (`cargo run -p popstab-lint -- --rules-md`) and a
//! docs-drift test asserts this copy matches it:
//!
//! | rule | guards against |
//! |------|----------------|
//! | `float-order-determinism` | order-sensitive `f64` reductions (`sum`, `fold`) outside the order-fixed `ordered_sum` helper in result/statistics crates |
//! | `sendptr-bounds` | `SendPtr`/`ColPtr` crossing a pool dispatch or deref'd in a helper without `shard_range`-derived disjoint indices |
//! | `simd-scalar-twin` | lane-batched `_x8` kernels without a same-file scalar twin and lane-for-lane equivalence test |
//! | `stream-version-coherence` | partial stream bumps — version constants, golden-fixture tables, and `BENCH_engine.json` disagreeing |
//! | `workspace-manifest-invariants` | workspace crates missing the per-package dev/test `opt-level` overrides that keep `cargo test` fast or `[lints] workspace = true`; result crates or their dependencies whose nearest `clippy.toml` lacks a determinism ban |
//! | `unused-allow` | `lint:allow` escapes that no longer suppress any finding (stale exceptions rot into holes) |
//!
//! A finding is suppressed with a justified escape on, or in the comment
//! block directly above, the offending line:
//!
//! ```text
//! // lint:allow(float-order-determinism): the slice is sorted by agent id
//! // before the sum, so the order is fixed.
//! let total: f64 = weights.iter().sum();
//! ```
//!
//! (`lint:allow-file(<rule>): <justification>` within the first 20 lines
//! suppresses a rule for a whole file.) The justification is mandatory and
//! must be at least 15 characters — an argument, not a rubber stamp;
//! unjustified, unknown-rule, or no-longer-needed escapes are themselves
//! findings. CI consumes the machine-readable report
//! (`popstab-lint --format json`, schema asserted like
//! `BENCH_engine.json`); `--format github` emits inline PR annotations.

pub use popstab_adversary as adversary;
pub use popstab_analysis as analysis;
pub use popstab_baselines as baselines;
pub use popstab_core as core;
pub use popstab_extensions as extensions;
pub use popstab_sim as sim;

/// One-stop imports for examples and downstream experiments.
pub mod prelude {
    pub use popstab_analysis::equilibrium::equilibrium_population;
    pub use popstab_analysis::estimator::VarianceEstimator;
    pub use popstab_analysis::invariants::InvariantReport;
    pub use popstab_analysis::stats::Summary;
    pub use popstab_core::params::Params;
    pub use popstab_core::protocol::PopulationStability;
    pub use popstab_core::state::{AgentState, Color};
    pub use popstab_sim::{
        Action, Adversary, Alteration, BatchReport, BatchRunner, Checkpoint, Engine, FaultPlan,
        ForkBranch, HaltReason, JobFailure, JobOutcome, MatchingModel, MetricsRecorder, Observable,
        Observation, Observer, OnRound, Protocol, RecordStats, RecoveryScan, RetryPolicy,
        RoundContext, RunOutcome, RunSpec, Scenario, ShardPanic, SimConfig, SimRng, Snapshot,
        SnapshotError, SnapshotState, Stride, Tee, Threads, Trajectory, SNAPSHOT_FORMAT_VERSION,
    };
}
