//! Parallel batch execution of independent simulation jobs.
//!
//! The paper's guarantees are asymptotic: observing the `1/(8√N)` leader
//! probability or the `K = N^{1/4−ε}` tolerance threshold cleanly takes many
//! independent trials at large `N`. Every such trial is an isolated
//! `(protocol, adversary, config, seed)` job, so the natural unit of scaling
//! is the *batch*: [`BatchRunner`] fans a vector of jobs across a
//! [`std::thread::scope`] worker pool and collects the results **in job
//! order**.
//!
//! # Determinism contract
//!
//! Results are bit-identical regardless of worker count and of how the OS
//! schedules the workers:
//!
//! * every job carries its own seed (derive it with [`job_seed`] or any
//!   scheme of your choosing) and builds its own [`Engine`] /
//!   RNG streams from it — jobs share no mutable state,
//! * workers claim jobs from an atomic counter, but each result is written
//!   to the slot of *its own* job index, so the output `Vec` order never
//!   depends on scheduling,
//! * `BatchRunner::new(1)` executes inline on the calling thread; the
//!   `batch_runner_is_thread_count_independent` property test asserts it
//!   produces exactly the same results as any multi-worker configuration.
//!
//! Consequently a batch over jobs seeded from a single master seed is as
//! reproducible as one serial run — `--jobs 32` and `--jobs 1` print the
//! same tables. Worker counts are always passed in: [`BatchRunner::new`]
//! takes one, [`BatchRunner::default`] uses one worker per core, and the
//! crate reads no process-global setting or environment variable.
//!
//! # Failure semantics
//!
//! [`BatchRunner::run`] treats a panicking job as fatal (the panic
//! propagates once the scope joins). [`BatchRunner::run_faulty`] is the
//! fault-tolerant variant: each job attempt runs under `catch_unwind`, a
//! bounded [`RetryPolicy`] re-runs failed jobs (each retry receives the
//! same `(index, job)` inputs, so with job-derived seeding a successful
//! retry is bit-identical to a never-failed run), and jobs that exhaust
//! their attempts are quarantined into the [`BatchReport`] instead of
//! aborting the sweep. [`ShardPool`] is panic-safe as well: a panicking
//! shard body cannot wedge the barrier, and
//! [`try_dispatch`](ShardPool::try_dispatch) surfaces shard panics as a
//! clean [`ShardPanic`] error instead of resuming the unwind.
//!
//! ```
//! use popstab_sim::batch::{job_seed, BatchRunner, Scenario};
//! use popstab_sim::{protocols::Inert, RunSpec, SimConfig};
//!
//! let jobs: Vec<u64> = (0..8).map(|i| job_seed(42, i)).collect();
//! let runner = BatchRunner::new(4);
//! let finals = runner.run(jobs.clone(), |_, seed| {
//!     let cfg = SimConfig::builder().seed(seed).build().unwrap();
//!     let (engine, _) = Scenario::new(Inert, cfg, 64).run(RunSpec::rounds(50), &mut ());
//!     engine.population()
//! });
//! assert_eq!(finals, BatchRunner::new(1).run(jobs, |_, _| 64));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::adversary::{Adversary, NoOpAdversary};
use crate::agent::Protocol;
use crate::config::SimConfig;
use crate::driver::{Observer, RunOutcome, RunSpec};
use crate::engine::{Engine, RoundReport};
use crate::rng::derive_seed;
use crate::snapshot::SnapshotState;

/// Derives the master seed for job `index` of a batch seeded by `master`.
///
/// Golden-rule of the determinism contract: the job seed depends only on
/// `(master, index)` — never on worker identity, scheduling order, or wall
/// time. Internally the index is mixed into the master seed (SplitMix64
/// increment) and the result is pushed through the same FNV fold as
/// [`derive_stream`](crate::rng::derive_stream), so job streams are
/// independent of each other *and* of any streams the caller derives from
/// `master` directly.
pub fn job_seed(master: u64, index: u64) -> u64 {
    derive_seed(
        master.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        "batch-job",
    )
}

/// Fans independent jobs across a scoped worker pool.
///
/// See the [module docs](crate::batch) for the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    workers: usize,
}

impl Default for BatchRunner {
    /// One worker per core ([`std::thread::available_parallelism`]).
    fn default() -> Self {
        BatchRunner::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl BatchRunner {
    /// A runner with exactly `workers` worker threads (`0` is clamped to 1).
    /// One worker executes inline on the calling thread.
    pub fn new(workers: usize) -> Self {
        BatchRunner {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `run(index, job)` for every job and returns the results in
    /// job order. `run` must be a pure function of its arguments for the
    /// determinism contract to hold (in particular: seed all randomness from
    /// the job, never from global state).
    ///
    /// Worker threads claim jobs through an atomic cursor (work stealing
    /// without queues: jobs are taken in index order, so long jobs at the
    /// front do not serialize the batch). A panic in any job propagates to
    /// the caller once the scope joins.
    pub fn run<T, R, F>(&self, jobs: Vec<T>, run: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = jobs.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| run(i, job))
                .collect();
        }

        let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let run = &run;
        let slots = &slots;
        let results = &results;
        let cursor = &cursor;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    let result = run(i, job);
                    *results[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        results
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("result slot poisoned")
                    .take()
                    .expect("job finished without a result")
            })
            .collect()
    }

    /// The fault-tolerant variant of [`run`](BatchRunner::run): executes
    /// `run(index, attempt, &job)` for every job, catching per-attempt
    /// panics, retrying up to `policy` attempts, and quarantining jobs that
    /// never succeed into the returned [`BatchReport`] instead of aborting
    /// the sweep.
    ///
    /// Determinism is preserved through failures: every attempt of a job
    /// receives the identical `(index, &job)` inputs (attempt numbers start
    /// at 1), so a job that seeds all of its randomness from those — the
    /// batch contract — produces the same result whether it succeeded on
    /// the first attempt or the last. A fault-free `run_faulty` sweep is
    /// therefore bit-identical to the corresponding [`run`](BatchRunner::run) sweep, and
    /// worker-count invariance carries over unchanged.
    ///
    /// Worker threads survive job panics: one poisoned job quarantines
    /// itself, the rest of the batch completes normally.
    pub fn run_faulty<T, R, F>(&self, jobs: Vec<T>, policy: RetryPolicy, run: F) -> BatchReport<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, u32, &T) -> R + Sync,
    {
        let run = &run;
        let outcomes = self.run(jobs, move |index, job| {
            let mut message = String::new();
            for attempt in 1..=policy.max_attempts() {
                // AssertUnwindSafe: a panicking attempt abandons everything
                // it touched — the job is passed by shared reference and
                // `run` must be a pure function of its arguments (the batch
                // determinism contract) — so a from-scratch retry observes
                // no broken state.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(index, attempt, &job)
                }));
                match result {
                    Ok(result) => return JobOutcome::Ok(result),
                    Err(payload) => message = panic_message(payload.as_ref()),
                }
            }
            JobOutcome::Quarantined(JobFailure {
                index,
                attempts: policy.max_attempts(),
                message,
            })
        });
        BatchReport { outcomes }
    }
}

/// Renders a `catch_unwind` payload as text: the panic message when the
/// payload is a string (the overwhelmingly common case — `panic!` with a
/// literal or a formatted message), a placeholder otherwise.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Bounded retry policy for [`BatchRunner::run_faulty`]: how many times a
/// job may be attempted before it is quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
}

impl RetryPolicy {
    /// Allows up to `max_attempts` attempts per job (`0` is clamped to 1 —
    /// every job always gets its first attempt).
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }

    /// No retries: one attempt, then quarantine.
    pub fn none() -> RetryPolicy {
        RetryPolicy::attempts(1)
    }

    /// The attempt bound.
    pub fn max_attempts(self) -> u32 {
        self.max_attempts
    }
}

/// Three attempts per job — enough to shrug off a transient fault without
/// grinding on a deterministic one.
impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::attempts(3)
    }
}

/// A quarantined job: which job failed, how hard it was retried, and what
/// the last panic said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The failed job's batch index.
    pub index: usize,
    /// Attempts consumed (the policy's bound — quarantine means every
    /// attempt failed).
    pub attempts: u32,
    /// The final attempt's panic message.
    pub message: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} failed all {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

/// One job's fate in a [`BatchRunner::run_faulty`] sweep.
#[derive(Debug)]
pub enum JobOutcome<R> {
    /// The job produced a result (possibly after retries — bit-identical
    /// either way, by the batch determinism contract).
    Ok(R),
    /// The job panicked on every allowed attempt.
    Quarantined(JobFailure),
}

impl<R> JobOutcome<R> {
    /// The result, if the job succeeded.
    pub fn ok(self) -> Option<R> {
        match self {
            JobOutcome::Ok(r) => Some(r),
            JobOutcome::Quarantined(_) => None,
        }
    }

    /// A reference to the result, if the job succeeded.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            JobOutcome::Ok(r) => Some(r),
            JobOutcome::Quarantined(_) => None,
        }
    }

    /// The failure record, if the job was quarantined.
    pub fn failure(&self) -> Option<&JobFailure> {
        match self {
            JobOutcome::Ok(_) => None,
            JobOutcome::Quarantined(failure) => Some(failure),
        }
    }
}

/// The structured result of a [`BatchRunner::run_faulty`] sweep: one
/// [`JobOutcome`] per job, in job order.
#[derive(Debug)]
pub struct BatchReport<R> {
    outcomes: Vec<JobOutcome<R>>,
}

impl<R> BatchReport<R> {
    /// Every job's outcome, in job order.
    pub fn outcomes(&self) -> &[JobOutcome<R>] {
        &self.outcomes
    }

    /// Consumes the report into its outcome vector.
    pub fn into_outcomes(self) -> Vec<JobOutcome<R>> {
        self.outcomes
    }

    /// The quarantined jobs, in job order.
    pub fn failures(&self) -> impl Iterator<Item = &JobFailure> {
        self.outcomes.iter().filter_map(JobOutcome::failure)
    }

    /// Whether every job succeeded.
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.failure().is_none())
    }

    /// All results in job order when the sweep was clean, otherwise every
    /// failure record.
    ///
    /// # Errors
    ///
    /// The quarantined jobs' [`JobFailure`]s when any job failed.
    pub fn into_results(self) -> Result<Vec<R>, Vec<JobFailure>> {
        if self.is_clean() {
            Ok(self
                .outcomes
                .into_iter()
                .filter_map(JobOutcome::ok)
                .collect())
        } else {
            Err(self
                .outcomes
                .iter()
                .filter_map(JobOutcome::failure)
                .cloned()
                .collect())
        }
    }
}

/// A declarative, self-contained simulation job: the `(protocol, adversary,
/// config, initial population)` tuple every trial loop in the workspace
/// used to hand-roll.
///
/// A `Scenario` is plain data (`Clone` when its parts are), so sweeps can
/// build one per grid cell and fan them out over a [`BatchRunner`] — each
/// job builds its own [`Engine`] from its own seed, which is exactly the
/// batch determinism contract. Named, concrete scenarios (the paper's
/// protocol against each suite adversary, the baselines, …) live in the
/// `popstab-bench` registry (`experiments --list`); this type is the
/// generic substrate they are built from.
///
/// ```
/// use popstab_sim::{protocols::Inert, RunSpec, Scenario, SimConfig};
///
/// let cfg = SimConfig::builder().seed(3).build().unwrap();
/// let (engine, outcome) = Scenario::new(Inert, cfg, 32).run(RunSpec::rounds(5), &mut ());
/// assert_eq!(outcome.executed, 5);
/// assert_eq!(engine.population(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario<P, A = NoOpAdversary> {
    /// The protocol every agent runs.
    pub protocol: P,
    /// The adversary acting each round.
    pub adversary: A,
    /// Engine configuration (seed, matching model, budget, caps).
    pub config: SimConfig,
    /// Initial population size.
    pub initial: usize,
}

impl<P: Protocol> Scenario<P, NoOpAdversary> {
    /// A scenario with no adversary.
    pub fn new(protocol: P, config: SimConfig, initial: usize) -> Self {
        Scenario {
            protocol,
            adversary: NoOpAdversary,
            config,
            initial,
        }
    }
}

impl<P: Protocol, A: Adversary<P::State>> Scenario<P, A> {
    /// Replaces the adversary (builder-style, so `Scenario::new(..)
    /// .against(adv)` reads declaratively).
    pub fn against<B: Adversary<P::State>>(self, adversary: B) -> Scenario<P, B> {
        Scenario {
            protocol: self.protocol,
            adversary,
            config: self.config,
            initial: self.initial,
        }
    }

    /// Builds the engine this scenario describes, on the columnar step
    /// path whenever the protocol offers one ([`Protocol::columnar`]).
    pub fn engine(self) -> Engine<P, A> {
        Engine::with_adversary(self.protocol, self.adversary, self.config, self.initial)
    }

    /// Builds the engine and drives it through `spec` under `obs`,
    /// returning the engine (for state inspection) and the outcome.
    pub fn run<F, O>(self, spec: RunSpec<F>, obs: &mut O) -> (Engine<P, A>, RunOutcome)
    where
        F: FnMut(&RoundReport) -> bool,
        O: Observer<P>,
    {
        let mut engine = self.engine();
        let outcome = engine.run(spec, obs);
        (engine, outcome)
    }

    /// Runs the shared prefix once (serially, to `at_round`), snapshots it,
    /// and branches the frozen state into one divergent future per entry of
    /// `branches`, fanned out over `runner`.
    ///
    /// Each branch restores its own [`Engine`] from
    /// [`Snapshot::fork`](crate::Snapshot::fork)`(seed_salt)` — optionally
    /// with a different adversary budget — pairs it with the branch's own
    /// adversary, and hands it to `eval(index, engine)`, which drives the
    /// future however it likes (spec, observer, measurements) and returns
    /// the branch result. Results come back in branch order, and, like any
    /// batch, are bit-identical for every worker count.
    ///
    /// A branch with `seed_salt = 0`, the prefix adversary, and no budget
    /// override continues *exactly* the uninterrupted run — the
    /// counterfactual baseline comes for free.
    ///
    /// ```
    /// use popstab_sim::batch::{BatchRunner, ForkBranch, Scenario};
    /// use popstab_sim::{protocols::Inert, NoOpAdversary, RunSpec, SimConfig};
    ///
    /// let cfg = SimConfig::builder().seed(9).build().unwrap();
    /// let branches = (0..4u64)
    ///     .map(|salt| ForkBranch::new(salt, NoOpAdversary))
    ///     .collect();
    /// let finals = Scenario::new(Inert, cfg, 32).fork(
    ///     10,
    ///     branches,
    ///     &BatchRunner::new(2),
    ///     |_, mut engine| {
    ///         engine.run(RunSpec::rounds(10), &mut ());
    ///         engine.population()
    ///     },
    /// );
    /// assert_eq!(finals, vec![32; 4]);
    /// ```
    pub fn fork<B, R, F>(
        self,
        at_round: u64,
        branches: Vec<ForkBranch<B>>,
        runner: &BatchRunner,
        eval: F,
    ) -> Vec<R>
    where
        P: Clone + Send + Sync,
        P::State: SnapshotState,
        B: Adversary<P::State> + Send,
        R: Send,
        F: Fn(usize, Engine<P, B>) -> R + Sync,
    {
        let protocol = self.protocol.clone();
        let mut prefix = self.engine();
        prefix.run(RunSpec::rounds(at_round), &mut ());
        let snap = prefix.snapshot();
        drop(prefix);
        let protocol = &protocol;
        let snap = &snap;
        runner.run(branches, move |index, branch| {
            let mut snap = snap.fork(branch.seed_salt);
            if let Some(budget) = branch.budget {
                snap.config_mut().adversary_budget = budget;
            }
            // Same-process, same protocol type: the tag always matches and
            // the agent column decodes exactly as it was encoded; only a
            // branch budget past the slot limit can fail the restore.
            let engine = Engine::restore(protocol.clone(), branch.adversary, &snap)
                .expect("a fork branch's budget must keep its config valid");
            eval(index, engine)
        })
    }
}

/// One branch of a [`Scenario::fork`]: the seed perturbation and adversary
/// (plus optional budget override) its future diverges under.
///
/// `seed_salt = 0` leaves the snapshot's streams untouched (the branch
/// replays the original future as long as its adversary behaves
/// identically); any other salt derives fresh, decorrelated agent/matching/
/// adversary streams for the rounds after the fork point.
#[derive(Debug, Clone)]
pub struct ForkBranch<B> {
    /// Stream perturbation, mixed into the snapshot seed; `0` = unperturbed.
    pub seed_salt: u64,
    /// The adversary this branch runs under after the fork point.
    pub adversary: B,
    /// Replacement adversary budget, if the branch varies it.
    pub budget: Option<usize>,
}

impl<B> ForkBranch<B> {
    /// A branch with the given salt and adversary, keeping the snapshot's
    /// budget.
    pub fn new(seed_salt: u64, adversary: B) -> Self {
        ForkBranch {
            seed_salt,
            adversary,
            budget: None,
        }
    }

    /// Overrides the adversary budget for this branch (builder-style). The
    /// fork panics on a budget that, added to the snapshot's cap, reaches
    /// [`SimConfig::SLOT_LIMIT`](crate::SimConfig::SLOT_LIMIT).
    #[must_use]
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// A raw pointer that may cross thread boundaries. Used by the intra-round
/// parallel phases (the engine's step phase, the matching sampler) to hand
/// each shard its disjoint slice of a shared buffer; every use site
/// documents why its accesses are disjoint.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. A method (not field access) so closures capture
    /// the `SendPtr` itself — edition-2021 disjoint capture would otherwise
    /// grab the bare `*mut T` field, which is not `Sync`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: dereferencing is the caller's responsibility (each unsafe block
// at the use sites states its disjointness argument); the pointer value
// itself is freely copyable across threads.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared references to the wrapper expose only the raw pointer
// value, never the pointee — same argument as `Send` above.
unsafe impl<T> Sync for SendPtr<T> {}

/// The slot range shard `s` of `nshards` owns over `n` items: contiguous,
/// disjoint, covering `0..n`, balanced to within one item.
#[inline]
pub(crate) fn shard_range(n: usize, nshards: usize, s: usize) -> (usize, usize) {
    let chunk = n / nshards;
    let rem = n % nshards;
    let lo = s * chunk + s.min(rem);
    (lo, lo + chunk + usize::from(s < rem))
}

/// One dispatched shard body, type- and lifetime-erased so the persistent
/// workers can hold it across their `recv` loop.
struct ShardTask(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (it is executed concurrently by every
// worker), and `ShardPool::dispatch` does not return until every worker has
// finished running it, so the pointer never outlives the closure it points
// to.
unsafe impl Send for ShardTask {}

/// Dispatch-protocol state shared between the pool owner and its workers.
struct PoolState {
    /// The body of the generation currently being executed, if any.
    task: Option<ShardTask>,
    /// Bumped once per dispatch; workers run each generation exactly once.
    generation: u64,
    /// Workers still executing the current generation.
    outstanding: usize,
    /// First panic caught from a worker shard this generation, with the
    /// panicking shard's index.
    panic: Option<(usize, Box<dyn std::any::Any + Send>)>,
    /// Set once by [`ShardPool::with`] on the way out.
    shutdown: bool,
}

/// A persistent intra-round worker pool.
///
/// [`BatchRunner`] parallelizes *across* independent jobs; `ShardPool`
/// parallelizes *inside* one simulation round. `with(n, f)` spawns `n − 1`
/// scoped worker threads that live for the whole closure `f` — one `Engine`
/// run can dispatch thousands of rounds without paying a thread spawn per
/// round. Each [`dispatch`](ShardPool::dispatch) runs `body(shard)` exactly
/// once for every shard index in `0..n` (shard 0 on the calling thread,
/// the rest on the workers) and returns only when all of them finished, so
/// the body may borrow from the caller's stack.
///
/// The pool imposes no determinism by itself — callers get bit-identical
/// results for every shard count by keying all randomness on data (see
/// [`crate::rng::counter_seed`]) and merging per-shard output in slot
/// order, which is exactly what `Engine::run_until_par` does.
pub struct ShardPool {
    shards: usize,
    state: Mutex<PoolState>,
    work_ready: Condvar,
    work_done: Condvar,
    /// Guards against concurrent `dispatch` calls (the pool is `Sync`, but
    /// the dispatch protocol is single-dispatcher; see [`ShardPool::dispatch`]).
    dispatching: std::sync::atomic::AtomicBool,
}

impl ShardPool {
    /// Runs `f` with a pool of `shards` shards (`0` is clamped to 1), then
    /// joins the workers. With one shard no threads are spawned and
    /// dispatches run inline.
    pub fn with<R>(shards: usize, f: impl FnOnce(&ShardPool) -> R) -> R {
        let pool = ShardPool {
            shards: shards.max(1),
            state: Mutex::new(PoolState {
                task: None,
                generation: 0,
                outstanding: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            dispatching: std::sync::atomic::AtomicBool::new(false),
        };
        if pool.shards == 1 {
            return f(&pool);
        }
        /// Shuts the workers down when dropped — including when `f`
        /// unwinds, without which the scope join below would hang forever.
        struct Shutdown<'a>(&'a ShardPool);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                self.0.state().shutdown = true;
                self.0.work_ready.notify_all();
            }
        }
        std::thread::scope(|scope| {
            for shard in 1..pool.shards {
                let pool = &pool;
                scope.spawn(move || pool.worker_loop(shard));
            }
            let _shutdown = Shutdown(&pool);
            f(&pool)
        })
    }

    /// The shard count `n`: every dispatch runs shard indices `0..n`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Locks the protocol state, recovering from poisoning. Every mutation
    /// of `PoolState` keeps it consistent at every intermediate point (the
    /// fields are plain counters and options), so a panic while the lock is
    /// held — which can only come from the caller's `body` via the unwind
    /// paths — leaves valid state behind and the lock may be safely
    /// re-entered. Treating poison as fatal here would turn one reported
    /// shard panic into a permanently wedged pool.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `body(shard)` for every shard index in `0..self.shards()`,
    /// each exactly once (shard 0 inline on the caller), returning when all
    /// have finished. `body` must tolerate running concurrently with itself
    /// under distinct shard indices.
    ///
    /// A panic on any shard is re-raised here on the calling thread — but
    /// only **after** every shard has finished, so the stack frame the body
    /// borrows from stays alive for as long as any worker can touch it
    /// (the same all-shards barrier the success path uses).
    ///
    /// # Panics
    ///
    /// Panics if called while another `dispatch` on the same pool is still
    /// running. The pool is one team of workers executing one generation at
    /// a time; overlapping dispatches would let a worker outlive the stack
    /// frame its task borrows, so the protocol refuses them outright.
    pub fn dispatch(&self, body: &(dyn Fn(usize) + Sync)) {
        if let Err((_, payload)) = self.dispatch_inner(body) {
            std::panic::resume_unwind(payload);
        }
    }

    /// Like [`dispatch`](ShardPool::dispatch), but a shard panic comes back
    /// as a structured [`ShardPanic`] error instead of unwinding the
    /// caller. The all-shards barrier is identical: the call returns only
    /// once every shard has finished, panicked or not, and the pool remains
    /// usable for further dispatches afterwards.
    ///
    /// # Errors
    ///
    /// The first panic observed this dispatch, attributed to its shard
    /// (shard 0 — the caller's own inline shard — wins ties).
    ///
    /// # Panics
    ///
    /// Panics on concurrent dispatches, exactly like `dispatch`.
    pub fn try_dispatch(&self, body: &(dyn Fn(usize) + Sync)) -> Result<(), ShardPanic> {
        self.dispatch_inner(body)
            .map_err(|(shard, payload)| ShardPanic {
                shard,
                message: panic_message(payload.as_ref()),
            })
    }

    /// The shared dispatch protocol: runs every shard, holds the barrier,
    /// and reports the first panic (with its shard index) to the caller
    /// instead of unwinding.
    fn dispatch_inner(
        &self,
        body: &(dyn Fn(usize) + Sync),
    ) -> Result<(), (usize, Box<dyn std::any::Any + Send>)> {
        if self.shards == 1 {
            // AssertUnwindSafe: the payload is reported to the caller, which
            // either re-raises it (`dispatch`, the serial panic behavior) or
            // abandons the half-stepped state (`try_dispatch`).
            return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(0)))
                .map_err(|payload| (0, payload));
        }
        assert!(
            !self.dispatching.swap(true, Ordering::Acquire),
            "concurrent ShardPool::dispatch calls on one pool"
        );
        {
            // SAFETY: this only erases the lifetime of `body`. Workers
            // dereference the erased pointer only between this publication
            // and the `outstanding == 0` wait below, and `body` stays
            // borrowed for the whole of this call.
            let erased: &'static (dyn Fn(usize) + Sync) =
                unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
            let mut st = self.state();
            st.task = Some(ShardTask(erased));
            st.generation += 1;
            st.outstanding = self.shards - 1;
        }
        self.work_ready.notify_all();
        // AssertUnwindSafe: as in the single-shard path above.
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(0)));
        let mut st = self.state();
        while st.outstanding > 0 {
            st = self
                .work_done
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.task = None;
        let worker_panic = st.panic.take();
        drop(st);
        self.dispatching.store(false, Ordering::Release);
        if let Err(payload) = own {
            return Err((0, payload));
        }
        if let Some((shard, payload)) = worker_panic {
            return Err((shard, payload));
        }
        Ok(())
    }

    fn worker_loop(&self, shard: usize) {
        let mut seen = 0u64;
        loop {
            let task = {
                let mut st = self.state();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.generation != seen {
                        seen = st.generation;
                        break st.task.as_ref().expect("generation without task").0;
                    }
                    st = self
                        .work_ready
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            // SAFETY: `dispatch_inner` blocks until `outstanding` drops to
            // zero, so the closure behind the pointer is still alive. The
            // panic guard keeps that true on the unwinding path too: a
            // panicking shard still decrements `outstanding` (the payload is
            // reported to the dispatcher, never dropped on the floor).
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (*task)(shard)
            }));
            let mut st = self.state();
            if let Err(payload) = result {
                st.panic.get_or_insert((shard, payload));
            }
            st.outstanding -= 1;
            if st.outstanding == 0 {
                self.work_done.notify_one();
            }
        }
    }
}

/// A shard panic reported by [`ShardPool::try_dispatch`]: which shard blew
/// up, and what its panic said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPanic {
    /// The panicking shard's index (0 is the dispatching thread itself).
    pub shard: usize,
    /// The rendered panic message.
    pub message: String,
}

impl fmt::Display for ShardPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} panicked: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardPanic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let runner = BatchRunner::new(4);
        let out = runner.run((0..100usize).collect(), |i, job| {
            assert_eq!(i, job);
            job * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let runner = BatchRunner::new(1);
        let id = std::thread::current().id();
        let out = runner.run(vec![(); 4], |i, ()| {
            assert_eq!(std::thread::current().id(), id);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let compute = |_, seed: u64| {
            // A little seed-dependent arithmetic standing in for a trial.
            let mut x = seed;
            for _ in 0..10 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            x
        };
        let jobs: Vec<u64> = (0..33).map(|i| job_seed(7, i)).collect();
        let serial = BatchRunner::new(1).run(jobs.clone(), compute);
        for workers in [2, 3, 8, 64] {
            assert_eq!(BatchRunner::new(workers).run(jobs.clone(), compute), serial);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u8> = BatchRunner::new(8).run(Vec::<u8>::new(), |_, j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_clamp_to_one() {
        assert_eq!(BatchRunner::new(0).workers(), 1);
    }

    #[test]
    fn job_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|i| job_seed(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| job_seed(1, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "job seeds collide");
        assert!(a.iter().all(|&s| s != job_seed(2, 0)));
    }

    #[test]
    fn shard_pool_runs_every_shard_exactly_once_per_dispatch() {
        use std::sync::atomic::AtomicU32;
        for shards in [1usize, 2, 3, 8] {
            ShardPool::with(shards, |pool| {
                assert_eq!(pool.shards(), shards);
                let hits: Vec<AtomicU32> = (0..shards).map(|_| AtomicU32::new(0)).collect();
                for _ in 0..50 {
                    pool.dispatch(&|s| {
                        hits[s].fetch_add(1, Ordering::Relaxed);
                    });
                }
                for (s, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 50, "shard {s}");
                }
            });
        }
    }

    #[test]
    fn shard_pool_dispatch_borrows_caller_stack() {
        // Disjoint writes into a stack buffer through the shared body: the
        // dispatch barrier makes the borrow sound and the result visible.
        let mut buf = vec![0u64; 97];
        let n = buf.len();
        ShardPool::with(4, |pool| {
            let base = buf.as_mut_ptr() as usize;
            pool.dispatch(&|s| {
                let lo = n * s / 4;
                let hi = n * (s + 1) / 4;
                for i in lo..hi {
                    // SAFETY: shards cover disjoint index ranges.
                    unsafe { *(base as *mut u64).add(i) = i as u64 + 1 };
                }
            });
        });
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn shard_pool_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            ShardPool::with(4, |pool| {
                pool.dispatch(&|s| {
                    if s == 2 {
                        panic!("shard boom");
                    }
                });
                // The pool stays usable for later generations even though a
                // shard of the previous dispatch panicked.
            });
        });
        assert!(result.is_err(), "worker panic was swallowed");
    }

    #[test]
    fn shard_pool_holds_the_barrier_when_shard_zero_panics() {
        use std::sync::atomic::AtomicU32;
        let finished = AtomicU32::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardPool::with(3, |pool| {
                pool.dispatch(&|s| {
                    if s == 0 {
                        panic!("caller boom");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "caller panic was swallowed");
        // Every worker shard ran to completion before the panic propagated:
        // the all-shards barrier must hold on the unwinding path too, or
        // workers would race a dead stack frame.
        assert_eq!(finished.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_faulty_with_transient_faults_matches_the_plain_run() {
        use std::sync::atomic::AtomicU32;
        let runner = BatchRunner::new(4);
        let jobs: Vec<u64> = (0..40).map(|i| job_seed(9, i)).collect();
        let clean = runner.run(jobs.clone(), |i, seed| (i as u64).wrapping_mul(seed));
        // Every third job panics on its first attempt; the retry re-derives
        // the identical inputs, so the report must be bit-identical to the
        // clean sweep.
        let first_attempts = AtomicU32::new(0);
        let report = runner.run_faulty(jobs, RetryPolicy::attempts(2), |i, attempt, seed| {
            if i % 3 == 0 && attempt == 1 {
                first_attempts.fetch_add(1, Ordering::Relaxed);
                panic!("transient fault");
            }
            (i as u64).wrapping_mul(*seed)
        });
        assert!(report.is_clean());
        assert_eq!(first_attempts.load(Ordering::Relaxed), 14);
        assert_eq!(report.into_results().unwrap(), clean);
    }

    #[test]
    fn run_faulty_quarantines_persistent_failures_without_losing_the_rest() {
        let runner = BatchRunner::new(3);
        let report = runner.run_faulty(
            (0..10usize).collect(),
            RetryPolicy::attempts(3),
            |_, _, job| {
                if *job == 4 {
                    panic!("job four is cursed");
                }
                job * 10
            },
        );
        assert!(!report.is_clean());
        let failures: Vec<_> = report.failures().cloned().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 4);
        assert_eq!(failures[0].attempts, 3);
        assert_eq!(failures[0].message, "job four is cursed");
        assert!(failures[0].to_string().contains("failed all 3 attempts"));
        // Every other job is untouched, in order.
        let ok: Vec<_> = report
            .outcomes()
            .iter()
            .filter_map(JobOutcome::as_ok)
            .copied()
            .collect();
        assert_eq!(ok, vec![0, 10, 20, 30, 50, 60, 70, 80, 90]);
        assert_eq!(report.into_results().unwrap_err(), failures);
    }

    #[test]
    fn retry_policy_clamps_and_defaults() {
        assert_eq!(RetryPolicy::attempts(0).max_attempts(), 1);
        assert_eq!(RetryPolicy::none().max_attempts(), 1);
        assert_eq!(RetryPolicy::default().max_attempts(), 3);
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("literal message")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "literal message");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn try_dispatch_attributes_the_panicking_shard() {
        ShardPool::with(4, |pool| {
            let err = pool
                .try_dispatch(&|s| {
                    if s == 2 {
                        panic!("shard two boom");
                    }
                })
                .unwrap_err();
            assert_eq!(
                err,
                ShardPanic {
                    shard: 2,
                    message: "shard two boom".to_string(),
                }
            );
            assert_eq!(err.to_string(), "shard 2 panicked: shard two boom");
            // The pool is still usable after a reported panic.
            pool.try_dispatch(&|_| {}).unwrap();
            pool.dispatch(&|_| {});
        });
    }

    #[test]
    fn try_dispatch_reports_inline_shard_zero_panics() {
        ShardPool::with(1, |pool| {
            let err = pool.try_dispatch(&|_| panic!("inline boom")).unwrap_err();
            assert_eq!(err.shard, 0);
            assert_eq!(err.message, "inline boom");
            pool.try_dispatch(&|_| {}).unwrap();
        });
    }

    #[test]
    fn shard_pool_zero_clamps_to_one_inline_shard() {
        let id = std::thread::current().id();
        ShardPool::with(0, |pool| {
            assert_eq!(pool.shards(), 1);
            pool.dispatch(&|s| {
                assert_eq!(s, 0);
                assert_eq!(std::thread::current().id(), id);
            });
        });
    }

    mod dispatch_stalls {
        use super::*;
        use crate::fault::FaultPlan;
        use proptest::prelude::*;
        use std::sync::atomic::AtomicU32;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// Random `FaultPlan` stalls inside the dispatch body shake the
            /// pool's schedule (the substitute for a race detector here):
            /// every shard still runs exactly once per dispatch, a panic on
            /// every other dispatch is attributed to its shard, and the pool
            /// stays reusable. `panicking >= shards` means no shard panics.
            #[test]
            fn dispatch_survives_random_stalls(
                shards in 1usize..=8,
                fault_seed in any::<u64>(),
                rate in 0.0f64..=1.0,
                micros in 1u64..=200,
                panicking in 0usize..=8,
            ) {
                let plan = FaultPlan::new(fault_seed).stalls(rate, micros);
                ShardPool::with(shards, |pool| {
                    let hits: Vec<AtomicU32> = (0..shards).map(|_| AtomicU32::new(0)).collect();
                    for round in 0..6u32 {
                        let panics = round % 2 == 1 && panicking < shards;
                        let result = pool.try_dispatch(&|s| {
                            plan.maybe_stall(u64::from(round), s);
                            hits[s].fetch_add(1, Ordering::Relaxed);
                            if panics && s == panicking {
                                panic!("stalled shard {s} boom");
                            }
                        });
                        match result {
                            Err(err) => prop_assert_eq!((panics, err.shard), (true, panicking)),
                            Ok(()) => prop_assert!(!panics),
                        }
                        for (s, h) in hits.iter().enumerate() {
                            prop_assert_eq!(h.load(Ordering::Relaxed), round + 1, "shard {}", s);
                        }
                    }
                });
            }
        }
    }

    /// Coin-flip splitter/dier: every round each agent splits or dies on a
    /// fair draw, so the trajectory is maximally seed-sensitive — exactly
    /// what fork-divergence tests need.
    #[derive(Debug, Clone, Copy)]
    struct Drift;
    #[derive(Debug, Clone)]
    struct DriftState;
    impl crate::Observable for DriftState {
        fn observe(&self) -> crate::Observation {
            crate::Observation::default()
        }
    }
    impl crate::snapshot::SnapshotState for DriftState {
        fn state_tag() -> String {
            "drift-test".to_string()
        }
        fn encode(&self, _out: &mut Vec<u8>) {}
        fn decode(
            _r: &mut crate::snapshot::SnapshotReader<'_>,
        ) -> Result<Self, crate::snapshot::SnapshotError> {
            Ok(DriftState)
        }
    }
    impl Protocol for Drift {
        type State = DriftState;
        type Message = ();
        fn initial_state(&self, _rng: &mut crate::SimRng) -> DriftState {
            DriftState
        }
        fn message(&self, _s: &DriftState) {}
        fn step(
            &self,
            _s: &mut DriftState,
            _m: Option<&()>,
            rng: &mut crate::SimRng,
        ) -> crate::Action {
            use rand::Rng;
            if rng.random_bool(0.5) {
                crate::Action::Split
            } else {
                crate::Action::Die
            }
        }
    }

    fn drift_scenario() -> Scenario<Drift> {
        let cfg = SimConfig::builder().seed(0xF0_4B).build().unwrap();
        Scenario::new(Drift, cfg, 64)
    }

    fn trace_of<A: Adversary<DriftState>>(
        engine: &mut Engine<Drift, A>,
        rounds: u64,
    ) -> Vec<RoundReport> {
        let mut trace = Vec::new();
        engine.run(
            RunSpec::rounds(rounds),
            &mut crate::OnRound(|r: &RoundReport| trace.push(*r)),
        );
        trace
    }

    #[test]
    fn fork_identity_branch_reproduces_the_straight_line_run() {
        let mut straight = drift_scenario().engine();
        let full = trace_of(&mut straight, 20);

        let branches = vec![ForkBranch::new(0, NoOpAdversary)];
        let tails = drift_scenario().fork(7, branches, &BatchRunner::new(1), |_, mut engine| {
            (trace_of(&mut engine, 13), engine.population())
        });
        let (tail, final_pop) = &tails[0];
        assert_eq!(&full[7..], &tail[..]);
        assert_eq!(*final_pop, straight.population());
    }

    #[test]
    fn fork_branches_are_worker_count_invariant_and_salts_diverge() {
        let branches = || -> Vec<_> {
            (0..4u64)
                .map(|s| ForkBranch::new(s, NoOpAdversary))
                .collect()
        };
        let run = |workers| {
            drift_scenario().fork(
                5,
                branches(),
                &BatchRunner::new(workers),
                |_, mut engine| trace_of(&mut engine, 10),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(3));
        // Salted branches decorrelate from the unperturbed future.
        assert_ne!(serial[0], serial[1]);
        assert_ne!(serial[1], serial[2]);
    }

    #[test]
    fn fork_budget_override_rearms_the_adversary() {
        struct Nibbler;
        impl Adversary<DriftState> for Nibbler {
            fn name(&self) -> &'static str {
                "nibbler"
            }
            fn act(
                &mut self,
                _c: &crate::RoundContext,
                agents: &[DriftState],
                _r: &mut crate::SimRng,
            ) -> Vec<crate::Alteration<DriftState>> {
                (0..agents.len().min(8))
                    .map(crate::Alteration::Delete)
                    .collect()
            }
        }
        // The prefix config has budget 0; one branch re-arms it to 8.
        // Heterogeneous adversaries per branch go through `Box<dyn …>`.
        type Boxed = Box<dyn Adversary<DriftState> + Send>;
        let branches = vec![
            ForkBranch::new(0, Box::new(NoOpAdversary) as Boxed),
            ForkBranch::new(0, Box::new(Nibbler) as Boxed).budget(8),
        ];
        let deleted = drift_scenario().fork(3, branches, &BatchRunner::new(2), |_, mut engine| {
            let trace = trace_of(&mut engine, 6);
            trace.iter().map(|r| r.deleted).sum::<usize>()
        });
        assert_eq!(deleted[0], 0, "no-op branch must not delete");
        assert!(deleted[1] > 0, "re-armed deleter branch must delete");
    }
}
