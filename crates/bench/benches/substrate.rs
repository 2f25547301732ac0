//! Criterion micro-benchmarks for the simulation substrate: matching
//! sampling (serial and pool-sharded, as pairs and straight into the
//! partner table), counter-output agent RNG, metrics
//! observation, the estimator, and the engine execution paths the
//! `experiments` binary actually drives ([`Engine::run`] serial and
//! sharded, [`BatchRunner`]) — the benches exercise the same code paths as
//! the figures, not a bespoke serial loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use popstab_analysis::estimator::VarianceEstimator;
use popstab_core::params::Params;
use popstab_core::state::AgentState;
use popstab_sim::batch::{job_seed, ShardPool};
use popstab_sim::matching::{
    sample_matching, sample_matching_into, sample_matching_into_par, sample_partners_into,
    Matching, MatchingModel,
};
use popstab_sim::protocols::Inert;
use popstab_sim::rng::counter_seed;
use popstab_sim::{BatchRunner, Engine, RoundStats, RunSpec, SimConfig};

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for m in [1024usize, 16384, 262_144] {
        group.throughput(Throughput::Elements(m as u64));
        let mut out = Matching::default();
        let mut scratch = Vec::new();
        let mut round = 0u64;
        group.bench_with_input(BenchmarkId::new("full", m), &m, |b, &m| {
            b.iter(|| {
                round += 1;
                sample_matching_into(
                    &mut out,
                    &mut scratch,
                    m,
                    MatchingModel::Full,
                    counter_seed(1, round, 0),
                );
                out.len()
            })
        });
        let mut round = 0u64;
        group.bench_with_input(BenchmarkId::new("quarter", m), &m, |b, &m| {
            b.iter(|| {
                round += 1;
                sample_matching_into(
                    &mut out,
                    &mut scratch,
                    m,
                    MatchingModel::ExactFraction(0.25),
                    counter_seed(2, round, 0),
                );
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_matching_par(c: &mut Criterion) {
    // The pool-sharded sampler at the largest scale, on every core the
    // host offers — the configuration a sharded `Engine::run` uses. On a
    // single-core host this measures the dispatch overhead over the serial
    // sampler above.
    let m = 262_144usize;
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("matching_par");
    group.throughput(Throughput::Elements(m as u64));
    let mut out = Matching::default();
    let mut scratch = Vec::new();
    let mut round = 0u64;
    group.bench_function(BenchmarkId::new(format!("full_{shards}shards"), m), |b| {
        ShardPool::with(shards, |pool| {
            b.iter(|| {
                round += 1;
                sample_matching_into_par(
                    &mut out,
                    &mut scratch,
                    m,
                    MatchingModel::Full,
                    counter_seed(3, round, 0),
                    pool,
                );
                out.len()
            })
        })
    });
    group.finish();
}

fn bench_partners_into(c: &mut Criterion) {
    // The engine's per-round matching call: the matching sampled straight
    // into the partner table, serial and pooled on every core. Compare
    // with `matching_par` above plus a `partner_table_into` scatter, the
    // two-step path it replaces.
    let m = 262_144usize;
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("partners_into");
    group.throughput(Throughput::Elements(m as u64));
    let mut partners = Vec::new();
    let mut scratch = Vec::new();
    let mut round = 0u64;
    group.bench_function(BenchmarkId::new("full_serial", m), |b| {
        b.iter(|| {
            round += 1;
            sample_partners_into(
                &mut partners,
                &mut scratch,
                m,
                MatchingModel::Full,
                counter_seed(5, round, 0),
                None,
            )
        })
    });
    group.bench_function(BenchmarkId::new(format!("full_{shards}shards"), m), |b| {
        ShardPool::with(shards, |pool| {
            b.iter(|| {
                round += 1;
                sample_partners_into(
                    &mut partners,
                    &mut scratch,
                    m,
                    MatchingModel::Full,
                    counter_seed(5, round, 0),
                    Some(pool),
                )
            })
        })
    });
    group.finish();
}

fn bench_partner_table(c: &mut Criterion) {
    let m = 16384usize;
    let matching = sample_matching(m, MatchingModel::Full, counter_seed(4, 0, 0));
    c.bench_function("partner_table_16k", |b| {
        b.iter(|| matching.partner_table(m))
    });
}

fn bench_counter_rng(c: &mut Criterion) {
    // Cost of constructing + drawing one value from the per-agent counter
    // stream for every slot of a 64k-agent round (the step phase's fixed
    // per-agent RNG overhead; since stream v3 construction is free and
    // each draw is one finalizer).
    use rand::Rng;
    c.bench_function("counter_rng_64k_slots", |b| {
        b.iter(|| {
            let rkey = popstab_sim::rng::round_key(1, 7);
            let mut acc = 0u64;
            for slot in 0..65_536u64 {
                acc ^= popstab_sim::rng::slot_rng(rkey, slot).random::<u64>();
            }
            acc
        })
    });
}

fn inert_engine(n: usize, seed: u64) -> Engine<Inert> {
    let cfg = SimConfig::builder().seed(seed).build().unwrap();
    Engine::with_population(Inert, cfg, n)
}

fn bench_engine_paths(c: &mut Criterion) {
    // The three execution paths the `experiments` binary drives, on the
    // substrate alone (Inert protocol — pure engine overhead, no protocol
    // logic): the recording-free serial fast path, the intra-round sharded
    // path, and a BatchRunner fan-out of independent engines.
    let n = 16384usize;
    let rounds = 20u64;
    let mut group = c.benchmark_group("engine_paths");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64 * rounds));

    let mut engine = inert_engine(n, 1);
    group.bench_function("run_serial_16k", |b| {
        b.iter(|| engine.run(RunSpec::rounds(rounds), &mut ()))
    });

    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut engine = inert_engine(n, 2);
    group.bench_function(format!("run_sharded_16k_{threads}t"), |b| {
        b.iter(|| engine.run(RunSpec::rounds(rounds).sharded(threads), &mut ()))
    });

    let jobs = 4u64;
    let runner = BatchRunner::default();
    group.bench_function(format!("batch_runner_16k_{jobs}jobs"), |b| {
        b.iter(|| {
            let engines: Vec<_> = (0..jobs).map(|j| inert_engine(n, job_seed(3, j))).collect();
            runner
                .run(engines, |_, mut e| {
                    e.run(RunSpec::rounds(rounds), &mut ());
                    e.population()
                })
                .len()
        })
    });
    group.finish();
}

fn bench_observe(c: &mut Criterion) {
    let params = Params::for_target(4096).unwrap();
    let agents: Vec<AgentState> = (0..4096)
        .map(|i| {
            if i % 8 == 0 {
                AgentState::active_at(&params, 5, popstab_core::state::Color::One)
            } else {
                AgentState::fresh(&params)
            }
        })
        .collect();
    c.bench_function("round_stats_observe_4k", |b| {
        b.iter(|| RoundStats::observe(0, &agents))
    });
}

fn bench_estimator(c: &mut Criterion) {
    let params = Params::for_target(4096).unwrap();
    c.bench_function("variance_estimator_100_epochs", |b| {
        b.iter(|| {
            let mut est = VarianceEstimator::new(&params);
            for i in 0..100u64 {
                est.push_counts(250 + (i % 17) as usize, 250);
            }
            est.estimate()
        })
    });
}

criterion_group!(
    benches,
    bench_matching,
    bench_matching_par,
    bench_partners_into,
    bench_partner_table,
    bench_counter_rng,
    bench_engine_paths,
    bench_observe,
    bench_estimator
);
criterion_main!(benches);
