//! Criterion micro-benchmarks for the protocol hot paths: full rounds and
//! whole epochs on the engine paths the `experiments` figures drive
//! ([`Engine::run`] serial and sharded, [`BatchRunner`] — not a bespoke
//! serial loop), the per-agent step, the biased coin and the wire codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use popstab_core::coin::toss_biased_coin;
use popstab_core::message::Message;
use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_core::state::{AgentState, Color};
use popstab_sim::batch::job_seed;
use popstab_sim::rng::rng_from_seed;
use popstab_sim::{BatchRunner, Engine, Protocol, RunSpec, SimConfig};

fn popstab_engine(n: u64, seed: u64) -> Engine<PopulationStability> {
    let params = Params::for_target(n).unwrap();
    let cfg = SimConfig::builder().seed(seed).target(n).build().unwrap();
    Engine::with_population(PopulationStability::new(params), cfg, n as usize)
}

fn bench_round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_throughput");
    group.sample_size(10);
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    for n in [1024u64, 4096, 16384] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("run_serial", n), &n, |b, &n| {
            let mut engine = popstab_engine(n, 1);
            b.iter(|| engine.run(RunSpec::rounds(1), &mut ()));
        });
        group.bench_with_input(
            BenchmarkId::new(format!("run_sharded_{threads}t"), n),
            &n,
            |b, &n| {
                let mut engine = popstab_engine(n, 1);
                b.iter(|| engine.run(RunSpec::rounds(1).sharded(threads), &mut ()));
            },
        );
    }
    group.finish();
}

fn bench_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch");
    group.sample_size(10);
    let n = 1024u64;
    let params = Params::for_target(n).unwrap();
    let epoch = u64::from(params.epoch_len());
    group.throughput(Throughput::Elements(epoch * n));
    group.bench_function("n1024_run_serial", |b| {
        let mut engine = popstab_engine(n, 2);
        b.iter(|| engine.run(RunSpec::rounds(epoch), &mut ()));
    });
    // One epoch per job across a BatchRunner fan-out — the shape every
    // experiment sweep (`ksweep`, `gamma`, `attack`, …) actually runs.
    let jobs = 4u64;
    group.throughput(Throughput::Elements(epoch * n * jobs));
    group.bench_function(format!("n1024_batch_{jobs}jobs"), |b| {
        let runner = BatchRunner::default();
        b.iter(|| {
            let engines: Vec<_> = (0..jobs)
                .map(|j| popstab_engine(n, job_seed(2, j)))
                .collect();
            runner
                .run(engines, |_, mut e| {
                    e.run(RunSpec::rounds(epoch), &mut ());
                    e.population()
                })
                .len()
        });
    });
    group.finish();
}

fn bench_agent_step(c: &mut Criterion) {
    let params = Params::for_target(4096).unwrap();
    let protocol = PopulationStability::new(params.clone());
    let mut rng = rng_from_seed(3);
    c.bench_function("agent_step_recruitment", |b| {
        let recruiter = AgentState::leader(&params, Color::One, 1);
        let msg = protocol.message(&recruiter);
        let mut idle = AgentState::fresh(&params);
        idle.round = 1;
        b.iter(|| {
            let mut s = idle;
            protocol.step(&mut s, Some(&msg), &mut rng)
        });
    });
    c.bench_function("agent_step_eval", |b| {
        let eval = params.eval_round();
        let partner = AgentState::active_at(&params, eval, Color::One);
        let msg = protocol.message(&partner);
        let me = AgentState::active_at(&params, eval, Color::One);
        b.iter(|| {
            let mut s = me;
            protocol.step(&mut s, Some(&msg), &mut rng)
        });
    });
}

fn bench_coin_and_codec(c: &mut Criterion) {
    let mut rng = rng_from_seed(4);
    c.bench_function("biased_coin_exp8", |b| {
        b.iter(|| toss_biased_coin(8, &mut rng))
    });
    let params = Params::for_target(4096).unwrap();
    let state = AgentState::leader(&params, Color::One, 7);
    let msg = Message::compose(&state, false);
    c.bench_function("wire_encode_decode", |b| {
        b.iter(|| {
            let w = msg.to_wire();
            (w.in_eval_phase(), w.active(), w.recruiting(), w.color())
        })
    });
}

criterion_group!(
    benches,
    bench_round_throughput,
    bench_epoch,
    bench_agent_step,
    bench_coin_and_codec
);
criterion_main!(benches);
