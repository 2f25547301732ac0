//! Criterion micro-benchmarks for the struct-of-arrays hot path: the
//! lane-batched coin kernel against its scalar twin, full engine rounds on
//! the columnar step path (every engine's default) against the scalar
//! `Protocol::step` loop, forced through the hidden
//! `Engine::set_columnar(false)` hook, at the two scales where the layout
//! starts to matter, one recorded round's stats taken from the resident
//! columns against a transpose plus a vector scan, and one round of a
//! stats-only adversary decided and applied on the resident columns
//! against a transpose out, a decision over the vector, and a reload.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use popstab_adversary::Churn;
use popstab_core::columns::StabilityColumns;
use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_core::state::AgentState;
use popstab_sim::rng::{
    biased_coin, biased_coin_x8, rng_from_seed, round_key, slot_key_x8, slot_rng, LANES,
};
use popstab_sim::{
    Adversary, Alteration, ColumnarStep, Engine, RoundContext, RoundStats, RunSpec, SimConfig,
};

const SLOTS: u64 = 65_536;

fn bench_biased_coin(c: &mut Criterion) {
    // One epoch-style sweep: a biased coin for every slot of a 64k round.
    // The scalar side pays per-slot stream construction plus one finalizer
    // per draw; the `_x8` side derives eight slot keys per call and packs
    // the verdicts into a bit mask — the kernel the columnar word loops
    // consume. Same draws, same verdicts, measured per slot. At one draw
    // per coin the two forms do identical finalizer work, so on baseline
    // (non-AVX) codegen they bench close together: the `_x8` form's win
    // shows up downstream, where its packed mask feeds the word-level
    // columnar kernels without per-lane re-derivation (the `step_path`
    // group below measures that end to end).
    let mut group = c.benchmark_group("biased_coin");
    group.throughput(Throughput::Elements(SLOTS));
    let exp = 6u32;
    group.bench_function("scalar_64k", |b| {
        b.iter(|| {
            let rkey = round_key(9, 3);
            let mut heads = 0u64;
            for slot in 0..SLOTS {
                heads += u64::from(biased_coin(exp, &mut slot_rng(rkey, slot)));
            }
            heads
        })
    });
    group.bench_function("x8_64k", |b| {
        b.iter(|| {
            let rkey = round_key(9, 3);
            let mut heads = 0u64;
            for base in (0..SLOTS).step_by(LANES) {
                let keys = slot_key_x8(rkey, base);
                heads += u64::from(biased_coin_x8(exp, &keys).count_ones());
            }
            heads
        })
    });
    group.finish();
}

fn engine_at(n: u64, columnar: bool) -> Engine<PopulationStability> {
    let params = Params::for_target(n).expect("bench scale is a power of four");
    let cfg = SimConfig::builder().seed(5).target(n).build().unwrap();
    let mut engine = Engine::with_population(PopulationStability::new(params), cfg, n as usize);
    engine.set_columnar(columnar);
    engine
}

fn bench_step_paths(c: &mut Criterion) {
    // Whole engine rounds (matching + step + apply) through the driver's
    // recording-free fast path, scalar vs columnar, bit-identical
    // trajectories. Throughput is agent-rounds, so the two rows are
    // directly comparable per scale.
    let mut group = c.benchmark_group("step_path");
    group.sample_size(10);
    for n in [16_384u64, 65_536] {
        let rounds = if n == 16_384 { 40 } else { 10 };
        group.throughput(Throughput::Elements(n * rounds));
        let mut engine = engine_at(n, false);
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| engine.run(RunSpec::rounds(rounds), &mut ()))
        });
        let mut engine = engine_at(n, true);
        group.bench_with_input(BenchmarkId::new("columnar", n), &n, |b, _| {
            b.iter(|| engine.run(RunSpec::rounds(rounds), &mut ()))
        });
    }
    group.finish();
}

fn bench_record_stats(c: &mut Criterion) {
    // One recorded round's `RoundStats`, mid-epoch (leaders, recruiters,
    // both colors live): `store` into a reused vector plus
    // `RoundStats::observe_with` — what `RecordStats` paid per round while
    // it read the agent slice — against `ColumnarStep::observe` over the
    // resident columns. Throughput is agents observed.
    let mut group = c.benchmark_group("record_stats");
    group.sample_size(10);
    for n in [4_096u64, 1 << 20] {
        let mut engine = engine_at(n, true);
        let params = engine.protocol().params().clone();
        engine.run(RunSpec::rounds(u64::from(params.epoch_len()) / 2), &mut ());
        let mut columns = StabilityColumns::new(params);
        columns.load(engine.agents(), None);
        let mut agents = Vec::new();
        let mut counts = BTreeMap::new();
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("store_observe", n), &n, |b, _| {
            b.iter(|| {
                columns.store(&mut agents);
                RoundStats::observe_with(0, &agents, &mut counts)
            })
        });
        group.bench_with_input(BenchmarkId::new("columns_observe", n), &n, |b, _| {
            b.iter(|| columns.observe(0, &mut counts))
        });
    }
    group.finish();
}

/// Splits `Churn`'s alterations into the engine's insert and delete lists
/// (its deletes are already distinct and ascending; it never modifies).
fn split_churn(
    alterations: Vec<Alteration<AgentState>>,
    inserts: &mut Vec<AgentState>,
    deletes: &mut Vec<usize>,
) {
    inserts.clear();
    deletes.clear();
    for alteration in alterations {
        match alteration {
            Alteration::Insert(state) => inserts.push(state),
            Alteration::Delete(i) => deletes.push(i),
            Alteration::Modify(..) => unreachable!("churn never modifies"),
        }
    }
}

fn bench_adversary_resident(c: &mut Criterion) {
    // One `Churn` (k = 4) adversary phase, mid-epoch, with the population
    // resident in columns: `store`, `Churn::act` over the vector, apply,
    // `load` — what every round paid while any real adversary forced the
    // vector — against `observe`, `Churn::act_on_stats`, `alter` on the
    // columns in place. `declined_observe` is the `observe` alone: the
    // wasted work per round for an adversary that declines the hook and
    // then takes the vector path anyway. Throughput is resident agents.
    let mut group = c.benchmark_group("adversary_resident");
    group.sample_size(10);
    for n in [1u64 << 14, 1 << 20] {
        let mut engine = engine_at(n, true);
        let params = engine.protocol().params().clone();
        engine.run(RunSpec::rounds(u64::from(params.epoch_len()) / 2), &mut ());
        let mut columns = StabilityColumns::new(params.clone());
        columns.load(engine.agents(), None);
        let mut churn = Churn::new(params, 4);
        let ctx = RoundContext {
            round: 0,
            budget: 4,
            target: n,
        };
        let mut rng = rng_from_seed(7);
        let (mut agents, mut counts) = (Vec::new(), BTreeMap::new());
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("store_act_load", n), &n, |b, _| {
            b.iter(|| {
                columns.store(&mut agents);
                let alterations = churn.act(&ctx, &agents, &mut rng);
                split_churn(alterations, &mut inserts, &mut deletes);
                agents.append(&mut inserts);
                for &i in deletes.iter().rev() {
                    agents.swap_remove(i);
                }
                columns.load(&agents, None);
            })
        });
        group.bench_with_input(BenchmarkId::new("observe_act_alter", n), &n, |b, _| {
            b.iter(|| {
                let stats = columns.observe(0, &mut counts).expect("columns observe");
                let alterations = churn
                    .act_on_stats(&ctx, &stats, &mut rng)
                    .expect("churn decides from stats");
                split_churn(alterations, &mut inserts, &mut deletes);
                columns.alter(&inserts, &[], &deletes)
            })
        });
        group.bench_with_input(BenchmarkId::new("declined_observe", n), &n, |b, _| {
            b.iter(|| columns.observe(0, &mut counts))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_biased_coin,
    bench_step_paths,
    bench_record_stats,
    bench_adversary_resident
);
criterion_main!(benches);
