//! **F4 + T8 — Baseline protocols fail exactly as the paper says.**
//!
//! * Attempt 1 (§1.3.1): stable alone and under an oblivious deleter,
//!   collapses under one forged signal per epoch, explodes when the
//!   adversary snipes signal carriers.
//! * Attempt 2 (§1.3.1): random-walks away from the target with *no*
//!   adversary at all.
//! * Empty protocol: stable alone, helpless under deletion.
//! * High-memory unique-ID protocol (§1.2, T8): counts the population and
//!   holds under deletion, but collapses under forged-ID insertion.
//! * The paper's protocol: holds in every setting above (at per-epoch
//!   budgets).
//!
//! Every table row is an independent simulation, so the rows run as one
//! [`BatchRunner`](popstab_sim::BatchRunner) batch (the `--jobs` flag of
//! the `experiments` binary controls the worker count; results are
//! identical for any value).

use popstab_analysis::report::Table;
use popstab_baselines::attempt1::{SignalFlooder, SignalSuppressor};
use popstab_baselines::highmem::IdFlooder;
use popstab_baselines::{Attempt1, Attempt2, Empty, HighMemory, ObliviousDeleter};
use popstab_core::params::Params;
use popstab_sim::{Adversary, Engine, NoOpAdversary, Protocol, RunSpec, SimConfig};

use crate::{run_protocol, JobSpec, Options};

const N: u64 = 1024;

/// `(min, max, final, halted)` of one baseline run.
type Row = (usize, usize, usize, bool);

/// One table row: labels, the simulation to run, and how to judge it.
struct Case {
    proto: &'static str,
    adv: &'static str,
    sim: Box<dyn FnOnce() -> Row + Send>,
    verdict: Box<dyn Fn(Row) -> &'static str + Send>,
}

fn run_baseline<P, A>(proto: P, adv: A, budget: usize, rounds: u64, seed: u64) -> Row
where
    P: Protocol,
    A: Adversary<P::State>,
{
    let cfg = SimConfig::builder()
        .seed(seed)
        .target(N)
        .adversary_budget(budget)
        .max_population(64 * N as usize)
        .build()
        .unwrap();
    let mut engine = Engine::with_adversary(proto, adv, cfg, N as usize);
    let (lo, hi) = engine
        .run(RunSpec::rounds(rounds), &mut ())
        .population_range();
    (lo, hi, engine.population(), engine.halted().is_some())
}

/// Runs the experiment and prints its table.
pub fn run(opts: &Options) {
    let horizon: u64 = if opts.quick { 8_000 } else { 25_000 };
    println!("F4/T8: baseline comparison at N = {N}, horizon {horizon} rounds\n");
    let mut table = Table::new([
        "protocol",
        "adversary",
        "min",
        "max",
        "final",
        "halted",
        "verdict",
    ]);

    let a1 = Attempt1::new(N);
    let a1_epoch = a1.epoch_len();
    let mut cases: Vec<Case> = Vec::new();

    // Attempt 1.
    let a1_job = a1.clone();
    cases.push(Case {
        proto: "attempt1",
        adv: "none",
        sim: Box::new(move || run_baseline(a1_job, NoOpAdversary, 0, horizon, 1)),
        verdict: Box::new(|r| {
            if r.2 > N as usize / 3 && r.2 < 3 * N as usize {
                "holds (crudely)"
            } else {
                "UNEXPECTED"
            }
        }),
    });
    cases.push(Case {
        proto: "attempt1",
        adv: "oblivious-delete",
        sim: {
            let a1_job = a1.clone();
            Box::new(move || {
                run_baseline(a1_job, ObliviousDeleter::with_period(1, 4), 1, horizon, 2)
            })
        },
        verdict: Box::new(|r| {
            if r.2 > N as usize / 3 {
                "holds (weak adversary)"
            } else {
                "UNEXPECTED"
            }
        }),
    });
    cases.push(Case {
        proto: "attempt1",
        adv: "1 forged signal/epoch",
        sim: {
            let a1_job = a1.clone();
            Box::new(move || run_baseline(a1_job, SignalFlooder::new(a1_epoch), 1, horizon, 3))
        },
        verdict: Box::new(|r| {
            if r.2 < N as usize / 2 {
                "COLLAPSES (as predicted)"
            } else {
                "UNEXPECTED"
            }
        }),
    });
    cases.push(Case {
        proto: "attempt1",
        adv: "signal-suppressor",
        sim: {
            let a1_job = a1.clone();
            Box::new(move || run_baseline(a1_job, SignalSuppressor, 64, horizon, 4))
        },
        verdict: Box::new(|r| {
            if r.2 > 2 * N as usize || r.3 {
                "EXPLODES (as predicted)"
            } else {
                "UNEXPECTED"
            }
        }),
    });

    // Attempt 2: no adversary, long horizon — random walk.
    cases.push(Case {
        proto: "attempt2",
        adv: "none",
        sim: Box::new(move || run_baseline(Attempt2::new(N), NoOpAdversary, 0, horizon, 5)),
        verdict: Box::new(|r| {
            let dev = (N as f64 - r.0 as f64).max(r.1 as f64 - N as f64) / N as f64;
            if dev > 0.2 {
                "RANDOM-WALKS (as predicted)"
            } else {
                "walk too slow at this horizon"
            }
        }),
    });

    // Empty protocol: loses exactly the scheduled deletions, no correction.
    cases.push(Case {
        proto: "empty",
        adv: "none",
        sim: Box::new(move || run_baseline(Empty, NoOpAdversary, 0, horizon, 6)),
        verdict: Box::new(|r| {
            if r.2 == N as usize {
                "constant"
            } else {
                "UNEXPECTED"
            }
        }),
    });
    let scheduled = (horizon / 16) as usize;
    cases.push(Case {
        proto: "empty",
        adv: "oblivious-delete",
        sim: Box::new(move || {
            run_baseline(Empty, ObliviousDeleter::with_period(1, 16), 1, horizon, 7)
        }),
        verdict: Box::new(move |r| {
            if r.3 || r.2 + scheduled / 2 <= N as usize {
                "decays (no correction)"
            } else {
                "UNEXPECTED"
            }
        }),
    });

    // High-memory unique-ID protocol (T8). Gossiping whole ID sets is
    // quadratic in the population, so this baseline runs at a smaller scale.
    let n_hm: u64 = 256;
    let hm_horizon = if opts.quick { 1_500 } else { 4_000 };
    fn run_hm<A: Adversary<popstab_baselines::highmem::HmState>>(
        n_hm: u64,
        adv: A,
        budget: usize,
        rounds: u64,
        seed: u64,
    ) -> Row {
        let cfg = SimConfig::builder()
            .seed(seed)
            .target(n_hm)
            .adversary_budget(budget)
            .max_population(16 * n_hm as usize)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(HighMemory::new(n_hm), adv, cfg, n_hm as usize);
        let (lo, hi) = engine
            .run(RunSpec::rounds(rounds), &mut ())
            .population_range();
        (lo, hi, engine.population(), engine.halted().is_some())
    }
    cases.push(Case {
        proto: "high-memory (n=256)",
        adv: "none",
        sim: Box::new(move || run_hm(n_hm, NoOpAdversary, 0, hm_horizon, 8)),
        verdict: Box::new(move |r| {
            if r.2 > (n_hm as usize * 9) / 10 {
                "counts & holds"
            } else {
                "UNEXPECTED"
            }
        }),
    });
    cases.push(Case {
        proto: "high-memory (n=256)",
        adv: "oblivious-delete x2",
        sim: Box::new(move || run_hm(n_hm, ObliviousDeleter::new(2), 2, hm_horizon, 9)),
        verdict: Box::new(move |r| {
            if r.2 > (n_hm as usize * 6) / 10 {
                "holds (delete-only)"
            } else {
                "UNEXPECTED"
            }
        }),
    });
    cases.push(Case {
        proto: "high-memory (n=256)",
        adv: "forged-id insert",
        sim: Box::new(move || run_hm(n_hm, IdFlooder, 1, hm_horizon, 10)),
        verdict: Box::new(move |r| {
            if r.2 < n_hm as usize / 2 {
                "COLLAPSES (as predicted)"
            } else {
                "UNEXPECTED"
            }
        }),
    });

    // The paper's protocol in the same arenas.
    let params = Params::for_target(N).unwrap();
    let epochs = horizon / u64::from(params.epoch_len());
    let threads = opts.threads;
    let params_a = params.clone();
    cases.push(Case {
        proto: "paper protocol",
        adv: "none",
        sim: Box::new(move || {
            let run = run_protocol(&params_a, NoOpAdversary, JobSpec::new(11, epochs), threads);
            let (lo, hi) = run.population_range().unwrap();
            (lo, hi, run.population(), false)
        }),
        verdict: Box::new(|_| "holds"),
    });
    let params_b = params.clone();
    cases.push(Case {
        proto: "paper protocol",
        adv: "delete 1/epoch",
        sim: Box::new(move || {
            let adv = popstab_adversary::Throttle::per_epoch(
                popstab_adversary::RandomDeleter::new(1),
                params_b.epoch_len(),
            );
            let mut spec = JobSpec::new(12, epochs);
            spec.budget = 1;
            let run = run_protocol(&params_b, adv, spec, threads);
            let (lo, hi) = run.population_range().unwrap();
            (lo, hi, run.population(), false)
        }),
        verdict: Box::new(|_| "holds"),
    });

    let rows = opts.runner.run(cases, |_, case| {
        let row = (case.sim)();
        (case.proto, case.adv, row, (case.verdict)(row))
    });
    for (proto, adv, r, verdict) in rows {
        table.row([
            proto.to_string(),
            adv.to_string(),
            r.0.to_string(),
            r.1.to_string(),
            r.2.to_string(),
            if r.3 { "yes" } else { "no" }.to_string(),
            verdict.to_string(),
        ]);
    }
    println!("{table}");
}
