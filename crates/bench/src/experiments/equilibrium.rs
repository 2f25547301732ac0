//! **F7b — Finite-size equilibrium: CLT vs exact vs measured.**
//!
//! The paper's balance point is asymptotically `N`; the CLT refinement
//! gives `m* = N − 8√N`; conditioning on the Poisson leader count gives the
//! exact finite-N equilibrium `m°`, which the long-run simulation confirms.

use popstab_analysis::equilibrium::{equilibrium_population, exact_equilibrium};
use popstab_analysis::report::{fmt_f64, Table};
use popstab_core::params::Params;

use crate::{run_clean, JobSpec, Options};

/// Runs the experiment and prints its table.
pub fn run(opts: &Options) {
    println!("F7b: equilibrium population — models vs long-run simulation\n");
    let mut table = Table::new([
        "N",
        "m* (CLT)",
        "m° (exact)",
        "m°/m*",
        "measured (time-avg)",
        "epochs",
    ]);
    let measured_ns: &[u64] = if opts.quick { &[1024] } else { &[1024, 4096] };
    let sim_epochs: u64 = if opts.quick { 80 } else { 250 };
    // The long-run simulations (one per measured N) run as one batch on the
    // epoch-end recording stride; the model columns are closed-form.
    let measured = opts.runner.run(measured_ns.to_vec(), |_, n| {
        let params = Params::for_target(n).unwrap();
        let m_eq = exact_equilibrium(&params, 1.0);
        let mut spec = JobSpec::new(31, sim_epochs).record_epoch_ends(&params);
        spec.initial = Some(m_eq as usize);
        let run = run_clean(&params, spec, opts.threads);
        let epoch = u64::from(params.epoch_len());
        let pops = run.trajectory().epoch_end_populations(epoch);
        (
            n,
            pops.iter().sum::<usize>() as f64 / pops.len().max(1) as f64,
        )
    });
    for log2_n in [10u32, 12, 14, 16, 20, 24] {
        let n = 1u64 << log2_n;
        let params = Params::for_target(n).unwrap();
        let m_star = equilibrium_population(&params);
        let m_eq = exact_equilibrium(&params, 1.0);
        let (measured, epochs) = match measured.iter().find(|&&(m, _)| m == n) {
            Some(&(_, mean)) => (fmt_f64(mean, 0), sim_epochs.to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        table.row([
            format!("2^{log2_n}"),
            fmt_f64(m_star, 0),
            fmt_f64(m_eq, 0),
            fmt_f64(m_eq / m_star, 3),
            measured,
            epochs,
        ]);
    }
    println!("{table}");
    println!("Shape check: m°/m* → 1 as N grows (the finite-size correction vanishes).\n");
}
