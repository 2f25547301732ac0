//! **F1 — The restoring drift field** (Lemma 8).
//!
//! Claim: the expected per-epoch population change is positive below the
//! equilibrium and negative above it, with magnitude growing in the
//! deviation. We print the measured drift next to two model predictions:
//! the paper's asymptotic/CLT linear model and this repository's exact
//! finite-N Poisson model (which is the one that matches at these scales).

use popstab_analysis::drift::measure_drift_with;
use popstab_analysis::equilibrium::{exact_epoch_drift, expected_epoch_drift};
use popstab_analysis::report::{fmt_f64, Table};
use popstab_core::params::Params;
use popstab_sim::NoOpAdversary;

use crate::Options;

/// Runs the experiment and prints its table.
pub fn run(opts: &Options) {
    let configs: &[(u64, u32)] = if opts.quick {
        &[(1024, 24)]
    } else {
        &[(1024, 64), (4096, 32)]
    };
    let fractions = [0.3, 0.5, 0.7, 0.85, 1.0, 1.15, 1.3, 1.6];

    println!("F1: restoring drift field (fractions of N; trials per point shown per size)\n");
    for &(n, trials) in configs {
        let params = Params::for_target(n).unwrap();
        println!("N = {n} ({trials} single-epoch trials per point)");
        let mut table = Table::new([
            "m0/N",
            "m0",
            "observed E[Δ]",
            "± stderr",
            "exact model",
            "CLT model",
        ]);
        for (i, f) in fractions.iter().enumerate() {
            let m0 = (f * n as f64).round() as usize;
            let seed = 4242 + i as u64 * 97;
            let obs = measure_drift_with(
                &opts.runner,
                &params,
                m0,
                1.0,
                trials,
                seed,
                || NoOpAdversary,
                0,
            );
            table.row([
                fmt_f64(*f, 2),
                m0.to_string(),
                fmt_f64(obs.mean(), 2),
                fmt_f64(obs.stderr(), 2),
                fmt_f64(exact_epoch_drift(&params, m0 as f64, 1.0), 2),
                fmt_f64(expected_epoch_drift(&params, m0 as f64, 1.0), 2),
            ]);
        }
        println!("{table}");
    }
    println!("Shape check: sign flips from + to − across the sweep, matching the exact model;");
    println!("the CLT column shows the paper's asymptotic constants (valid only for huge N).\n");
}
