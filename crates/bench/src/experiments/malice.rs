//! **F8 — Maliciously-programmed agents** (the §1.2 extension).
//!
//! In the extended model (agents may remove detected-foreign partners,
//! malicious replication is rate-limited) the population survives malicious
//! insertion; the paper's impossibility argument reappears exactly when the
//! replication period ρ beats the contact-kill rate. We sweep ρ and γ.

use popstab_analysis::report::{fmt_pass, Table};
use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_extensions::{malicious_count, MaliciousInserter, WithMalice};
use popstab_sim::{Engine, MatchingModel, RunSpec, SimConfig};

use crate::Options;

/// Runs the experiment and prints its table.
pub fn run(opts: &Options) {
    let n: u64 = 1024;
    let params = Params::for_target(n).unwrap();
    let epoch = u64::from(params.epoch_len());
    let epochs: u64 = if opts.quick { 3 } else { 8 };

    println!("F8: malicious agents in the extended model at N = {n}, {epochs} epochs,");
    println!("    1 malicious insertion/round, replication period ρ, matching fraction γ.");
    println!("    Per round a malicious agent spawns 1/ρ daughters and is killed with");
    println!("    probability γ·h (honest fraction h ≈ 1); kills and same-round splits are");
    println!("    simultaneous, so containment requires 1/ρ < γ·h. The paper's required");
    println!("    'bound on how frequently malicious agents can replicate' is exactly this.\n");

    let mut table = Table::new([
        "rho",
        "gamma",
        "malicious left",
        "population",
        "halted",
        "contained",
        "model says",
    ]);
    for &(rho, gamma) in &[
        (1u32, 0.25f64),
        (2, 0.25),
        (1, 1.0),
        (2, 1.0),
        (4, 1.0),
        (16, 1.0),
    ] {
        let proto = WithMalice::new(PopulationStability::new(params.clone()));
        let adv = MaliciousInserter::new(1, rho);
        let cfg = SimConfig::builder()
            .seed(47)
            .target(n)
            .adversary_budget(1)
            .matching(if gamma >= 1.0 {
                MatchingModel::Full
            } else {
                MatchingModel::ExactFraction(gamma)
            })
            .max_population(16 * n as usize)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(proto, adv, cfg, n as usize);
        engine.run(
            RunSpec::rounds(epochs * epoch).threads(opts.threads),
            &mut (),
        );
        let mal = malicious_count(engine.agents());
        let contained = engine.halted().is_none() && mal < 100;
        let predicted_contained = 1.0 / f64::from(rho) < gamma * 0.9;
        table.row([
            rho.to_string(),
            format!("{gamma:.2}"),
            mal.to_string(),
            engine.population().to_string(),
            if engine.halted().is_some() {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            fmt_pass(contained),
            if predicted_contained {
                "contained"
            } else {
                "explodes"
            }
            .to_string(),
        ]);
    }
    println!("{table}");
    println!("Shape check: containment flips exactly where 1/ρ crosses γ·h — unbounded");
    println!("replication (ρ=1) explodes even under full matching (the paper's");
    println!("impossibility), while any bounded rate under dense contact is contained.\n");
}
