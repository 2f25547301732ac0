//! Tissue healing: the biological scenario from the paper's introduction.
//! A lizard loses its tail — 60 % of the cells vanish at once — and the
//! population must regrow toward its equilibrium. Then an inflammation
//! event adds 60 % more cells and the tissue must shrink back.
//!
//! Healing is *gradual*: the restoring drift is `Θ(√N)` per epoch on a
//! deficit of `Θ(N)`, so the deficit decays exponentially with a time
//! constant of hundreds of epochs. The paper's guarantee is *prevention*
//! (bounded per-round damage never accumulates), not instant repair.
//!
//! ```sh
//! cargo run --release --example tissue_healing
//! ```

use population_stability::adversary::{Trauma, TraumaKind};
use population_stability::analysis::equilibrium::{exact_epoch_drift, exact_equilibrium};
use population_stability::prelude::*;
use population_stability::sim::RunSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u64 = 4096;
    let params = Params::for_target(n)?;
    let epoch = u64::from(params.epoch_len());
    let m_eq = exact_equilibrium(&params, 1.0);
    let total_epochs = 150u64;

    println!("N = {n}, exact equilibrium m° = {m_eq:.0}, shock at epoch 3\n");
    for (label, kind, fraction) in [
        ("injury: lose 60% of cells", TraumaKind::Injury, 0.6),
        (
            "inflammation: +60% blank cells",
            TraumaKind::Proliferation,
            0.6,
        ),
    ] {
        println!("== {label} ==");
        let trauma = Trauma::new(params.clone(), kind, fraction, 3 * epoch);
        let protocol = PopulationStability::new(params.clone());
        // The shock deliberately exceeds the per-round budget K: we are
        // asking about recovery, not prevention.
        let cfg = SimConfig::builder()
            .seed(13)
            .target(n)
            .adversary_budget(SimConfig::UNBOUNDED_BUDGET)
            .build()?;
        let mut engine = Engine::with_adversary(protocol, trauma, cfg, n as usize);

        engine.run(RunSpec::rounds(3 * epoch + 1), &mut ());
        let wounded = engine.population() as f64;
        let rate = exact_epoch_drift(&params, wounded, 1.0);
        println!("population after shock: {wounded:.0} (model drift there: {rate:+.1}/epoch)");
        println!("epoch  population  deficit healed");
        let deficit0 = m_eq - wounded;
        for e in (13..=total_epochs).step_by(10) {
            engine.run(RunSpec::rounds(10 * epoch), &mut ());
            let pop = engine.population() as f64;
            let healed = (pop - wounded) / deficit0;
            println!("{e:>5}  {:>10.0}  {:>13.0}%", pop, 100.0 * healed);
        }
        let tc = population_stability::analysis::equilibrium::time_constant_epochs(&params, 1.0);
        println!(
            "(asymptotic healing time constant ≈ {tc:.0} epochs — recovery is slow by design)\n"
        );
    }
    Ok(())
}
