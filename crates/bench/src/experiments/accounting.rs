//! **T7 — Resource accounting** (Theorem 2's `ω(log²N)` states and
//! three-bit messages).
//!
//! Static computation straight from the parameters — no simulation. Also
//! contrasts with the high-memory baseline's `N` bits per identifier.

use popstab_analysis::report::{fmt_f64, Table};
use popstab_core::accounting::{log2_cubed, log2_squared, resources};
use popstab_core::params::Params;

use crate::Options;

/// Runs the experiment and prints its tables.
pub fn run(_opts: &Options) {
    println!("T7: resource accounting (paper: ω(log²N) states, Θ(log log N) memory bits,");
    println!("    3-bit messages; default T_inner = log²N gives Θ(log³N) states)\n");
    let mut table = Table::new([
        "N",
        "states",
        "4·log³N",
        "log²N",
        "memory bits",
        "msg bits",
        "coin scratch bits",
    ]);
    for log2_n in [10u32, 12, 14, 16, 20, 24, 30] {
        let params = Params::for_target(1u64 << log2_n).unwrap();
        let r = resources(&params);
        table.row([
            format!("2^{log2_n}"),
            r.states.to_string(),
            (4 * log2_cubed(&params)).to_string(),
            log2_squared(&params).to_string(),
            r.memory_bits.to_string(),
            r.message_bits.to_string(),
            r.coin_scratch_bits.to_string(),
        ]);
    }
    println!("{table}");

    // The ω(log²N) floor: with T_inner = c·log N the state count is Θ(log²N).
    println!("minimum admissible configuration (T_inner = 4·log N, still ω(log N)):");
    let mut table = Table::new(["N", "states", "log²N", "ratio"]);
    for log2_n in [10u32, 16, 24] {
        let params = Params::builder(1u64 << log2_n)
            .t_inner(4 * log2_n)
            .build()
            .unwrap();
        let r = resources(&params);
        table.row([
            format!("2^{log2_n}"),
            r.states.to_string(),
            log2_squared(&params).to_string(),
            fmt_f64(r.states as f64 / log2_squared(&params) as f64, 1),
        ]);
    }
    println!("{table}");

    println!("contrast: the §1.2 high-memory baseline needs N bits per identifier and up to");
    println!("N identifiers per agent — N² bits (≈ 10^6 bits at N = 1024) versus the");
    println!("protocol's ~15 bits. This is the gap the paper's construction closes.\n");
}
