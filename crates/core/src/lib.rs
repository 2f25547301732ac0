//! The population stability protocol of Goldwasser, Ostrovsky, Scafuro and
//! Sealfon (PODC 2018).
//!
//! A population of `N` memory-constrained agents — each holding only
//! `Θ(log log N)` bits — must perpetually keep its size within `(1 ± α)N`
//! while a worst-case adversary, who can read every agent's memory, inserts
//! and deletes up to `K = N^{1/4-ε}` agents per round.
//!
//! The protocol (§3 of the paper, Algorithms 1–7) runs in epochs of
//! `T = ½·log N · T_inner` rounds:
//!
//! 1. **Leader selection** (round 0): each agent independently becomes a
//!    leader with probability `1/(8√N)` and picks a uniform color in `{0,1}`.
//! 2. **Recruitment** (rounds `1 … T−2`, in `½ log N` subphases): each active
//!    agent recruits one inactive agent per subphase, passing on its color;
//!    clusters double every subphase, so each leader induces a cluster of
//!    exactly `√N` same-colored agents.
//! 3. **Evaluation** (round `T−1`): matched active agents compare colors —
//!    same color → split with probability `1 − 16/√N`; different colors →
//!    self-destruct. Everyone then resets for the next epoch.
//!
//! The population size is thereby encoded in the *variance* of the color
//! distribution: more leaders (larger population) → colors more balanced →
//! "same color" slightly less likely → net shrinkage, and vice versa. The
//! unique equilibrium of the exact one-epoch expectation is
//! `m* = N − 8√N` (see `popstab-analysis`).
//!
//! Agents whose epoch clock disagrees with their neighbor's (possible only
//! via adversarial insertion) self-destruct on contact
//! (`CheckRoundConsistency`, Algorithm 7); messages fit in **three bits**
//! ([`message::Wire`]).
//!
//! # Example
//!
//! ```
//! use popstab_core::{params::Params, protocol::PopulationStability};
//! use popstab_sim::{Engine, RunSpec, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Params::for_target(1024)?;
//! let epoch = u64::from(params.epoch_len());
//! let protocol = PopulationStability::new(params);
//! let cfg = SimConfig::builder().seed(1).target(1024).build()?;
//! let mut engine = Engine::with_population(protocol, cfg, 1024);
//! engine.run(RunSpec::rounds(2 * epoch), &mut ());
//! assert!(engine.population() > 512 && engine.population() < 2048);
//! # Ok(())
//! # }
//! ```

#![deny(clippy::cast_possible_truncation)]

pub mod accounting;
pub mod coin;
pub mod columns;
pub mod message;
pub mod params;
pub mod protocol;
pub mod state;

pub use message::{Message, Wire};
pub use params::{Params, ParamsError};
pub use protocol::PopulationStability;
pub use state::{AgentState, Color};
