//! The rule registry.
//!
//! Each rule scans a [`Context`] — the loaded [`Workspace`] plus the parsed
//! item [`Graph`] built once per run — and emits candidate [`Diagnostic`]s;
//! the engine ([`crate::run_lint`]) then filters out findings covered by a
//! valid `lint:allow` escape and reports escapes that covered nothing
//! (`unused-allow`). Rules trade type-resolution precision for having zero
//! dependencies and running in milliseconds; the escape protocol absorbs
//! the (rare, auditable) false positives. Hazards clippy can see with full
//! name resolution — hash containers, clocks, environment reads, unsafe
//! blocks without a `// SAFETY:` comment — are clippy's, configured in the
//! committed `clippy.toml` files; this registry keeps only the
//! contract-specific checks.

use crate::diag::Diagnostic;
use crate::graph::Graph;
use crate::workspace::Workspace;

pub mod float_order;
pub mod manifest;
pub mod sendptr;
pub mod simd;
pub mod stream_version;
pub mod unused_allow;

/// The crates whose code can reach a simulation result. `crates/bench` is
/// deliberately absent: wall-clock timing and CLI argument reads are its
/// job, and nothing it computes feeds back into a trajectory.
/// `crates/analysis` is absent too — it post-processes trajectories — but
/// it computes the paper's reported statistics, so the float-order rule
/// adds it back into its own scope. These crates and their dependency
/// closure must carry clippy's determinism bans
/// (`workspace-manifest-invariants` checks that).
pub const RESULT_CRATES: &[&str] = &[
    "crates/sim/",
    "crates/core/",
    "crates/adversary/",
    "crates/baselines/",
    "crates/extensions/",
];

/// Whether a source file should be treated as result-affecting input:
/// integration tests, benches, and examples under a crate never are.
pub(crate) fn result_scope(path: &str) -> bool {
    RESULT_CRATES.iter().any(|p| path.starts_with(p))
        && !path.contains("/tests/")
        && !path.contains("/benches/")
        && !path.contains("/examples/")
}

/// Everything a rule may look at, built once per run.
pub struct Context<'a> {
    /// The loaded workspace (lexed sources, manifests, artifacts).
    pub ws: &'a Workspace,
    /// The parsed item graph over `ws.files`.
    pub graph: Graph,
}

impl<'a> Context<'a> {
    /// Parses and links the workspace.
    pub fn new(ws: &'a Workspace) -> Context<'a> {
        Context {
            ws,
            graph: Graph::build(ws),
        }
    }
}

/// One static-analysis rule.
pub trait Rule {
    /// The rule's kebab-case name, as referenced by `lint:allow(<name>)`.
    fn name(&self) -> &'static str;
    /// One-line description of what the rule guards against (markdown; this
    /// is the `--rules-md` table column the facade docs embed).
    fn summary(&self) -> &'static str;
    /// Scans the workspace and returns candidate findings (before escape
    /// filtering).
    fn check(&self, cx: &Context) -> Vec<Diagnostic>;
}

/// Every rule, in reporting order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_order::FloatOrderDeterminism),
        Box::new(sendptr::SendPtrBounds),
        Box::new(simd::SimdScalarTwin),
        Box::new(stream_version::StreamVersionCoherence),
        Box::new(manifest::WorkspaceManifestInvariants),
        Box::new(unused_allow::UnusedAllow),
    ]
}

/// The `--rules-md` table: the rule catalogue as a markdown table, emitted
/// from the registry so the committed docs can be asserted against it.
pub fn rules_markdown() -> String {
    let mut s = String::from("| rule | guards against |\n|------|----------------|\n");
    for rule in all() {
        s.push_str(&format!("| `{}` | {} |\n", rule.name(), rule.summary()));
    }
    s
}
