//! `popstab-lint` — determinism-contract static analysis for this
//! workspace.
//!
//! The engine's most valuable invariant — every trajectory is a pure
//! function of `(seed, RunSpec)`, bit-identical from serial to sharded
//! execution — is enforced dynamically by golden fixtures and property
//! tests. Those catch a violation only *after* it has perturbed a stream.
//! The static half of the contract has two parts:
//!
//! - **Clippy** owns every hazard it can see with full name resolution.
//!   `crates/clippy.toml` and `shims/rand/clippy.toml` ban hash containers
//!   (`disallowed_types`), clocks, and every `std::env` read
//!   (`disallowed_methods`); the root manifest denies those two lints and
//!   `undocumented_unsafe_blocks` for every member. A harmless use is
//!   escaped with `#[expect(clippy::…, reason = "…")]`.
//! - **This crate** keeps the contract-specific checks clippy cannot
//!   express, and checks that the clippy half stays wired up:
//!   `workspace-manifest-invariants` requires every member to inherit the
//!   workspace lints, and every result crate and crate in their dependency
//!   closure to resolve to a `clippy.toml` holding every ban. That closure
//!   check is what keeps a clock read laundered through a helper crate
//!   from escaping clippy.
//!
//! The pass is item-aware: [`syntax`] parses each file's code channel into
//! tokens and items (fns, impls, modules) and [`graph`] links them into a
//! workspace-wide approximate call graph, filtered by the crate dependency
//! closure from the manifests. `sendptr-bounds` walks that graph;
//! line-shaped rules scan the lexed channels directly.
//!
//! Run it as `cargo run -p popstab-lint` from anywhere in the workspace
//! (CI runs it between clippy and the test suite). Exit code 0 means the
//! tree is clean; 1 means violations were reported. `--format json` emits
//! a machine-readable report (schema asserted in CI), `--format github`
//! emits workflow error annotations, and `--rules-md` prints the rule
//! table below straight from the registry.
//!
//! # Rules
//!
//! | rule | guards against |
//! |------|----------------|
//! | `float-order-determinism` | order-sensitive `f64` reductions (`sum`, `fold`) outside the order-fixed `ordered_sum` helper in result/statistics crates |
//! | `sendptr-bounds` | `SendPtr`/`ColPtr` crossing a pool dispatch or deref'd in a helper without `shard_range`-derived disjoint indices |
//! | `simd-scalar-twin` | lane-batched `_x8` kernels without a same-file scalar twin and lane-for-lane equivalence test |
//! | `stream-version-coherence` | partial stream bumps — version constants, golden-fixture tables, and `BENCH_engine.json` disagreeing |
//! | `workspace-manifest-invariants` | workspace crates missing the per-package dev/test `opt-level` overrides that keep `cargo test` fast or `[lints] workspace = true`; result crates or their dependencies whose nearest `clippy.toml` lacks a determinism ban |
//! | `unused-allow` | `lint:allow` escapes that no longer suppress any finding (stale exceptions rot into holes) |
//!
//! (This table is generated — `cargo run -p popstab-lint -- --rules-md` —
//! and a docs-drift test asserts the facade copy matches it.)
//!
//! # Escapes
//!
//! A finding that is provably harmless is silenced in place, with the proof:
//!
//! ```text
//! // lint:allow(<rule>): <one-line justification>        — next code line
//! some_call(); // lint:allow(<rule>): <justification>    — same line
//! // lint:allow-file(<rule>): <justification>            — whole file, first 20 lines
//! ```
//!
//! The justification must be at least 15 characters — long enough to state
//! *why*, not just *that*. An escape without one (or naming an unknown
//! rule, or an `allow-file` outside the leading window) is itself a
//! diagnostic, and an escape that no longer suppresses anything is an
//! `unused-allow` finding: allows must stay auditable and earned.

pub mod diag;
pub mod graph;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod source;
pub mod syntax;
pub mod workspace;

use diag::Diagnostic;
use rules::Context;
use workspace::Workspace;

/// Runs every rule over the workspace and returns the findings that no
/// valid escape covers — plus a finding per escape that covered nothing
/// (`unused-allow`) — sorted by file, line, and rule.
pub fn run_lint(ws: &Workspace) -> Vec<Diagnostic> {
    let rules = rules::all();
    let known: Vec<&'static str> = rules.iter().map(|r| r.name()).collect();
    let cx = Context::new(ws);

    let mut out = Vec::new();
    // Escapes already reported as malformed/misplaced must not *also* be
    // reported as unused; track which allow lines carry a syntax finding.
    let mut reported_allows: Vec<(String, usize)> = Vec::new();
    for file in &ws.files {
        for d in file.allow_diagnostics(&known) {
            reported_allows.push((d.file.clone(), d.line));
            out.push(d);
        }
    }

    // Which allows suppressed at least one finding: (file index, allow index).
    let mut used: Vec<(usize, usize)> = Vec::new();
    for rule in &rules {
        for d in rule.check(&cx) {
            let covering = (d.line > 0)
                .then(|| {
                    ws.files
                        .iter()
                        .position(|f| f.path == d.file)
                        .map(|fi| (fi, ws.files[fi].covering_allows(d.rule, d.line)))
                })
                .flatten()
                .filter(|(_, c)| !c.is_empty());
            match covering {
                Some((fi, covers)) => used.extend(covers.into_iter().map(|ai| (fi, ai))),
                None => out.push(d),
            }
        }
    }

    for (fi, file) in ws.files.iter().enumerate() {
        for (ai, allow) in file.allows.iter().enumerate() {
            if used.contains(&(fi, ai))
                || reported_allows.contains(&(file.path.clone(), allow.line))
            {
                continue;
            }
            out.push(Diagnostic::new(
                &file.path,
                allow.line,
                "unused-allow",
                format!(
                    "`lint:allow{}({})` suppresses nothing — the finding it silenced is gone; \
                     delete the escape (the rule will speak up if the hazard returns)",
                    if allow.file_wide { "-file" } else { "" },
                    allow.rule
                ),
            ));
        }
    }

    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use source::SourceFile;

    fn ws_with(path: &str, src: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::new(path, src)],
            ..Workspace::default()
        }
    }

    #[test]
    fn a_valid_allow_suppresses_the_finding() {
        let src = "\
// lint:allow(float-order-determinism): the caller fixes the slice order.
fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }
";
        let diags = run_lint(&ws_with("crates/sim/src/x.rs", src));
        assert!(
            !diags.iter().any(|d| d.rule == "float-order-determinism"),
            "{diags:?}"
        );
        // And a used allow is not stale.
        assert!(!diags.iter().any(|d| d.rule == "unused-allow"), "{diags:?}");
    }

    #[test]
    fn an_unjustified_allow_is_a_finding_and_does_not_suppress() {
        let src =
            "fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() } // lint:allow(float-order-determinism)\n";
        let diags = run_lint(&ws_with("crates/sim/src/x.rs", src));
        assert!(diags.iter().any(|d| d.rule == "lint-allow-syntax"));
        assert!(diags.iter().any(|d| d.rule == "float-order-determinism"));
        // Malformed escapes never parse into allows, so nothing to mark stale.
        assert!(!diags.iter().any(|d| d.rule == "unused-allow"));
    }

    #[test]
    fn an_allow_that_suppresses_nothing_is_stale() {
        let src = "\
// lint:allow(float-order-determinism): there used to be a float sum here.
fn mean(xs: &[f64]) -> f64 { stats::ordered_sum(xs) }
";
        // Keep only the findings about the seeded file — the synthetic
        // workspace is missing the version/manifest artifacts, which the
        // coherence rules rightly report.
        let diags: Vec<_> = run_lint(&ws_with("crates/sim/src/x.rs", src))
            .into_iter()
            .filter(|d| d.file == "crates/sim/src/x.rs")
            .collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "unused-allow");
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("float-order-determinism"));
    }

    #[test]
    fn an_allow_naming_an_unknown_rule_is_syntax_not_stale() {
        let src = "// lint:allow(no-such-rule): this rule was renamed away long ago.\nfn f() {}\n";
        let diags: Vec<_> = run_lint(&ws_with("crates/sim/src/x.rs", src))
            .into_iter()
            .filter(|d| d.file == "crates/sim/src/x.rs")
            .collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lint-allow-syntax");
    }
}
