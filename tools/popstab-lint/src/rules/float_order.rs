//! Rule `float-order-determinism`: order-sensitive float reductions must
//! go through the order-fixed helper.
//!
//! Float addition is not associative: `a + (b + c) != (a + b) + c` in
//! general, so any `f64` `sum()`/`fold` whose iteration order can change
//! (a refactor from `Vec` to a chunked iterator, a future parallel
//! reduction) silently changes the paper's reported statistics without
//! failing a single engine golden. The contract is therefore: in
//! result-affecting crates *and* `crates/analysis` (which computes the
//! reported figures), non-associative float reductions route through
//! `popstab_analysis::stats::ordered_sum` — a documented fixed left fold —
//! or carry a justified escape.
//!
//! Detection is token-level per fn: `sum::<f64>()` turbofish, bare
//! `.sum()` whose statement shows float evidence (an `f64`/`f32` token or
//! a float literal) and no integer annotation, and `.fold(…)` with a
//! float-typed accumulator. `fold(_, f64::max)` / `f64::min` are exempt —
//! min/max are associative and commutative, order cannot move them.
//! `ordered_*` helper definitions and test code are exempt.
//!
//! Escape: `lint:allow(float-order-determinism): <why the order is fixed>`.

use crate::diag::Diagnostic;
use crate::rules::{result_scope, Context, Rule};
use crate::syntax::Token;

/// See the module docs.
pub struct FloatOrderDeterminism;

/// Crates in scope: the result crates plus the statistics crate.
fn float_scope(path: &str) -> bool {
    result_scope(path)
        || (path.starts_with("crates/analysis/")
            && !path.contains("/tests/")
            && !path.contains("/benches/"))
}

const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];
const FLOAT_TYPES: &[&str] = &["f32", "f64"];

fn is_numeric(t: &Token) -> bool {
    t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// Whether the token window contains float evidence: an `f32`/`f64` token,
/// a `<digits> . <digits>` literal, or a float-suffixed literal (`0f64`).
fn has_float(toks: &[Token]) -> bool {
    toks.iter().enumerate().any(|(i, t)| {
        FLOAT_TYPES.contains(&t.text.as_str())
            || (is_numeric(t)
                && toks.get(i + 1).is_some_and(|n| n.text == ".")
                && toks.get(i + 2).is_some_and(is_numeric))
            || (is_numeric(t) && (t.text.ends_with("f32") || t.text.ends_with("f64")))
    })
}

fn has_int_type(toks: &[Token]) -> bool {
    toks.iter().any(|t| INT_TYPES.contains(&t.text.as_str()))
}

impl Rule for FloatOrderDeterminism {
    fn name(&self) -> &'static str {
        "float-order-determinism"
    }

    fn summary(&self) -> &'static str {
        "order-sensitive `f64` reductions (`sum`, `fold`) outside the order-fixed \
         `ordered_sum` helper in result/statistics crates"
    }

    fn check(&self, cx: &Context) -> Vec<Diagnostic> {
        let g = &cx.graph;
        let mut out = Vec::new();
        for (f, node) in g.fns.iter().enumerate() {
            if node.is_test || !float_scope(&node.path) || node.name.starts_with("ordered_") {
                continue;
            }
            let pf = &g.parsed[node.file];
            let span = g.item(f).span.clone();
            let toks = &pf.tokens[span.clone()];
            for i in 0..toks.len() {
                let t = toks[i].text.as_str();
                let next = toks.get(i + 1).map(|t| t.text.as_str());
                let flagged = match (t, next) {
                    // `sum::<f64>()`
                    ("sum", Some("::")) if toks.get(i + 2).is_some_and(|t| t.text == "<") => {
                        let close = (i + 2..toks.len())
                            .find(|&j| toks[j].text == ">")
                            .unwrap_or(toks.len());
                        has_float(&toks[i + 2..close])
                    }
                    // Bare `.sum()`: look back across the statement for a
                    // float accumulator with no integer annotation.
                    ("sum", Some("(")) => {
                        let start = (0..i)
                            .rev()
                            .find(|&j| matches!(toks[j].text.as_str(), ";" | "{" | "}"))
                            .map_or(0, |j| j + 1);
                        let stmt = &toks[start..i];
                        has_float(stmt) && !has_int_type(stmt)
                    }
                    // `.fold(init, op)`: float-typed accumulator, unless the
                    // op is associative-commutative min/max.
                    ("fold", Some("(")) => {
                        let close = close_paren(toks, i + 1);
                        let args = &toks[i + 2..close];
                        let minmax = args.iter().any(|t| t.text == "max" || t.text == "min");
                        !minmax && has_float(args)
                    }
                    _ => false,
                };
                if flagged {
                    out.push(Diagnostic::new(
                        &node.path,
                        toks[i].line,
                        self.name(),
                        format!(
                            "order-sensitive float reduction in `{}`; float addition is not \
                             associative, so reduce through \
                             `popstab_analysis::stats::ordered_sum` (fixed left fold), or \
                             escape with `lint:allow(float-order-determinism): <why the \
                             iteration order is fixed>`",
                            node.name
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Index of the `)` matching the `(` at `open` (clamped to the span end).
fn close_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![SourceFile::new(path, src)],
            ..Workspace::default()
        };
        let cx = Context::new(&ws);
        FloatOrderDeterminism.check(&cx)
    }

    #[test]
    fn float_turbofish_sum_is_flagged() {
        let d = diags(
            "crates/analysis/src/stats.rs",
            "fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() / xs.len() as f64 }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("not associative"));
    }

    #[test]
    fn bare_sum_with_float_statement_is_flagged() {
        let d = diags(
            "crates/sim/src/metrics.rs",
            "fn total(xs: &[f64]) -> f64 {\n    let t: f64 = xs.iter().sum();\n    t\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn integer_sums_are_exempt() {
        let src = "fn total(xs: &[usize]) -> usize {\n    let t: usize = xs.iter().sum();\n    t + xs.iter().sum::<usize>()\n}\n";
        assert!(diags("crates/sim/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn float_fold_is_flagged_but_minmax_fold_is_exempt() {
        let flagged = diags(
            "crates/analysis/src/drift.rs",
            "fn acc(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, x| a + x) }\n",
        );
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        let exempt = diags(
            "crates/analysis/src/drift.rs",
            "fn peak(xs: &[f64]) -> f64 { xs.iter().copied().fold(0f64, f64::max) }\n",
        );
        assert!(exempt.is_empty(), "{exempt:?}");
    }

    #[test]
    fn ordered_helpers_and_tests_are_exempt() {
        let src = "fn ordered_sum(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n\
            #[cfg(test)]\nmod tests {\n    fn t(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n}\n";
        assert!(diags("crates/analysis/src/stats.rs", src).is_empty());
    }

    #[test]
    fn bench_and_integration_tests_are_out_of_scope() {
        let src = "fn t(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        assert!(diags("crates/bench/src/report.rs", src).is_empty());
        assert!(diags("crates/analysis/tests/proptests.rs", src).is_empty());
    }
}
