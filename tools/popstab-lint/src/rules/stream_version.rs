//! Rule `stream-version-coherence`: the stream-version constants, the
//! golden-fixture version tables, and the committed benchmark record must
//! all name the same versions.
//!
//! A stream bump is a coordinated event (constant + fixture re-capture +
//! README table row + re-recorded benchmark); the failure mode this rule
//! closes is the *partial* bump — a constant changed without its table row,
//! or a benchmark re-recorded against stale fixtures — which the dynamic
//! tests cannot see because each artifact is self-consistent in isolation.

use crate::diag::Diagnostic;
use crate::rules::{Context, Rule};
use crate::workspace::Workspace;

/// See the module docs.
pub struct StreamVersionCoherence;

/// Where each version constant lives.
const RNG_FILE: &str = "crates/sim/src/rng.rs";
const MATCHING_FILE: &str = "crates/sim/src/matching.rs";
const SNAPSHOT_FILE: &str = "crates/sim/src/snapshot.rs";
const README: &str = "tests/golden/README.md";
const BENCH: &str = "BENCH_engine.json";

impl Rule for StreamVersionCoherence {
    fn name(&self) -> &'static str {
        "stream-version-coherence"
    }

    fn summary(&self) -> &'static str {
        "partial stream bumps — version constants, golden-fixture tables, and \
         `BENCH_engine.json` disagreeing"
    }

    fn check(&self, cx: &Context) -> Vec<Diagnostic> {
        let ws = cx.ws;
        let mut out = Vec::new();
        let agent = self.collect_stream(
            ws,
            &mut out,
            "agent",
            RNG_FILE,
            "AGENT_STREAM_VERSION",
            "Agent stream",
            Some("agent_stream_version"),
        );
        let matching = self.collect_stream(
            ws,
            &mut out,
            "matching",
            MATCHING_FILE,
            "MATCHING_STREAM_VERSION",
            "Matching stream",
            Some("matching_stream_version"),
        );
        // The benchmark record is round-semantics provenance; the snapshot
        // format does not affect trajectories, so it has no BENCH key.
        let mut snapshot = self.collect_stream(
            ws,
            &mut out,
            "snapshot",
            SNAPSHOT_FILE,
            "SNAPSHOT_FORMAT_VERSION",
            "Snapshot format",
            None,
        );
        // The snapshot constant documents its layout history as `* vN — …`
        // doc-comment lines; a format bump that forgets to append a history
        // entry is the same partial-bump failure mode as a stale table row.
        let history_loc = format!("{SNAPSHOT_FILE} (format doc history)");
        match ws.file(SNAPSHOT_FILE).and_then(doc_history_max) {
            Some(v) => snapshot.push((history_loc, v)),
            None => out.push(Diagnostic::new(
                &history_loc,
                0,
                self.name(),
                "could not find the snapshot format's `* vN — …` doc history".to_string(),
            )),
        }
        for values in [agent, matching, snapshot] {
            let Some(((first_where, first), rest)) = values.split_first() else {
                continue;
            };
            for (loc, value) in rest {
                if value != first {
                    out.push(Diagnostic::new(
                        loc,
                        0,
                        self.name(),
                        format!(
                            "stream version mismatch: {loc} says v{value} but {first_where} says \
                             v{first}; a stream bump must update the constant, the \
                             `tests/golden/README.md` table, and BENCH_engine.json together"
                        ),
                    ));
                }
            }
        }
        out
    }
}

impl StreamVersionCoherence {
    /// Gathers every artifact's claimed version for one stream as
    /// `(location, version)` pairs, reporting unparseable artifacts.
    /// `json_key: None` means the stream has no benchmark-record entry.
    #[allow(clippy::too_many_arguments)]
    fn collect_stream(
        &self,
        ws: &Workspace,
        out: &mut Vec<Diagnostic>,
        stream: &str,
        const_file: &str,
        const_name: &str,
        readme_section: &str,
        json_key: Option<&str>,
    ) -> Vec<(String, u32)> {
        let mut values = Vec::new();
        let mut require = |loc: &str, value: Option<u32>| match value {
            Some(v) => values.push((loc.to_string(), v)),
            None => out.push(Diagnostic::new(
                loc,
                0,
                self.name(),
                format!("could not find the {stream} stream version here"),
            )),
        };
        require(
            const_file,
            ws.file(const_file).and_then(|f| {
                f.lines
                    .iter()
                    .map(|l| l.code.as_str())
                    .find_map(|code| const_assignment(code, const_name))
            }),
        );
        require(
            README,
            ws.golden_readme
                .as_ref()
                .and_then(|r| readme_current_version(&r.text, readme_section)),
        );
        if let Some(key) = json_key {
            require(
                BENCH,
                ws.bench_json.as_ref().and_then(|b| json_u32(&b.text, key)),
            );
        }
        values
    }
}

/// The highest `* vN — …` entry in a file's comment channel: the claimed
/// tip of the snapshot format's doc history. (For `///` lines the lexer's
/// comment text keeps one leading `/`, hence the extra strip.)
fn doc_history_max(file: &crate::source::SourceFile) -> Option<u32> {
    file.lines
        .iter()
        .filter_map(|line| {
            let text = line
                .comment
                .trim_start()
                .trim_start_matches('/')
                .trim_start();
            let digits: String = text
                .strip_prefix("* v")?
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .max()
}

/// Parses `… const NAME: u32 = N;` out of one code line.
fn const_assignment(code: &str, name: &str) -> Option<u32> {
    let pos = code.find(name)?;
    let rest = &code[pos + name.len()..];
    if !code[..pos].contains("const") {
        return None;
    }
    let eq = rest.find('=')?;
    rest[eq + 1..]
        .trim()
        .trim_end_matches(';')
        .trim()
        .parse()
        .ok()
}

/// The `vN` of the row marked `(current)` in the README table under the
/// `### <section>` heading.
fn readme_current_version(readme: &str, section: &str) -> Option<u32> {
    let mut in_section = false;
    for line in readme.lines() {
        if let Some(head) = line.strip_prefix("###") {
            in_section = head.contains(section);
            continue;
        }
        if in_section && line.starts_with('|') && line.contains("(current)") {
            let cell = line.trim_start_matches('|').split('|').next()?.trim();
            let digits: String = cell
                .strip_prefix('v')?
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            return digits.parse().ok();
        }
    }
    None
}

/// The integer value of `"key": N` in a flat JSON text.
fn json_u32(json: &str, key: &str) -> Option<u32> {
    let needle = format!("\"{key}\"");
    let pos = json.find(&needle)?;
    let rest = json[pos + needle.len()..].trim_start().strip_prefix(':')?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::TextFile;

    fn run(w: &Workspace) -> Vec<Diagnostic> {
        StreamVersionCoherence.check(&Context::new(w))
    }

    fn ws(agent_const: u32, readme_agent: u32, bench_agent: u32) -> Workspace {
        let rng = format!("pub const AGENT_STREAM_VERSION: u32 = {agent_const};\n");
        let matching = "pub const MATCHING_STREAM_VERSION: u32 = 2;\n";
        let snapshot = "/// History:\n///\n/// * v1 — initial layout.\n/// * v2 — trailing checksum.\npub const SNAPSHOT_FORMAT_VERSION: u32 = 2;\n";
        let readme = format!(
            "### Agent stream\n\n| version | scheme |\n| v1 | old |\n| v{readme_agent} (current) | new |\n\n### Matching stream\n| v2 (current) | keyed |\n\n### Snapshot format\n| v1 | initial |\n| v2 (current) | checksum |\n"
        );
        let bench =
            format!("{{\"agent_stream_version\": {bench_agent}, \"matching_stream_version\": 2}}");
        Workspace {
            files: vec![
                SourceFile::new("crates/sim/src/rng.rs", &rng),
                SourceFile::new("crates/sim/src/matching.rs", matching),
                SourceFile::new("crates/sim/src/snapshot.rs", snapshot),
            ],
            golden_readme: Some(TextFile {
                path: "tests/golden/README.md".into(),
                text: readme,
            }),
            bench_json: Some(TextFile {
                path: "BENCH_engine.json".into(),
                text: bench,
            }),
            ..Workspace::default()
        }
    }

    #[test]
    fn accepts_coherent_versions() {
        assert!(run(&ws(3, 3, 3)).is_empty());
    }

    #[test]
    fn rejects_a_partial_bump() {
        // The constant moved to v4 but the README and benchmark did not.
        let diags = run(&ws(4, 3, 3));
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.message.contains("mismatch")));
    }

    #[test]
    fn rejects_a_stale_benchmark_record() {
        let diags = run(&ws(3, 3, 2));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].file.contains("BENCH"));
    }

    #[test]
    fn snapshot_format_is_checked_without_a_bench_record() {
        let mut w = ws(3, 3, 3);
        // The snapshot constant bumped without its README table row; the
        // (nonexistent) benchmark key must NOT be demanded for this stream.
        w.files[2] = SourceFile::new(
            "crates/sim/src/snapshot.rs",
            "/// * v1 — initial.\n/// * v2 — checksum.\n/// * v3 — future.\npub const SNAPSHOT_FORMAT_VERSION: u32 = 3;\n",
        );
        let diags = run(&w);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("mismatch"));
        assert!(diags[0].file.contains("README"));
    }

    #[test]
    fn stale_doc_history_is_a_finding() {
        let mut w = ws(3, 3, 3);
        // Constant and README agree on v2, but the doc history stops at v1:
        // the partial bump is caught even though the table was updated.
        w.files[2] = SourceFile::new(
            "crates/sim/src/snapshot.rs",
            "/// * v1 — initial layout.\npub const SNAPSHOT_FORMAT_VERSION: u32 = 2;\n",
        );
        let diags = run(&w);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].file.contains("doc history"), "{}", diags[0].file);
        assert!(diags[0].message.contains("mismatch"));
    }

    #[test]
    fn a_missing_doc_history_is_reported() {
        let mut w = ws(3, 3, 3);
        w.files[2] = SourceFile::new(
            "crates/sim/src/snapshot.rs",
            "pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;\n",
        );
        let diags = run(&w);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("could not find"));
    }

    #[test]
    fn missing_artifacts_are_reported() {
        let mut w = ws(3, 3, 3);
        w.bench_json = None;
        let diags = run(&w);
        assert_eq!(diags.len(), 2); // one per stream
        assert!(diags.iter().all(|d| d.message.contains("could not find")));
    }
}
