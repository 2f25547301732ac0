//! Rule `workspace-manifest-invariants`: the manifests and clippy
//! configuration keep the settings the workspace's speed and determinism
//! rest on.
//!
//! - **`opt-level` overrides.** The engine's hot loops are generic and
//!   monomorphize into the *caller* — test binaries included — so a crate
//!   missing from the root manifest's dev/test override tables silently
//!   runs its simulation loops at `opt-level = 0` under `cargo test`,
//!   turning the tier-1 suite from ~1 minute into many.
//! - **`[lints] workspace = true`** in every package. The root's
//!   `[workspace.lints.clippy]` denies `undocumented_unsafe_blocks`,
//!   `disallowed_types` and `disallowed_methods`, but only for the crates
//!   that inherit it.
//! - **Determinism bans.** Every crate in [`RESULT_CRATES`] and their
//!   normal-dependency closure must resolve to a `clippy.toml` holding
//!   every ban in [`DETERMINISM_BANS`], found the way clippy finds it: the
//!   nearest file walking up from the crate directory. A result crate can
//!   only call code in its closure, so a clock read laundered through a
//!   helper crate two hops away is still a clippy error in that helper.
//!
//! Each makes "I added a crate" fail the build until the settings follow.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::graph::dependency_closure;
use crate::rules::{Context, Rule, RESULT_CRATES};
use crate::workspace::{clippy_bans, manifest_members, package_name, section_value};

/// See the module docs.
pub struct WorkspaceManifestInvariants;

/// The `(list, path)` bans that every crate able to reach a result must
/// carry: hash containers (per-process iteration order), clocks, and every
/// read of the process environment.
pub const DETERMINISM_BANS: &[(&str, &str)] = &[
    ("disallowed-types", "std::collections::HashMap"),
    ("disallowed-types", "std::collections::HashSet"),
    ("disallowed-types", "std::time::Instant"),
    ("disallowed-types", "std::time::SystemTime"),
    ("disallowed-methods", "std::env::var"),
    ("disallowed-methods", "std::env::var_os"),
    ("disallowed-methods", "std::env::vars"),
    ("disallowed-methods", "std::env::vars_os"),
    ("disallowed-methods", "std::env::args"),
    ("disallowed-methods", "std::env::args_os"),
    ("disallowed-methods", "std::env::current_dir"),
    ("disallowed-methods", "std::env::current_exe"),
    ("disallowed-methods", "std::env::home_dir"),
    ("disallowed-methods", "std::env::temp_dir"),
];

impl Rule for WorkspaceManifestInvariants {
    fn name(&self) -> &'static str {
        "workspace-manifest-invariants"
    }

    fn summary(&self) -> &'static str {
        "workspace crates missing the per-package dev/test `opt-level` overrides that keep \
         `cargo test` fast or `[lints] workspace = true`; result crates or their dependencies \
         whose nearest `clippy.toml` lacks a determinism ban"
    }

    fn check(&self, cx: &Context) -> Vec<Diagnostic> {
        let ws = cx.ws;
        let mut out = Vec::new();
        let Some(root) = ws.root_manifest() else {
            return vec![Diagnostic::new(
                "Cargo.toml",
                0,
                self.name(),
                "workspace root manifest not found".to_string(),
            )];
        };

        // Every member's manifest and package name, plus the root package.
        let mut packages = Vec::new();
        if let Some(name) = package_name(&root.text) {
            packages.push((root, name));
        }
        for member in manifest_members(&root.text) {
            let manifest_path = format!("{member}/Cargo.toml");
            let manifest = ws.manifests.iter().find(|m| m.path == manifest_path);
            match manifest.and_then(|m| Some((m, package_name(&m.text)?))) {
                Some(package) => packages.push(package),
                None => out.push(Diagnostic::new(
                    &root.path,
                    0,
                    self.name(),
                    format!("workspace member `{member}` has no readable package name"),
                )),
            }
        }

        for (manifest, name) in &packages {
            for profile in ["dev", "test"] {
                let section = format!("profile.{profile}.package.{name}");
                if section_value(&root.text, &section, "opt-level").is_none() {
                    out.push(Diagnostic::new(
                        &root.path,
                        0,
                        self.name(),
                        format!(
                            "crate `{name}` is missing an `opt-level` override in \
                             `[{section}]`; hot loops monomorphize into callers, so every \
                             workspace crate must state its dev/test opt-level explicitly"
                        ),
                    ));
                }
            }
            if section_value(&manifest.text, "lints", "workspace").as_deref() != Some("true") {
                out.push(Diagnostic::new(
                    &manifest.path,
                    0,
                    self.name(),
                    format!(
                        "crate `{name}` does not inherit the workspace lints; add `[lints]` \
                         with `workspace = true`, or clippy's determinism and SAFETY-comment \
                         lints skip it"
                    ),
                ));
            }
        }

        // The result crates and everything they can call.
        let closure = dependency_closure(ws);
        let mut reach = BTreeSet::new();
        let present = |dir: &&str| {
            ws.manifests
                .iter()
                .any(|m| m.path == format!("{dir}/Cargo.toml"))
        };
        for dir in RESULT_CRATES
            .iter()
            .map(|c| c.trim_end_matches('/'))
            .filter(present)
        {
            reach.insert(dir.to_string());
            reach.extend(closure.get(dir).into_iter().flatten().cloned());
        }
        let mut checked = BTreeSet::new();
        for dir in &reach {
            let Some(config) = ws.clippy_config_for(dir) else {
                out.push(Diagnostic::new(
                    &format!("{dir}/Cargo.toml"),
                    0,
                    self.name(),
                    format!(
                        "crate `{dir}` can reach a simulation result but resolves to no \
                         `clippy.toml`, so clippy's determinism bans do not cover it; give it \
                         the bans of `crates/clippy.toml`"
                    ),
                ));
                continue;
            };
            if !checked.insert(config.path.as_str()) {
                continue;
            }
            let bans = clippy_bans(&config.text);
            for &(list, path) in DETERMINISM_BANS {
                if !bans.iter().any(|(l, p)| l == list && p == path) {
                    out.push(Diagnostic::new(
                        &config.path,
                        0,
                        self.name(),
                        format!(
                            "`{}` (the clippy configuration of `{dir}`) lacks the `{list}` \
                             ban on `{path}`",
                            config.path
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{TextFile, Workspace};

    fn run(w: &Workspace) -> Vec<Diagnostic> {
        WorkspaceManifestInvariants.check(&Context::new(w))
    }

    fn text(path: &str, text: &str) -> TextFile {
        TextFile {
            path: path.into(),
            text: text.into(),
        }
    }

    /// A `clippy.toml` at `path` holding every ban except `without`.
    fn bans(path: &str, without: &str) -> TextFile {
        let list = |key| {
            let kept = DETERMINISM_BANS
                .iter()
                .filter(|&&(l, b)| l == key && b != without);
            let entries: Vec<String> = kept.map(|(_, b)| format!("{{ path = \"{b}\" }}")).collect();
            format!("{key} = [\n    {},\n]\n", entries.join(",\n    "))
        };
        text(
            path,
            &(list("disallowed-types") + &list("disallowed-methods")),
        )
    }

    /// Members inherit the workspace lints and `crates/clippy.toml` holds
    /// every ban; each test breaks one thing.
    fn ws(root: &str, members: &[(&str, &str)]) -> Workspace {
        let mut manifests = vec![text("Cargo.toml", root)];
        for (dir, name) in members {
            let manifest = format!("[package]\nname = \"{name}\"\n[lints]\nworkspace = true\n");
            manifests.push(text(&format!("{dir}/Cargo.toml"), &manifest));
        }
        Workspace {
            manifests,
            clippy_configs: vec![bans("crates/clippy.toml", "")],
            ..Workspace::default()
        }
    }

    const COVERED: &str = r#"
[workspace]
members = ["crates/sim"]

[package]
name = "facade"

[lints]
workspace = true

[profile.dev.package.facade]
opt-level = 3
[profile.test.package.facade]
opt-level = 3
[profile.dev.package.popstab-sim]
opt-level = 3
[profile.test.package.popstab-sim]
opt-level = 3
"#;

    #[test]
    fn accepts_fully_covered_overrides() {
        let ws = ws(COVERED, &[("crates/sim", "popstab-sim")]);
        assert!(run(&ws).is_empty(), "{:?}", run(&ws));
    }

    #[test]
    fn rejects_a_member_without_overrides() {
        let root = r#"
[workspace]
members = ["crates/sim", "crates/new"]

[profile.dev.package.popstab-sim]
opt-level = 3
[profile.test.package.popstab-sim]
opt-level = 3
"#;
        let ws = ws(
            root,
            &[("crates/sim", "popstab-sim"), ("crates/new", "popstab-new")],
        );
        let diags = run(&ws);
        assert_eq!(diags.len(), 2); // dev + test for popstab-new
        assert!(diags.iter().all(|d| d.message.contains("popstab-new")));
    }

    #[test]
    fn a_member_manifest_missing_from_the_tree_is_reported() {
        let root = "[workspace]\nmembers = [\"crates/ghost\"]\n";
        let ws = ws(root, &[]);
        let diags = run(&ws);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("ghost"));
    }

    #[test]
    fn a_member_without_the_workspace_lints_is_reported() {
        let mut ws = ws(COVERED, &[("crates/sim", "popstab-sim")]);
        ws.manifests[1].text = ws.manifests[1].text.replace("workspace = true", "");
        let diags = run(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "crates/sim/Cargo.toml");
        assert!(diags[0].message.contains("workspace lints"));
    }

    #[test]
    fn a_dropped_ban_is_reported() {
        let mut ws = ws(COVERED, &[("crates/sim", "popstab-sim")]);
        ws.clippy_configs = vec![bans("crates/clippy.toml", "std::env::var_os")];
        let diags = run(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .message
            .contains("`disallowed-methods` ban on `std::env::var_os`"));
    }

    #[test]
    fn the_nearest_clippy_toml_is_the_one_checked() {
        // Clippy reads the nearest file only: an empty one in the crate
        // directory shadows the bans in `crates/clippy.toml`.
        let mut ws = ws(COVERED, &[("crates/sim", "popstab-sim")]);
        ws.clippy_configs
            .push(text("crates/sim/clippy.toml", "# no bans\n"));
        let diags = run(&ws);
        assert_eq!(diags.len(), DETERMINISM_BANS.len(), "{diags:?}");
        assert!(diags.iter().all(|d| d.file == "crates/sim/clippy.toml"));
    }

    /// The ban findings for `crates/core` depending on `dep` (whose own
    /// `clippy.toml`, if any, is `dep_config`).
    fn closure_findings(dep: &str, dep_config: Option<&str>) -> Vec<Diagnostic> {
        let root = format!("[workspace]\nmembers = [\"crates/core\", \"{dep}\"]\n");
        let mut ws = ws(&root, &[("crates/core", "popstab-core"), (dep, "dep")]);
        ws.manifests[1].text += "[dependencies]\ndep = { path = \"../../x\" }\n";
        ws.clippy_configs
            .extend(dep_config.map(|c| text(&format!("{dep}/clippy.toml"), c)));
        let diags = run(&ws);
        diags
            .into_iter()
            .filter(|d| !d.message.contains("opt-level"))
            .collect()
    }

    #[test]
    fn a_result_crate_dependency_without_the_bans_is_reported() {
        // The laundering shape: `crates/core` calls a helper crate that
        // could read the wall clock; nothing bans it there, so clippy
        // would never flag the read.
        let diags = closure_findings("shims/timeutil", None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "shims/timeutil/Cargo.toml");
        assert!(diags[0].message.contains("`shims/timeutil`"));
        // With the bans of its own, the helper is covered.
        let covered = bans("", "").text;
        assert!(closure_findings("shims/timeutil", Some(&covered)).is_empty());
    }

    #[test]
    fn crates_outside_the_result_closure_need_no_bans() {
        // `crates/bench` depends on a result crate, not the other way
        // round: its empty `clippy.toml` is never checked.
        let root = "[workspace]\nmembers = [\"crates/core\", \"crates/bench\"]\n";
        let mut ws = ws(
            root,
            &[("crates/core", "popstab-core"), ("crates/bench", "bench")],
        );
        ws.manifests[2].text += "[dependencies]\npopstab-core = { path = \"../core\" }\n";
        ws.clippy_configs
            .push(text("crates/bench/clippy.toml", "# no bans\n"));
        assert!(run(&ws).iter().all(|d| d.message.contains("opt-level")));
    }
}
