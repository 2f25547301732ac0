//! The lint's view of the workspace: lexed sources, manifests, the
//! `clippy.toml` files clippy would read for them, and the two non-Rust
//! artifacts the coherence rules cross-check (the golden-fixture README
//! and `BENCH_engine.json`).
//!
//! Everything here is std-only by design: the manifest reader is a minimal
//! line-oriented TOML subset (sections, `key = value`, string arrays) that
//! covers exactly what the workspace manifests use.

use std::fs;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// A raw (unlexed) text artifact, e.g. a manifest or a README.
#[derive(Debug, Clone)]
pub struct TextFile {
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// Full contents.
    pub text: String,
}

/// Everything the rules look at.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// All `.rs` files under the scanned roots.
    pub files: Vec<SourceFile>,
    /// The root `Cargo.toml` (index 0) and every member's manifest.
    pub manifests: Vec<TextFile>,
    /// Every `clippy.toml`/`.clippy.toml` in a member's directory or one of
    /// its ancestors up to the root.
    pub clippy_configs: Vec<TextFile>,
    /// `tests/golden/README.md`, if present.
    pub golden_readme: Option<TextFile>,
    /// `BENCH_engine.json`, if present.
    pub bench_json: Option<TextFile>,
}

/// Directories scanned for Rust sources, relative to the workspace root.
const SOURCE_ROOTS: &[&str] = &["src", "crates", "shims", "tools", "tests", "examples"];

impl Workspace {
    /// Loads the workspace rooted at `root` (the directory holding the
    /// workspace `Cargo.toml`).
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for dir in SOURCE_ROOTS {
            collect_rs(root, &root.join(dir), &mut files)?;
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));

        let mut manifests = vec![read_text(root, "Cargo.toml")?];
        let mut clippy_configs: Vec<TextFile> = Vec::new();
        for member in manifest_members(&manifests[0].text) {
            let rel = format!("{member}/Cargo.toml");
            if root.join(&rel).is_file() {
                manifests.push(read_text(root, &rel)?);
            }
            for rel in clippy_config_paths(&member) {
                if root.join(&rel).is_file() && !clippy_configs.iter().any(|c| c.path == rel) {
                    clippy_configs.push(read_text(root, &rel)?);
                }
            }
        }

        Ok(Workspace {
            files,
            manifests,
            clippy_configs,
            golden_readme: read_text(root, "tests/golden/README.md").ok(),
            bench_json: read_text(root, "BENCH_engine.json").ok(),
        })
    }

    /// The root manifest (the workspace `Cargo.toml`).
    pub fn root_manifest(&self) -> Option<&TextFile> {
        self.manifests.first()
    }

    /// Source files whose path starts with any of `prefixes`.
    pub fn files_under<'a>(
        &'a self,
        prefixes: &'a [&'a str],
    ) -> impl Iterator<Item = &'a SourceFile> {
        self.files
            .iter()
            .filter(move |f| prefixes.iter().any(|p| f.path.starts_with(p)))
    }

    /// The clippy configuration clippy applies to the crate at `crate_dir`:
    /// the nearest file walking up from the crate directory (`.clippy.toml`
    /// before `clippy.toml` in one directory, as clippy reads them).
    pub fn clippy_config_for(&self, crate_dir: &str) -> Option<&TextFile> {
        clippy_config_paths(crate_dir)
            .find_map(|p| self.clippy_configs.iter().find(|c| c.path == p))
    }

    /// The source file at exactly `path`, if loaded.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

/// The paths clippy tries for the crate at `dir`, nearest first: both file
/// names in `dir`, then in each ancestor up to the workspace root.
fn clippy_config_paths(dir: &str) -> impl Iterator<Item = String> + '_ {
    Path::new(dir).ancestors().flat_map(|d| {
        [".clippy.toml", "clippy.toml"].map(|n| d.join(n).to_string_lossy().into_owned())
    })
}

fn read_text(root: &Path, rel: &str) -> std::io::Result<TextFile> {
    Ok(TextFile {
        path: rel.to_string(),
        text: fs::read_to_string(root.join(rel))?,
    })
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path: PathBuf = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::new(&rel, &fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// The `members` array of a workspace manifest (workspace-relative dirs).
pub fn manifest_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_workspace = false;
    let mut in_members = false;
    for line in manifest.lines() {
        let mut line = strip_toml_comment(line).trim().to_string();
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
            in_members = false;
            continue;
        }
        if in_workspace && line.starts_with("members") && line.contains('=') {
            in_members = true;
            line = line[line.find('=').unwrap() + 1..].to_string();
        }
        if in_members {
            let closes = line.contains(']');
            for part in line.split(',') {
                let part = part.trim().trim_matches(|c| c == '[' || c == ']').trim();
                let part = part.trim_matches('"');
                if !part.is_empty() && part != "." {
                    members.push(part.to_string());
                }
            }
            if closes {
                in_members = false;
            }
        }
    }
    members
}

/// The `[package] name` of a manifest, if declared.
pub fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = strip_toml_comment(line).trim().to_string();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start();
                if let Some(value) = value.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The value `section` gives `key` (e.g. `opt-level`) before the next
/// section header, trimmed of quotes.
pub fn section_value(manifest: &str, section: &str, key: &str) -> Option<String> {
    let mut in_section = false;
    for line in manifest.lines() {
        let line = strip_toml_comment(line).trim();
        if line.starts_with('[') {
            in_section = line.trim_matches(|c| c == '[' || c == ']') == section;
            continue;
        }
        if in_section {
            if let Some(value) = line
                .strip_prefix(key)
                .and_then(|r| r.trim().strip_prefix('='))
            {
                return Some(value.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// The `(list, path)` bans of a clippy configuration: the path of every
/// entry in its `disallowed-*` arrays (`disallowed-types`,
/// `disallowed-methods`), written bare (`"std::env::var"`) or as a table
/// (`{ path = "…", reason = "…" }`), one entry per line. An entry sharing
/// a line with another is not read, so a ban can be missed but never
/// invented.
pub fn clippy_bans(config: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut list = None;
    for line in config.lines().map(|l| strip_toml_comment(l).trim()) {
        let mut entry = line;
        if let Some((key, value)) = line.split_once('=') {
            if key.trim().starts_with("disallowed-") {
                (list, entry) = (Some(key.trim()), value);
            }
        }
        let Some(key) = list else { continue };
        let entry = entry.trim_start_matches(['[', '{', ' ']);
        let entry = entry
            .strip_prefix("path")
            .map_or(entry, |r| r.trim_start_matches([' ', '=']));
        if let Some(path) = entry.strip_prefix('"').and_then(|r| r.split('"').next()) {
            out.push((key.to_string(), path.to_string()));
        }
        if line.ends_with(']') {
            list = None;
        }
    }
    out
}

/// The dependency names declared in `[dependencies]` and
/// `[target.<cfg>.dependencies]` (not dev-dependencies: dev-only edges
/// cannot reach a shipped result path). Handles both the
/// dotted form (`popstab-sim.workspace = true`) and the inline-table form
/// (`rand = { path = "shims/rand" }`).
pub fn dependency_names(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = strip_toml_comment(line).trim().to_string();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]"
                || (line.starts_with("[target.") && line.ends_with(".dependencies]"));
            continue;
        }
        if in_deps && line.contains('=') {
            let key: String = line
                .chars()
                .take_while(|&c| c != '.' && c != '=' && !c.is_whitespace())
                .collect();
            if !key.is_empty() {
                out.push(key);
            }
        }
    }
    out
}

/// The `[workspace.dependencies]` name → workspace-relative path map of the
/// root manifest (the renamed shims resolve here too: `rand` → `shims/rand`).
pub fn workspace_dep_dirs(root_manifest: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for line in root_manifest.lines() {
        let line = strip_toml_comment(line).trim().to_string();
        if line.starts_with('[') {
            in_section = line == "[workspace.dependencies]";
            continue;
        }
        if !in_section || !line.contains('=') {
            continue;
        }
        let key: String = line
            .chars()
            .take_while(|&c| c != '.' && c != '=' && !c.is_whitespace())
            .collect();
        let Some(path_at) = line.find("path") else {
            continue;
        };
        let rest = &line[path_at + 4..];
        let mut quoted = rest.split('"');
        quoted.next();
        if let (false, Some(dir)) = (key.is_empty(), quoted.next()) {
            out.push((key, dir.to_string()));
        }
    }
    out
}

/// Strips a `#` TOML comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
[workspace]
members = [
    "crates/sim", # hot
    "tools/lint",
]

[package]
name = "facade" # the root package

[profile.dev.package.popstab-sim]
opt-level = 3
"#;

    #[test]
    fn members_parse_across_lines_and_comments() {
        assert_eq!(manifest_members(MANIFEST), vec!["crates/sim", "tools/lint"]);
    }

    #[test]
    fn package_name_parses() {
        assert_eq!(package_name(MANIFEST).as_deref(), Some("facade"));
    }

    #[test]
    fn sections_and_keys_resolve() {
        assert_eq!(
            section_value(MANIFEST, "profile.dev.package.popstab-sim", "opt-level").as_deref(),
            Some("3")
        );
        assert_eq!(section_value(MANIFEST, "package", "opt-level"), None);
    }

    #[test]
    fn dependency_names_include_target_specific_sections() {
        let manifest = "[dependencies]\na.workspace = true\n[dev-dependencies]\nb = \"1\"\n\
                        [target.'cfg(unix)'.dependencies]\nc = { path = \"../c\" }\n";
        assert_eq!(dependency_names(manifest), vec!["a", "c"]);
    }

    #[test]
    fn clippy_bans_read_bare_and_table_entries() {
        let config = r#"
avoid-breaking-exported-api = false # not a ban
disallowed-types = [
    "std::collections::HashMap",
    { path = "std::time::Instant", reason = "see std::env::var" }, # a [comment]
]
disallowed-methods = [{ path = "std::env::var" }]
"#;
        let bans = clippy_bans(config);
        let ban = |l: &str, p: &str| (l.to_string(), p.to_string());
        assert_eq!(
            bans,
            vec![
                ban("disallowed-types", "std::collections::HashMap"),
                ban("disallowed-types", "std::time::Instant"),
                ban("disallowed-methods", "std::env::var"),
            ]
        );
    }

    #[test]
    fn the_nearest_clippy_config_wins() {
        let config = |path: &str| TextFile {
            path: path.into(),
            text: String::new(),
        };
        let ws = Workspace {
            clippy_configs: vec![
                config("crates/clippy.toml"),
                config("crates/bench/clippy.toml"),
                config("crates/bench/.clippy.toml"),
            ],
            ..Workspace::default()
        };
        let nearest = |dir| ws.clippy_config_for(dir).map(|c| c.path.as_str());
        assert_eq!(nearest("crates/sim"), Some("crates/clippy.toml"));
        assert_eq!(nearest("crates/bench"), Some("crates/bench/.clippy.toml"));
        assert_eq!(nearest("shims/rand"), None);
        assert_eq!(nearest("."), None);
    }
}
