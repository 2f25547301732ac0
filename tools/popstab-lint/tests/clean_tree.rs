//! The lint must exit clean on the committed tree: this is the same check
//! CI runs via `cargo run -p popstab-lint`, pinned here so `cargo test`
//! catches a violation (or a broken rule) without the CI round-trip. The
//! flip side is pinned too: a scratch workspace seeded with one violation
//! per rule must make every rule fire and the binary exit non-zero —
//! proof the gate actually gates.

use std::path::{Path, PathBuf};

use popstab_lint::run_lint;
use popstab_lint::workspace::Workspace;

fn repo_root() -> PathBuf {
    // tools/popstab-lint -> tools -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn the_current_tree_is_lint_clean() {
    let ws = Workspace::load(&repo_root()).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "workspace scan looks truncated: {} files",
        ws.files.len()
    );
    let diags = run_lint(&ws);
    assert!(
        diags.is_empty(),
        "popstab-lint found {} violation(s) in the tree:\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Writes the seeded workspace: one violation per rule, including the
/// laundering shape (a wall-clock read in a helper crate that `crates/core`
/// depends on, with no `clippy.toml` of its own to ban it).
fn write_seeded_workspace(seeded: &Path) {
    let core = seeded.join("crates/core/src");
    let sim = seeded.join("crates/sim/src");
    let shim = seeded.join("shims/timeutil/src");
    for dir in [&core, &sim, &shim] {
        std::fs::create_dir_all(dir).expect("mkdir");
    }
    // The committed bans cover `crates/`, so the only uncovered crate in
    // the result closure is the helper.
    std::fs::copy(
        repo_root().join("crates/clippy.toml"),
        seeded.join("crates/clippy.toml"),
    )
    .expect("copy crates/clippy.toml");
    std::fs::write(
        seeded.join("Cargo.toml"),
        // Violates workspace-manifest-invariants: no opt-level overrides.
        "[workspace]\nmembers = [\"crates/core\", \"crates/sim\", \"shims/timeutil\"]\n",
    )
    .unwrap();
    std::fs::write(
        seeded.join("crates/core/Cargo.toml"),
        "[package]\nname = \"popstab-core\"\n\n[dependencies]\n\
         timeutil = { path = \"../../shims/timeutil\" }\n",
    )
    .unwrap();
    std::fs::write(
        seeded.join("crates/sim/Cargo.toml"),
        "[package]\nname = \"popstab-sim\"\n",
    )
    .unwrap();
    std::fs::write(
        seeded.join("shims/timeutil/Cargo.toml"),
        "[package]\nname = \"timeutil\"\n",
    )
    .unwrap();

    // workspace-manifest-invariants, the laundering shape: the read lives
    // outside the result crates, in a crate clippy's bans do not reach.
    std::fs::write(
        core.join("lib.rs"),
        "pub fn step() -> u64 { wall_stamp() }\n\
         use timeutil::wall_stamp;\n",
    )
    .unwrap();
    std::fs::write(
        shim.join("lib.rs"),
        "use std::time::SystemTime;\n\
         pub fn wall_stamp() -> u64 { let _ = SystemTime::now(); 0 }\n",
    )
    .unwrap();

    std::fs::write(
        sim.join("rng.rs"),
        concat!(
            // stream-version-coherence: constant present, README/JSON absent.
            "pub const AGENT_STREAM_VERSION: u32 = 3;\n",
            "pub const MATCHING_STREAM_VERSION: u32 = 2;\n",
            // sendptr-bounds: raw shard pointer across a dispatch with no
            // shard_range-derived partition.
            "fn par(pool: &Pool, buf: *mut u64) {\n",
            "    let b = SendPtr(buf);\n",
            "    pool.dispatch(&|s| {\n",
            "        // SAFETY: (deliberately bogus — ranges not derived)\n",
            "        unsafe { b.get().add(s).write(0) };\n",
            "    });\n",
            "}\n",
            // float-order-determinism:
            "fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
            // simd-scalar-twin: kernel with no scalar twin, no test.
            "fn dash_x8(xs: &[u64; 8]) -> [u64; 8] { *xs }\n",
            // unused-allow: the sum it silenced is long gone.
            "// lint:allow(float-order-determinism): the float sum below was replaced.\n",
            "fn total(xs: &[u64]) -> u64 { xs.len() as u64 }\n",
            // lint-allow-syntax: justification below the 15-char floor.
            "fn g() {} // lint:allow(simd-scalar-twin): elsewhere\n",
        ),
    )
    .unwrap();
}

#[test]
fn the_binary_exits_zero_on_the_tree_and_nonzero_on_a_seeded_tree() {
    // Clean tree → exit 0.
    let ok = std::process::Command::new(env!("CARGO_BIN_EXE_popstab-lint"))
        .current_dir(repo_root())
        .output()
        .expect("lint binary runs");
    assert!(
        ok.status.success(),
        "lint failed on the committed tree:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // A workspace seeded with one violation of every rule → exit != 0 and
    // every rule reports.
    let seeded = repo_root()
        .join("target")
        .join(format!("popstab-lint-seeded-{}", std::process::id()));
    write_seeded_workspace(&seeded);
    let bad = std::process::Command::new(env!("CARGO_BIN_EXE_popstab-lint"))
        .current_dir(&seeded)
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&bad.stdout).to_string();

    // Same seeded tree through --format json: findings must be present and
    // the schema versioned (CI asserts the full schema on the clean tree).
    let json_out = std::process::Command::new(env!("CARGO_BIN_EXE_popstab-lint"))
        .args(["--format", "json"])
        .current_dir(&seeded)
        .output()
        .expect("lint binary runs with --format json");
    let json = String::from_utf8_lossy(&json_out.stdout).to_string();

    std::fs::remove_dir_all(&seeded).ok();
    assert!(!bad.status.success(), "seeded tree passed:\n{stdout}");
    for rule in [
        "float-order-determinism",
        "sendptr-bounds",
        "simd-scalar-twin",
        "stream-version-coherence",
        "workspace-manifest-invariants",
        "unused-allow",
        "lint-allow-syntax",
    ] {
        assert!(stdout.contains(rule), "rule {rule} did not fire:\n{stdout}");
    }
    // The laundering finding names the uncovered helper crate, and only
    // it: `crates/core` and `crates/sim` resolve to the committed bans.
    assert!(
        stdout.contains("crate `shims/timeutil` can reach a simulation result"),
        "laundering helper not reported:\n{stdout}"
    );
    assert!(
        !stdout.contains("lacks the") && !stdout.contains("crate `crates/"),
        "the committed bans were reported incomplete:\n{stdout}"
    );
    assert!(
        !json_out.status.success(),
        "json run must also exit nonzero"
    );
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(
        json.contains("\"rule\": \"workspace-manifest-invariants\""),
        "{json}"
    );
}
