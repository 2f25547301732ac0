//! The clippy half of the determinism contract, exercised for real.
//!
//! `crates/clippy.toml` bans hash containers, clocks and environment
//! reads, and the root manifest's `[workspace.lints.clippy]` denies those
//! bans and undocumented `unsafe`. These tests give a fixture crate under
//! `target/` a copy of both and run `cargo clippy` on it once; each checks
//! that one seeded line draws the expected error, or that one clean shape
//! draws nothing. A missing clippy fails the tests; they never skip.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

const FIXTURE: &str = r#"use std::collections::HashMap as Table;
pub type Targets = Table<u32, u64>;
pub fn member(s: &std::collections::HashSet<u32>) -> bool { s.is_empty() }
pub fn ordered(m: &std::collections::BTreeMap<u32, u64>) -> usize { m.len() }
pub fn tick() -> u128 { std::time::Instant::now().elapsed().as_nanos() }
pub fn wall() -> bool { std::time::SystemTime::now() > std::time::UNIX_EPOCH }
pub fn knob() -> Option<String> { std::env::var("X").ok() }
pub fn argv() -> usize { std::env::args().count() }
pub fn bare(x: &mut u8) { let p: *mut u8 = x; unsafe { *p = 0 } }
pub fn distant(x: &mut u8) {
    // SAFETY: a comment separated from its block by code does not count.
    let p: *mut u8 = x;
    unsafe { *p = 1 }
}
pub fn continued(x: &mut u8) -> u8 {
    let p: *const u8 = x;
    // SAFETY: `p` comes from a live `&mut`, and covers the continuation.
    let v =
        unsafe { *p };
    v.wrapping_add(1)
}
pub struct Shared(pub *mut u8);
// SAFETY: one comment for two impls covers only the first.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}
pub struct Own(pub *mut u8);
// SAFETY: only the owning shard dereferences the pointer.
unsafe impl Send for Own {}
// SAFETY: only the owning shard dereferences the pointer.
unsafe impl Sync for Own {}
"#;

/// Writes the fixture crate, runs `cargo clippy` on it, and returns the
/// short-format diagnostics.
fn run_clippy_on_fixture() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = root.join(format!(
        "target/clippy-config-fixture-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(dir.join("src")).expect("mkdir fixture");
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let lints = manifest
        .split("\n[")
        .find(|s| s.starts_with("workspace.lints.clippy]"))
        .expect("the root manifest has [workspace.lints.clippy]");
    let fixture_manifest = format!(
        "[package]\nname = \"clippy-fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         [lints]\nworkspace = true\n[workspace]\n[{lints}\n"
    );
    std::fs::write(dir.join("Cargo.toml"), fixture_manifest).unwrap();
    std::fs::write(dir.join("src/lib.rs"), FIXTURE).unwrap();
    std::fs::copy(root.join("crates/clippy.toml"), dir.join("clippy.toml")).unwrap();
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--message-format=short"])
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("cargo runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("could not compile `clippy-fixture`"),
        "cargo clippy did not lint the fixture (is clippy installed?):\n{stderr}"
    );
    stderr
}

/// Clippy's diagnostics on the fixture line starting with `prefix`, from
/// one shared run.
fn findings(prefix: &str) -> Vec<&'static str> {
    static OUT: OnceLock<String> = OnceLock::new();
    let out = OUT.get_or_init(run_clippy_on_fixture);
    let line = 1 + FIXTURE
        .lines()
        .position(|l| l.starts_with(prefix))
        .expect(prefix);
    let at = format!("src/lib.rs:{line}:");
    out.lines().filter(|l| l.starts_with(&at)).collect()
}

fn assert_rejects(prefix: &str, error: &str) {
    let found = findings(prefix);
    let hit = found
        .iter()
        .any(|f| f.contains("error: ") && f.contains(error));
    assert!(hit, "`{prefix}`: expected `{error}`, got {found:?}");
}

fn assert_accepts(prefix: &str) {
    let found = findings(prefix);
    assert!(found.is_empty(), "`{prefix}`: unexpected {found:?}");
}

#[test]
fn a_hash_map_behind_use_and_type_aliases_is_rejected() {
    assert_rejects(
        "pub type Targets",
        "disallowed type `std::collections::HashMap`",
    );
}

#[test]
fn hash_sets_are_rejected() {
    assert_rejects(
        "pub fn member",
        "disallowed type `std::collections::HashSet`",
    );
}

#[test]
fn ordered_containers_are_accepted() {
    assert_accepts("pub fn ordered");
}

#[test]
fn clock_reads_are_rejected() {
    assert_rejects("pub fn tick", "disallowed type `std::time::Instant`");
    assert_rejects("pub fn wall", "disallowed type `std::time::SystemTime`");
}

#[test]
fn env_reads_are_rejected() {
    assert_rejects("pub fn knob", "disallowed method `std::env::var`");
    assert_rejects("pub fn argv", "disallowed method `std::env::args`");
}

#[test]
fn a_bare_unsafe_block_is_rejected() {
    assert_rejects("pub fn bare", "unsafe block missing a safety comment");
}

#[test]
fn a_distant_safety_comment_does_not_count() {
    assert_rejects(
        "    unsafe { *p = 1 }",
        "unsafe block missing a safety comment",
    );
}

#[test]
fn a_safety_comment_covers_a_continuation_head() {
    assert_accepts("        unsafe { *p };");
}

#[test]
fn an_impl_pair_sharing_one_comment_is_flagged_on_the_second_impl() {
    assert_accepts("unsafe impl Send for Shared");
    assert_rejects(
        "unsafe impl Sync for Shared",
        "unsafe impl missing a safety comment",
    );
}

#[test]
fn per_item_safety_comments_are_accepted() {
    assert_accepts("unsafe impl Send for Own");
    assert_accepts("unsafe impl Sync for Own");
}
