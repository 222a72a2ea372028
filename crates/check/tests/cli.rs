//! Exit-code contract of the `islands-check` binary: nonzero on a seeded
//! lint violation or model-checker failure, zero on the real (clean) tree.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn islands_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_islands-check"))
        .args(args)
        .output()
        .expect("run islands-check")
}

fn repo_root() -> PathBuf {
    // crates/check -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf()
}

#[test]
fn lint_is_clean_on_this_repo() {
    let out = islands_check(&["lint", repo_root().to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lint must pass on the shipped tree:\n{stdout}"
    );
    assert!(stdout.contains("0 violations"), "{stdout}");
}

#[test]
fn lint_exits_nonzero_on_a_seeded_violation() {
    let root = std::env::temp_dir().join(format!("islands-check-cli-{}", std::process::id()));
    let src = root.join("crates/server/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(src.join("lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
    fs::write(
        src.join("bad.rs"),
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )
    .unwrap();

    let out = islands_check(&["lint", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("no-unwrap"), "{stdout}");
    assert!(stdout.contains("crates/server/src/bad.rs:1"), "{stdout}");

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn mc_reports_the_visited_state_count() {
    let out = islands_check(&["mc", "--max", "2", "--kitchen-sink"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("states visited"), "{stdout}");
    assert!(stdout.contains("72 configurations"), "{stdout}");
}

#[test]
fn mutants_catches_every_seeded_bug() {
    let out = islands_check(&["mutants", "--max", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("8/8 seeded bugs caught"), "{stdout}");
}

#[test]
fn bad_usage_exits_2() {
    assert_eq!(islands_check(&[]).status.code(), Some(2));
    assert_eq!(islands_check(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(islands_check(&["mc", "--max", "9"]).status.code(), Some(2));
}
