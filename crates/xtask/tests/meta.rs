//! Meta-tests for the domain linter: the fixtures tree must trigger every
//! rule (proving the scanner catches seeded violations), waived and
//! test-module lines must stay silent, and the real repository tree must
//! lint clean.

use std::path::{Path, PathBuf};

use xtask::lint::{lint_tree, Rule};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

#[test]
fn fixtures_trigger_every_rule() {
    let findings = lint_tree(&fixtures()).unwrap();
    for rule in [
        Rule::FloatOrdering,
        Rule::LossyTimeCast,
        Rule::NoStageBypass,
        Rule::NoEpochRescan,
        Rule::LockOrdering,
        Rule::NoAtomicOrderingDefault,
        Rule::NoCondvarWithoutLoop,
        Rule::NoWallclockOrdering,
        Rule::NoUnattributedDrop,
        Rule::NoAosHotloop,
    ] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "rule {} not triggered by fixtures: {findings:?}",
            rule.name()
        );
    }
}

#[test]
fn fixture_finding_counts_are_exact() {
    // Exact counts pin down both sides: every seeded violation fires, and
    // nothing else does (the sanctioned floor() cast, the waived lines,
    // the #[cfg(test)] modules).
    let findings = lint_tree(&fixtures()).unwrap();
    let count = |rule: Rule| findings.iter().filter(|f| f.rule == rule).count();
    assert_eq!(count(Rule::FloatOrdering), 2, "{findings:?}");
    assert_eq!(count(Rule::LossyTimeCast), 1, "{findings:?}");
    // Two seeded stage-internal calls in library code; the waived
    // isolation measurement and the test-module call are silent.
    assert_eq!(count(Rule::NoStageBypass), 2, "{findings:?}");
    // One seeded prefix-sum rebuild; the waived one-shot entry point and
    // the test-module rebuild are silent.
    assert_eq!(count(Rule::NoEpochRescan), 1, "{findings:?}");
    // One seeded inner-before-outer acquisition; the correctly ordered
    // pair and the test-module inversion are silent.
    assert_eq!(count(Rule::LockOrdering), 1, "{findings:?}");
    // Two seeded unjustified atomics; the `// ordering:`-commented one,
    // the waived one, and the test-module op are silent.
    assert_eq!(count(Rule::NoAtomicOrderingDefault), 2, "{findings:?}");
    // One seeded if-guarded wait; the while-guarded wait and the
    // `wait_while` form are silent.
    assert_eq!(count(Rule::NoCondvarWithoutLoop), 1, "{findings:?}");
    // Two seeded wall-clock reads in fleet coordination code; the waived
    // diagnostic timer, the `Duration` park, the token-containing
    // identifiers, and the test-module read are silent.
    assert_eq!(count(Rule::NoWallclockOrdering), 2, "{findings:?}");
    // Two seeded decode/frame drops; the waived warm-up drain, the
    // tombstone push, the joins, and the test-module drop are silent.
    assert_eq!(count(Rule::NoUnattributedDrop), 2, "{findings:?}");
    // Two seeded AoS accesses inside the hot-kernel region (the `Complex`
    // parameter and the `.re`/`.im` field reads); the waived cold seed,
    // the clean SoA indexing, the outside-region cold path, and the
    // test-module kernel are silent.
    assert_eq!(count(Rule::NoAosHotloop), 2, "{findings:?}");
}

#[test]
fn waived_and_test_module_lines_stay_silent() {
    let findings = lint_tree(&fixtures()).unwrap();
    for f in &findings {
        let text = std::fs::read_to_string(&f.file).unwrap();
        let line = text.lines().nth(f.line - 1).unwrap();
        assert!(!line.contains("xtask: allow"), "waived line fired: {f}");
        assert!(
            !line.contains("in_test_code"),
            "test-module line fired: {f}"
        );
    }
}

#[test]
fn repository_tree_lints_clean() {
    let root = repo_root();
    assert!(
        root.join("Cargo.toml").exists(),
        "bad root {}",
        root.display()
    );
    let findings = lint_tree(&root).unwrap();
    assert!(
        findings.is_empty(),
        "repository violates its own domain lints:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
