//! End-to-end invocations of the `ephemeral` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ephemeral"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn sample_reports_structure() {
    let (ok, stdout, _) = run(&["sample", "--graph", "star:9", "--seed", "4"]);
    assert!(ok);
    assert!(stdout.contains("n = 9"), "{stdout}");
    assert!(stdout.contains("m = 8"), "{stdout}");
}

#[test]
fn sample_dot_is_valid_graphviz() {
    let (ok, stdout, _) = run(&["sample", "--graph", "path:3", "--dot"]);
    assert!(ok);
    assert!(stdout.starts_with("graph urtn {"), "{stdout}");
    assert!(stdout.contains("label="), "{stdout}");
}

#[test]
fn diameter_subcommand_produces_estimate() {
    let (ok, stdout, _) = run(&[
        "diameter",
        "--graph",
        "clique:32",
        "--trials",
        "5",
        "--seed",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("mean"), "{stdout}");
    assert!(stdout.contains("infinite instances: 0"), "{stdout}");
    // Every single-label path instance misses a pair: no finite sample,
    // so the extremes must print as 0, never as ±inf.
    let (ok, stdout, _) = run(&[
        "diameter", "--graph", "path:16", "--trials", "5", "--seed", "1",
    ]);
    assert!(ok);
    assert_eq!(
        stdout.trim_end(),
        "TD(path:16, a=16) over 5 trials: mean 0.00 (sd 0.00, min 0 max 0), \
         TD/ln n = 0.000, infinite instances: 5"
    );
}

#[test]
fn reach_subcommand_reports_probability() {
    let (ok, stdout, _) = run(&["reach", "--graph", "star:16", "--r", "24", "--trials", "20"]);
    assert!(ok);
    assert!(stdout.contains("P[T_reach]"), "{stdout}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// A bad input exits 1 with an error naming it, then the usage line — not
/// a panic (exit 101).
fn assert_rejected(args: &[&str], error: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ephemeral"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(error), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn bad_graph_spec_fails_cleanly() {
    for (spec, error) in [
        ("mobius:9", "unknown graph kind"),
        ("gnp:10:1.5", "p in [0, 1], got 1.5"),
        ("gnp:10:-1", "p in [0, 1], got -1"),
        ("gnp:10:nan", "p in [0, 1], got nan"),
        ("hypercube:40", "below 31, got 40"),
        ("cycle:2", "at least 3, got 2"),
        ("torus:2x5", "at least 3, got 2"),
    ] {
        assert_rejected(&["sample", "--graph", spec], error);
    }
}

#[test]
fn out_of_range_values_fail_cleanly() {
    for (args, error) in [
        (&["flood", "--n", "0"][..], "--n must be at least 1, got 0"),
        (
            &["diameter", "--trials", "0"],
            "--trials must be at least 1, got 0",
        ),
        (
            &["por", "--trials", "0"],
            "--trials must be at least 1, got 0",
        ),
        (&["reach", "--r", "0"], "--r must be at least 1, got 0"),
        (
            &["sample", "--lifetime", "0"],
            "--lifetime must be at least 1, got 0",
        ),
    ] {
        assert_rejected(args, error);
    }
}

#[test]
fn flood_oracle_runs_at_scale() {
    let (ok, stdout, _) = run(&["flood", "--n", "100000", "--oracle", "--seed", "2"]);
    assert!(ok);
    assert!(stdout.contains("broadcast at Some"), "{stdout}");
}
