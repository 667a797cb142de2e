//! The sweep engine's contracts: canonical-order streaming, byte-identical
//! interrupt/resume, and thread-count invariance — exercised through both
//! the library API and the `experiments sweep` CLI.

use ephemeral_bench::sweep::{
    is_failed_row, parse_cell_id, run_sweep_with, SweepOptions, SweepSpec,
};
use ephemeral_core::scenario::{GraphFamily, LabelModelSpec, LifetimeRule, Metric};
use ephemeral_parallel::adaptive::AdaptiveConfig;
use std::process::Command;

/// A grid small enough for debug-mode tests but with every axis populated
/// and at least one noisy cell (so the adaptive trial counts differ).
fn tiny_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        families: vec![
            GraphFamily::Clique { directed: true },
            GraphFamily::Gnp { c: 1.5 },
            GraphFamily::Star,
        ],
        models: vec![
            LabelModelSpec::UniformSingle,
            LabelModelSpec::UniformMulti { r: 4 },
        ],
        lifetimes: vec![LifetimeRule::EqualsN],
        metrics: vec![
            Metric::TemporalDiameter,
            Metric::TreachProbability,
            Metric::TreachCorrelated,
        ],
        sizes: vec![16, 24],
        adaptive: AdaptiveConfig::new(0.5)
            .with_min_trials(4)
            .with_batch(4)
            .with_max_trials(20),
        seed,
    }
}

fn collect(spec: &SweepSpec, threads: usize, resume: &[String]) -> Vec<String> {
    let mut streamed = Vec::new();
    let rows = run_sweep_with(spec, threads, resume, SweepOptions::default(), |row| {
        streamed.push(row.to_owned());
    });
    assert_eq!(rows, streamed, "emit callback must see every row, in order");
    rows
}

#[test]
fn rows_come_out_in_canonical_grid_order() {
    let spec = tiny_spec(1);
    let cells = spec.cells();
    let rows = collect(&spec, 4, &[]);
    assert_eq!(rows.len(), cells.len());
    for (row, cell) in rows.iter().zip(&cells) {
        assert_eq!(parse_cell_id(row), Some(cell.id().as_str()), "{row}");
    }
}

#[test]
fn correlated_rows_attribute_replay_work_and_cold_rows_report_zero() {
    let spec = tiny_spec(1);
    let rows = collect(&spec, 4, &[]);
    let (mut delta_rows, mut cold_rows) = (0, 0);
    for row in &rows {
        assert!(row.contains("\"delta_replayed_buckets\":"), "{row}");
        if row.contains("/treachd\"") {
            delta_rows += 1;
            // At n ≤ 64 the 64-lane probe decides every chain's starting
            // state, so every chain runs cold on the probe alone.
            assert!(
                row.contains("\"delta_replayed_buckets\":0,"),
                "probe-decided chains replay nothing: {row}"
            );
            assert!(
                row.contains("\"engine\":\"batch\""),
                "probe-decided chains use only the lane pass: {row}"
            );
        } else {
            cold_rows += 1;
            assert!(
                row.contains("\"delta_replayed_buckets\":0,"),
                "cold-trial metrics never touch the cursor: {row}"
            );
        }
        // The tiny grid sits below the crossover, so the sparse
        // engine (and its arena) never runs: the accounting fields are
        // present and zero — pinning the rowfmt 6 schema tail.
        assert!(
            row.ends_with(
                "\"arena_hiwater_words\":0,\"compactions\":0,\"degraded\":0,\"status\":\"ok\"}"
            ),
            "rows below the crossover carry zero arena accounting: {row}"
        );
    }
    assert!(delta_rows > 0 && cold_rows > 0);
    // Above 64 sources a holding start needs the blocks after the probe,
    // so the chains record the cursor and the row reports the buckets
    // their applies replayed.
    let recorded = SweepSpec {
        families: vec![GraphFamily::Clique { directed: true }],
        models: vec![LabelModelSpec::UniformSingle],
        metrics: vec![Metric::TreachCorrelated],
        sizes: vec![72],
        ..tiny_spec(1)
    };
    for row in collect(&recorded, 2, &[]) {
        assert!(
            !row.contains("\"delta_replayed_buckets\":0,"),
            "a recorded chain always replays some buckets: {row}"
        );
        assert!(row.contains("\"engine\":\"wide\""), "{row}");
    }
}

#[test]
fn interrupted_sweep_resumes_byte_identically() {
    let spec = tiny_spec(2);
    let full = collect(&spec, 2, &[]);
    // Kill the sweep "mid-grid" at every possible point, including a torn
    // trailing line: the resumed output must equal the uninterrupted one
    // byte for byte.
    for cut in [0, 1, full.len() / 2, full.len() - 1, full.len()] {
        let mut prefix: Vec<String> = full[..cut].to_vec();
        if cut < full.len() {
            // Simulate a write torn mid-row by the kill.
            prefix.push(full[cut][..full[cut].len() / 2].to_owned());
        }
        let resumed = collect(&spec, 2, &prefix);
        assert_eq!(resumed, full, "cut at {cut}");
    }
}

#[test]
fn resume_reuses_cached_rows_verbatim() {
    let spec = tiny_spec(3);
    let full = collect(&spec, 1, &[]);
    // Doctor one cached row with a value the engine would never produce; a
    // resume must trust the file rather than recompute the cell.
    let mut doctored = full.clone();
    doctored[0] = doctored[0].replace("\"trials\":", "\"marker\":123,\"trials\":");
    let resumed = collect(&spec, 1, &doctored[..1]);
    assert_eq!(resumed[0], doctored[0], "cached row must be kept verbatim");
    assert_eq!(&resumed[1..], &full[1..]);
}

#[test]
fn sweep_is_thread_invariant() {
    let spec = tiny_spec(4);
    let base = collect(&spec, 1, &[]);
    for threads in [2, 8] {
        assert_eq!(collect(&spec, threads, &[]), base, "threads={threads}");
    }
}

#[test]
fn different_seeds_change_results_but_not_cell_ids() {
    let a = collect(&tiny_spec(5), 2, &[]);
    let b = collect(&tiny_spec(6), 2, &[]);
    assert_ne!(a, b);
    let ids_a: Vec<_> = a
        .iter()
        .map(|r| parse_cell_id(r).unwrap().to_owned())
        .collect();
    let ids_b: Vec<_> = b
        .iter()
        .map(|r| parse_cell_id(r).unwrap().to_owned())
        .collect();
    assert_eq!(ids_a, ids_b);
}

#[test]
fn quick_spec_fingerprint_is_pinned() {
    // Every row's `spec` field and every existing `--resume` file carry
    // this value; a change here silently recomputes resumed rows.
    assert_eq!(
        SweepSpec::quick(20140623).fingerprint(),
        0x0958_d73d_8389_5729
    );
}

#[test]
fn resume_rows_from_a_different_spec_are_recomputed() {
    // Same grid, different seed: ids match but the fingerprint differs, so
    // the stale rows must be ignored — the output equals a fresh run, not a
    // splice of two incompatible sweeps.
    let stale = collect(&tiny_spec(7), 2, &[]);
    let spec = tiny_spec(8);
    let fresh = collect(&spec, 2, &[]);
    assert_ne!(stale, fresh);
    let resumed = collect(&spec, 2, &stale);
    assert_eq!(resumed, fresh, "stale-seed rows must not be reused");
}

#[test]
fn panicking_cell_quarantines_into_failed_row_instead_of_hanging() {
    // n = 1 trips the `scenario families need at least two vertices`
    // assert inside the worker on every attempt; the sweep must neither
    // deadlock nor kill the stream — each broken cell posts exactly one
    // quarantined row naming the failure, in canonical order.
    let mut spec = tiny_spec(9);
    spec.sizes = vec![1];
    let rows = collect(&spec, 2, &[]);
    assert_eq!(rows.len(), spec.cells().len());
    for (row, cell) in rows.iter().zip(&spec.cells()) {
        assert!(is_failed_row(row), "{row}");
        assert_eq!(parse_cell_id(row), Some(cell.id().as_str()), "{row}");
        assert!(row.contains("\"attempts\":3"), "{row}");
        assert!(row.contains("at least two vertices"), "{row}");
    }
    // Failed rows are retryable, not cache hits: resuming from them (with
    // the defect still present) recomputes and quarantines again.
    let resumed = collect(&spec, 2, &rows);
    assert_eq!(resumed, rows);
}

#[test]
fn parse_cell_id_rejects_torn_and_foreign_lines() {
    assert_eq!(
        parse_cell_id(r#"{"cell":"star/n=16/uni1/a=n/td","trials":4}"#),
        Some("star/n=16/uni1/a=n/td")
    );
    assert_eq!(
        parse_cell_id(r#"{"cell":"star/n=16/uni1/a=n/td","tri"#),
        None
    );
    assert_eq!(parse_cell_id(r#"{"table":"E02","n":"64"}"#), None);
    assert_eq!(parse_cell_id(""), None);
}

fn run_cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_quick_sweep_emits_one_json_row_per_cell() {
    let (ok, stdout, stderr) = run_cli(&["sweep", "--quick", "--format", "json", "--seed", "7"]);
    assert!(ok, "{stderr}");
    let expected = SweepSpec::quick(7).cells();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), expected.len(), "{stdout}");
    for (line, cell) in lines.iter().zip(&expected) {
        assert_eq!(parse_cell_id(line), Some(cell.id().as_str()), "{line}");
    }
    // The quick grid straddles the crossover and mixes dense and
    // sparse substrates, so all three sweep engines must appear in its
    // rows (the CI gate greps for the same three tags).
    for tag in [
        "\"engine\":\"batch\"",
        "\"engine\":\"wide\"",
        "\"engine\":\"sparse\"",
    ] {
        assert!(
            lines.iter().any(|l| l.contains(tag)),
            "quick grid rows miss {tag}: {stdout}"
        );
    }
}

#[test]
fn all_filtered_cells_terminate_at_the_cap_with_null_half_width() {
    // A single-label star *always* has an infinite instance diameter (the
    // leaf behind the maximum label cannot reach any other leaf), so every
    // trial of this cell is filtered: the adaptive loop must still stop at
    // the trial cap, the half-width must render as null (never NaN), and
    // the row must record the full excluded fraction.
    let spec = SweepSpec {
        families: vec![GraphFamily::Star],
        models: vec![LabelModelSpec::UniformSingle],
        lifetimes: vec![LifetimeRule::EqualsN],
        metrics: vec![Metric::TemporalDiameter],
        sizes: vec![224],
        adaptive: AdaptiveConfig::new(0.5)
            .with_min_trials(4)
            .with_batch(4)
            .with_max_trials(12),
        seed: 21,
    };
    let rows = collect(&spec, 2, &[]);
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert!(row.contains("\"trials\":12"), "{row}");
    assert!(row.contains("\"converged\":false"), "{row}");
    assert!(row.contains("\"half_width\":null"), "{row}");
    assert!(row.contains("\"failures\":1.0000"), "{row}");
    assert!(row.contains("\"estimate\":0.0000"), "{row}");
    assert!(
        row.contains("\"engine\":\"sparse\""),
        "a 224-star dispatches event-driven: {row}"
    );
    assert!(
        !row.contains("\"arena_hiwater_words\":0,"),
        "a sparse-served cell reports its arena high-water mark: {row}"
    );
}

#[test]
fn cli_resume_round_trip_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("ephemeral-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("sweep.jsonl");
    let out = out_path.to_str().unwrap();

    let (ok, full_stdout, stderr) = run_cli(&["sweep", "--quick", "--seed", "3", "--out", out]);
    assert!(ok, "{stderr}");
    let full_file = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(full_file, full_stdout);

    // Simulate the kill: truncate the file mid-grid, mid-line.
    let keep: String = full_file
        .lines()
        .take(5)
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        + "{\"cell\":\"torn";
    std::fs::write(&out_path, &keep).unwrap();

    let (ok, resumed_stdout, stderr) = run_cli(&[
        "sweep", "--quick", "--seed", "3", "--resume", out, "--out", out,
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(
        resumed_stdout, full_stdout,
        "stdout must match the uninterrupted run"
    );
    assert_eq!(
        std::fs::read_to_string(&out_path).unwrap(),
        full_file,
        "--out file must match the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_markdown_format_and_unknown_flags() {
    let (ok, _, stderr) = run_cli(&["sweep", "--format", "markdown"]);
    assert!(!ok);
    assert!(stderr.contains("JSON lines only"), "{stderr}");
    let (ok, _, stderr) = run_cli(&["sweep", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown sweep argument"), "{stderr}");
    // Ids are matched exactly; an id that names no experiment is an
    // error, not an empty run.
    let (ok, _, stderr) = run_cli(&["e99"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment id 'e99'"), "{stderr}");
    let (ok, _, stderr) = run_cli(&["--quick", "E02"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment id 'E02'"), "{stderr}");
    // 2^44 MiB is 2^64 bytes: the budget must not wrap to 0.
    let (ok, _, stderr) = run_cli(&["serve", "--budget-mb", "17592186044416"]);
    assert!(!ok);
    assert!(stderr.contains("--budget-mb: 17592186044416"), "{stderr}");
}
