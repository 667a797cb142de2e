//! The panic-at-every-failpoint suite: deterministic fault schedules
//! aimed at each site of the [`faults::site`] catalog in turn, driven
//! through the sweep runner — proving that every injected fault either
//! rides out on the bounded retry (byte-identical row) or quarantines
//! into a `"status":"failed"` row, that the stream never hangs whatever
//! layer the fault lands in, and that `--resume` converges to the
//! fault-free bytes once the fault clears.
//!
//! The fault registry is process-global, so these tests live in their
//! own integration binary (own process — the main sweep suite never
//! sees an installed schedule) and serialize on [`SERIAL`]: a schedule
//! installed by one test must not fire inside another's fault-free
//! baseline.

use ephemeral_bench::sweep::{is_failed_row, run_sweep_with, SweepOptions, SweepSpec};
use ephemeral_core::scenario::{GraphFamily, LabelModelSpec, LifetimeRule, Metric};
use ephemeral_parallel::adaptive::AdaptiveConfig;
use ephemeral_parallel::faults::{self, Fault, FaultSchedule};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes whole tests (not just schedule installation): a fault-free
/// baseline computed while a sibling test's schedule is live would be
/// anything but fault-free.
static SERIAL: Mutex<()> = Mutex::new(());

fn collect(spec: &SweepSpec, threads: usize, resume: &[String]) -> Vec<String> {
    let mut streamed = Vec::new();
    let rows = run_sweep_with(spec, threads, resume, SweepOptions::default(), |row| {
        streamed.push(row.to_owned());
    });
    assert_eq!(rows, streamed, "emit callback must see every row, in order");
    rows
}

/// A 4-cell grid cheap enough to sweep repeatedly under fault schedules.
fn micro_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        families: vec![GraphFamily::Star],
        models: vec![
            LabelModelSpec::UniformSingle,
            LabelModelSpec::UniformMulti { r: 4 },
        ],
        lifetimes: vec![LifetimeRule::EqualsN],
        metrics: vec![Metric::TemporalDiameter, Metric::TreachCorrelated],
        sizes: vec![16],
        adaptive: AdaptiveConfig::new(0.5)
            .with_min_trials(4)
            .with_batch(4)
            .with_max_trials(12),
        seed,
    }
}

#[test]
fn injected_panics_at_every_failpoint_recover_or_quarantine_and_resume_converges() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The panic-at-every-failpoint sweep: under a deterministic one-shot
    // panic schedule aimed at each site of the catalog in turn, every
    // cell must post exactly one row — either the byte-identical row of
    // the fault-free run (the bounded retry rode out the fault) or a
    // quarantined "status":"failed" row — and a --resume style rerun
    // with the faults cleared must converge to fault-free bytes.
    let spec = micro_spec(11);
    let clean = collect(&spec, 2, &[]);
    for (k, site) in faults::site::ALL.iter().enumerate() {
        let guard = faults::install(
            FaultSchedule::new(0xFA17 + k as u64, 1.0, Fault::Panic).sites(&[site]),
        );
        let rows = collect(&spec, 2, &[]);
        let fired = guard.fired();
        drop(guard);
        assert_eq!(rows.len(), clean.len(), "site {site}: stream must not hang");
        for (row, clean_row) in rows.iter().zip(&clean) {
            assert!(
                row == clean_row || is_failed_row(row),
                "site {site}: row is neither clean nor quarantined: {row}"
            );
        }
        if [
            "sweep::cell",
            "sweep::emit",
            "engine::bucket",
            "adaptive::trial",
        ]
        .contains(site)
        {
            assert!(fired > 0, "site {site} never fired");
        }
        if ["sweep::cell", "sweep::emit"].contains(site) {
            // One-shot faults keyed by cell index: the retry must ride
            // every one of them out — no quarantine, identical bytes.
            assert_eq!(rows, clean, "site {site}: retry must converge");
        }
        // Fault cleared: failed rows are retryable, clean rows are cache
        // hits — the resumed sweep converges to fault-free bytes.
        let resumed = collect(&spec, 2, &rows);
        assert_eq!(resumed, clean, "site {site}: resume must converge");
    }
}

#[test]
fn injected_delay_with_cell_timeout_quarantines_then_recovers_on_resume() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A one-shot injected stall longer than the per-cell watchdog: the
    // first attempt of each cell times out (cooperatively, at a bucket
    // boundary), the retry runs stall-free and must reproduce fault-free
    // bytes. With a schedule stalling *every* attempt the cell must
    // quarantine as timed-out instead of hanging the sweep.
    let spec = micro_spec(12);
    let clean = collect(&spec, 2, &[]);
    let opts = SweepOptions {
        max_attempts: 2,
        cell_timeout: Some(Duration::from_millis(80)),
    };
    let run = |resume: &[String]| {
        let mut streamed = Vec::new();
        let rows = run_sweep_with(&spec, 2, resume, opts, |row| streamed.push(row.to_owned()));
        assert_eq!(rows, streamed);
        rows
    };
    // One-shot stall at the first engine bucket of each cell.
    let guard = faults::install(
        FaultSchedule::new(0xDE1A, 1.0, Fault::Delay(300)).sites(&["engine::bucket"]),
    );
    let rows = run(&[]);
    assert!(guard.fired() > 0);
    drop(guard);
    assert_eq!(rows.len(), clean.len(), "stream must not hang");
    // Every attempt stalls: quarantine, attributed to the watchdog.
    let guard = faults::install(
        FaultSchedule::new(0xDE1B, 1.0, Fault::Delay(300))
            .sites(&["engine::bucket"])
            .fires(u32::MAX),
    );
    let stuck = run(&[]);
    drop(guard);
    assert_eq!(stuck.len(), clean.len(), "stream must not hang");
    let timed_out = stuck.iter().filter(|r| is_failed_row(r)).count();
    assert!(
        timed_out > 0,
        "persistent stalls must quarantine: {stuck:?}"
    );
    for row in stuck.iter().filter(|r| is_failed_row(r)) {
        assert!(row.contains("\"cancelled\":\"timed-out\""), "{row}");
    }
    // Faults cleared: resuming from either run converges to clean bytes.
    assert_eq!(run(&rows), clean);
    assert_eq!(run(&stuck), clean);
}
