//! Fault quarantine in the query service: an injected panic at the
//! `serve::query` failpoint must degrade exactly that query to
//! `"status":"failed"` — its batchmates still answer, the instance
//! stays resident, and the transcript is otherwise byte-identical to a
//! fault-free run. The fault registry is process-global, so these tests
//! live in their own integration binary.
//!
//! Every `serve_lines` call here runs under the global install lock,
//! fault-free runs too (through [`quiet`]): a fault-free run that
//! overlapped another test's schedule could hit that schedule's panic
//! itself, or use up the attempts the other test's victim needs.
//!
//! `fires=2` matters: a poisoned *batch* is replayed one query at a
//! time, so the poisoned query is attempted twice (batch, then alone) —
//! the schedule must fire on both attempts for the quarantine to stick,
//! and [`FaultSchedule::would_fire`] is attempt-independent below the
//! cutoff, so it deterministically does.

use ephemeral_parallel::faults::{self, site, Fault, FaultSchedule};
use ephemeral_serve::server::{serve_lines, ServeConfig};

fn script() -> String {
    let mut s = String::new();
    s.push_str(
        "{\"op\":\"load\",\"instance\":\"g\",\"gnp\":{\"nodes\":40,\"avg_degree\":3.0,\
         \"seed\":9},\"directed\":false,\"lifetime\":80,\"labels_per_edge\":2,\
         \"label_seed\":10}\n",
    );
    for i in 0..30u32 {
        let (u, v) = ((i * 7) % 40, (i * 11 + 1) % 40);
        match i % 3 {
            0 => s.push_str(&format!(
                "{{\"op\":\"query\",\"instance\":\"g\",\"type\":\"foremost\",\"u\":{u},\"v\":{v}}}\n"
            )),
            1 => s.push_str(&format!(
                "{{\"op\":\"query\",\"instance\":\"g\",\"type\":\"reaches\",\"u\":{u},\"v\":{v},\
                 \"by\":{}}}\n",
                10 + i
            )),
            _ => s.push_str(&format!(
                "{{\"op\":\"query\",\"instance\":\"g\",\"type\":\"distance_row\",\"u\":{u}}}\n"
            )),
        }
    }
    s
}

fn run(script: &str, shards: usize) -> Vec<String> {
    let mut out = Vec::new();
    serve_lines(
        script.as_bytes(),
        &mut out,
        &ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )
    .expect("in-memory io");
    String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Hold the process-global fault slot with a schedule that never fires,
/// so a fault-free run cannot overlap another test's installed schedule.
fn quiet() -> faults::FaultGuard {
    faults::install(FaultSchedule::new(0, 0.0, Fault::Panic))
}

/// The query sequence numbers of [`script`] are 1..=30 (seq 0 loads).
/// Find a schedule that fires on exactly one of them.
fn one_shot_schedule() -> (FaultSchedule, u64) {
    for seed in 0..10_000u64 {
        let schedule = FaultSchedule::new(seed, 0.04, Fault::Panic)
            .sites(&[site::SERVE_QUERY])
            .fires(2);
        let firing: Vec<u64> = (1..=30)
            .filter(|&k| schedule.would_fire(site::SERVE_QUERY, k, 0))
            .collect();
        if firing.len() == 1 {
            return (schedule, firing[0]);
        }
    }
    panic!("no single-firing seed below 10000");
}

#[test]
fn one_poisoned_query_quarantines_and_its_batchmates_answer() {
    let baseline = {
        let _quiet = quiet();
        run(&script(), 1)
    };
    let (schedule, victim) = one_shot_schedule();

    let guard = faults::install(schedule);
    let faulted = run(&script(), 1);
    let fired = guard.fired();
    drop(guard);

    assert!(fired >= 2, "batch attempt and lone replay both fired");
    assert_eq!(baseline.len(), faulted.len());
    for (seq, (clean, dirty)) in baseline.iter().zip(&faulted).enumerate() {
        if seq as u64 == victim {
            assert_eq!(
                *dirty,
                format!(
                    "{{\"id\":{victim},\"status\":\"failed\",\"error\":\
                     \"injected fault at serve::query (key {victim})\"}}"
                ),
                "the poisoned query is quarantined with an attempt-free message"
            );
        } else {
            assert_eq!(clean, dirty, "request {seq} is unaffected by the fault");
        }
    }
}

/// Pin the schedule the CI serve-smoke job installs via
/// `EPHEMERAL_FAULTS='seed=1,rate=0.04,kind=panic,sites=serve::query,fires=2'`
/// over `ci/serve_script.jsonl` (query seqs 2..=37): it fires on seq 24
/// and nothing else, which is exactly what
/// `ci/serve_golden_faulted.jsonl` quarantines.
#[test]
fn ci_fault_spec_fires_on_seq_24_only() {
    let schedule = FaultSchedule::new(1, 0.04, Fault::Panic)
        .sites(&[site::SERVE_QUERY])
        .fires(2);
    let firing: Vec<u64> = (2..=37)
        .filter(|&k| schedule.would_fire(site::SERVE_QUERY, k, 0))
        .collect();
    assert_eq!(firing, vec![24]);
}

#[test]
fn quarantine_is_shard_invariant() {
    let (schedule, victim) = one_shot_schedule();
    let mut transcripts = Vec::new();
    for shards in [1usize, 2, 8] {
        let guard = faults::install(schedule.clone());
        transcripts.push(run(&script(), shards));
        drop(guard);
    }
    let base = &transcripts[0];
    assert!(base[victim as usize].contains("\"status\":\"failed\""));
    for other in &transcripts[1..] {
        assert_eq!(base, other);
    }
}

#[test]
fn a_deadline_of_zero_degrades_to_failed_not_a_dead_server() {
    // A deadline that has already passed cancels every batch that
    // sweeps; each swept query must quarantine individually and the
    // server must keep serving. Target queries the session answers
    // straight from its static component index (cross-component pairs)
    // never sweep, so they legitimately succeed — but only with an
    // unreachable answer.
    let mut out = Vec::new();
    let script = script();
    let _quiet = quiet();
    serve_lines(
        script.as_bytes(),
        &mut out,
        &ServeConfig {
            shards: 2,
            deadline: Some(std::time::Duration::ZERO),
            ..ServeConfig::default()
        },
    )
    .expect("in-memory io");
    let lines: Vec<String> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 31);
    assert!(
        lines[0].contains("\"status\":\"ok\""),
        "loads have no deadline"
    );
    let mut failed = 0usize;
    for (seq, line) in lines.iter().enumerate().skip(1) {
        if line.contains("\"status\":\"failed\"") {
            assert!(line.contains("batch deadline exceeded"), "{line}");
            failed += 1;
        } else {
            assert!(
                line.contains("\"arrival\":null"),
                "request {seq} answered under an expired deadline without \
                 sweeping — must be a component-index unreachable: {line}"
            );
        }
    }
    // Row queries (seqs 3, 6, …, 30) always sweep; every one must fail.
    for seq in (3..=30).step_by(3) {
        assert!(
            lines[seq].contains("\"status\":\"failed\""),
            "row request {seq} must sweep and hit the deadline: {}",
            lines[seq]
        );
    }
    assert!(failed >= 10, "at least every row query quarantines");
}
