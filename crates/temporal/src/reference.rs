//! Reference (unoptimised) implementations used for differential testing
//! of the production sweeps.
//!
//! The production foremost sweep relies on the bucket index built once per
//! network (`O(M + a)` per source, zero sorting). The reference below
//! re-sorts the time-edges on every call (`O(M log M)` per source), and the
//! tests in this module pin both implementations to identical outputs.

use crate::foremost::{foremost, ForemostRun};
use crate::network::TemporalNetwork;
use crate::{Time, NEVER};
use ephemeral_graph::NodeId;

/// Sort-based single-source foremost arrival times (no journey
/// reconstruction). Semantically identical to
/// [`crate::foremost::foremost`]'s arrival array.
///
/// # Panics
/// If `source` is out of range.
#[must_use]
pub fn foremost_arrivals_by_sorting(
    tn: &TemporalNetwork,
    source: NodeId,
    start_time: Time,
) -> Vec<Time> {
    let n = tn.num_nodes();
    assert!((source as usize) < n, "source {source} out of range");
    let directed = tn.graph().is_directed();
    // Gather and sort every (label, edge) pair.
    let mut time_edges: Vec<(Time, u32)> = tn.assignment().iter().map(|(e, l)| (l, e)).collect();
    time_edges.sort_unstable();
    let mut arrival = vec![NEVER; n];
    arrival[source as usize] = start_time;
    for (t, e) in time_edges {
        if t <= start_time {
            continue;
        }
        let (u, v) = tn.graph().endpoints(e);
        if arrival[u as usize] < t && arrival[v as usize] > t {
            arrival[v as usize] = t;
        }
        if !directed && arrival[v as usize] < t && arrival[u as usize] > t {
            arrival[u as usize] = t;
        }
    }
    arrival
}

/// Convenience wrapper running both implementations and asserting equality
/// (debug builds only); returns the production result. Useful as a drop-in
/// while debugging new label models.
#[must_use]
pub fn foremost_checked(tn: &TemporalNetwork, source: NodeId, start_time: Time) -> ForemostRun {
    let run = foremost(tn, source, start_time);
    debug_assert_eq!(
        run.arrivals(),
        foremost_arrivals_by_sorting(tn, source, start_time).as_slice(),
        "bucketed and sorted sweeps diverged"
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelAssignment;
    use ephemeral_graph::generators;
    use ephemeral_rng::{RandomSource, SeedSequence};

    #[test]
    fn implementations_agree_on_random_instances() {
        let seq = SeedSequence::new(404);
        for trial in 0..50u64 {
            let mut rng = seq.rng(trial);
            let n = 4 + rng.index(12);
            let g = generators::gnp(n, 0.4, trial % 2 == 0, &mut rng);
            let lifetime = 10;
            let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
                let k = 1 + rng.index(3);
                (0..k).map(|_| rng.range_u32(1, lifetime)).collect()
            })
            .unwrap();
            let tn = TemporalNetwork::new(g, labels, lifetime).unwrap();
            for s in 0..tn.num_nodes() as u32 {
                assert_eq!(
                    foremost(&tn, s, 0).arrivals(),
                    foremost_arrivals_by_sorting(&tn, s, 0).as_slice(),
                    "trial {trial}, source {s}"
                );
            }
        }
    }

    #[test]
    fn agree_with_nonzero_start_times() {
        let g = generators::cycle(8);
        let labels = LabelAssignment::from_fn(8, |e| vec![e + 1, e + 5]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 13).unwrap();
        for start in [0u32, 1, 3, 7, 13] {
            assert_eq!(
                foremost(&tn, 0, start).arrivals(),
                foremost_arrivals_by_sorting(&tn, 0, start).as_slice(),
                "start {start}"
            );
        }
    }

    #[test]
    fn checked_wrapper_returns_production_result() {
        let g = generators::path(5);
        let labels = LabelAssignment::single(vec![1, 2, 3, 4]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 4).unwrap();
        let run = foremost_checked(&tn, 0, 0);
        assert_eq!(run.arrivals(), &[0, 1, 2, 3, 4]);
    }
}
