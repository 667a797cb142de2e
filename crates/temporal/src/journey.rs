//! Journeys (temporal paths) and their validation.

use crate::network::TemporalNetwork;
use crate::Time;
use ephemeral_graph::NodeId;
use std::fmt;

/// A time-edge `(u, v, l)`: the edge `{u, v}` (or arc `(u, v)`) crossed at
/// its availability time `l` (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeEdge {
    /// Tail (the vertex the step leaves).
    pub from: NodeId,
    /// Head (the vertex the step enters).
    pub to: NodeId,
    /// The label used.
    pub time: Time,
}

impl fmt::Display for TimeEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}→{} @{})", self.from, self.to, self.time)
    }
}

/// Why a sequence of time-edges is not a journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JourneyError {
    /// Journeys must contain at least one time-edge.
    Empty,
    /// Consecutive steps do not chain: step `i` ends where step `i+1` does
    /// not begin.
    Disconnected {
        /// Index of the first of the two offending steps.
        step: usize,
    },
    /// Labels are not strictly increasing at this step boundary.
    NonIncreasing {
        /// Index of the first of the two offending steps.
        step: usize,
    },
}

impl fmt::Display for JourneyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "journey must have at least one time-edge"),
            Self::Disconnected { step } => write!(f, "steps {step} and {} do not chain", step + 1),
            Self::NonIncreasing { step } => {
                write!(
                    f,
                    "labels not strictly increasing between steps {step} and {}",
                    step + 1
                )
            }
        }
    }
}

impl std::error::Error for JourneyError {}

/// A temporal path (Definition 2): a chained sequence of time-edges with
/// strictly increasing labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey {
    edges: Vec<TimeEdge>,
}

impl Journey {
    /// Validate and wrap a sequence of time-edges.
    ///
    /// # Errors
    /// [`JourneyError`] when the sequence is empty, does not chain, or the
    /// labels fail to strictly increase.
    pub fn new(edges: Vec<TimeEdge>) -> Result<Self, JourneyError> {
        if edges.is_empty() {
            return Err(JourneyError::Empty);
        }
        for (i, pair) in edges.windows(2).enumerate() {
            if pair[0].to != pair[1].from {
                return Err(JourneyError::Disconnected { step: i });
            }
            if pair[0].time >= pair[1].time {
                return Err(JourneyError::NonIncreasing { step: i });
            }
        }
        Ok(Self { edges })
    }

    /// The time-edges, in travel order.
    #[must_use]
    pub fn edges(&self) -> &[TimeEdge] {
        &self.edges
    }

    /// First vertex.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.edges[0].from
    }

    /// Last vertex.
    #[must_use]
    pub fn target(&self) -> NodeId {
        self.edges[self.edges.len() - 1].to
    }

    /// Label of the first edge (departure time).
    #[must_use]
    pub fn departure(&self) -> Time {
        self.edges[0].time
    }

    /// Label of the last edge — the paper's *arrival time*.
    #[must_use]
    pub fn arrival(&self) -> Time {
        self.edges[self.edges.len() - 1].time
    }

    /// Number of edges traversed.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// The vertex sequence `source, …, target` (`hops() + 1` vertices).
    #[must_use]
    pub fn vertices(&self) -> Vec<NodeId> {
        let mut vs = Vec::with_capacity(self.edges.len() + 1);
        vs.push(self.source());
        vs.extend(self.edges.iter().map(|e| e.to));
        vs
    }

    /// Is every step of this journey actually available in `tn`? Checks
    /// that the (arc-respecting, for directed networks) edge exists and
    /// carries the claimed label.
    #[must_use]
    pub fn is_realizable_in(&self, tn: &TemporalNetwork) -> bool {
        self.edges.iter().all(|te| {
            let g = tn.graph();
            let edge = if g.is_directed() {
                g.find_edge(te.from, te.to)
            } else {
                g.find_edge(te.from, te.to)
                    .or_else(|| g.find_edge(te.to, te.from))
            };
            edge.is_some_and(|e| tn.labels(e).binary_search(&te.time).is_ok())
        })
    }
}

impl fmt::Display for Journey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source())?;
        for e in &self.edges {
            write!(f, " -[{}]-> {}", e.time, e.to)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelAssignment;
    use crate::TemporalNetwork;
    use ephemeral_graph::generators;

    fn te(from: NodeId, to: NodeId, time: Time) -> TimeEdge {
        TimeEdge { from, to, time }
    }

    #[test]
    fn valid_journey_accessors() {
        let j = Journey::new(vec![te(0, 1, 2), te(1, 3, 5), te(3, 2, 6)]).unwrap();
        assert_eq!(j.source(), 0);
        assert_eq!(j.target(), 2);
        assert_eq!(j.departure(), 2);
        assert_eq!(j.arrival(), 6);
        assert_eq!(j.hops(), 3);
        assert_eq!(j.vertices(), vec![0, 1, 3, 2]);
    }

    #[test]
    fn empty_is_rejected() {
        assert_eq!(Journey::new(vec![]).unwrap_err(), JourneyError::Empty);
    }

    #[test]
    fn disconnected_is_rejected() {
        let err = Journey::new(vec![te(0, 1, 1), te(2, 3, 2)]).unwrap_err();
        assert_eq!(err, JourneyError::Disconnected { step: 0 });
    }

    #[test]
    fn equal_labels_are_rejected() {
        let err = Journey::new(vec![te(0, 1, 3), te(1, 2, 3)]).unwrap_err();
        assert_eq!(err, JourneyError::NonIncreasing { step: 0 });
    }

    #[test]
    fn decreasing_labels_are_rejected() {
        let err = Journey::new(vec![te(0, 1, 3), te(1, 2, 2)]).unwrap_err();
        assert_eq!(err, JourneyError::NonIncreasing { step: 0 });
    }

    #[test]
    fn realizability_checks_labels_and_orientation() {
        // Path 0—1—2, labels {2} and {4}.
        let g = generators::path(3);
        let labels = LabelAssignment::from_vecs(vec![vec![2], vec![4]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 5).unwrap();

        let ok = Journey::new(vec![te(0, 1, 2), te(1, 2, 4)]).unwrap();
        assert!(ok.is_realizable_in(&tn));
        // Undirected: reverse direction uses the same labels.
        let back = Journey::new(vec![te(2, 1, 4)]).unwrap();
        assert!(back.is_realizable_in(&tn));
        // Wrong label.
        let bad = Journey::new(vec![te(0, 1, 3)]).unwrap();
        assert!(!bad.is_realizable_in(&tn));
        // Nonexistent edge.
        let missing = Journey::new(vec![te(0, 2, 2)]).unwrap();
        assert!(!missing.is_realizable_in(&tn));
    }

    #[test]
    fn directed_realizability_respects_orientation() {
        let mut b = ephemeral_graph::GraphBuilder::new_directed(2);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let labels = LabelAssignment::single(vec![3]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 3).unwrap();
        assert!(Journey::new(vec![te(0, 1, 3)])
            .unwrap()
            .is_realizable_in(&tn));
        assert!(!Journey::new(vec![te(1, 0, 3)])
            .unwrap()
            .is_realizable_in(&tn));
    }

    #[test]
    fn display_renders_arrows() {
        let j = Journey::new(vec![te(0, 1, 2), te(1, 2, 7)]).unwrap();
        assert_eq!(format!("{j}"), "0 -[2]-> 1 -[7]-> 2");
        assert_eq!(format!("{}", te(0, 1, 2)), "(0→1 @2)");
    }

    #[test]
    fn error_display() {
        assert!(JourneyError::Empty.to_string().contains("at least one"));
        assert!(JourneyError::Disconnected { step: 0 }
            .to_string()
            .contains("chain"));
        assert!(JourneyError::NonIncreasing { step: 1 }
            .to_string()
            .contains("strictly increasing"));
    }
}
