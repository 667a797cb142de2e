//! The JSON-lines line protocol: request grammar and byte-stable
//! response rendering.
//!
//! One request per line, one response line per request, every response
//! tagged `"id"` with the request's arrival sequence number and emitted
//! in arrival order. The grammar (also in the README's "Query service"
//! section):
//!
//! ```text
//! {"op":"load","instance":ID, "nodes":N,"directed":B,"edges":[[u,v],…],
//!      "labels":[[t,…],…],"lifetime":L}
//! {"op":"load","instance":ID, "gnp":{"nodes":N,"avg_degree":D,"seed":S},
//!      "directed":B,"lifetime":L,"labels_per_edge":R,"label_seed":S2}
//! {"op":"query","instance":ID,"type":"reaches","u":U,"v":V,"by":T}
//! {"op":"query","instance":ID,"type":"foremost","u":U,"v":V}
//! {"op":"query","instance":ID,"type":"distance_row","u":U[,"horizon":T]}
//! {"op":"move_label","instance":ID,"edge":E,"from":T1,"to":T2}
//! {"op":"stats"}
//! ```
//!
//! Responses carry `"status":"ok"`, `"status":"error"` (the request was
//! rejected: bad grammar, unknown instance, out-of-range vertex) or
//! `"status":"failed"` (the query was accepted but its evaluation was
//! poisoned — injected fault or deadline — and quarantined without
//! taking the batch down).

use crate::json::{escape_into, parse, Json};
use ephemeral_graph::{generators, EdgeId, GraphBuilder, NodeId};
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_temporal::session::{PointAnswer, PointQuery};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time, NEVER};
use std::fmt::Write as _;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Build an instance and pin it resident under `instance`.
    Load {
        /// Cache key; reloading an existing key replaces it.
        instance: String,
        /// How to build the network.
        spec: LoadSpec,
    },
    /// One point query against a resident instance.
    Query {
        /// Cache key.
        instance: String,
        /// The query to lane-batch.
        query: PointQuery,
    },
    /// Move one label of a resident instance (differential maintenance:
    /// the session's cursor retracts and replays instead of rebuilding).
    MoveLabel {
        /// Cache key.
        instance: String,
        /// Edge to move a label of.
        edge: EdgeId,
        /// The label to move.
        from: Time,
        /// Where it moves to.
        to: Time,
    },
    /// Server-wide counters (cache occupancy, hit rate, query totals).
    Stats,
}

/// How a [`Request::Load`] builds its network.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSpec {
    /// Explicit edge and label lists.
    Explicit {
        /// Vertex count.
        nodes: usize,
        /// Directed edges?
        directed: bool,
        /// Edge endpoints, one pair per edge.
        edges: Vec<(NodeId, NodeId)>,
        /// Labels per edge, aligned with `edges`.
        labels: Vec<Vec<Time>>,
        /// Lifetime `a`.
        lifetime: Time,
    },
    /// A `G(n, p)` instance with `r` uniform labels per edge, both drawn
    /// from fixed seeds — the load-test and CI corpus shape.
    Gnp {
        /// Vertex count.
        nodes: usize,
        /// Expected average degree (`p = avg_degree / n`).
        avg_degree: f64,
        /// Directed edges?
        directed: bool,
        /// Lifetime `a`.
        lifetime: Time,
        /// Uniform labels per edge.
        labels_per_edge: usize,
        /// Seed of the graph draw.
        seed: u64,
        /// Seed of the label draw.
        label_seed: u64,
    },
}

impl LoadSpec {
    /// Build the network this spec describes.
    ///
    /// # Errors
    /// When the spec is structurally invalid (endpoint out of range,
    /// label outside `1..=lifetime`, label/edge count mismatch).
    pub fn build(&self) -> Result<TemporalNetwork, String> {
        match self {
            LoadSpec::Explicit {
                nodes,
                directed,
                edges,
                labels,
                lifetime,
            } => {
                if labels.len() != edges.len() {
                    return Err(format!(
                        "{} edges but {} label lists",
                        edges.len(),
                        labels.len()
                    ));
                }
                let mut b = if *directed {
                    GraphBuilder::new_directed(*nodes)
                } else {
                    GraphBuilder::new_undirected(*nodes)
                };
                for &(u, v) in edges {
                    b.add_edge(u, v);
                }
                let graph = b.build().map_err(|e| e.to_string())?;
                let assignment = LabelAssignment::from_vecs(labels.clone())
                    .ok_or("every edge needs at least one label")?;
                TemporalNetwork::new(graph, assignment, *lifetime).map_err(|e| e.to_string())
            }
            LoadSpec::Gnp {
                nodes,
                avg_degree,
                directed,
                lifetime,
                labels_per_edge,
                seed,
                label_seed,
            } => {
                if *nodes == 0 || *labels_per_edge == 0 || *lifetime == 0 {
                    return Err("nodes, labels_per_edge and lifetime must be positive".into());
                }
                let p = (avg_degree / *nodes as f64).clamp(0.0, 1.0);
                let graph =
                    generators::gnp(*nodes, p, *directed, &mut SeedSequence::new(*seed).rng(1));
                // One bulk draw of every label, edge-major: the stream of
                // `labels_per_edge` draws per edge in edge order.
                let mut rng = SeedSequence::new(*label_seed).rng(2);
                let a = *lifetime;
                let mut assignment = LabelAssignment::default();
                let drawn =
                    assignment.refill_edge_major(graph.num_edges(), *labels_per_edge, |labels| {
                        rng.fill_range_u32(1, a, labels);
                    });
                debug_assert!(drawn, "labels are in 1..=lifetime");
                TemporalNetwork::new(graph, assignment, a).map_err(|e| e.to_string())
            }
        }
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn u32_field(obj: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(obj, key)?).map_err(|_| format!("field `{key}` overflows u32"))
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(u64_field(obj, key)?).map_err(|_| format!("field `{key}` overflows"))
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, String> {
    field(obj, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` must be a boolean"))
}

/// Parse one request line.
///
/// # Errors
/// A description of the first grammar violation (also the text of the
/// `"status":"error"` response).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let msg = parse(line)?;
    let op = str_field(&msg, "op")?;
    match op.as_str() {
        "load" => {
            let instance = str_field(&msg, "instance")?;
            let spec = if let Some(gnp) = msg.get("gnp") {
                LoadSpec::Gnp {
                    nodes: usize_field(gnp, "nodes")?,
                    avg_degree: field(gnp, "avg_degree")?
                        .as_f64()
                        .ok_or("field `avg_degree` must be a number")?,
                    directed: bool_field(&msg, "directed")?,
                    lifetime: u32_field(&msg, "lifetime")?,
                    labels_per_edge: usize_field(&msg, "labels_per_edge")?,
                    seed: u64_field(gnp, "seed")?,
                    label_seed: u64_field(&msg, "label_seed")?,
                }
            } else {
                let edges = field(&msg, "edges")?
                    .as_arr()
                    .ok_or("field `edges` must be an array")?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().filter(|p| p.len() == 2);
                        let uv = pair.and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?)));
                        let uv = uv.and_then(|(u, v)| {
                            Some((u32::try_from(u).ok()?, u32::try_from(v).ok()?))
                        });
                        uv.ok_or("each edge must be a [u, v] pair")
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let labels = field(&msg, "labels")?
                    .as_arr()
                    .ok_or("field `labels` must be an array")?
                    .iter()
                    .map(|per_edge| {
                        per_edge
                            .as_arr()
                            .ok_or("each label list must be an array")?
                            .iter()
                            .map(|t| {
                                t.as_u64()
                                    .and_then(|t| u32::try_from(t).ok())
                                    .ok_or("labels must be non-negative integers")
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                LoadSpec::Explicit {
                    nodes: usize_field(&msg, "nodes")?,
                    directed: bool_field(&msg, "directed")?,
                    edges,
                    labels,
                    lifetime: u32_field(&msg, "lifetime")?,
                }
            };
            Ok(Request::Load { instance, spec })
        }
        "query" => {
            let instance = str_field(&msg, "instance")?;
            let shape = str_field(&msg, "type")?;
            let query = match shape.as_str() {
                "reaches" => PointQuery::Reaches {
                    u: u32_field(&msg, "u")?,
                    v: u32_field(&msg, "v")?,
                    by: u32_field(&msg, "by")?,
                },
                "foremost" => PointQuery::Foremost {
                    u: u32_field(&msg, "u")?,
                    v: u32_field(&msg, "v")?,
                },
                "distance_row" => PointQuery::DistanceRow {
                    u: u32_field(&msg, "u")?,
                    horizon: match msg.get("horizon") {
                        Some(_) => u32_field(&msg, "horizon")?,
                        None => NEVER,
                    },
                },
                other => return Err(format!("unknown query type `{other}`")),
            };
            Ok(Request::Query { instance, query })
        }
        "move_label" => Ok(Request::MoveLabel {
            instance: str_field(&msg, "instance")?,
            edge: u32_field(&msg, "edge")?,
            from: u32_field(&msg, "from")?,
            to: u32_field(&msg, "to")?,
        }),
        "stats" => Ok(Request::Stats),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Render the `"status":"ok"` response to a query.
#[must_use]
pub fn render_answer(id: u64, answer: &PointAnswer) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\":{id},\"status\":\"ok\",\"op\":\"query\"");
    match answer {
        PointAnswer::Reaches { reached, arrival } => {
            let _ = write!(
                out,
                ",\"type\":\"reaches\",\"reached\":{reached},\"arrival\":"
            );
            push_time(&mut out, *arrival);
        }
        PointAnswer::Foremost(arrival) => {
            let _ = write!(out, ",\"type\":\"foremost\",\"arrival\":");
            push_time(&mut out, *arrival);
        }
        PointAnswer::DistanceRow(row) => {
            out.push_str(",\"type\":\"distance_row\",\"row\":[");
            for (i, &t) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_time(&mut out, (t != NEVER).then_some(t));
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

fn push_time(out: &mut String, t: Option<Time>) {
    match t {
        Some(t) => {
            let _ = write!(out, "{t}");
        }
        None => out.push_str("null"),
    }
}

/// Render the `"status":"ok"` response to a load.
#[must_use]
pub fn render_loaded(
    id: u64,
    instance: &str,
    nodes: usize,
    edges: usize,
    lifetime: Time,
    resident_bytes: usize,
    evicted: usize,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"id\":{id},\"status\":\"ok\",\"op\":\"load\",\"instance\":"
    );
    escape_into(&mut out, instance);
    let _ = write!(
        out,
        ",\"nodes\":{nodes},\"edges\":{edges},\"lifetime\":{lifetime},\
         \"resident_bytes\":{resident_bytes},\"evicted\":{evicted}}}"
    );
    out
}

/// Render the `"status":"ok"` response to a label move.
#[must_use]
pub fn render_moved(id: u64, applied: bool, replayed_buckets: usize) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"ok\",\"op\":\"move_label\",\"applied\":{applied},\
         \"replayed_buckets\":{replayed_buckets}}}"
    )
}

/// Server-wide counters reported by [`Request::Stats`], summed over
/// shards at a rendezvous — each shard reports after draining every
/// request that arrived before the stats request, so the numbers are
/// deterministic for a deterministic request stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Resident instances across all shard caches.
    pub instances: usize,
    /// Size-model bytes those instances pin.
    pub resident_bytes: usize,
    /// Queries that found their instance resident.
    pub hits: u64,
    /// Queries (and moves) addressing a non-resident instance.
    pub misses: u64,
    /// Instances evicted by the byte budget.
    pub evictions: u64,
    /// Point/row queries answered (including failed ones).
    pub queries: u64,
    /// Lane batches flushed.
    pub batches: u64,
    /// Queries quarantined as `"status":"failed"`.
    pub failed: u64,
}

impl ServeStats {
    /// Fold another shard's counters in.
    pub fn absorb(&mut self, other: &ServeStats) {
        self.instances += other.instances;
        self.resident_bytes += other.resident_bytes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.queries += other.queries;
        self.batches += other.batches;
        self.failed += other.failed;
    }

    /// Render the `"status":"ok"` stats response.
    #[must_use]
    pub fn render(&self, id: u64) -> String {
        format!(
            "{{\"id\":{id},\"status\":\"ok\",\"op\":\"stats\",\"instances\":{},\
             \"resident_bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"queries\":{},\"batches\":{},\"failed\":{}}}",
            self.instances,
            self.resident_bytes,
            self.hits,
            self.misses,
            self.evictions,
            self.queries,
            self.batches,
            self.failed,
        )
    }
}

/// Render a `"status":"error"` rejection.
#[must_use]
pub fn render_error(id: u64, error: &str) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\":{id},\"status\":\"error\",\"error\":");
    escape_into(&mut out, error);
    out.push('}');
    out
}

/// Render a `"status":"failed"` quarantine (accepted but poisoned).
#[must_use]
pub fn render_failed(id: u64, error: &str) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\":{id},\"status\":\"failed\",\"error\":");
    escape_into(&mut out, error);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let q =
            parse_request(r#"{"op":"query","instance":"g","type":"reaches","u":1,"v":2,"by":9}"#)
                .unwrap();
        assert_eq!(
            q,
            Request::Query {
                instance: "g".into(),
                query: PointQuery::Reaches { u: 1, v: 2, by: 9 }
            }
        );
        let row =
            parse_request(r#"{"op":"query","instance":"g","type":"distance_row","u":4}"#).unwrap();
        assert_eq!(
            row,
            Request::Query {
                instance: "g".into(),
                query: PointQuery::DistanceRow {
                    u: 4,
                    horizon: NEVER
                }
            }
        );
        let mv = parse_request(r#"{"op":"move_label","instance":"g","edge":3,"from":1,"to":2}"#)
            .unwrap();
        assert_eq!(
            mv,
            Request::MoveLabel {
                instance: "g".into(),
                edge: 3,
                from: 1,
                to: 2
            }
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
    }

    #[test]
    fn load_specs_build_networks() {
        let explicit = parse_request(
            r#"{"op":"load","instance":"p","nodes":3,"directed":false,
                "edges":[[0,1],[1,2]],"labels":[[1],[2]],"lifetime":2}"#,
        )
        .unwrap();
        let Request::Load { spec, .. } = explicit else {
            panic!("not a load")
        };
        let tn = spec.build().unwrap();
        assert_eq!(tn.num_nodes(), 3);
        assert_eq!(tn.graph().num_edges(), 2);

        let gnp = parse_request(
            r#"{"op":"load","instance":"g","gnp":{"nodes":64,"avg_degree":4.0,"seed":7},
                "directed":false,"lifetime":256,"labels_per_edge":2,"label_seed":3}"#,
        )
        .unwrap();
        let Request::Load { spec, .. } = gnp else {
            panic!("not a load")
        };
        let tn = spec.build().unwrap();
        assert_eq!(tn.num_nodes(), 64);
        assert!(tn.graph().num_edges() > 0);
        // Deterministic: the same spec builds the same network.
        let again = spec.build().unwrap();
        assert_eq!(tn.graph().num_edges(), again.graph().num_edges());
        assert_eq!(tn.labels(0), again.labels(0));
    }

    #[test]
    fn gnp_bulk_draw_equals_the_per_edge_construction() {
        // The per-edge `from_fn` build the bulk draw replaced: `r` draws
        // per edge in edge order, each edge's set sorted and deduplicated.
        for (nodes, directed, lifetime, r) in [
            (1usize, false, 5u32, 1usize),
            (64, false, 256, 2),
            (40, true, 3, 4),
            (50, false, 1, 3),
            (30, true, 17, 8),
        ] {
            let (seed, label_seed) = (nodes as u64, 11);
            let spec = LoadSpec::Gnp {
                nodes,
                avg_degree: 5.0,
                directed,
                lifetime,
                labels_per_edge: r,
                seed,
                label_seed,
            };
            let built = spec.build().unwrap();
            let p = (5.0 / nodes as f64).clamp(0.0, 1.0);
            let graph = generators::gnp(nodes, p, directed, &mut SeedSequence::new(seed).rng(1));
            let mut rng = SeedSequence::new(label_seed).rng(2);
            let want = LabelAssignment::from_fn(graph.num_edges(), |_| {
                (0..r).map(|_| rng.range_u32(1, lifetime)).collect()
            })
            .unwrap();
            assert_eq!(built.assignment(), &want, "n {nodes} r {r} a {lifetime}");
            assert_eq!(built.graph().num_edges(), graph.num_edges());
        }
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            "not json",
            r#"{"op":"warp"}"#,
            r#"{"op":"query","instance":"g","type":"reaches","u":1,"v":2}"#,
            r#"{"op":"query","instance":"g","type":"sideways","u":1}"#,
            r#"{"op":"load","instance":"x","nodes":2,"directed":false,"edges":[[0]],"labels":[[1]],"lifetime":1}"#,
            r#"{"op":"move_label","instance":"g","edge":-1,"from":1,"to":2}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn responses_render_compact_single_lines() {
        let r = render_answer(
            7,
            &PointAnswer::Reaches {
                reached: true,
                arrival: Some(4),
            },
        );
        assert_eq!(
            r,
            r#"{"id":7,"status":"ok","op":"query","type":"reaches","reached":true,"arrival":4}"#
        );
        let f = render_answer(8, &PointAnswer::Foremost(None));
        assert_eq!(
            f,
            r#"{"id":8,"status":"ok","op":"query","type":"foremost","arrival":null}"#
        );
        let row = render_answer(9, &PointAnswer::DistanceRow(vec![0, NEVER, 3]));
        assert_eq!(
            row,
            r#"{"id":9,"status":"ok","op":"query","type":"distance_row","row":[0,null,3]}"#
        );
        let e = render_error(1, "unknown instance \"zap\"");
        assert_eq!(
            e,
            r#"{"id":1,"status":"error","error":"unknown instance \"zap\""}"#
        );
        assert!(!render_failed(2, "injected fault").contains('\n'));
    }
}
