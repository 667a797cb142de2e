//! `serve-read` and `serve-write`: the release `experiments serve --tcp`
//! binary driven over loopback by one connection, so the protocol, the
//! server's threads and the socket are all inside the measured time.
//!
//! Both loads are closed loops: a fixed number of requests is in flight
//! and each answer releases the next request. Answers are checked after
//! the timed phase against the scalar `foremost` oracle run on the
//! harness's own copy of each instance, with the same label moves applied.

use crate::stats::{cpu_snapshot, median, peak_rss_mb, quantile, Report};
use crate::trace::Tracer;
use crate::Size;
use ephemeral_rng::{RandomSource, SeedSequence, Xoshiro256PlusPlus};
use ephemeral_serve::json::{parse, Json};
use ephemeral_serve::protocol::{parse_request, render_answer};
use ephemeral_serve::{LoadSpec, ServeStats};
use ephemeral_temporal::engine::MAX_LANES;
use ephemeral_temporal::foremost::foremost;
use ephemeral_temporal::session::{PointAnswer, PointQuery, QuerySession};
use ephemeral_temporal::{TemporalNetwork, Time, NEVER};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Server set-ups timed before the timed phase (after one untimed), between
/// its segments and after it, so the samples span the host's load over the
/// run; `setup_s` is their median.
const SETUPS: usize = 8;
/// The timed phase runs in this many segments, each `seconds / SEGMENTS`
/// long; the window drains between them while more set-ups are timed.
const SEGMENTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Read,
    Write,
}

/// The shape of one service workload at one size.
struct Plan {
    mode: Mode,
    /// Instance sizes, one instance each (the rotation order).
    sizes: Vec<usize>,
    /// Requests in flight on the connection.
    window: usize,
    /// serve-read: answers per timed unit; serve-write: requests per visit.
    per_unit: usize,
    /// `--budget-mb` for the server, or the default.
    budget_mb: Option<usize>,
    /// Every this many queries, the answer is kept and checked against
    /// the scalar oracle (the others have their status checked).
    check_every: usize,
}

impl Plan {
    /// Responses in one unit: answers (serve-read) or a rotation of
    /// visits, each a load plus `per_unit` requests (serve-write).
    fn requests_per_unit(&self) -> usize {
        match self.mode {
            Mode::Read => self.per_unit,
            Mode::Write => self.sizes.len() * (self.per_unit + 1),
        }
    }
}

fn plan(mode: Mode, size: Size) -> Plan {
    match (mode, size) {
        (Mode::Read, Size::Full) => Plan {
            mode,
            sizes: vec![4096],
            window: 64,
            per_unit: 1024,
            budget_mb: None,
            check_every: 1,
        },
        (Mode::Read, Size::Smoke) => Plan {
            mode,
            sizes: vec![512],
            window: 64,
            per_unit: 256,
            budget_mb: None,
            check_every: 1,
        },
        (Mode::Write, Size::Full) => Plan {
            mode,
            sizes: vec![4096, 8192, 16384, 4096, 8192, 16384],
            window: 1024,
            per_unit: 2048,
            budget_mb: Some(32),
            check_every: 64,
        },
        (Mode::Write, Size::Smoke) => Plan {
            mode,
            sizes: vec![256, 512, 1024, 256, 512, 1024],
            window: 64,
            per_unit: 128,
            budget_mb: Some(1),
            check_every: 1,
        },
    }
}

/// The corpus: `G(n, avg deg 4)` with `a = 4n`, one uniform label per
/// edge, graph and labels from seeds derived from the run seed.
pub fn corpus_spec(n: usize, seed: u64, index: usize) -> LoadSpec {
    let seq = SeedSequence::new(seed).child(0x5E4E);
    LoadSpec::Gnp {
        nodes: n,
        avg_degree: 4.0,
        directed: false,
        lifetime: 4 * n as Time,
        labels_per_edge: 1,
        // JSON numbers are exact only below 2^53.
        seed: seq.derive(2 * index as u64) >> 12,
        label_seed: seq.derive(2 * index as u64 + 1) >> 12,
    }
}

fn load_line(id: &str, spec: &LoadSpec) -> String {
    let LoadSpec::Gnp {
        nodes,
        avg_degree,
        directed,
        lifetime,
        labels_per_edge,
        seed,
        label_seed,
    } = spec
    else {
        unreachable!("the corpus is G(n, p)")
    };
    format!(
        "{{\"op\":\"load\",\"instance\":\"{id}\",\"gnp\":{{\"nodes\":{nodes},\"avg_degree\":{avg_degree:?},\"seed\":{seed}}},\"directed\":{directed},\"lifetime\":{lifetime},\"labels_per_edge\":{labels_per_edge},\"label_seed\":{label_seed}}}"
    )
}

/// One request of the stream, as the harness remembers it for checking.
#[derive(Debug, Clone)]
enum Req {
    Load {
        inst: usize,
    },
    Query {
        inst: usize,
        query: PointQuery,
    },
    Move {
        inst: usize,
        edge: u32,
        from: Time,
        to: Time,
    },
}

fn request_line(instance: &str, req: &Req, spec_line: &str) -> String {
    match req {
        Req::Load { .. } => spec_line.to_owned(),
        Req::Query { query, .. } => match *query {
            PointQuery::Foremost { u, v } => format!(
                "{{\"op\":\"query\",\"instance\":\"{instance}\",\"type\":\"foremost\",\"u\":{u},\"v\":{v}}}"
            ),
            PointQuery::Reaches { u, v, by } => format!(
                "{{\"op\":\"query\",\"instance\":\"{instance}\",\"type\":\"reaches\",\"u\":{u},\"v\":{v},\"by\":{by}}}"
            ),
            PointQuery::DistanceRow { u, .. } => format!(
                "{{\"op\":\"query\",\"instance\":\"{instance}\",\"type\":\"distance_row\",\"u\":{u}}}"
            ),
        },
        Req::Move { edge, from, to, .. } => format!(
            "{{\"op\":\"move_label\",\"instance\":\"{instance}\",\"edge\":{edge},\"from\":{from},\"to\":{to}}}"
        ),
    }
}

/// The request generator: instances, their pristine local copies, and
/// the per-visit streams (serve-write picks valid moves on a local copy
/// that follows the server's state).
struct Stream {
    plan: Plan,
    specs: Vec<LoadSpec>,
    ids: Vec<String>,
    load_lines: Vec<String>,
    pristine: Vec<TemporalNetwork>,
    rng: Xoshiro256PlusPlus,
}

impl Stream {
    fn new(plan: Plan, seed: u64) -> Result<Self, String> {
        let specs: Vec<LoadSpec> = plan
            .sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| corpus_spec(n, seed, i))
            .collect();
        let ids: Vec<String> = plan
            .sizes
            .iter()
            .enumerate()
            .map(|(i, n)| format!("g{i}n{n}"))
            .collect();
        let load_lines = ids
            .iter()
            .zip(&specs)
            .map(|(id, s)| load_line(id, s))
            .collect();
        let pristine = specs
            .iter()
            .map(LoadSpec::build)
            .collect::<Result<_, _>>()?;
        Ok(Self {
            plan,
            specs,
            ids,
            load_lines,
            pristine,
            rng: SeedSequence::new(seed).rng(0x57EA),
        })
    }

    /// A point query against instance `inst` (`u ≠ v`).
    fn point_query(&mut self, inst: usize) -> PointQuery {
        let n = self.pristine[inst].num_nodes() as u32;
        let u = self.rng.bounded_u32(n);
        let v = (u + 1 + self.rng.bounded_u32(n - 1)) % n;
        if self.rng.coin() {
            PointQuery::Foremost { u, v }
        } else {
            let a = self.pristine[inst].lifetime();
            PointQuery::Reaches {
                u,
                v,
                by: self.rng.range_u32(1, a),
            }
        }
    }

    /// One serve-write visit: re-load, then 90 % foremost, 5 % rows and
    /// 5 % valid label moves, chosen on a local copy of the instance.
    fn visit(&mut self, inst: usize) -> Vec<Req> {
        let mut local = self.pristine[inst].clone();
        let n = local.num_nodes() as u32;
        let m = local.graph().num_edges();
        let a = local.lifetime();
        let mut out = Vec::with_capacity(self.plan.per_unit + 1);
        out.push(Req::Load { inst });
        while out.len() <= self.plan.per_unit {
            let roll = self.rng.bounded_u32(100);
            if roll < 5 {
                out.push(Req::Query {
                    inst,
                    query: PointQuery::DistanceRow {
                        u: self.rng.bounded_u32(n),
                        horizon: NEVER,
                    },
                });
            } else if roll < 10 && m > 0 {
                let edge = self.rng.index(m) as u32;
                let from = local.labels(edge)[0];
                let to = self.rng.range_u32(1, a);
                if local.move_label(edge, from, to).is_some() {
                    out.push(Req::Move {
                        inst,
                        edge,
                        from,
                        to,
                    });
                }
            } else {
                let u = self.rng.bounded_u32(n);
                let v = (u + 1 + self.rng.bounded_u32(n - 1)) % n;
                out.push(Req::Query {
                    inst,
                    query: PointQuery::Foremost { u, v },
                });
            }
        }
        out
    }

    fn line(&self, req: &Req) -> String {
        let inst = match req {
            Req::Load { inst } | Req::Query { inst, .. } | Req::Move { inst, .. } => *inst,
        };
        request_line(&self.ids[inst], req, &self.load_lines[inst])
    }
}

/// A running `experiments serve --tcp` child, killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn spawn(exe: &Path, budget_mb: Option<usize>) -> Result<Self, String> {
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--tcp", "127.0.0.1:0"]);
        if let Some(mb) = budget_mb {
            cmd.args(["--budget-mb", &mb.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("server stderr: {e}"))?;
            if let Some(a) = line.strip_prefix("# serve: listening on ") {
                addr = Some(a.trim().to_owned());
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server exited before listening".into());
        };
        // Keep draining stderr so the server never blocks on it.
        let drain = std::thread::spawn(move || for _ in lines {});
        Ok(Self {
            child,
            addr,
            drain: Some(drain),
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One client connection with `TCP_NODELAY` set, so the client's own
/// writes are never held back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            reader,
            writer: BufWriter::with_capacity(1 << 16, stream),
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("flush: {e}"))
    }

    /// Flush pending writes unless more answers are already buffered.
    fn flush_if_idle(&mut self) -> Result<(), String> {
        if self.reader.buffer().is_empty() {
            self.flush()?;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<String, String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(self.line.trim_end().to_owned())
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.flush()?;
        self.recv()
    }
}

/// Everything one closed-loop phase saw.
#[derive(Default)]
struct Phase {
    /// Requests in send order, with the response lines kept for checking.
    log: Vec<(Req, Option<String>)>,
    /// Responses not kept whose status was not ok.
    bad_status: u64,
    /// Round-trip times of requests sent inside the timed window (ms).
    rtt_ms: Vec<f64>,
    /// Wall time of each completed unit (s), and the median and 99th
    /// percentile round trip of the answers received during it (ms).
    units: Vec<f64>,
    unit_p50_ms: Vec<f64>,
    unit_p99_ms: Vec<f64>,
    /// Answers received inside the timed window, and that window (s).
    timed_answers: usize,
    timed_s: f64,
    request_bytes: usize,
    response_bytes: usize,
}

impl Phase {
    /// Append a later segment of the same connection.
    fn absorb(&mut self, later: Phase) {
        self.log.extend(later.log);
        self.bad_status += later.bad_status;
        self.rtt_ms.extend(later.rtt_ms);
        self.units.extend(later.units);
        self.unit_p50_ms.extend(later.unit_p50_ms);
        self.unit_p99_ms.extend(later.unit_p99_ms);
        self.timed_answers += later.timed_answers;
        self.timed_s += later.timed_s;
        self.request_bytes += later.request_bytes;
        self.response_bytes += later.response_bytes;
    }
}

/// The closed-loop load generator on one connection: `window` requests
/// stay in flight, and each answer releases the next request.
struct LoadGen<'a> {
    conn: &'a mut Conn,
    stream: &'a mut Stream,
    seq: u64,
}

impl LoadGen<'_> {
    /// Run for `seconds` after `warm_units` untimed units (none: the timed
    /// window opens at once); returns the phase.
    fn run(
        &mut self,
        warm_units: usize,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let mode = self.stream.plan.mode;
        let window = self.stream.plan.window;
        let per_unit = self.stream.plan.per_unit;
        let rotation = self.stream.plan.sizes.len();
        let mut phase = Phase::default();
        // In-flight requests: (request, send time, sent in the timed window, span).
        let mut flight: VecDeque<(Req, Instant, bool, Option<usize>)> = VecDeque::new();
        let mut pending: VecDeque<Req> = VecDeque::new();
        let mut visits = 0usize;
        let mut answered_in_unit = 0usize;
        let mut warm_left = warm_units;
        let mut timed_start = (warm_units == 0).then(Instant::now);
        let mut unit_start = Instant::now();
        let mut unit_rtt: Vec<f64> = Vec::new();
        let mut queries_seen = 0usize;
        let mut stop = false;
        // serve-write: a unit is one rotation (one visit to every instance);
        // the marker is the last request of a rotation.
        let mut unit_end_markers: VecDeque<(u64, bool)> = VecDeque::new();
        loop {
            // Top up the window.
            while !stop && flight.len() < window {
                if pending.is_empty() {
                    match mode {
                        Mode::Read => pending.push_back(Req::Query {
                            inst: 0,
                            query: self.stream.point_query(0),
                        }),
                        Mode::Write => {
                            let inst = visits % rotation;
                            let reqs = self.stream.visit(inst);
                            visits += 1;
                            pending.extend(reqs);
                        }
                    }
                }
                let req = pending.pop_front().expect("refilled");
                let line = self.stream.line(&req);
                phase.request_bytes += line.len() + 1;
                self.conn.send(&line)?;
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("client.request", None, self.seq));
                let timed = timed_start.is_some();
                if mode == Mode::Write && pending.is_empty() && visits.is_multiple_of(rotation) {
                    unit_end_markers.push_back((self.seq, timed));
                }
                flight.push_back((req, Instant::now(), timed, span));
                self.seq += 1;
            }
            if flight.is_empty() {
                break;
            }
            self.conn.flush_if_idle()?;
            let resp = self.conn.recv()?;
            let now = Instant::now();
            phase.response_bytes += resp.len() + 1;
            let (req, sent, timed, span) = flight.pop_front().expect("in flight");
            let this_seq = self.seq - flight.len() as u64 - 1;
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.end(id);
            }
            if timed {
                let rtt = (now - sent).as_secs_f64() * 1e3;
                phase.rtt_ms.push(rtt);
                unit_rtt.push(rtt);
            }
            if timed_start.is_some() {
                phase.timed_answers += 1;
            }
            let keep = match req {
                Req::Query { .. } => {
                    let keep = queries_seen.is_multiple_of(self.stream.plan.check_every);
                    queries_seen += 1;
                    keep
                }
                _ => true,
            };
            if !keep && !resp.contains("\"status\":\"ok\"") {
                phase.bad_status += 1;
            }
            phase.log.push((req, keep.then_some(resp)));

            // Unit accounting.
            let unit_done = match mode {
                Mode::Read => {
                    answered_in_unit += 1;
                    answered_in_unit == per_unit
                }
                Mode::Write => {
                    let done = unit_end_markers
                        .front()
                        .is_some_and(|&(s, _)| s == this_seq);
                    if done {
                        unit_end_markers.pop_front();
                    }
                    done
                }
            };
            if unit_done {
                answered_in_unit = 0;
                if let Some(t0) = timed_start {
                    phase.units.push((now - unit_start).as_secs_f64());
                    phase.unit_p50_ms.push(quantile(&unit_rtt, 0.5));
                    phase.unit_p99_ms.push(quantile(&unit_rtt, 0.99));
                    unit_rtt.clear();
                    unit_start = now;
                    if (now - t0).as_secs_f64() >= seconds {
                        stop = true;
                        pending.clear();
                    }
                } else {
                    warm_left = warm_left.saturating_sub(1);
                }
                if timed_start.is_none() && warm_left == 0 {
                    // Warm-up over: the timed window opens with requests
                    // sent from now on.
                    timed_start = Some(now);
                    unit_start = now;
                    answered_in_unit = 0;
                    // serve-write rotations already queued belong to warm-up.
                    unit_end_markers.retain(|&(_, timed)| timed);
                }
            }
        }
        if let Some(t0) = timed_start {
            phase.timed_s = (Instant::now() - t0).as_secs_f64();
        }
        Ok(phase)
    }
}

fn answer_of(resp: &Json) -> Option<PointAnswer> {
    if resp.get("status")?.as_str()? != "ok" {
        return None;
    }
    let arrival = |j: &Json| -> Option<Option<Time>> {
        match j {
            Json::Null => Some(None),
            other => Some(Some(u32::try_from(other.as_u64()?).ok()?)),
        }
    };
    match resp.get("type")?.as_str()? {
        "foremost" => Some(PointAnswer::Foremost(arrival(resp.get("arrival")?)?)),
        "reaches" => Some(PointAnswer::Reaches {
            reached: resp.get("reached")?.as_bool()?,
            arrival: arrival(resp.get("arrival")?)?,
        }),
        "distance_row" => Some(PointAnswer::DistanceRow(
            resp.get("row")?
                .as_arr()?
                .iter()
                .map(|t| arrival(t).map(|a| a.unwrap_or(NEVER)))
                .collect::<Option<Vec<_>>>()?,
        )),
        _ => None,
    }
}

/// The oracle's answer from a scalar `foremost` row of `u`.
fn expected(query: &PointQuery, row: &[Time]) -> PointAnswer {
    match *query {
        PointQuery::Foremost { v, .. } => {
            let t = row[v as usize];
            PointAnswer::Foremost((t != NEVER).then_some(t))
        }
        PointQuery::Reaches { v, by, .. } => {
            let t = row[v as usize];
            let reached = t != NEVER && t <= by;
            PointAnswer::Reaches {
                reached,
                arrival: reached.then_some(t),
            }
        }
        PointQuery::DistanceRow { .. } => PointAnswer::DistanceRow(row.to_vec()),
    }
}

fn source_of(q: &PointQuery) -> u32 {
    match *q {
        PointQuery::Foremost { u, .. }
        | PointQuery::Reaches { u, .. }
        | PointQuery::DistanceRow { u, .. } => u,
    }
}

/// Check every kept response — status, id in arrival order, and the
/// answer against the scalar oracle — replaying loads and moves on local
/// copies. Responses not kept had their status checked while running.
/// Returns (checked, mismatched).
fn verify(
    stream: &Stream,
    log: &[(Req, Option<String>)],
    first_id: u64,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut checked = 0u64;
    let mut wrong = 0u64;
    let mut fail = |what: String, notes: &mut Vec<String>| {
        wrong += 1;
        if wrong <= 3 {
            notes.push(format!("serve check failed: {what}"));
        }
    };
    let mut local: Vec<TemporalNetwork> = stream.pristine.clone();
    // serve-read never moves labels: one oracle row per source suffices.
    let mut rows: BTreeMap<(usize, u32), Vec<Time>> = BTreeMap::new();
    for (k, (req, kept)) in log.iter().enumerate() {
        let Some(line) = kept else {
            // A query whose status was checked while running; moves and
            // loads are always kept.
            checked += 1;
            continue;
        };
        let Ok(resp) = parse(line) else {
            fail(format!("unparsable response {line:?}"), notes);
            checked += 1;
            continue;
        };
        let id_ok = resp.get("id").and_then(Json::as_u64) == Some(first_id + k as u64);
        match req {
            Req::Load { inst } => {
                local[*inst] = stream.pristine[*inst].clone();
                checked += 1;
                let ok = id_ok
                    && resp.get("status").and_then(Json::as_str) == Some("ok")
                    && resp.get("nodes").and_then(Json::as_u64)
                        == Some(local[*inst].num_nodes() as u64);
                if !ok {
                    fail(format!("load response {line}"), notes);
                }
            }
            Req::Move {
                inst,
                edge,
                from,
                to,
            } => {
                checked += 1;
                let applied = local[*inst].move_label(*edge, *from, *to).is_some();
                let ok =
                    id_ok && applied && resp.get("applied").and_then(Json::as_bool) == Some(true);
                if !ok {
                    fail(format!("move response {line}"), notes);
                }
            }
            Req::Query { inst, query } => {
                checked += 1;
                let u = source_of(query);
                let want = if stream.plan.mode == Mode::Read {
                    let row = rows
                        .entry((*inst, u))
                        .or_insert_with(|| foremost(&local[*inst], u, 0).arrivals().to_vec());
                    expected(query, row)
                } else {
                    expected(query, foremost(&local[*inst], u, 0).arrivals())
                };
                if !id_ok || answer_of(&resp).as_ref() != Some(&want) {
                    fail(format!("query {query:?} answered {line}"), notes);
                }
            }
        }
    }
    (checked, wrong)
}

fn stats_of(line: &str) -> Result<ServeStats, String> {
    let j = parse(line)?;
    let get = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats without {k}: {line}"))
    };
    Ok(ServeStats {
        instances: get("instances")? as usize,
        resident_bytes: get("resident_bytes")? as usize,
        hits: get("hits")?,
        misses: get("misses")?,
        evictions: get("evictions")?,
        queries: get("queries")?,
        batches: get("batches")?,
        failed: get("failed")?,
    })
}

/// Start a server, connect and load the first instance: one set-up.
fn setup_once(exe: &Path, stream: &Stream) -> Result<(Server, Conn, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(exe, stream.plan.budget_mb)?;
    let mut conn = Conn::open(&server.addr)?;
    let resp = conn.call(&stream.load_lines[0])?;
    let secs = t0.elapsed().as_secs_f64();
    if !resp.contains("\"status\":\"ok\"") {
        return Err(format!("first load failed: {resp}"));
    }
    Ok((server, conn, secs))
}

/// `count` set-ups in a row, each timed into `setups`; the last server
/// and connection are kept.
fn set_up(
    exe: &Path,
    stream: &Stream,
    count: usize,
    setups: &mut Vec<f64>,
) -> Result<(Server, Conn), String> {
    let mut live = setup_once(exe, stream)?;
    setups.push(live.2);
    for _ in 1..count {
        drop(live);
        live = setup_once(exe, stream)?;
        setups.push(live.2);
    }
    Ok((live.0, live.1))
}

/// Results of one measured session against a fresh server.
struct Session {
    phase: Phase,
    stats: ServeStats,
    rss_mb: f64,
    setups: Vec<f64>,
    first_id: u64,
}

fn measure(
    exe: &Path,
    mode: Mode,
    seed: u64,
    seconds: f64,
    size: Size,
    tracer: Option<&mut Tracer>,
) -> Result<(Session, Stream), String> {
    let mut stream = Stream::new(plan(mode, size), seed)?;
    // The first set-up is untimed: it pages the server binary in.
    drop(setup_once(exe, &stream)?);
    let mut setups = Vec::with_capacity((SEGMENTS + 1) * SETUPS);
    let (server, mut conn) = set_up(exe, &stream, SETUPS, &mut setups)?;
    // Request ids count every line on the connection, the first load included.
    let first_id = 1;
    let mut tracer = tracer;
    let mut phase = Phase::default();
    {
        let mut load = LoadGen {
            conn: &mut conn,
            stream: &mut stream,
            seq: first_id,
        };
        for k in 0..SEGMENTS {
            if k > 0 {
                drop(set_up(exe, load.stream, SETUPS, &mut setups)?);
            }
            let warm_units = usize::from(k == 0);
            let segment = seconds / SEGMENTS as f64;
            phase.absorb(load.run(warm_units, segment, tracer.as_deref_mut())?);
        }
    }
    let stats_id = first_id + phase.log.len() as u64;
    let stats_line = conn.call("{\"op\":\"stats\"}")?;
    if !stats_line.contains(&format!("\"id\":{stats_id},")) {
        return Err(format!("stats response out of order: {stats_line}"));
    }
    let stats = stats_of(&stats_line)?;
    let rss_mb = peak_rss_mb(&server.pid())?;
    drop(conn);
    drop(server);
    drop(set_up(exe, &stream, SETUPS, &mut setups)?);
    Ok((
        Session {
            phase,
            stats,
            rss_mb,
            setups,
            first_id,
        },
        stream,
    ))
}

/// Untraced run.
pub fn run(
    exe: &Path,
    mode: Mode,
    seed: u64,
    seconds: f64,
    size: Size,
    report: &mut Report,
) -> Result<(), String> {
    let cpu = cpu_snapshot();
    let (s, stream) = measure(exe, mode, seed, seconds, size, None)?;
    report.note(cpu.steal_note());
    let (checked, wrong) = verify(&stream, &s.phase.log, s.first_id, &mut report.notes);
    report.tally(checked, wrong + s.phase.bad_status);
    if s.stats.failed > 0 {
        report.note(format!("server quarantined {} requests", s.stats.failed));
        report.tally(0, s.stats.failed);
    }
    let rate = s.phase.timed_answers as f64 / s.phase.timed_s;
    report.note(format!(
        "set-ups (ms): {:.1?}",
        s.setups.iter().map(|t| t * 1e3).collect::<Vec<_>>()
    ));
    report.set("setup_s", median(&s.setups), "s", s.setups.len());
    report.set("unit_s", median(&s.phase.units), "s", s.phase.units.len());
    // Per-unit percentiles, then their median over the units: one slow
    // stretch of a run moves one unit, not the run's figure.
    report.set(
        "p50_ms",
        median(&s.phase.unit_p50_ms),
        "ms",
        s.phase.rtt_ms.len(),
    );
    report.set(
        "p99_ms",
        median(&s.phase.unit_p99_ms),
        "ms",
        s.phase.rtt_ms.len(),
    );
    report.set("peak_rss_mb", s.rss_mb, "MiB", 1);
    let (name, unit) = match mode {
        Mode::Read => ("read_qps", format!("{} answers", stream.plan.per_unit)),
        Mode::Write => (
            "write_rps",
            format!("one rotation of {} visits", stream.plan.sizes.len()),
        ),
    };
    report.note(format!(
        "{name} {rate:.1} per s over {:.2} s ({} answers); unit_s = {unit}; {} requests in flight; stats: {} queries in {} batches, {} evictions, hit rate {:.3}",
        s.phase.timed_s,
        s.phase.timed_answers,
        stream.plan.window,
        s.stats.queries,
        s.stats.batches,
        s.stats.evictions,
        s.stats.hits as f64 / (s.stats.hits + s.stats.misses).max(1) as f64
    ));
    Ok(())
}

/// In-process replay of a logged request stream through the service's
/// layers: parse, load, lane batches at the server's observed batch size,
/// rows, moves, render. Returns total layer seconds.
fn replay(
    stream: &Stream,
    log: &[(Req, Option<String>)],
    lanes_per_batch: usize,
    tr: &mut Tracer,
) -> f64 {
    let mut sessions: Vec<Option<QuerySession>> =
        (0..stream.pristine.len()).map(|_| None).collect();
    let mut total = 0.0;
    let mut before = ephemeral_temporal::session::SessionStats::default();
    let mut after_sum = ephemeral_temporal::session::SessionStats::default();
    let fold = |acc: &mut ephemeral_temporal::session::SessionStats,
                a: ephemeral_temporal::session::SessionStats,
                b: ephemeral_temporal::session::SessionStats| {
        acc.batches += a.batches - b.batches;
        acc.point_queries += a.point_queries - b.point_queries;
        acc.row_queries += a.row_queries - b.row_queries;
        acc.cursor_hits += a.cursor_hits - b.cursor_hits;
        acc.lane_passes += a.lane_passes - b.lane_passes;
        acc.dispatched_rows += a.dispatched_rows - b.dispatched_rows;
        acc.retired_early += a.retired_early - b.retired_early;
        acc.buckets_visited += a.buckets_visited - b.buckets_visited;
        acc.component_skips += a.component_skips - b.component_skips;
    };
    let mut k = 0usize;
    // serve-read logs carry no load: its one instance was loaded in set-up.
    if stream.plan.mode == Mode::Read {
        let (s, secs) = tr.time("protocol.load", None, 0, || {
            QuerySession::new(stream.specs[0].build().expect("corpus builds"))
        });
        total += secs;
        sessions[0] = Some(s);
    }
    while k < log.len() {
        match &log[k].0 {
            Req::Load { inst } => {
                if let Some(s) = sessions[*inst].take() {
                    fold(&mut after_sum, s.stats(), before);
                }
                let line = stream.line(&log[k].0);
                let (parsed, p) =
                    tr.time("protocol.parse", None, k as u64, || parse_request(&line));
                let spec = match parsed {
                    Ok(ephemeral_serve::Request::Load { spec, .. }) => spec,
                    _ => unreachable!("the harness sent a load"),
                };
                let (s, secs) = tr.time("protocol.load", None, k as u64, || {
                    QuerySession::new(spec.build().expect("corpus builds"))
                });
                total += p + secs;
                sessions[*inst] = Some(s);
                k += 1;
            }
            Req::Move {
                inst,
                edge,
                from,
                to,
            } => {
                let line = stream.line(&log[k].0);
                let (_, p) = tr.time("protocol.parse", None, k as u64, || parse_request(&line));
                let s = sessions[*inst].as_mut().expect("loaded");
                total += p;
                if !s.cursor_live() {
                    let (_, secs) = tr.time("session.record", None, k as u64, || s.record_cursor());
                    total += secs;
                }
                let (_, secs) = tr.time("session.move", None, k as u64, || {
                    s.move_label(*edge, *from, *to)
                });
                total += secs;
                k += 1;
            }
            Req::Query { inst, .. } => {
                // A run of consecutive queries to one instance, cut into
                // batches of the server's observed size; rows answer alone.
                let inst = *inst;
                let mut end = k;
                while end < log.len()
                    && end - k < lanes_per_batch
                    && matches!(&log[end].0, Req::Query { inst: i, query } if *i == inst && !matches!(query, PointQuery::DistanceRow { .. }))
                {
                    end += 1;
                }
                let s = sessions[inst].as_mut().expect("loaded");
                if end == k {
                    // A distance row.
                    let Req::Query { query, .. } = &log[k].0 else {
                        unreachable!()
                    };
                    let line = stream.line(&log[k].0);
                    let (_, p) = tr.time("protocol.parse", None, k as u64, || parse_request(&line));
                    let (ans, secs) = tr.time("session.row", None, k as u64, || s.answer(query));
                    let (_, r) = tr.time("protocol.render", None, k as u64, || {
                        render_answer(k as u64, &ans)
                    });
                    total += p + secs + r;
                    k += 1;
                    continue;
                }
                let lines: Vec<String> = log[k..end].iter().map(|(r, _)| stream.line(r)).collect();
                let (queries, p) = tr.time("protocol.parse", None, k as u64, || {
                    lines
                        .iter()
                        .map(|l| match parse_request(l) {
                            Ok(ephemeral_serve::Request::Query { query, .. }) => query,
                            _ => unreachable!("the harness sent a query"),
                        })
                        .collect::<Vec<_>>()
                });
                let (answers, secs) =
                    tr.time("session.batch", None, k as u64, || s.answer_batch(&queries));
                let (_, r) = tr.time("protocol.render", None, k as u64, || {
                    answers
                        .iter()
                        .enumerate()
                        .map(|(i, a)| render_answer((k + i) as u64, a).len())
                        .sum::<usize>()
                });
                total += p + secs + r;
                k = end;
            }
        }
    }
    for s in sessions.iter().flatten() {
        fold(&mut after_sum, s.stats(), before);
    }
    before = after_sum;
    tr.count("session.batches", before.batches as f64);
    tr.count("session.point_queries", before.point_queries as f64);
    tr.count("session.row_queries", before.row_queries as f64);
    tr.count("session.cursor_hits", before.cursor_hits as f64);
    tr.count("session.lane_passes", before.lane_passes as f64);
    tr.count("session.dispatched_rows", before.dispatched_rows as f64);
    tr.count("session.retired_early", before.retired_early as f64);
    tr.count("session.buckets_visited", before.buckets_visited as f64);
    tr.count("session.component_skips", before.component_skips as f64);
    total
}

/// Rows, a cursor record and label moves on the serve-read instance: its
/// stream has none, so these session metrics come from this short probe.
fn probe_rows_and_moves(stream: &Stream, tr: &mut Tracer) {
    let tn = stream.pristine[0].clone();
    let n = tn.num_nodes() as u32;
    let m = tn.graph().num_edges();
    let a = tn.lifetime();
    let mut rng = SeedSequence::new(0x9B0B).rng(0);
    let mut s = QuerySession::new(tn);
    for _ in 0..16 {
        let q = PointQuery::DistanceRow {
            u: rng.bounded_u32(n),
            horizon: NEVER,
        };
        let _ = tr.time("session.row", None, 0, || s.answer(&q));
    }
    let _ = tr.time("session.record", None, 0, || s.record_cursor());
    for _ in 0..16 {
        let e = rng.index(m) as u32;
        let from = s.network().labels(e)[0];
        let to = rng.range_u32(1, a);
        let _ = tr.time("session.move", None, 0, || s.move_label(e, from, to));
    }
}

fn mean_us(tr: &Tracer, name: &str) -> (f64, usize) {
    let (c, s) = tr.total(name);
    (s / c.max(1) as f64 * 1e6, c)
}

/// Traced run: an untraced session, a traced one (a span per request),
/// then the in-process replay of the traced stream. Fills the service
/// layer metrics; returns (overhead, coverage).
pub fn trace(
    exe: &Path,
    mode: Mode,
    seed: u64,
    seconds: f64,
    size: Size,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let (untraced, _) = measure(exe, mode, seed, seconds, size, None)?;
    let (traced, stream) = measure(exe, mode, seed, seconds, size, Some(tracer))?;
    let untraced_unit = median(&untraced.phase.units);
    let traced_unit = median(&traced.phase.units);
    let (checked, wrong) = verify(
        &stream,
        &traced.phase.log,
        traced.first_id,
        &mut report.notes,
    );
    report.tally(checked, wrong + traced.phase.bad_status);

    let st = traced.stats;
    let lanes_per_batch = st.queries as f64 / st.batches.max(1) as f64;
    let batch = (lanes_per_batch.round() as usize).clamp(1, MAX_LANES);
    let layer_s = replay(&stream, &traced.phase.log, batch, tracer);
    if mode == Mode::Read {
        probe_rows_and_moves(&stream, tracer);
    }
    // Instance builds at the three corpus sizes the service workloads load.
    for n in [4096usize, 8192, 16384] {
        let spec = corpus_spec(n, seed, 0);
        let (tn, secs) = tracer.time(&format!("protocol.load_n{n}"), None, 0, || {
            QuerySession::new(spec.build().expect("corpus builds"))
        });
        drop(tn);
        report.set(&format!("protocol.load_ms.n{n}"), secs * 1e3, "ms", 1);
    }

    let requests = traced.phase.log.len();
    let (parse_n, parse_s) = tracer.total("protocol.parse");
    let (_, render_s) = tracer.total("protocol.render");
    let answers = tracer.counter("session.point_queries") + tracer.counter("session.row_queries");
    let _ = parse_n;
    report.set(
        "protocol.parse_us",
        parse_s / requests.max(1) as f64 * 1e6,
        "us",
        requests,
    );
    report.set(
        "protocol.render_us",
        render_s / answers.max(1.0) * 1e6,
        "us",
        answers as usize,
    );
    report.set(
        "net.request_bytes",
        traced.phase.request_bytes as f64 / requests.max(1) as f64,
        "bytes",
        requests,
    );
    report.set(
        "net.response_bytes",
        traced.phase.response_bytes as f64 / requests.max(1) as f64,
        "bytes",
        requests,
    );

    let (batch_us, batches) = mean_us(tracer, "session.batch");
    report.set("session.batch_us", batch_us, "us", batches);
    let c = |k: &str| tracer.counter(k);
    let lanes = c("session.point_queries") + c("session.row_queries")
        - c("session.cursor_hits")
        - c("session.component_skips")
        - c("session.dispatched_rows");
    report.set(
        "session.lanes_per_pass",
        lanes / c("session.lane_passes").max(1.0),
        "count",
        c("session.lane_passes") as usize,
    );
    report.set(
        "session.retired_early_frac",
        c("session.retired_early") / lanes.max(1.0),
        "ratio",
        lanes as usize,
    );
    report.set(
        "session.component_skip_frac",
        c("session.component_skips") / c("session.point_queries").max(1.0),
        "ratio",
        c("session.point_queries") as usize,
    );
    report.set(
        "session.buckets_per_pass",
        c("session.buckets_visited") / c("session.lane_passes").max(1.0),
        "count",
        c("session.lane_passes") as usize,
    );
    report.set(
        "session.cursor_hit_frac",
        c("session.cursor_hits") / c("session.point_queries").max(1.0),
        "ratio",
        c("session.point_queries") as usize,
    );
    for (metric, span) in [
        ("session.row_us", "session.row"),
        ("session.move_us", "session.move"),
        ("session.record_us", "session.record"),
    ] {
        let (us, n) = mean_us(tracer, span);
        report.set(metric, us, "us", n);
    }

    report.set(
        "cache.hit_rate",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
        "ratio",
        (st.hits + st.misses) as usize,
    );
    report.set("cache.evictions", st.evictions as f64, "count", 1);
    report.set(
        "cache.resident_mb",
        st.resident_bytes as f64 / (1 << 20) as f64,
        "MiB",
        st.instances,
    );
    report.set(
        "serve.lanes_per_batch",
        lanes_per_batch,
        "count",
        st.batches as usize,
    );

    // Per request: the untraced unit time per request minus the in-process
    // layer time; the rest is threads, channels, the write path and the socket.
    let per_request_us = untraced_unit / stream.plan.requests_per_unit() as f64 * 1e6;
    let layer_us = layer_s / requests.max(1) as f64 * 1e6;
    report.set(
        "server.residual_us",
        per_request_us - layer_us,
        "us",
        requests,
    );
    report.note(format!(
        "{} trace: unit {untraced_unit:.4} s untraced, {traced_unit:.4} s traced; replayed {requests} requests at {batch} lanes per batch; in-process layers {layer_us:.2} us of {per_request_us:.2} us per request",
        if mode == Mode::Read { "serve-read" } else { "serve-write" }
    ));
    Ok((traced_unit / untraced_unit - 1.0, layer_us / per_request_us))
}
