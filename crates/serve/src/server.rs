//! The long-lived reachability service: reader → sharded workers → writer.
//!
//! One reader (the calling thread) parses JSON lines and routes each
//! request by `hash(instance) % shards` over an unbounded channel; each
//! shard worker owns a byte-budgeted [`InstanceCache`] of resident
//! [`QuerySession`]s and **coalesces** consecutive queries per instance
//! into lane batches of up to [`MAX_LANES`], flushed when a batch
//! fills, when a mutating request must order against it, or when the
//! shard's queue drains; one writer thread re-sequences answers into
//! arrival order. Because lane batching is pinned bit-identical to the
//! scalar oracle (`tests/session_proptests.rs` in `ephemeral-temporal`),
//! the transcript is byte-stable however the timing slices the batches —
//! the CI smoke test replays a script against a golden transcript and
//! `cmp`s.
//!
//! Answers leave in bursts. A shard hands each lane batch's rendered
//! answers to the writer as one message, and the writer collects lines
//! in one buffer that it flushes only when no further answer is ready,
//! so a burst goes out in one write and the last answer of a burst is
//! never held back waiting for more. [`serve_listener`] sets
//! `TCP_NODELAY` on every connection, so each flushed burst is sent at
//! once: with Nagle's algorithm on, a write issued while an earlier one
//! is still unacknowledged waits for the client's delayed ACK, about
//! 40 ms on Linux.
//!
//! Every batch runs inside `catch_unwind` with an optional
//! [`CancelToken`] deadline. A poisoned batch is degraded, not fatal:
//! the shard resets its engine scratch and replays each query alone, so
//! only the poisoned query answers `"status":"failed"` (the
//! `serve::query` failpoint in [`faults`] injects exactly this in CI).

use crate::cache::InstanceCache;
use crate::protocol::{
    parse_request, render_answer, render_error, render_failed, render_loaded, render_moved,
    Request, ServeStats,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use ephemeral_parallel::faults::{self, CancelReason, CancelToken};
use ephemeral_temporal::engine::MAX_LANES;
use ephemeral_temporal::session::{PointQuery, QuerySession};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, BufRead, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Tuning knobs of one server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Instance shards (each owns one cache and one worker thread).
    pub shards: usize,
    /// Byte budget per shard cache ([`crate::cache::DEFAULT_BYTE_BUDGET`]).
    pub byte_budget: usize,
    /// Wall-clock deadline per lane batch; a batch over it degrades to
    /// single-query replays and `"status":"failed"` quarantines.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            byte_budget: crate::cache::DEFAULT_BYTE_BUDGET,
            deadline: None,
        }
    }
}

/// What a finished [`serve_lines`] call saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines consumed (responses emitted).
    pub requests: u64,
    /// Final counters, summed over shards.
    pub stats: ServeStats,
}

/// Stable shard routing: FNV-1a over the instance id.
#[must_use]
pub fn shard_of(instance: &str, shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in instance.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Rendered answers handed to the writer in one message, each tagged
/// with its request sequence number: all of a lane batch's answers, or
/// a single answer to any other request.
type Answers = Vec<(u64, String)>;

enum ShardMsg {
    Req {
        seq: u64,
        req: Request,
    },
    /// Flush everything queued so far and report counters.
    Probe {
        reply: Sender<ServeStats>,
    },
}

/// Serve the line protocol from `input` to `output` until EOF.
/// Blocks the calling thread (it is the reader); shard workers and the
/// re-sequencing writer run on scoped threads.
///
/// # Errors
/// Only I/O errors propagate; protocol violations, a line that is not
/// UTF-8 included, are answered in-band with `"status":"error"` lines.
///
/// # Panics
/// If `cfg.shards == 0`.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    mut input: R,
    output: W,
    cfg: &ServeConfig,
) -> io::Result<ServeSummary> {
    assert!(cfg.shards >= 1, "at least one shard");
    let (out_tx, out_rx) = unbounded::<Answers>();
    let mut shard_txs: Vec<Sender<ShardMsg>> = Vec::with_capacity(cfg.shards);
    let mut shard_rxs: Vec<Receiver<ShardMsg>> = Vec::with_capacity(cfg.shards);
    for _ in 0..cfg.shards {
        let (tx, rx) = unbounded();
        shard_txs.push(tx);
        shard_rxs.push(rx);
    }
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || write_in_order(output, &out_rx));
        for rx in shard_rxs.drain(..) {
            let out = out_tx.clone();
            scope.spawn(move || shard_worker(&rx, &out, cfg));
        }

        let mut seq = 0u64;
        let mut read_error = None;
        let mut line = Vec::new();
        loop {
            line.clear();
            match input.read_until(b'\n', &mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
            // Strip `\n` or `\r\n`, as `BufRead::lines` does.
            if line.last() == Some(&b'\n') {
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
            }
            let parsed = match std::str::from_utf8(&line) {
                // Blank lines consume no sequence number.
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => parse_request(text),
                Err(_) => Err("request line is not valid UTF-8".to_owned()),
            };
            match parsed {
                Err(e) => {
                    let _ = out_tx.send(vec![(seq, render_error(seq, &e))]);
                }
                Ok(Request::Stats) => {
                    // Rendezvous: each shard drains everything that
                    // arrived before this request, then reports — the
                    // counters are deterministic for a deterministic
                    // request stream.
                    let stats = probe_all(&shard_txs, seq);
                    let _ = out_tx.send(vec![(seq, stats.render(seq))]);
                }
                Ok(req) => {
                    let shard = match &req {
                        Request::Load { instance, .. }
                        | Request::Query { instance, .. }
                        | Request::MoveLabel { instance, .. } => shard_of(instance, cfg.shards),
                        Request::Stats => unreachable!("handled above"),
                    };
                    let _ = shard_txs[shard].send(ShardMsg::Req { seq, req });
                }
            }
            seq += 1;
        }
        // Final rendezvous for the summary, then shut the pipeline down.
        let stats = probe_all(&shard_txs, seq);
        drop(shard_txs);
        drop(out_tx);
        let write_result = writer
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        if let Some(e) = read_error {
            return Err(e);
        }
        write_result?;
        Ok(ServeSummary {
            requests: seq,
            stats,
        })
    })
}

/// Flush every shard and sum their counters (`seq` orders the probe only
/// for diagnostics; the probe consumes no sequence number by itself).
fn probe_all(shard_txs: &[Sender<ShardMsg>], _seq: u64) -> ServeStats {
    let (reply_tx, reply_rx) = unbounded();
    for tx in shard_txs {
        let _ = tx.send(ShardMsg::Probe {
            reply: reply_tx.clone(),
        });
    }
    drop(reply_tx);
    let mut stats = ServeStats::default();
    while let Ok(shard) = reply_rx.recv() {
        stats.absorb(&shard);
    }
    stats
}

/// Writer thread: answers arrive tagged with their request sequence
/// number in completion order; emit them in **arrival** order. Lines
/// collect in one buffer that is flushed only when no further answer is
/// ready, so a burst leaves in one write and its last line never waits
/// for answers that have not been computed yet.
fn write_in_order<W: Write>(output: W, rx: &Receiver<Answers>) -> io::Result<()> {
    let mut output = BufWriter::new(output);
    let mut heap: BinaryHeap<Reverse<(u64, String)>> = BinaryHeap::new();
    let mut next = 0u64;
    let mut unflushed = false;
    loop {
        let answers = if let Some(answers) = rx.try_recv() {
            answers
        } else {
            // Nothing else ready: send what is buffered, then sleep.
            if unflushed {
                output.flush()?;
                unflushed = false;
            }
            match rx.recv() {
                Ok(answers) => answers,
                Err(_) => break,
            }
        };
        heap.extend(answers.into_iter().map(Reverse));
        while heap.peek().is_some_and(|Reverse((seq, _))| *seq == next) {
            let Reverse((_, line)) = heap.pop().expect("peeked");
            output.write_all(line.as_bytes())?;
            output.write_all(b"\n")?;
            next += 1;
            unflushed = true;
        }
    }
    // The channel only closes once every response was sent, so the heap
    // is drained (a hole would mean a request got no response).
    while let Some(Reverse((_, line))) = heap.pop() {
        output.write_all(line.as_bytes())?;
        output.write_all(b"\n")?;
    }
    output.flush()
}

/// One pending lane batch of queries against a single instance.
struct PendingBatch {
    instance: String,
    seqs: Vec<u64>,
    queries: Vec<PointQuery>,
}

/// Shard worker: drain the queue, coalescing runs of queries per
/// instance into lane batches; mutating requests flush first so FIFO
/// semantics hold per instance.
fn shard_worker(rx: &Receiver<ShardMsg>, out: &Sender<Answers>, cfg: &ServeConfig) {
    let mut cache = InstanceCache::new(cfg.byte_budget);
    let mut pending: Vec<PendingBatch> = Vec::new();
    let mut queries = 0u64;
    let mut batches = 0u64;
    let mut failed = 0u64;
    loop {
        let msg = if let Some(m) = rx.try_recv() {
            m
        } else {
            // Queue drained: answer what is buffered, then sleep.
            flush_all(
                &mut pending,
                &mut cache,
                out,
                cfg,
                &mut queries,
                &mut batches,
                &mut failed,
            );
            match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            }
        };
        match msg {
            ShardMsg::Probe { reply } => {
                flush_all(
                    &mut pending,
                    &mut cache,
                    out,
                    cfg,
                    &mut queries,
                    &mut batches,
                    &mut failed,
                );
                let c = cache.stats();
                let _ = reply.send(ServeStats {
                    instances: c.instances,
                    resident_bytes: c.resident_bytes,
                    hits: c.hits,
                    misses: c.misses,
                    evictions: c.evictions,
                    queries,
                    batches,
                    failed,
                });
            }
            ShardMsg::Req { seq, req } => match req {
                Request::Query { instance, query } => {
                    let batch = match pending.iter_mut().find(|b| b.instance == instance) {
                        Some(b) => b,
                        None => {
                            pending.push(PendingBatch {
                                instance,
                                seqs: Vec::with_capacity(MAX_LANES),
                                queries: Vec::with_capacity(MAX_LANES),
                            });
                            pending.last_mut().expect("just pushed")
                        }
                    };
                    batch.seqs.push(seq);
                    batch.queries.push(query);
                    if batch.queries.len() == MAX_LANES {
                        let full = pending.swap_remove(
                            pending
                                .iter()
                                .position(|b| b.queries.len() == MAX_LANES)
                                .expect("full"),
                        );
                        flush_batch(
                            full,
                            &mut cache,
                            out,
                            cfg,
                            &mut queries,
                            &mut batches,
                            &mut failed,
                        );
                    }
                }
                Request::Load { instance, spec } => {
                    // Loading may evict arbitrary residents: order every
                    // buffered query before it.
                    flush_all(
                        &mut pending,
                        &mut cache,
                        out,
                        cfg,
                        &mut queries,
                        &mut batches,
                        &mut failed,
                    );
                    let built = catch_unwind(AssertUnwindSafe(|| spec.build()));
                    match built {
                        Ok(Ok(tn)) => {
                            let session = QuerySession::new(tn);
                            let (nodes, edges, lifetime) = (
                                session.num_nodes(),
                                session.network().graph().num_edges(),
                                session.network().lifetime(),
                            );
                            let bytes = session.resident_bytes();
                            let evicted = cache.insert(&instance, session);
                            let _ = out.send(vec![(
                                seq,
                                render_loaded(
                                    seq, &instance, nodes, edges, lifetime, bytes, evicted,
                                ),
                            )]);
                        }
                        Ok(Err(e)) => {
                            let _ = out.send(vec![(seq, render_error(seq, &e))]);
                        }
                        Err(panic) => {
                            failed += 1;
                            let _ =
                                out.send(vec![(seq, render_failed(seq, &describe_panic(&panic)))]);
                        }
                    }
                }
                Request::MoveLabel {
                    instance,
                    edge,
                    from,
                    to,
                } => {
                    // The cursor growth may evict others on reaccount:
                    // same ordering rule as a load.
                    flush_all(
                        &mut pending,
                        &mut cache,
                        out,
                        cfg,
                        &mut queries,
                        &mut batches,
                        &mut failed,
                    );
                    let Some(session) = cache.session(&instance) else {
                        let _ = out.send(vec![(
                            seq,
                            render_error(seq, &format!("unknown instance {instance:?}")),
                        )]);
                        continue;
                    };
                    if (edge as usize) >= session.network().graph().num_edges() {
                        let _ = out.send(vec![(
                            seq,
                            render_error(seq, &format!("edge {edge} out of range")),
                        )]);
                        continue;
                    }
                    let moved =
                        catch_unwind(AssertUnwindSafe(|| session.move_label(edge, from, to)));
                    match moved {
                        Ok(Some(apply)) => {
                            let _ = out
                                .send(vec![(seq, render_moved(seq, true, apply.replayed_buckets))]);
                            cache.reaccount(&instance);
                        }
                        Ok(None) => {
                            let _ = out.send(vec![(seq, render_moved(seq, false, 0))]);
                        }
                        Err(panic) => {
                            // The network's own move completed or never
                            // started; only the memoized log and engine
                            // buffers are suspect.
                            session.invalidate_cursor();
                            session.reset_scratch();
                            failed += 1;
                            let _ =
                                out.send(vec![(seq, render_failed(seq, &describe_panic(&panic)))]);
                        }
                    }
                }
                Request::Stats => unreachable!("stats never routes to a shard"),
            },
        }
    }
    flush_all(
        &mut pending,
        &mut cache,
        out,
        cfg,
        &mut queries,
        &mut batches,
        &mut failed,
    );
}

#[allow(clippy::too_many_arguments)]
fn flush_all(
    pending: &mut Vec<PendingBatch>,
    cache: &mut InstanceCache,
    out: &Sender<Answers>,
    cfg: &ServeConfig,
    queries: &mut u64,
    batches: &mut u64,
    failed: &mut u64,
) {
    for batch in pending.drain(..) {
        flush_batch(batch, cache, out, cfg, queries, batches, failed);
    }
}

#[allow(clippy::too_many_arguments)]
fn flush_batch(
    batch: PendingBatch,
    cache: &mut InstanceCache,
    out: &Sender<Answers>,
    cfg: &ServeConfig,
    queries: &mut u64,
    batches: &mut u64,
    failed: &mut u64,
) {
    *batches += 1;
    *queries += batch.seqs.len() as u64;
    let mut answers = Answers::with_capacity(batch.seqs.len());
    let Some(session) = cache.session(&batch.instance) else {
        for &seq in &batch.seqs {
            answers.push((
                seq,
                render_error(seq, &format!("unknown instance {:?}", batch.instance)),
            ));
        }
        let _ = out.send(answers);
        return;
    };
    // Range-check before packing lanes: one bad vertex must reject that
    // query, not poison the batch.
    let n = session.num_nodes() as u32;
    let mut seqs = Vec::with_capacity(batch.seqs.len());
    let mut lanes = Vec::with_capacity(batch.queries.len());
    for (&seq, &query) in batch.seqs.iter().zip(&batch.queries) {
        let bad = match query {
            PointQuery::Reaches { u, v, .. } | PointQuery::Foremost { u, v } => {
                (u >= n).then_some(u).or((v >= n).then_some(v))
            }
            PointQuery::DistanceRow { u, .. } => (u >= n).then_some(u),
        };
        if let Some(vertex) = bad {
            answers.push((
                seq,
                render_error(seq, &format!("vertex {vertex} out of range (n = {n})")),
            ));
        } else {
            seqs.push(seq);
            lanes.push(query);
        }
    }
    run_queries(session, &seqs, &lanes, &mut answers, cfg, failed);
    let _ = out.send(answers);
}

/// Run one lane batch under panic isolation and the optional deadline,
/// appending its rendered answers to `answers`. A poisoned batch resets
/// the engine scratch and replays each query alone, so only the poisoned
/// one quarantines.
fn run_queries(
    session: &mut QuerySession,
    seqs: &[u64],
    lanes: &[PointQuery],
    answers: &mut Answers,
    cfg: &ServeConfig,
    failed: &mut u64,
) {
    if seqs.is_empty() {
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(d) = cfg.deadline {
            session.set_cancel_token(Some(CancelToken::with_deadline(d)));
        }
        for &seq in seqs {
            faults::hit(faults::site::SERVE_QUERY, seq);
        }
        let batch = session.answer_batch(lanes);
        session.set_cancel_token(None);
        batch
    }));
    match outcome {
        Ok(batch) => {
            for (&seq, answer) in seqs.iter().zip(&batch) {
                answers.push((seq, render_answer(seq, answer)));
            }
        }
        Err(panic) => {
            // Engine buffers may be mid-sweep: replace them wholesale
            // (the resident network itself is untouched by queries).
            session.set_cancel_token(None);
            session.reset_scratch();
            if seqs.len() == 1 {
                *failed += 1;
                answers.push((seqs[0], render_failed(seqs[0], &describe_panic(&panic))));
            } else {
                for (&seq, &query) in seqs.iter().zip(lanes) {
                    run_queries(session, &[seq], &[query], answers, cfg, failed);
                }
            }
        }
    }
}

fn describe_panic(payload: &Box<dyn Any + Send>) -> String {
    if let Some(f) = faults::injected_fault(payload.as_ref()) {
        // Deliberately attempt-free: the same fault must render the
        // same bytes whether it fired in a batch or in its lone replay.
        return format!("injected fault at {} (key {})", f.site, f.key);
    }
    if let Some(reason) = faults::cancel_reason(payload.as_ref()) {
        return match reason {
            CancelReason::TimedOut => "batch deadline exceeded".to_string(),
            CancelReason::Requested => "batch cancelled".to_string(),
        };
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "panic".to_string()
}

/// Serve `connections` TCP connections (all of them when `None`), one
/// at a time, each speaking the same line protocol as stdin.
///
/// A connection that fails — a client that resets it with answers
/// unread, say — ends alone: its error is reported on stderr and the
/// next connection is accepted. It still counts towards `connections`.
///
/// # Errors
/// Accept errors propagate.
pub fn serve_listener(
    listener: &TcpListener,
    cfg: &ServeConfig,
    connections: Option<usize>,
) -> io::Result<()> {
    let mut served = 0usize;
    while connections.is_none_or(|k| served < k) {
        let (stream, peer) = listener.accept()?;
        if let Err(e) = serve_connection(stream, cfg) {
            eprintln!("# serve: connection from {peer} ended: {e}");
        }
        served += 1;
    }
    Ok(())
}

/// One accepted connection. `TCP_NODELAY` sends every flushed burst at
/// once instead of holding it behind an unacknowledged earlier write.
fn serve_connection(stream: TcpStream, cfg: &ServeConfig) -> io::Result<ServeSummary> {
    stream.set_nodelay(true)?;
    let reader = io::BufReader::new(stream.try_clone()?);
    serve_lines(reader, stream, cfg)
}

/// Serve stdin → stdout until EOF (the `experiments serve` default).
///
/// # Errors
/// Read/write errors propagate.
pub fn run_stdin(cfg: &ServeConfig) -> io::Result<ServeSummary> {
    let stdin = io::stdin();
    serve_lines(stdin.lock(), io::stdout(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_script(script: impl AsRef<[u8]>, cfg: &ServeConfig) -> (Vec<String>, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve_lines(script.as_ref(), &mut out, cfg).expect("in-memory io");
        let text = String::from_utf8(out).expect("utf8 output");
        (text.lines().map(str::to_string).collect(), summary)
    }

    const PATH3: &str = r#"{"op":"load","instance":"p","nodes":3,"directed":false,"edges":[[0,1],[1,2]],"labels":[[1],[2]],"lifetime":2}"#;

    #[test]
    fn loads_queries_and_answers_in_arrival_order() {
        let script = format!(
            "{PATH3}\n\
             {{\"op\":\"query\",\"instance\":\"p\",\"type\":\"foremost\",\"u\":0,\"v\":2}}\n\
             {{\"op\":\"query\",\"instance\":\"p\",\"type\":\"reaches\",\"u\":0,\"v\":2,\"by\":1}}\n\
             {{\"op\":\"query\",\"instance\":\"p\",\"type\":\"distance_row\",\"u\":1}}\n\
             {{\"op\":\"stats\"}}\n"
        );
        let (lines, summary) = serve_script(&script, &ServeConfig::default());
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with(r#"{"id":0,"status":"ok","op":"load","instance":"p""#));
        assert_eq!(
            lines[1],
            r#"{"id":1,"status":"ok","op":"query","type":"foremost","arrival":2}"#
        );
        assert_eq!(
            lines[2],
            r#"{"id":2,"status":"ok","op":"query","type":"reaches","reached":false,"arrival":null}"#
        );
        assert_eq!(
            lines[3],
            r#"{"id":3,"status":"ok","op":"query","type":"distance_row","row":[1,0,2]}"#
        );
        assert!(lines[4].contains(r#""op":"stats""#));
        assert!(lines[4].contains(r#""queries":3"#), "{}", lines[4]);
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.stats.queries, 3);
        assert_eq!(summary.stats.failed, 0);
        assert_eq!(summary.stats.instances, 1);
    }

    #[test]
    fn rejections_are_in_band_and_do_not_stall_the_stream() {
        let mut script = format!(
            "this is not json\n\
             {{\"op\":\"query\",\"instance\":\"ghost\",\"type\":\"foremost\",\"u\":0,\"v\":1}}\n\
             {PATH3}\n\
             {{\"op\":\"query\",\"instance\":\"p\",\"type\":\"foremost\",\"u\":9,\"v\":0}}\n\
             {{\"op\":\"move_label\",\"instance\":\"p\",\"edge\":7,\"from\":1,\"to\":2}}\n"
        )
        .into_bytes();
        script.extend_from_slice(b"{\"op\":\"st\xFFats\"}\n");
        script.extend_from_slice(
            b"{\"op\":\"query\",\"instance\":\"p\",\"type\":\"foremost\",\"u\":0,\"v\":1}\n",
        );
        let (lines, summary) = serve_script(&script, &ServeConfig::default());
        assert_eq!(lines.len(), 7);
        assert!(lines[0].starts_with(r#"{"id":0,"status":"error""#));
        assert_eq!(
            lines[1],
            r#"{"id":1,"status":"error","error":"unknown instance \"ghost\""}"#
        );
        assert!(lines[3].contains("vertex 9 out of range (n = 3)"));
        assert!(lines[4].contains("edge 7 out of range"));
        assert_eq!(
            lines[5],
            r#"{"id":5,"status":"error","error":"request line is not valid UTF-8"}"#
        );
        assert_eq!(
            lines[6],
            r#"{"id":6,"status":"ok","op":"query","type":"foremost","arrival":1}"#
        );
        assert_eq!(summary.stats.failed, 0);
        assert_eq!(summary.stats.misses, 1);
    }

    #[test]
    fn a_line_nested_too_deep_is_rejected_and_the_next_request_answers() {
        // 200,000 open brackets would overflow the reader's stack in an
        // unbounded recursive descent and abort the process.
        let script = format!(
            "{PATH3}\n{}\n\
             {{\"op\":\"query\",\"instance\":\"p\",\"type\":\"foremost\",\"u\":0,\"v\":2}}\n",
            "[".repeat(200_000)
        );
        let (lines, summary) = serve_script(&script, &ServeConfig::default());
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            r#"{"id":1,"status":"error","error":"nesting deeper than 64 at byte 64"}"#
        );
        assert_eq!(
            lines[2],
            r#"{"id":2,"status":"ok","op":"query","type":"foremost","arrival":2}"#
        );
        assert_eq!(summary.stats.failed, 0);
    }

    #[test]
    fn moves_apply_through_the_resident_cursor() {
        let script = format!(
            "{PATH3}\n\
             {{\"op\":\"query\",\"instance\":\"p\",\"type\":\"foremost\",\"u\":0,\"v\":2}}\n\
             {{\"op\":\"move_label\",\"instance\":\"p\",\"edge\":0,\"from\":1,\"to\":2}}\n\
             {{\"op\":\"query\",\"instance\":\"p\",\"type\":\"foremost\",\"u\":0,\"v\":2}}\n\
             {{\"op\":\"move_label\",\"instance\":\"p\",\"edge\":0,\"from\":2,\"to\":1}}\n\
             {{\"op\":\"query\",\"instance\":\"p\",\"type\":\"foremost\",\"u\":0,\"v\":2}}\n"
        );
        let (lines, _) = serve_script(&script, &ServeConfig::default());
        assert_eq!(
            lines[1],
            r#"{"id":1,"status":"ok","op":"query","type":"foremost","arrival":2}"#
        );
        assert!(lines[2].contains(r#""applied":true"#));
        // Labels 2,2 on a path need strict increase: 0 can no longer
        // reach 2.
        assert_eq!(
            lines[3],
            r#"{"id":3,"status":"ok","op":"query","type":"foremost","arrival":null}"#
        );
        // Moving it back restores the original answer bit-for-bit
        // (modulo the request id).
        assert_eq!(
            lines[5],
            r#"{"id":5,"status":"ok","op":"query","type":"foremost","arrival":2}"#
        );
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 8] {
            for id in ["a", "b", "corpus-7", ""] {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards), "routing is a pure function");
            }
        }
    }
}
