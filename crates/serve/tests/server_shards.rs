//! Shard-count invariance and differential oracles for the query
//! service: the same request script must produce the same transcript
//! byte for byte on 1, 2 and 8 shards, every query answer must match a
//! singleton (non-coalesced) [`QuerySession`] replay of the same
//! request stream, label moves on a resident instance must leave it
//! answer-equivalent to a cold rebuild with the moved labels, and the
//! TCP front must speak the exact same bytes as the stdin front, answer
//! each request at once, and outlive a client that resets its
//! connection.

use ephemeral_serve::protocol::{parse_request, render_answer, LoadSpec, Request};
use ephemeral_serve::server::{serve_lines, serve_listener, ServeConfig};
use ephemeral_temporal::session::QuerySession;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn cfg(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ..ServeConfig::default()
    }
}

fn run(script: &str, cfg: &ServeConfig) -> Vec<String> {
    let mut out = Vec::new();
    serve_lines(script.as_bytes(), &mut out, cfg).expect("in-memory io");
    String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// A mixed workload over three resident instances: interleaved shapes,
/// mid-stream label moves, one final stats request.
fn mixed_script() -> String {
    let mut script = String::new();
    script.push_str(
        "{\"op\":\"load\",\"instance\":\"path\",\"nodes\":6,\"directed\":false,\
         \"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5]],\
         \"labels\":[[1],[2,7],[3],[4,9],[5]],\"lifetime\":12}\n",
    );
    script.push_str(
        "{\"op\":\"load\",\"instance\":\"gnp-a\",\"gnp\":{\"nodes\":48,\"avg_degree\":3.5,\
         \"seed\":11},\"directed\":false,\"lifetime\":96,\"labels_per_edge\":2,\
         \"label_seed\":5}\n",
    );
    script.push_str(
        "{\"op\":\"load\",\"instance\":\"gnp-b\",\"gnp\":{\"nodes\":32,\"avg_degree\":4.0,\
         \"seed\":12},\"directed\":true,\"lifetime\":64,\"labels_per_edge\":1,\
         \"label_seed\":6}\n",
    );
    let sizes = [("path", 6u32), ("gnp-a", 48), ("gnp-b", 32)];
    for i in 0..60u32 {
        let (instance, n) = sizes[(i % 3) as usize];
        let u = (i * 7) % n;
        let v = (i * 13 + 3) % n;
        match i % 4 {
            0 => script.push_str(&format!(
                "{{\"op\":\"query\",\"instance\":\"{instance}\",\"type\":\"foremost\",\
                 \"u\":{u},\"v\":{v}}}\n"
            )),
            1 => script.push_str(&format!(
                "{{\"op\":\"query\",\"instance\":\"{instance}\",\"type\":\"reaches\",\
                 \"u\":{u},\"v\":{v},\"by\":{}}}\n",
                8 + i % 40
            )),
            2 => script.push_str(&format!(
                "{{\"op\":\"query\",\"instance\":\"{instance}\",\"type\":\"distance_row\",\
                 \"u\":{u}}}\n"
            )),
            _ => script.push_str(&format!(
                "{{\"op\":\"query\",\"instance\":\"{instance}\",\"type\":\"distance_row\",\
                 \"u\":{u},\"horizon\":{}}}\n",
                4 + i % 20
            )),
        }
        if i == 20 {
            script.push_str(
                "{\"op\":\"move_label\",\"instance\":\"path\",\"edge\":1,\"from\":7,\
                 \"to\":6}\n",
            );
        }
        if i == 40 {
            script.push_str(
                "{\"op\":\"move_label\",\"instance\":\"gnp-b\",\"edge\":0,\"from\":0,\
                 \"to\":1}\n",
            );
        }
    }
    script.push_str("{\"op\":\"stats\"}\n");
    script
}

#[test]
fn transcripts_are_byte_identical_across_shard_counts() {
    let script = mixed_script();
    let base = run(&script, &cfg(1));
    for shards in [2usize, 8] {
        let other = run(&script, &cfg(shards));
        assert_eq!(base.len(), other.len());
        for (a, b) in base.iter().zip(&other) {
            // Batch/hit counters legitimately depend on the shard
            // count; every answer line must not.
            if a.contains("\"op\":\"stats\"") {
                continue;
            }
            assert_eq!(a, b, "shards={shards}");
        }
    }
}

#[test]
fn coalesced_answers_match_a_singleton_session_replay() {
    let script = mixed_script();
    let served = run(&script, &cfg(4));
    // Oracle: replay the same request stream through uncoalesced
    // sessions, one query per call.
    let mut oracle: HashMap<String, QuerySession> = HashMap::new();
    let mut seq = 0u64;
    for line in script.lines().filter(|l| !l.trim().is_empty()) {
        match parse_request(line).expect("script is well-formed") {
            Request::Load { instance, spec } => {
                oracle.insert(instance, QuerySession::new(spec.build().unwrap()));
            }
            Request::MoveLabel {
                instance,
                edge,
                from,
                to,
            } => {
                oracle
                    .get_mut(&instance)
                    .unwrap()
                    .move_label(edge, from, to);
            }
            Request::Query { instance, query } => {
                let answer = oracle.get_mut(&instance).unwrap().answer(&query);
                assert_eq!(
                    served[seq as usize],
                    render_answer(seq, &answer),
                    "request {seq}: {line}"
                );
            }
            Request::Stats => {}
        }
        seq += 1;
    }
    assert!(seq > 60, "the script actually exercised the server");
}

#[test]
fn moved_resident_instance_answers_like_a_cold_rebuild() {
    // Mutate a resident gnp instance through the protocol, then compare
    // its answers with a cold explicit load of the post-move labels.
    let spec = LoadSpec::Gnp {
        nodes: 40,
        avg_degree: 3.0,
        directed: false,
        lifetime: 80,
        labels_per_edge: 2,
        seed: 21,
        label_seed: 22,
    };
    let tn = spec.build().unwrap();
    let mut reference = QuerySession::new(spec.build().unwrap());
    let edges = tn.graph().num_edges() as u32;

    let mut warm = String::new();
    warm.push_str(
        "{\"op\":\"load\",\"instance\":\"m\",\"gnp\":{\"nodes\":40,\"avg_degree\":3.0,\
         \"seed\":21},\"directed\":false,\"lifetime\":80,\"labels_per_edge\":2,\
         \"label_seed\":22}\n",
    );
    // One warm-up query records the delta cursor, then N moves replay
    // through it instead of rebuilding.
    warm.push_str("{\"op\":\"query\",\"instance\":\"m\",\"type\":\"distance_row\",\"u\":0}\n");
    let mut moved_any = false;
    for k in 0..10u32 {
        let e = (k * 5 + 1) % edges;
        let from = *reference
            .network()
            .labels(e)
            .first()
            .expect("every edge has a label");
        let to = 1 + (from + 11 + k) % 80;
        moved_any |= reference.move_label(e, from, to).is_some();
        warm.push_str(&format!(
            "{{\"op\":\"move_label\",\"instance\":\"m\",\"edge\":{e},\"from\":{from},\
             \"to\":{to}}}\n"
        ));
    }
    assert!(moved_any, "the move schedule touched the instance");
    for u in 0..40u32 {
        warm.push_str(&format!(
            "{{\"op\":\"query\",\"instance\":\"m\",\"type\":\"distance_row\",\"u\":{u}}}\n"
        ));
    }
    let warm_lines = run(&warm, &cfg(1));

    // Cold rebuild: explicit load of the reference's post-move labels.
    let mut cold = String::new();
    cold.push_str(
        "{\"op\":\"load\",\"instance\":\"m\",\"nodes\":40,\"directed\":false,\"edges\":[",
    );
    for e in 0..edges {
        if e > 0 {
            cold.push(',');
        }
        let (u, v) = reference.network().graph().endpoints(e);
        cold.push_str(&format!("[{u},{v}]"));
    }
    cold.push_str("],\"labels\":[");
    for e in 0..edges {
        if e > 0 {
            cold.push(',');
        }
        let labels: Vec<String> = reference
            .network()
            .labels(e)
            .iter()
            .map(ToString::to_string)
            .collect();
        cold.push_str(&format!("[{}]", labels.join(",")));
    }
    cold.push_str("],\"lifetime\":80}\n");
    for u in 0..40u32 {
        cold.push_str(&format!(
            "{{\"op\":\"query\",\"instance\":\"m\",\"type\":\"distance_row\",\"u\":{u}}}\n"
        ));
    }
    let cold_lines = run(&cold, &cfg(1));

    // Rows sit at the tail of both transcripts, ids differ (the warm
    // script spent ids on moves) — compare payload past the id.
    let payload = |line: &str| {
        line.split_once(',')
            .map(|(_, rest)| rest.to_string())
            .unwrap()
    };
    let warm_rows: Vec<_> = warm_lines[warm_lines.len() - 40..]
        .iter()
        .map(|l| payload(l))
        .collect();
    let cold_rows: Vec<_> = cold_lines[cold_lines.len() - 40..]
        .iter()
        .map(|l| payload(l))
        .collect();
    assert_eq!(warm_rows, cold_rows);
}

#[test]
fn tcp_front_speaks_the_same_bytes_as_stdin() {
    let script = mixed_script();
    let expected = run(&script, &cfg(2));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        serve_listener(&listener, &cfg(2), Some(1)).expect("serve one connection");
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(script.as_bytes()).expect("send script");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = String::new();
    BufReader::new(&mut stream)
        .read_to_string(&mut got)
        .expect("read transcript");
    server.join().expect("server thread");

    let got: Vec<String> = got.lines().map(str::to_string).collect();
    assert_eq!(expected.len(), got.len());
    for (a, b) in expected.iter().zip(&got) {
        if a.contains("\"op\":\"stats\"") {
            continue; // hit/batch counters may differ, answers may not
        }
        assert_eq!(a, b);
    }
}

/// A G(48) instance for the socket tests below.
const LOAD_G: &str = "{\"op\":\"load\",\"instance\":\"g\",\"gnp\":{\"nodes\":48,\
    \"avg_degree\":3.5,\"seed\":11},\"directed\":false,\"lifetime\":96,\
    \"labels_per_edge\":2,\"label_seed\":5}";

/// A single-shard server on a loopback port that serves `connections`
/// connections and then returns.
fn listen(connections: usize) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        serve_listener(&listener, &cfg(1), Some(connections)).expect("serve");
    });
    (addr, server)
}

#[test]
fn sequential_round_trips_are_answered_at_once() {
    // One request in flight at a time, as an interactive client sends
    // them. Any part of an answer left to Nagle's algorithm waits for the
    // client's delayed ACK, about 40 ms on Linux, which would stretch 50
    // round trips past two seconds.
    let (addr, server) = listen(1);
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("client TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    let mut writer = stream;
    let mut call = |request: &str| {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("receive");
        line
    };
    let loaded = call(LOAD_G);
    assert!(loaded.contains("\"status\":\"ok\""), "{loaded}");
    let started = Instant::now();
    for i in 0..50u32 {
        let (u, v) = ((i * 7) % 48, (i * 13 + 3) % 48);
        let answer = call(&format!(
            "{{\"op\":\"query\",\"instance\":\"g\",\"type\":\"foremost\",\"u\":{u},\"v\":{v}}}"
        ));
        assert!(answer.contains("\"status\":\"ok\""), "{answer}");
    }
    let elapsed = started.elapsed();
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    server.join().expect("server thread");
    assert!(
        elapsed < Duration::from_secs(1),
        "50 sequential round trips took {elapsed:?}"
    );
}

#[test]
fn a_client_that_resets_its_connection_does_not_end_the_server() {
    let (addr, server) = listen(2);

    // Thousands of row queries, then a close with their answers unread:
    // the kernel answers the server's next segment with a reset.
    let mut flood = format!("{LOAD_G}\n");
    for i in 0..3000u32 {
        flood.push_str(&format!(
            "{{\"op\":\"query\",\"instance\":\"g\",\"type\":\"distance_row\",\"u\":{}}}\n",
            i % 48
        ));
    }
    let mut rude = TcpStream::connect(addr).expect("connect");
    rude.write_all(flood.as_bytes()).expect("send the flood");
    rude.peek(&mut [0u8; 1]).expect("answers start to arrive");
    drop(rude);

    // The next connection is accepted and answered in full.
    let script = mixed_script();
    let expected = run(&script, &cfg(1));
    let mut stream = TcpStream::connect(addr).expect("connect again");
    stream.write_all(script.as_bytes()).expect("send script");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = String::new();
    stream.read_to_string(&mut got).expect("read transcript");
    server
        .join()
        .expect("the reset ended one connection, not the server");
    let got: Vec<&str> = got.lines().collect();
    assert_eq!(expected.len(), got.len());
    for (a, b) in expected.iter().zip(&got) {
        if a.contains("\"op\":\"stats\"") {
            continue; // batch counters follow the timing, answers may not
        }
        assert_eq!(a, b);
    }
}
