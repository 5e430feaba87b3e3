//! Live-socket tests of the HTTP SPARQL endpoint: every status code the
//! serving boundary promises (200/400/404/408/413; the 500 of a contained
//! panic is `service.rs`'s unit test), hostile request heads getting an
//! answer or a clean close, concurrent clients getting bit-identical
//! answers, `/metrics` exposing the registry in valid Prometheus text, and
//! `profile=1` attaching a consistent span tree.

use cliquesquare_mapreduce::{Cluster, ClusterConfig, Runtime};
use cliquesquare_obs::json::{push_escaped, push_strings};
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale, Term};
use cliquesquare_server::http::render_answer;
use cliquesquare_server::{HttpServer, QueryAnswer, QueryService, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

struct LiveServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.handle.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn start_server(config: ServerConfig) -> LiveServer {
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    let service = Arc::new(QueryService::new(cluster, Runtime::serving(2)));
    let server = HttpServer::bind(service, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || {
        server.serve().expect("serve");
    });
    LiveServer {
        addr,
        handle,
        thread: Some(thread),
    }
}

/// Sends one raw HTTP request and returns `(status, body)`.
fn request(addr: SocketAddr, raw: impl AsRef<[u8]>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_ref()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    request(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn post_sparql(addr: SocketAddr, query: &str) -> (u16, String) {
    request(
        addr,
        format!(
            "POST /sparql HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            query.len(),
            query
        ),
    )
}

#[test]
fn the_endpoint_serves_every_promised_status_code() {
    let server = start_server(ServerConfig {
        max_request_bytes: 4096,
        ..ServerConfig::default()
    });
    let addr = server.addr;

    // 200: liveness.
    let (status, body) = get(addr, "/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""));

    // 200: a named catalog query.
    let (status, body) = get(addr, "/query?name=Q1");
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"query\": \"Q1\""));
    assert!(body.contains("\"total_rows\""));

    // 200: ad-hoc SPARQL via POST.
    let (status, body) = post_sparql(
        addr,
        "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
    );
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"rows\""));

    // 200: ad-hoc SPARQL percent-encoded in the URL.
    let (status, _) = get(
        addr,
        "/sparql?query=SELECT%20%3Fx%20%3Fy%20WHERE%20%7B%20%3Fx%20ub%3Aadvisor%20%3Fy%20%7D",
    );
    assert_eq!(status, 200);

    // 400: malformed SPARQL.
    let (status, body) = post_sparql(addr, "SELECT WHERE oops {");
    assert_eq!(status, 400);
    assert!(body.contains("malformed query"));

    // 400: a Content-Length with a sign, though it equals the valid body's
    // length: the header is `1*DIGIT`.
    let query = "SELECT ?x ?y WHERE { ?x ub:advisor ?y }";
    let (status, body) = request(
        addr,
        format!(
            "POST /sparql HTTP/1.1\r\nContent-Length: +{}\r\n\r\n{query}",
            query.len()
        ),
    );
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("Content-Length"), "body: {body}");
    assert_eq!(get(addr, "/health").0, 200);

    // 400: two Content-Length headers that differ leave the body's end
    // unknown (RFC 9112 §6.3); equal duplicates are one length.
    let conflicting = format!(
        "POST /sparql HTTP/1.1\r\nContent-Length: {}\r\nContent-Length: 40\r\n\r\n{query}",
        query.len()
    );
    let (status, body) = request(addr, conflicting);
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("conflicting Content-Length"), "body: {body}");
    let repeated = format!(
        "POST /sparql HTTP/1.1\r\nContent-Length: {0}\r\nContent-Length: {0}\r\n\r\n{query}",
        query.len()
    );
    assert_eq!(request(addr, repeated).0, 200);

    // 404: unknown query name, unknown path — each named for what it is.
    let (status, body) = get(addr, "/query?name=Q99");
    assert_eq!(status, 404);
    assert!(body.contains("unknown query name"));
    let (status, body) = get(addr, "/nope");
    assert_eq!(status, 404);
    assert!(body.contains("unknown path: \\\"/nope\\\""), "body: {body}");

    // 405: a known path with a method it is not served with, and the
    // methods it is served with in `Allow`.
    for (head, allow) in [
        ("POST /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "GET"),
        ("DELETE /sparql HTTP/1.1\r\n\r\n", "GET, POST"),
    ] {
        let response = raw_request(addr, head);
        assert!(
            response.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{response}"
        );
        assert!(
            response.contains(&format!("\r\nAllow: {allow}\r\n")),
            "{response}"
        );
        assert!(response.contains("not allowed"), "{response}");
    }

    // 413: a body larger than the configured limit is rejected up front.
    let oversized = "x".repeat(8192);
    let (status, body) = post_sparql(addr, &oversized);
    assert_eq!(status, 413);
    assert!(body.contains("exceeds"));

    // 413: a declared length that would wrap `head + body` past the limit
    // is rejected, not allocated; the server keeps answering.
    let (status, body) = request(
        addr,
        "POST /sparql HTTP/1.1\r\nHost: test\r\nContent-Length: 18446744073709551615\r\n\r\n",
    );
    assert_eq!(status, 413, "body: {body}");
    assert_eq!(get(addr, "/health").0, 200);

    // 413: a request line that never ends is cut off one byte past the
    // limit instead of being buffered until the client stops sending
    // (exactly limit + 1 bytes, so the server closes with nothing unread).
    let endless = format!("GET /{}", "a".repeat(4096 + 1 - "GET /".len()));
    let (status, body) = request(addr, endless);
    assert_eq!(status, 413, "body: {body}");
    assert_eq!(get(addr, "/health").0, 200);

    // 400: a cross product parses but has no ×-free plan — with two
    // patterns that share no variable, and with a pattern that has no
    // variable at all; the client's error, not a planner panic.
    for query in [
        "SELECT ?x WHERE { ?x ub:worksFor ?y . ?a ub:memberOf ?b }",
        "SELECT ?x WHERE { ?x rdf:type ub:University . \
         <http://www.University0.edu> rdf:type ub:University }",
    ] {
        let (status, body) = post_sparql(addr, query);
        assert_eq!(status, 400, "body: {body}");
        assert!(body.contains("cross product"), "body: {body}");
        assert_eq!(get(addr, "/health").0, 200);
    }

    // 400: a request line or a header that is not UTF-8 is answered, not
    // hung up on.
    for head in [
        &b"GET /\xff\xfe HTTP/1.1\r\nHost: test\r\n\r\n"[..],
        &b"GET /health HTTP/1.1\r\nX: \xff\xfe\r\n\r\n"[..],
    ] {
        let (status, body) = request(addr, head);
        assert_eq!(status, 400, "body: {body}");
        assert!(body.contains("not valid UTF-8"), "body: {body}");
        assert_eq!(get(addr, "/health").0, 200);
    }

    // The pool keeps serving afterwards.
    let (status, _) = get(addr, "/query?name=Q2");
    assert_eq!(status, 200);
}

/// Random request heads of up to `max_request_bytes` — raw bytes, and bytes
/// behind a well-formed request line so the header loop sees them — get a
/// status line or a clean close, whether the client then closes its side or
/// stalls until the read timeout fires; the server answers `/health` after
/// each.
#[test]
fn random_request_heads_get_a_status_line_or_a_clean_close() {
    const MAX_REQUEST_BYTES: usize = 2048;
    let server = start_server(ServerConfig {
        max_request_bytes: MAX_REQUEST_BYTES,
        read_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });
    // xorshift64*: a fixed stream, so a failing head can be replayed.
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    // Mostly these, so lines, colons and digits do turn up.
    const PRINTABLE: &[u8] = b"\r\n: 09aZ?{}<>\"\\";
    for case in 0..32 {
        let mut head = match case % 2 {
            0 => Vec::new(),
            _ => b"POST /sparql HTTP/1.1\r\nContent-Length: 7\r\n".to_vec(),
        };
        let length = next() as usize % (MAX_REQUEST_BYTES + 1);
        while head.len() < length {
            let [printable, pick, byte, ..] = next().to_le_bytes();
            let pick = PRINTABLE[pick as usize % PRINTABLE.len()];
            head.push(if printable < 160 { pick } else { byte });
        }
        head.truncate(length);

        let mut stream = TcpStream::connect(server.addr).expect("connect");
        let timeout = Some(Duration::from_secs(10));
        stream.set_read_timeout(timeout).expect("client timeout");
        // The server may answer and close before it has read everything.
        let _ = stream.write_all(&head);
        if case % 4 < 2 {
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        // A reset (the server closed with part of the head unread) ends the
        // connection too; a client-side timeout does not.
        let mut response = Vec::new();
        let closed = match stream.read_to_end(&mut response) {
            Ok(_) => true,
            Err(error) => error.kind() == std::io::ErrorKind::ConnectionReset,
        };
        assert!(closed, "case {case}: the server held the connection open");
        assert!(
            response.is_empty() || response.starts_with(b"HTTP/1.1 "),
            "case {case}: {:?}",
            String::from_utf8_lossy(&response)
        );
        assert_eq!(get(server.addr, "/health").0, 200, "case {case}");
    }
}

/// Like [`request`] but returns the raw response text (status line, headers
/// and body), for asserting on headers.
fn raw_request(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

#[test]
fn metrics_endpoint_renders_valid_prometheus_text() {
    let server = start_server(ServerConfig::default());
    let addr = server.addr;

    // Serve one query so execution series exist, then scrape.
    let (status, _) = get(addr, "/query?name=Q1");
    assert_eq!(status, 200);
    let response = raw_request(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
    assert!(response.contains("Content-Type: text/plain; version=0.0.4\r\n"));
    let body = response.split_once("\r\n\r\n").expect("body").1;

    let samples = cliquesquare_obs::promtext::parse(body).expect("valid Prometheus text");
    assert!(!samples.is_empty());
    let has = |name: &str| samples.iter().any(|s| s.name == name);
    assert!(has("csq_http_requests_total"), "body: {body}");
    assert!(has("csq_scheduler_tasks_total"), "body: {body}");
    assert!(has("csq_http_request_seconds_bucket"), "body: {body}");
    // The fan-out the served cluster runs at (`start_server` loads 4 nodes).
    let partitions = samples.iter().find(|s| s.name == "csq_cluster_partitions");
    assert_eq!(partitions.map(|s| s.value), Some(4.0), "body: {body}");
    // The relation and load counters are not series: they are reachable
    // per operator, on a profiled answer.
    let gone = |prefix: &str| !samples.iter().any(|s| s.name.starts_with(prefix));
    assert!(gone("csq_relation_"), "body: {body}");
    assert!(gone("csq_load_"), "body: {body}");
    let (status, profiled) = get(addr, "/query?name=Q1&profile=1");
    assert_eq!(status, 200);
    assert!(profiled.contains("\"sorts_elided\""), "body: {profiled}");
    assert!(profiled.contains("\"partitions\":4"), "body: {profiled}");
}

#[test]
fn metrics_stay_consistent_under_concurrent_query_load() {
    let server = start_server(ServerConfig::default());
    let addr = server.addr;

    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                for name in ["Q1", "Q2", "Q14"] {
                    let (status, _) = get(addr, &format!("/query?name={name}"));
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();

    // Scrape repeatedly while the queries run: every scrape must parse and
    // the request counter must be monotonically non-decreasing.
    let requests_total = |body: &str| -> f64 {
        cliquesquare_obs::promtext::parse(body)
            .expect("valid Prometheus text")
            .iter()
            .filter(|s| s.name == "csq_http_requests_total")
            .map(|s| s.value)
            .sum()
    };
    let mut last = 0.0;
    for _ in 0..5 {
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let total = requests_total(&body);
        assert!(
            total >= last,
            "requests_total went backwards: {total} < {last}"
        );
        last = total;
    }
    for client in clients {
        client.join().unwrap();
    }
    let (_, body) = get(addr, "/metrics");
    assert!(requests_total(&body) >= last);
}

#[test]
fn profile_flag_attaches_a_span_tree_without_changing_the_answer() {
    let server = start_server(ServerConfig::default());
    let addr = server.addr;

    let (status, plain) = get(addr, "/query?name=Q2");
    assert_eq!(status, 200);
    assert!(!plain.contains("\"profile\""));

    let (status, profiled) = get(addr, "/query?name=Q2&profile=1");
    assert_eq!(status, 200, "body: {profiled}");
    assert!(profiled.contains("\"profile\": {"), "body: {profiled}");
    for span in [
        "\"name\":\"query\"",
        "\"name\":\"parse\"",
        "\"name\":\"plan\"",
    ] {
        assert!(profiled.contains(span), "missing {span} in: {profiled}");
    }
    assert!(profiled.contains("\"children\""), "body: {profiled}");

    // Identical answers modulo the wall-clock lines and the profile itself
    // (trailing commas shift when the profile key is appended).
    let strip = |text: &str| -> String {
        text.lines()
            .filter(|line| !line.contains("wall_seconds") && !line.contains("\"profile\""))
            .map(|line| line.trim_end_matches(','))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&plain), strip(&profiled));
}

#[test]
fn a_stalled_request_gets_a_408_when_the_read_timeout_fires() {
    let server = start_server(ServerConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });

    // Open a connection, send half a request line, then stall.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.write_all(b"GET /health HT").expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(
        response.starts_with("HTTP/1.1 408 Request Timeout"),
        "response: {response}"
    );
}

/// An answer body as the server rendered it while rows were decoded first:
/// every cell a `String` from `Term`'s `Display`, escaped by `push_strings`.
/// Kept here only as the oracle of the renderer that writes cells straight
/// from the dictionary.
fn decoded_body(answer: &QueryAnswer) -> String {
    let mut json = String::from("{\n  \"query\": \"");
    push_escaped(&mut json, &answer.query);
    json.push_str("\",\n  \"variables\": [");
    push_strings(&mut json, &answer.variables);
    json.push_str("],\n");
    json.push_str(&format!("  \"total_rows\": {},\n", answer.total_rows));
    json.push_str(&format!("  \"truncated\": {},\n", answer.truncated));
    json.push_str("  \"jobs\": \"");
    push_escaped(&mut json, &answer.job_descriptor);
    json.push_str("\",\n");
    json.push_str(&format!(
        "  \"simulated_seconds\": {:.6},\n",
        answer.simulated_seconds
    ));
    json.push_str(&format!(
        "  \"wall_seconds\": {:.6},\n",
        answer.wall_seconds
    ));
    json.push_str("  \"rows\": [\n");
    let rows: Vec<Vec<String>> = answer.rows.decoded().collect();
    for (index, row) in rows.iter().enumerate() {
        json.push_str("    [");
        push_strings(&mut json, row);
        json.push_str(if index + 1 == rows.len() {
            "]\n"
        } else {
            "],\n"
        });
    }
    json.push_str("  ]\n}\n");
    json
}

/// Every character JSON escapes, and multi-byte ones beside them, in IRIs
/// and literals of a hand-built graph: the body served in-process and over
/// HTTP is the decode-then-escape oracle's, byte for byte.
#[test]
fn escaped_terms_render_byte_for_byte_like_decoded_strings() {
    const TRICKY: [&str; 10] = [
        "quote\"d",
        "back\\slash",
        "line\nfeed",
        "carriage\rreturn",
        "tab\tbed",
        "one\u{1}",
        "unit\u{1f}sep",
        "café",
        "東京",
        "\"\\\n\r\t\u{1}\u{1f}é東京",
    ];
    let property = Term::iri("http://example.org/p");
    let mut graph = Graph::new();
    for (index, text) in TRICKY.iter().enumerate() {
        let subject = Term::iri(format!("http://example.org/{text}/{index}"));
        graph.insert_terms(subject.clone(), property.clone(), Term::literal(*text));
        let object = Term::iri(format!("http://example.org/o/{text}"));
        graph.insert_terms(subject, property.clone(), object);
    }
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(2));
    let service = Arc::new(QueryService::new(cluster, Runtime::serving(1)));
    let query = "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }";

    let answer = service.execute_text(query).expect("serves");
    assert_eq!(answer.rows.len(), 2 * TRICKY.len());
    let oracle = decoded_body(&answer);
    assert!(
        oracle.contains("東京") && oracle.contains("\\u001f"),
        "{oracle}"
    );
    assert_eq!(render_answer(&answer), oracle);

    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default());
    let server = server.expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    let (status, body) = post_sparql(addr, query);
    handle.stop();
    thread.join().expect("server thread");
    assert_eq!(status, 200, "body: {body}");
    // Only the request's own execution wall differs.
    let timeless = |text: &str| -> Vec<String> {
        let lines = text
            .split_inclusive('\n')
            .filter(|l| !l.contains("\"wall_seconds\""));
        lines.map(str::to_string).collect()
    };
    assert_eq!(timeless(&body), timeless(&oracle));
}

#[test]
fn concurrent_http_clients_get_identical_bodies() {
    let server = start_server(ServerConfig::default());
    let addr = server.addr;
    let names = ["Q1", "Q2", "Q4", "Q14"];
    let solo: Vec<String> = names
        .iter()
        .map(|name| {
            let (status, body) = get(addr, &format!("/query?name={name}"));
            assert_eq!(status, 200);
            body
        })
        .collect();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                names
                    .iter()
                    .map(|name| get(addr, &format!("/query?name={name}")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        for ((status, body), expected) in handle.join().unwrap().into_iter().zip(&solo) {
            assert_eq!(status, 200);
            // wall_seconds varies run to run; everything else must not.
            let strip = |text: &str| -> String {
                text.lines()
                    .filter(|line| !line.contains("wall_seconds"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&body), strip(expected));
        }
    }
}
