//! A minimal HTTP/1.1 SPARQL endpoint on `std::net::TcpListener`.
//!
//! Routes:
//!
//! * `GET /health` — liveness plus serving counters.
//! * `GET /metrics` — the process-wide metric registry in Prometheus text
//!   exposition format.
//! * `POST /sparql` — the request body is the SPARQL text.
//! * `GET /sparql?query=…` — percent-encoded SPARQL text in the URL.
//! * `GET /query?name=Q4` — a named query from the LUBM catalog.
//!
//! The query routes accept `profile=1` in the query string, which attaches a
//! per-query execution profile (parse → plan → per-job execute span tree) to
//! the JSON answer; answers are bit-identical with or without it. An
//! answer's rows reach [`render_answer`] as dictionary ids, and each cell is
//! escaped from the dictionary straight into the one response buffer.
//!
//! Every error is a structured JSON body with the status the
//! [`ServeError`] maps to (400 malformed request or query, 404 unknown name
//! or path, 405 known path with another method — with an `Allow` header —,
//! 408 read timeout, 413 oversized request, 500 contained execution panic).
//! Each connection is handled off the accept loop with read/write
//! timeouts, on a handler thread that parks between connections and is
//! reused (a new one starts only when none is parked); the actual query
//! work all funnels into the service's shared serving runtime.

use crate::service::{QueryAnswer, QueryService, ServeError};
use cliquesquare_obs::json::{push_escaped, push_strings};
use cliquesquare_obs::LATENCY_SECONDS_BUCKETS;
use cliquesquare_rdf::{Graph, Term, TermId};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of the HTTP front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum accepted request size (headers + body) in bytes; anything
    /// larger is rejected with 413 before being read in full.
    pub max_request_bytes: usize,
    /// Per-connection read timeout: a client that stalls mid-request gets a
    /// 408 and its connection closed. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout: a client that stops draining its
    /// response loses the connection. `None` waits forever.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_request_bytes: 64 * 1024,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// The accept loop around a [`QueryService`].
#[derive(Debug)]
pub struct HttpServer {
    listener: TcpListener,
    service: Arc<QueryService>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

/// Stops a running [`HttpServer`] from another thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Signals the accept loop to exit (waking it with one local connect).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

impl HttpServer {
    /// Binds the endpoint to `addr` (use port 0 to pick a free port).
    pub fn bind(
        service: Arc<QueryService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            service,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops [`serve`](Self::serve) from another thread.
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            addr: self.listener.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
        })
    }

    /// Runs the accept loop until [`ShutdownHandle::stop`] is called. Every
    /// connection is handed to a handler thread at once — a parked one when
    /// there is one, a new one otherwise — so no connection waits for
    /// another; a handler that fails mid-write only loses its own
    /// connection. The handlers leave when the loop does.
    pub fn serve(&self) -> io::Result<()> {
        let handlers = Arc::new(Handlers::default());
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if handlers.hand_over(stream) {
                continue;
            }
            let handlers = Arc::clone(&handlers);
            let service = Arc::clone(&self.service);
            let config = self.config;
            thread::spawn(move || {
                while let Some(mut stream) = handlers.next() {
                    let _ = handle_connection(&service, &mut stream, config);
                    // Parked *before* the connection closes: a client that
                    // waits for the close and then sends its next request
                    // finds this handler, every time.
                    if !handlers.park() {
                        break;
                    }
                }
            });
        }
        handlers.close();
        Ok(())
    }
}

/// At most this many handler threads stay parked; one that finishes a
/// connection beyond that exits, so a burst does not keep its threads.
const MAX_PARKED_HANDLERS: usize = 16;

/// The accepted connections no handler has taken yet and the handler
/// threads parked for one. A client that sends one request after another
/// is served by one long-lived thread: with a thread per connection the
/// memory the process held depended on whether the last handler had
/// finished exiting when the next one started (the allocator keeps a heap
/// per thread and hands a dead thread's heap to the next thread born).
#[derive(Default)]
struct Handlers {
    state: Mutex<HandlerState>,
    ready: Condvar,
}

#[derive(Default)]
struct HandlerState {
    pending: VecDeque<TcpStream>,
    /// Handlers that will take a connection without being started: the
    /// ones that called [`Handlers::park`] (or were just started) and have
    /// not taken one since. Never fewer than `pending`.
    parked: usize,
    closed: bool,
}

impl Handlers {
    /// Queues `stream` for a parked handler; `false` when there is none
    /// left for it, so the caller has to start one (counted as parked
    /// already).
    fn hand_over(&self, stream: TcpStream) -> bool {
        let mut state = self.state.lock().expect("handler state");
        state.pending.push_back(stream);
        let taken = state.pending.len() <= state.parked;
        if !taken {
            state.parked += 1;
        }
        drop(state);
        self.ready.notify_one();
        taken
    }

    /// Parks the calling handler for its next connection; `false` when
    /// enough are parked already (or the accept loop ended) and it should
    /// exit instead.
    fn park(&self) -> bool {
        let mut state = self.state.lock().expect("handler state");
        let stays = !state.closed && state.parked < MAX_PARKED_HANDLERS;
        if stays {
            state.parked += 1;
        }
        stays
    }

    /// The next connection for the calling, parked handler — waiting until
    /// there is one — or `None` once the accept loop has ended.
    fn next(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("handler state");
        loop {
            if let Some(stream) = state.pending.pop_front() {
                state.parked -= 1;
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("handler state");
        }
    }

    /// Lets every handler exit once the queue is empty.
    fn close(&self) {
        self.state.lock().expect("handler state").closed = true;
        self.ready.notify_all();
    }
}

fn handle_connection(
    service: &QueryService,
    stream: &mut TcpStream,
    config: ServerConfig,
) -> io::Result<()> {
    let started = Instant::now();
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    let (endpoint, response) = match read_request(stream, config.max_request_bytes) {
        Ok(request) => (endpoint_label(&request.path), route(service, &request)),
        Err(RequestError::Serve(error)) => ("error", error_response(&error)),
        // The client never delivered a full request; tell it why before
        // closing, best-effort.
        Err(RequestError::Io(error)) if is_timeout(&error) => {
            ("error", error_response(&ServeError::Timeout))
        }
        Err(RequestError::Io(error)) => return Err(error),
    };
    // Observed once the response is written (or failed to be): the
    // histogram's time is the whole of handling the request.
    let status = response.status;
    let written = write_response(stream, response);
    observe_request(endpoint, status, started.elapsed().as_secs_f64());
    written
}

/// Bounded-cardinality endpoint label for the request metrics.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/health" | "/" => "health",
        "/metrics" => "metrics",
        "/sparql" => "sparql",
        "/query" => "query",
        _ => "other",
    }
}

/// Records one handled request in the global metric registry.
fn observe_request(endpoint: &'static str, status: u16, seconds: f64) {
    let registry = cliquesquare_obs::global();
    let labels = [("endpoint", endpoint)];
    registry
        .counter("csq_http_requests_total", "HTTP requests handled", &labels)
        .inc();
    if status >= 400 {
        registry
            .counter(
                "csq_http_errors_total",
                "HTTP requests answered with a 4xx/5xx status",
                &labels,
            )
            .inc();
    }
    registry
        .histogram(
            "csq_http_request_seconds",
            "End-to-end HTTP request handling time",
            &labels,
            LATENCY_SECONDS_BUCKETS,
        )
        .observe(seconds);
}

/// Whether an I/O error is the socket read/write timeout firing. Unix
/// reports `WouldBlock` for `SO_RCVTIMEO`, Windows `TimedOut`.
fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A parsed (enough) HTTP request.
#[derive(Debug)]
struct Request {
    method: String,
    /// Path without the query string.
    path: String,
    /// Raw query string (no leading `?`), possibly empty.
    query_string: String,
    body: String,
}

enum RequestError {
    Serve(ServeError),
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(error: io::Error) -> Self {
        RequestError::Io(error)
    }
}

/// `read_line` reports a head line that is not UTF-8 as `InvalidData`: the
/// client's error, to be answered, not a dead connection.
fn head_error(error: io::Error) -> RequestError {
    if error.kind() == io::ErrorKind::InvalidData {
        let message = "request head is not valid UTF-8".to_string();
        RequestError::Serve(ServeError::BadQuery(message))
    } else {
        RequestError::Io(error)
    }
}

fn read_request(stream: &mut TcpStream, max_bytes: usize) -> Result<Request, RequestError> {
    let too_large = |actual: usize| {
        RequestError::Serve(ServeError::TooLarge {
            limit: max_bytes,
            actual,
        })
    };
    let mut reader = BufReader::new(stream);
    // The head is read through a cap of one byte more than the limit, so a
    // line that never ends is answered 413 once the cap is reached instead
    // of being buffered for as long as the client keeps sending.
    let mut head = reader.by_ref().take((max_bytes as u64).saturating_add(1));
    let mut request_line = String::new();
    head.read_line(&mut request_line).map_err(head_error)?;
    if request_line.len() > max_bytes {
        return Err(too_large(request_line.len()));
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || target.is_empty() {
        return Err(RequestError::Serve(ServeError::BadQuery(
            "empty or malformed request line".to_string(),
        )));
    }

    let mut content_length: Option<usize> = None;
    let mut header_bytes = request_line.len();
    loop {
        let mut line = String::new();
        head.read_line(&mut line).map_err(head_error)?;
        header_bytes += line.len();
        if header_bytes > max_bytes {
            return Err(too_large(header_bytes));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(value) = header_value(line, "content-length") {
            // `1*DIGIT` (RFC 9110): `usize::from_str` would also take a sign.
            let digits = value.bytes().all(|byte| byte.is_ascii_digit());
            let length = value.parse().ok().filter(|_| digits).ok_or_else(|| {
                RequestError::Serve(ServeError::BadQuery(format!(
                    "unparseable Content-Length: {value:?}"
                )))
            })?;
            // Differing lengths leave the body's end unknown (RFC 9112
            // §6.3): answered, never guessed.
            if let Some(earlier) = content_length.filter(|&earlier| earlier != length) {
                return Err(RequestError::Serve(ServeError::BadQuery(format!(
                    "conflicting Content-Length headers: {earlier} and {length}"
                ))));
            }
            content_length = Some(length);
        }
    }
    let content_length = content_length.unwrap_or(0);

    // Saturating: a declared length near `usize::MAX` must not wrap past
    // the limit (and then be allocated).
    let request_bytes = header_bytes.saturating_add(content_length);
    if request_bytes > max_bytes {
        // Drain the (bounded) oversized body before responding, so closing
        // the socket doesn't RST the client mid-read. Truly unbounded
        // declarations are abandoned and the connection dropped.
        const DRAIN_CAP: usize = 1 << 20;
        if content_length <= DRAIN_CAP {
            io::copy(
                &mut reader.by_ref().take(content_length as u64),
                &mut io::sink(),
            )?;
        }
        return Err(too_large(request_bytes));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8_lossy(&body).into_owned();

    let (path, query_string) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target, String::new()),
    };
    Ok(Request {
        method,
        path,
        query_string,
        body,
    })
}

/// The value of `name: value` if `line` is that header (case-insensitive).
fn header_value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let (key, value) = line.split_once(':')?;
    key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
}

/// The decoded value of `key=…` in a query string.
fn query_param(query_string: &str, key: &str) -> Option<String> {
    query_string.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| percent_decode(v))
    })
}

/// Percent-decoding (plus `+` as space), tolerant of malformed escapes.
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                // Two hex digits: `from_str_radix` would also take a sign.
                match bytes
                    .get(i + 1..i + 3)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u8::from_str_radix(hex, 16).ok())
                {
                    Some(byte) => {
                        out.push(byte);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            byte => out.push(byte),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A rendered response: status, reason, content type, the `Allow` header
/// of a 405, body.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    allow: Option<&'static str>,
    body: String,
}

/// Whether the query string asks for a per-query execution profile.
fn wants_profile(query_string: &str) -> bool {
    matches!(
        query_param(query_string, "profile").as_deref(),
        Some("1") | Some("true")
    )
}

fn route(service: &QueryService, request: &Request) -> Response {
    let profile = wants_profile(&request.query_string);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") | ("GET", "/") => {
            let (served, failed) = service.counters();
            ok_body(format!(
                "{{\"status\": \"ok\", \"threads\": {}, \"served\": {served}, \"failed\": {failed}}}\n",
                service.threads()
            ))
        }
        ("GET", "/metrics") => Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain; version=0.0.4",
            allow: None,
            body: cliquesquare_obs::global().render_prometheus(),
        },
        ("POST", "/sparql") => answer(service.execute_text_opts(&request.body, profile)),
        ("GET", "/sparql") => match query_param(&request.query_string, "query") {
            Some(text) => answer(service.execute_text_opts(&text, profile)),
            None => error_response(&ServeError::BadQuery(
                "missing ?query= parameter".to_string(),
            )),
        },
        ("GET", "/query") => match query_param(&request.query_string, "name") {
            Some(name) => answer(service.execute_named_opts(&name, profile)),
            None => error_response(&ServeError::BadQuery(
                "missing ?name= parameter".to_string(),
            )),
        },
        (method, path) => error_response(&match allowed_methods(path) {
            Some(allow) => ServeError::MethodNotAllowed {
                method: method.to_string(),
                allow,
            },
            None => ServeError::UnknownPath(path.to_string()),
        }),
    }
}

/// The methods [`route`] serves `path` with, as an `Allow` header value;
/// `None` for a path it does not serve.
fn allowed_methods(path: &str) -> Option<&'static str> {
    match path {
        "/health" | "/" | "/metrics" | "/query" => Some("GET"),
        "/sparql" => Some("GET, POST"),
        _ => None,
    }
}

fn answer(result: Result<QueryAnswer, ServeError>) -> Response {
    match result {
        Ok(answer) => ok_body(render_answer(&answer)),
        Err(error) => error_response(&error),
    }
}

/// Spare capacity an answer body reserves for the response head:
/// [`write_response`] shifts the body within its own buffer to put the head
/// in front, instead of copying both into a second one.
const HEAD_ROOM: usize = 128;

fn ok_body(body: String) -> Response {
    Response {
        status: 200,
        reason: "OK",
        content_type: "application/json",
        allow: None,
        body,
    }
}

fn error_response(error: &ServeError) -> Response {
    let mut body = String::from("{\"error\": \"");
    push_escaped(&mut body, &error.to_string());
    body.push_str(&format!("\", \"status\": {}}}\n", error.status()));
    let allow = match error {
        ServeError::MethodNotAllowed { allow, .. } => Some(*allow),
        _ => None,
    };
    Response {
        status: error.status(),
        reason: error.reason(),
        content_type: "application/json",
        allow,
        body,
    }
}

/// The JSON body of `answer`. One buffer, reserved for the cells (quotes,
/// separators and escapes of the common case included), the envelope and
/// the response head; each cell is escaped into it straight from the
/// dictionary, so no cell is ever a `String` of its own.
pub fn render_answer(answer: &QueryAnswer) -> String {
    let graph = answer.rows.graph();
    let cells: usize = (answer.rows.ids().flatten())
        .map(|&id| graph.decode(id).map_or(16, |term| term.value().len() + 8))
        .sum();
    let mut json = String::with_capacity(HEAD_ROOM + 512 + cells + 8 * answer.rows.len());
    json.push_str("{\n  \"query\": \"");
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
    for (index, row) in answer.rows.ids().enumerate() {
        json.push_str("    [");
        for (column, &id) in row.iter().enumerate() {
            if column > 0 {
                json.push_str(", ");
            }
            push_cell(&mut json, graph, id);
        }
        json.push_str(if index + 1 == answer.rows.len() {
            "]\n"
        } else {
            "],\n"
        });
    }
    match &answer.profile {
        Some(profile) => {
            json.push_str("  ],\n");
            json.push_str(&format!("  \"profile\": {}\n}}\n", profile.to_json()));
        }
        None => json.push_str("  ]\n}\n"),
    }
    json
}

/// Appends one answer cell as a quoted JSON string: the term's text
/// (`<iri>`, `"literal"`, or `#id` for an id the dictionary does not hold),
/// escaped from the dictionary's own bytes. `<` and `>` need no escape, the
/// literal's quotes do.
fn push_cell(json: &mut String, graph: &Graph, id: TermId) {
    match graph.decode(id) {
        Some(Term::Iri(iri)) => {
            json.push_str("\"<");
            push_escaped(json, iri);
            json.push_str(">\"");
        }
        Some(Term::Literal(text)) => {
            json.push_str("\"\\\"");
            push_escaped(json, text);
            json.push_str("\\\"\"");
        }
        None => json.push_str(&format!("\"{id}\"")),
    }
}

/// Writes `response` with one `write` where the writer takes it all: the
/// head goes in front of the body in the body's own buffer (a raw
/// `TcpStream` has no buffer of its own, so each formatted fragment would
/// be a syscall).
fn write_response<W: Write>(out: &mut W, response: Response) -> io::Result<()> {
    let Response {
        status,
        reason,
        content_type,
        allow,
        mut body,
    } = response;
    let allow = allow.map_or(String::new(), |methods| format!("Allow: {methods}\r\n"));
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n{allow}Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    body.insert_str(0, &head);
    out.write_all(body.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AnswerRows;
    use cliquesquare_engine::Relation;
    use cliquesquare_sparql::Variable;

    #[test]
    fn a_new_handler_is_asked_for_only_when_none_is_parked() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let connection = || TcpStream::connect(addr).expect("connect");
        let handlers = Handlers::default();

        // Nobody is parked: the first connection needs a handler started,
        // which takes it and parks before it closes it.
        assert!(!handlers.hand_over(connection()));
        let first = handlers.next().expect("the queued connection");
        assert!(handlers.park());
        drop(first);
        // The parked handler covers one connection, not two.
        assert!(handlers.hand_over(connection()));
        assert!(!handlers.hand_over(connection()));
        assert!(handlers.next().is_some());
        assert!(handlers.next().is_some());
        // Both handlers park; the third connection starts no third one.
        assert!(handlers.park());
        assert!(handlers.park());
        assert!(handlers.hand_over(connection()));

        // Closing still hands out what is queued, then releases everyone.
        handlers.close();
        assert!(handlers.next().is_some());
        assert!(handlers.next().is_none());
        assert!(!handlers.park());
    }

    #[test]
    fn percent_decoding_handles_escapes_plus_and_garbage() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%3Fx"), "?x");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        // A sign is no hex digit: the `%` stays, the `+` is a space.
        assert_eq!(percent_decode("%+A"), "% A");
        assert_eq!(percent_decode("%+1"), "% 1");
    }

    #[test]
    fn query_params_are_extracted_by_key() {
        assert_eq!(query_param("name=Q4&x=1", "name").as_deref(), Some("Q4"));
        assert_eq!(query_param("x=1", "name"), None);
        assert_eq!(
            query_param("query=SELECT%20%3Fx", "query").as_deref(),
            Some("SELECT ?x")
        );
    }

    #[test]
    fn header_values_are_case_insensitive() {
        assert_eq!(
            header_value("Content-Length: 42", "content-length"),
            Some("42")
        );
        assert_eq!(header_value("Host: x", "content-length"), None);
    }

    /// A two-column answer over a hand-built dictionary: an IRI and a
    /// literal that needs escapes, an IRI and an empty literal, and an id
    /// the dictionary does not hold.
    fn sample_answer() -> QueryAnswer {
        let mut graph = Graph::new();
        let a = graph.encode(Term::iri("a"));
        let escaped = graph.encode(Term::literal("l\\1\n"));
        let b = graph.encode(Term::iri("b"));
        let empty = graph.encode(Term::literal(""));
        let schema = vec![Variable::new("x"), Variable::new("y")];
        let ids = vec![vec![a, escaped], vec![b, empty], vec![TermId(99), a]];
        let cell = |text: &str| text.to_string();
        QueryAnswer {
            query: cell("Q\"1"),
            variables: vec![cell("?x"), cell("?y")],
            rows: AnswerRows::new(Relation::new(schema, ids), Arc::new(graph)),
            total_rows: 3,
            truncated: false,
            job_descriptor: cell("M"),
            simulated_seconds: 1.5,
            wall_seconds: 0.25,
            plan_seconds: 0.0,
            cache_hit: false,
            profile: None,
        }
    }

    #[test]
    fn answer_body_layout_is_fixed_byte_for_byte() {
        let answer = sample_answer();
        assert_eq!(
            render_answer(&answer),
            "{\n  \"query\": \"Q\\\"1\",\n  \"variables\": [\"?x\", \"?y\"],\n  \"total_rows\": 3,\n  \
             \"truncated\": false,\n  \"jobs\": \"M\",\n  \"simulated_seconds\": 1.500000,\n  \
             \"wall_seconds\": 0.250000,\n  \"rows\": [\n    [\"<a>\", \"\\\"l\\\\1\\n\\\"\"],\n    \
             [\"<b>\", \"\\\"\\\"\"],\n    [\"#99\", \"<a>\"]\n  ]\n}\n"
        );
        let graph = answer.rows.graph().clone();
        let none = Relation::empty(Vec::new());
        let empty = QueryAnswer {
            rows: AnswerRows::new(none, Arc::new(graph)),
            variables: Vec::new(),
            ..answer
        };
        let body = render_answer(&empty);
        assert!(body.contains("  \"variables\": [],\n"), "{body}");
        assert!(body.ends_with("  \"rows\": [\n  ]\n}\n"), "{body}");
    }

    /// Records every `write` call it gets.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_head_and_body() {
        let body = render_answer(&sample_answer());
        let unknown = error_response(&ServeError::UnknownQuery("Q99".to_string()));
        let cases = [
            (ok_body(body.clone()), "200 OK", "application/json", body),
            (
                unknown,
                "404 Not Found",
                "application/json",
                "{\"error\": \"unknown query name: \\\"Q99\\\"\", \"status\": 404}\n".to_string(),
            ),
        ];
        for (response, status, content_type, body) in cases {
            let mut out = CountingWriter::default();
            write_response(&mut out, response).expect("written");
            let expected = format!(
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            );
            assert_eq!(String::from_utf8(out.bytes).expect("UTF-8"), expected);
            assert_eq!(out.writes, 1, "{status}");
        }
    }
}
