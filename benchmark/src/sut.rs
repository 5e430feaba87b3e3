//! The system under test, built the way a deployment builds it: bulk-load
//! the data, partition it into a cluster, wrap it in a `QueryService`,
//! bind a real `HttpServer` socket — each stage timed on its own — plus
//! the one-connection-per-request HTTP client that drives it.

use cliquesquare_mapreduce::{
    BulkLoader, Cluster, ClusterConfig, LoadOptions, LoadReport, Runtime,
};
use cliquesquare_rdf::{LubmScale, Sp2bScale};
use cliquesquare_server::{HttpServer, QueryService, ServerConfig, ShutdownHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What gets loaded. The N-Triples text of `cold_restart` is generated by
/// the harness once and parsed by the system every cycle.
#[derive(Debug, Clone)]
pub enum Dataset {
    Lubm(LubmScale),
    Sp2b(Sp2bScale),
    NTriples(Arc<String>),
}

/// The set-up stages whose fastest walls sum to `setup_s`.
pub const STAGES: [&str; 6] = [
    "input_encode",
    "merge",
    "index",
    "partition",
    "cluster",
    "serve",
];

/// Threads of this machine, the one input of the thread rule.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// The thread rule (README.md): the loader gets every core; the serving
/// pool gets one fewer, because the connection thread that submits a job
/// drains it too — busy threads = nproc.
pub fn server_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// A loaded, listening system plus the handles the harness measures
/// through.
pub struct Sut {
    pub cluster: Cluster,
    pub service: Arc<QueryService>,
    /// The serving runtime (a clone sharing the service's scheduler).
    pub serving: Runtime,
    pub addr: SocketAddr,
    pub report: LoadReport,
    /// Wall seconds of each of [`STAGES`] for this build.
    pub stages: [f64; 6],
    handle: ShutdownHandle,
    accept_thread: JoinHandle<()>,
}

impl Sut {
    /// Builds the system from scratch. Fails on malformed N-Triples or a
    /// socket error; neither happens on generated inputs.
    pub fn build(dataset: &Dataset) -> Result<Sut, String> {
        let load_runtime = Runtime::with_threads(nproc());
        let loader = BulkLoader::new(load_runtime.clone());
        let options = LoadOptions::default();
        let output = match dataset {
            Dataset::Lubm(scale) => loader.load_lubm(*scale, &options),
            Dataset::Sp2b(scale) => loader.load_sp2b(*scale, &options),
            Dataset::NTriples(text) => loader
                .load_ntriples(text, &options)
                .map_err(|e| format!("N-Triples load failed: {e}"))?,
        };
        let report = output.report;
        // `Cluster::load_with` partitions the graph again; the loader's own
        // store is what a deployment drops here too.
        drop(output.store);

        let started = Instant::now();
        let cluster = Cluster::load_with(output.graph, ClusterConfig::default(), &load_runtime);
        let cluster_seconds = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let serving = Runtime::serving(server_workers());
        let service = Arc::new(QueryService::new(cluster.clone(), serving.clone()));
        let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind failed: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.shutdown_handle().map_err(|e| e.to_string())?;
        let accept_thread = std::thread::spawn(move || {
            let _ = server.serve();
        });
        let health = fetch(addr, &get_request("/health")).map_err(|e| e.to_string())?;
        if health.status != 200 {
            return Err(format!("/health answered {}", health.status));
        }
        let serve_seconds = started.elapsed().as_secs_f64();

        Ok(Sut {
            cluster,
            service,
            serving,
            addr,
            stages: [
                report.input_seconds + report.encode_seconds,
                report.merge_seconds,
                report.index_seconds,
                report.partition_seconds,
                cluster_seconds,
                serve_seconds,
            ],
            report,
            handle,
            accept_thread,
        })
    }

    /// Stops the accept loop, waits for it and for the last connection
    /// threads to let go of the service, then drops everything.
    pub fn shutdown(self) {
        self.handle.stop();
        let _ = self.accept_thread.join();
        let mut service = self.service;
        loop {
            match Arc::try_unwrap(service) {
                Ok(owned) => {
                    drop(owned);
                    break;
                }
                Err(shared) => {
                    service = shared;
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// One HTTP exchange as the client saw it.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// Whether the body is exactly as long as `Content-Length` promised.
    pub complete: bool,
    /// Connect → last byte, in seconds.
    pub latency: f64,
    /// Connect → request written, in seconds (trace detail).
    pub sent: f64,
    /// Connect → first response byte, in seconds: the server has planned,
    /// executed and rendered; what follows is transfer.
    pub first_byte: f64,
}

pub fn get_request(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").into_bytes()
}

pub fn post_request(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends one raw request on a fresh connection and reads the response to
/// end of stream (the server closes after each response).
pub fn fetch(addr: SocketAddr, raw: &[u8]) -> io::Result<Response> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(raw)?;
    let sent = started.elapsed().as_secs_f64();
    let mut bytes = vec![0; 64 * 1024];
    let first = stream.read(&mut bytes)?;
    let first_byte = started.elapsed().as_secs_f64();
    bytes.truncate(first);
    stream.read_to_end(&mut bytes)?;
    let latency = started.elapsed().as_secs_f64();

    let header_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let head = String::from_utf8_lossy(&bytes[..header_end]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
    let declared: Option<usize> = head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    });
    let body = bytes.split_off(header_end + 4);
    Ok(Response {
        status,
        complete: declared == Some(body.len()),
        body,
        latency,
        sent,
        first_byte,
    })
}
