//! One benchmark run: set up, verify, warm up, time passes for
//! `--seconds`, print every metric by name and unit.

use crate::json::{escape, number};
use crate::oracle;
use crate::stats::{self, Floors, Rng};
use crate::sut::{self, Response, Sut, STAGES};
use crate::trace::{self, Recorder};
use crate::workload::{self, Request, Workload};
use cliquesquare_mapreduce::Runtime;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

/// Untimed passes before the timed ones: caches fill, pools warm.
const WARMUP_PASSES: usize = 2;
/// From-scratch builds of a serving workload, whose per-stage minima make
/// `setup_s` (on `cold_restart` every cycle is one).
const SETUP_REPEATS: usize = 2;
/// Failures printed in full before the rest are only counted.
const MAX_COMPLAINTS: usize = 10;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny datasets, 2 timed passes (1 restart cycle): the CI shape.
    pub smoke: bool,
    /// Where to write the full result document, if anywhere.
    pub out: Option<PathBuf>,
}

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn measured(name: &str, value: f64, unit: &str) -> Measured {
    Measured {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The gated metrics of this mode: end-to-end (untraced) or per-layer
    /// (traced).
    pub metrics: Vec<Measured>,
    /// Not gated: how disturbed the run was, and what it ran on.
    pub facts: Vec<Measured>,
    /// Facts that are text (commit, compiler).
    pub labels: Vec<(String, String)>,
}

/// The answer every request must keep giving, and the failure tally of a
/// run. A request's first answer is remembered by hash; every later one
/// must equal it; and once the clock has stopped [`Gate::verify`] checks
/// the answers against the reference evaluator — afterwards, so that the
/// oracle's own memory and cache traffic cannot leak into a measurement.
pub struct Gate {
    hashes: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    fn new(requests: usize) -> Self {
        Self {
            hashes: vec![None; requests],
            attempted: 0,
            failed: 0,
        }
    }

    pub fn fail(&mut self, label: &str, reason: &str) {
        self.failed += 1;
        if self.failed as usize <= MAX_COMPLAINTS {
            eprintln!("FAILED {label}: {reason}");
        }
    }

    /// One counted exchange: any I/O error, non-200 or short read fails.
    pub fn exchange(&mut self, addr: SocketAddr, label: &str, raw: &[u8]) -> Option<Response> {
        self.attempted += 1;
        match sut::fetch(addr, raw) {
            Err(error) => self.fail(label, &format!("I/O error: {error}")),
            Ok(response) if response.status != 200 => {
                self.fail(label, &format!("status {}", response.status))
            }
            Ok(response) if !response.complete => self.fail(label, "short read"),
            Ok(response) => return Some(response),
        }
        None
    }

    /// Sends request `index` and requires the answer it gave the first time.
    pub fn request(
        &mut self,
        addr: SocketAddr,
        index: usize,
        request: &Request,
    ) -> Option<Response> {
        let response = self.exchange(addr, &request.label, &request.raw)?;
        let hash = oracle::stable_hash(&response.body);
        if *self.hashes[index].get_or_insert(hash) != hash {
            self.fail(
                &request.label,
                "answer differs from this request's first answer",
            );
            return None;
        }
        Some(response)
    }

    /// Checks every distinct request's answer — the one all its timed
    /// repetitions were held to — against the reference evaluator on
    /// `sut`'s own graph. Returns the seconds the oracle took.
    fn verify(&mut self, sut: &Sut, requests: &[Request]) -> f64 {
        let started = Instant::now();
        let runtime = Runtime::with_threads(sut::nproc());
        for (index, request) in requests.iter().enumerate() {
            let Some(response) = self.request(sut.addr, index, request) else {
                continue;
            };
            let expected = oracle::expected(sut.cluster.graph(), &request.query, &runtime);
            if let Err(reason) = oracle::check_body(&response.body, &expected) {
                self.fail(&request.label, &reason);
            }
        }
        started.elapsed().as_secs_f64()
    }
}

/// Latency bookkeeping of the timed passes.
pub struct PassLog {
    /// Per distinct request: its fastest client-observed latency.
    pub floors: Floors,
    /// Every timed request latency, for the ungated percentiles.
    pub samples: Vec<f64>,
    pub pass_walls: Vec<f64>,
    pub body_bytes: u64,
    /// Per distinct request: its fastest first-byte → last-byte transfer.
    pub transfer_floors: Floors,
}

impl PassLog {
    pub fn new(requests: usize) -> Self {
        Self {
            floors: Floors::new(requests),
            samples: Vec::new(),
            pass_walls: Vec::new(),
            body_bytes: 0,
            transfer_floors: Floors::new(requests),
        }
    }
}

/// One closed-loop pass over the distinct requests in a seeded order.
/// `log` is `None` for warm-up passes; `recorder` is `Some` for the traced
/// passes of a traced run; `profiled` sends the `profile=1` form of each
/// request, whose body carries timings and is therefore not hash-checked.
pub fn run_pass(
    addr: SocketAddr,
    requests: &[Request],
    rng: &mut Rng,
    gate: &mut Gate,
    mut log: Option<&mut PassLog>,
    mut recorder: Option<&mut Recorder>,
    profiled: bool,
) {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    rng.shuffle(&mut order);
    let started = Instant::now();
    for index in order {
        let request = &requests[index];
        let start = recorder.as_deref().map(Recorder::now);
        let response = if profiled {
            gate.exchange(addr, &request.label, &request.raw_profiled)
        } else {
            gate.request(addr, index, request)
        };
        let Some(response) = response else { continue };
        if let (Some(recorder), Some(start)) = (recorder.as_deref_mut(), start) {
            let root = recorder.span("http.request", start, response.latency, None, index);
            recorder.span("http.connect_send", start, response.sent, root, index);
            recorder.span(
                "http.wait",
                start + response.sent,
                response.first_byte - response.sent,
                root,
                index,
            );
            recorder.span(
                "http.transfer",
                start + response.first_byte,
                response.latency - response.first_byte,
                root,
                index,
            );
        }
        if let Some(log) = log.as_deref_mut() {
            log.floors.observe(index, response.latency);
            log.samples.push(response.latency);
            log.body_bytes += response.body.len() as u64;
            log.transfer_floors
                .observe(index, response.latency - response.first_byte);
        }
    }
    if let Some(log) = log {
        log.pass_walls.push(started.elapsed().as_secs_f64());
    }
}

/// Folds one build's stage walls into the per-stage minima.
fn observe_stages(setup: &mut Floors, sut: &Sut) {
    for (stage, seconds) in sut.stages.iter().enumerate() {
        setup.observe(stage, *seconds);
    }
}

/// What the measuring part of a run hands to the reporting part.
struct Measurement {
    /// Per-stage minima over the builds of this run.
    setup: Floors,
    log: PassLog,
    /// The per-layer table of a traced run.
    layers: Vec<Measured>,
    cpu_per_pass: f64,
    /// `VmHWM` once the first system this process built has served (all
    /// the timed passes; on `cold_restart` its one pass) and before the
    /// oracle runs. Later builds land on whatever the allocator kept of the
    /// earlier ones and the oracle holds relations of its own, which moved
    /// the end-of-run mark by ±10 % between identical runs.
    peak_rss_mb: f64,
    triples: usize,
    /// Oracle time: the harness's own work, kept out of every metric.
    oracle_s: f64,
}

/// The three serving workloads: build, warm up, time passes on the one
/// system (or probe its layers, when tracing), verify its answers, then
/// build again for the set-up floors.
fn measure_serving(
    workload: &Workload,
    options: &Options,
    gate: &mut Gate,
    rng: &mut Rng,
) -> Result<Measurement, String> {
    let requests = &workload.requests;
    let mut setup = Floors::new(STAGES.len());
    let mut log = PassLog::new(requests.len());
    let mut layers = Vec::new();
    let mut cpu_per_pass = 0.0;

    let sut = Sut::build(&workload.dataset)?;
    observe_stages(&mut setup, &sut);
    for _ in 0..if options.smoke { 1 } else { WARMUP_PASSES } {
        run_pass(sut.addr, requests, rng, gate, None, None, false);
    }
    if options.trace {
        layers = trace::measure(&sut, workload, options, gate, rng, &log, None);
    } else {
        let (since, cpu_before) = (Instant::now(), stats::cpu_seconds());
        let enough = |passes: usize| match options.smoke {
            true => passes >= 2,
            false => since.elapsed().as_secs_f64() >= options.seconds,
        };
        while !enough(log.pass_walls.len()) {
            run_pass(sut.addr, requests, rng, gate, Some(&mut log), None, false);
        }
        cpu_per_pass = (stats::cpu_seconds() - cpu_before) / log.pass_walls.len() as f64;
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let oracle_s = gate.verify(&sut, requests);
    let triples = sut.report.triples;
    sut.shutdown();
    if !options.trace && !options.smoke {
        for _ in 1..SETUP_REPEATS {
            let again = Sut::build(&workload.dataset)?;
            observe_stages(&mut setup, &again);
            again.shutdown();
        }
    }
    Ok(Measurement {
        setup,
        log,
        layers,
        cpu_per_pass,
        peak_rss_mb,
        triples,
        oracle_s,
    })
}

/// `cold_restart`: the warm-up cycles, then timed cycles until the clock
/// runs out, then the oracle on the last system. Every cycle builds and
/// drops the whole system, so every request in it plans from a cold cache.
/// A traced run spends half its time on cycles and half on the layer
/// probes.
fn measure_restarts(
    workload: &Workload,
    options: &Options,
    gate: &mut Gate,
    rng: &mut Rng,
) -> Result<Measurement, String> {
    let requests = &workload.requests;
    let mut setup = Floors::new(STAGES.len());
    let mut log = PassLog::new(requests.len());
    let mut layers = Vec::new();
    let mut cycle_loads = options.trace.then(trace::LoadFloors::default);

    let mut sut = Sut::build(&workload.dataset)?;
    run_pass(sut.addr, requests, rng, gate, None, None, false);
    let peak_rss_mb = stats::peak_rss_mb();
    for _ in 1..if options.smoke { 1 } else { WARMUP_PASSES } {
        sut.shutdown();
        sut = Sut::build(&workload.dataset)?;
        run_pass(sut.addr, requests, rng, gate, None, None, false);
    }
    let budget = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let (since, cpu_before) = (Instant::now(), stats::cpu_seconds());
    loop {
        sut.shutdown();
        sut = Sut::build(&workload.dataset)?;
        observe_stages(&mut setup, &sut);
        if let Some(cycle_loads) = cycle_loads.as_mut() {
            cycle_loads.observe(&sut);
        }
        run_pass(sut.addr, requests, rng, gate, Some(&mut log), None, false);
        if options.smoke || since.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    let cpu_per_pass = (stats::cpu_seconds() - cpu_before) / log.pass_walls.len() as f64;
    if options.trace {
        layers = trace::measure(&sut, workload, options, gate, rng, &log, cycle_loads);
    }
    let oracle_s = gate.verify(&sut, requests);
    let triples = sut.report.triples;
    sut.shutdown();
    Ok(Measurement {
        setup,
        log,
        layers,
        cpu_per_pass,
        peak_rss_mb,
        triples,
        oracle_s,
    })
}

/// Runs one workload as `options` say and returns what it measured.
pub fn run(options: &Options) -> Result<RunResult, String> {
    let run_started = Instant::now();
    let (workload, build_s) =
        stats::timed(|| workload::build(&options.workload, options.seed, options.smoke));
    let workload = workload?;
    let mut rng = Rng::new(options.seed);
    let mut gate = Gate::new(workload.requests.len());
    let Measurement {
        setup,
        log,
        layers,
        cpu_per_pass,
        peak_rss_mb,
        triples,
        oracle_s,
    } = if workload.restart_each_pass {
        measure_restarts(&workload, options, &mut gate, &mut rng)?
    } else {
        measure_serving(&workload, options, &mut gate, &mut rng)?
    };
    let harness_s = build_s + oracle_s;
    let requests = &workload.requests;

    let mut result = RunResult {
        workload: options.workload.clone(),
        seed: options.seed,
        trace: options.trace,
        correct: gate.failed == 0,
        attempted: gate.attempted.max(1),
        failed: gate.failed,
        metrics: layers,
        facts: Vec::new(),
        labels: vec![
            (
                "commit".to_string(),
                tool_output("git", &["rev-parse", "--short", "HEAD"]),
            ),
            ("rustc".to_string(), tool_output("rustc", &["--version"])),
        ],
    };
    if !options.trace {
        result.metrics = vec![
            measured("setup_s", setup.sum(), "s"),
            measured("pass_floor_ms", log.floors.sum() * 1e3, "ms"),
            measured("query_floor_geomean_ms", log.floors.geomean() * 1e3, "ms"),
            measured("peak_rss_mb", peak_rss_mb, "MB"),
        ];
        let mut sorted = log.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let (tail_percentile, tail) = stats::supported_tail(&sorted);
        let pass_median = stats::median(&log.pass_walls);
        let timed_wall: f64 = log.pass_walls.iter().sum();
        result.facts = vec![
            measured("slowest_query_floor_ms", log.floors.max() * 1e3, "ms"),
            measured("pass_median_ms", pass_median * 1e3, "ms"),
            measured(
                "noise_ratio",
                pass_median / log.floors.sum().max(f64::MIN_POSITIVE),
                "ratio",
            ),
            measured(
                "request_p50_ms",
                stats::percentile_of(&sorted, 50.0) * 1e3,
                "ms",
            ),
            measured("request_tail_ms", tail * 1e3, "ms"),
            measured("request_tail_percentile", tail_percentile, "%"),
            measured("request_samples", sorted.len() as f64, "count"),
            measured(
                "requests_per_s",
                sorted.len() as f64 / timed_wall.max(f64::MIN_POSITIVE),
                "1/s",
            ),
            measured("cpu_ms_per_pass", cpu_per_pass * 1e3, "ms"),
            measured("timed_passes", log.pass_walls.len() as f64, "count"),
        ];
        for (stage, name) in STAGES.iter().enumerate() {
            result.facts.push(measured(
                &format!("setup_floor_s.{name}"),
                setup.get(stage),
                "s",
            ));
        }
    }
    result.facts.extend([
        measured(
            "failed_share",
            result.failed as f64 / result.attempted as f64,
            "ratio",
        ),
        measured("distinct_requests", requests.len() as f64, "count"),
        measured("triples", triples as f64, "count"),
        measured("harness_s", harness_s, "s"),
        measured("peak_rss_end_mb", stats::peak_rss_mb(), "MB"),
        measured("run_wall_s", run_started.elapsed().as_secs_f64(), "s"),
        measured("nproc", sut::nproc() as f64, "count"),
        measured("server_workers", sut::server_workers() as f64, "count"),
    ]);
    Ok(result)
}

/// First line of a tool's output, or "unknown": the commit and compiler a
/// result was measured on (the driver's checkout is not a git repository).
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl RunResult {
    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            render_measured(&self.metrics)
        )
    }

    /// The full result document `--out` writes and `compare` reads.
    pub fn document(&self) -> String {
        let labels = self
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"facts\": {{{}}}, \
             \"labels\": {{{labels}}}}}",
            escape(&self.workload),
            self.seed,
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            render_measured(&self.metrics),
            render_measured(&self.facts),
        )
    }

    /// Every metric and fact by name, with its unit, then the result line.
    pub fn print(&self) {
        println!(
            "workload {} seed {} trace {}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        for m in &self.metrics {
            println!("metric {:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for m in &self.facts {
            println!("fact   {:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for (name, value) in &self.labels {
            println!("fact   {name:<36} {value}");
        }
        println!("{}", self.result_line());
    }
}

fn render_measured(items: &[Measured]) -> String {
    items
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                number(m.value),
                escape(&m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}
