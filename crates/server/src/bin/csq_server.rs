//! `csq_server` — serve SPARQL over HTTP against a generated LUBM cluster.
//!
//! ```text
//! csq_server [--addr HOST:PORT] [--threads N|auto] [--scale U] [--plan-cache N|off]
//! ```
//!
//! Bulk-loads a LUBM graph at `--scale U` universities into the partitions
//! `--threads` workers call for (`partitions_for`; the loader's store is the
//! cluster's, statistics computed on the same thread budget), prices it as
//! the paper's 7-node cluster, starts a persistent serving scheduler with
//! `--threads` workers, and answers until killed. `--plan-cache` bounds the
//! template plan cache (default 128 entries) or disables it with `off`. Any
//! other argument exits with status 2, naming it:
//!
//! ```text
//! curl 'http://127.0.0.1:7878/query?name=Q4'
//! curl -d 'SELECT ?x ?y WHERE { ?x ub:advisor ?y }' http://127.0.0.1:7878/sparql
//! ```

use cliquesquare_mapreduce::{
    partitions_for, BulkLoader, Cluster, CostParameters, LoadOptions, Runtime,
};
use cliquesquare_rdf::LubmScale;
use cliquesquare_server::{HttpServer, QueryService, ServerConfig};
use std::sync::Arc;

/// The flags `csq_server` takes, each with a value.
const FLAGS: [&str; 4] = ["--addr", "--threads", "--scale", "--plan-cache"];

/// The first argument that is neither one of [`FLAGS`], one's `--flag=value`
/// form, nor the value following one.
fn unknown_argument(args: &[String]) -> Option<&str> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.split_once('=').map_or(arg.as_str(), |(flag, _)| flag);
        if !FLAGS.contains(&flag) {
            return Some(arg);
        }
        if flag == arg {
            iter.next();
        }
    }
    None
}

/// Parses the value of `flag` with `parse`, `None` when the flag is absent.
/// A flag given without a value, or with one `parse` rejects, prints the
/// error naming the flag and exits with status 2.
fn parse_flag<T>(
    args: &[String],
    flag: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    match flag_value(args, flag).and_then(|value| value.map(parse).transpose()) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("error: invalid {flag}: {error}");
            std::process::exit(2);
        }
    }
}

/// The value of a `--flag value` / `--flag=value` argument: `Ok(None)` when
/// the flag is absent, an error when it is the last argument, with no value.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            return iter
                .next()
                .map(|value| Some(value.as_str()))
                .ok_or_else(|| "missing value".to_string());
        }
        if let Some(value) = arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Ok(Some(value));
        }
    }
    Ok(None)
}

/// `--plan-cache N|off`: a capacity, or `None` (`off` or `0`) for no cache.
fn plan_cache_capacity(value: &str) -> Result<Option<usize>, String> {
    match value.trim() {
        "off" | "0" => Ok(None),
        value => value
            .parse()
            .map(Some)
            .map_err(|_| format!("expected a capacity or `off` (got \"{value}\")")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = unknown_argument(&args) {
        eprintln!(
            "error: unknown argument {arg:?} (flags: {})",
            FLAGS.join(", ")
        );
        std::process::exit(2);
    }
    let addr = parse_flag(&args, "--addr", |value| Ok(value.to_string()))
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let threads = parse_flag(&args, "--threads", Runtime::try_from_option)
        .unwrap_or_else(Runtime::available)
        .threads();
    let scale = parse_flag(&args, "--scale", LubmScale::try_from_option)
        .unwrap_or(LubmScale::with_universities(1));
    let plan_cache = parse_flag(&args, "--plan-cache", plan_cache_capacity).unwrap_or(Some(128));

    let partitions = partitions_for(threads);
    let cost = CostParameters::default();
    eprintln!(
        "loading LUBM ({} universities) into {partitions} partitions, \
         priced as {} modelled nodes …",
        scale.universities, cost.nodes
    );
    let load_runtime = Runtime::with_threads(threads);
    let output = BulkLoader::new(load_runtime.clone())
        .load_lubm(scale, &LoadOptions::with_nodes(partitions));
    let triples = output.graph.len();
    let cluster = Cluster::from_load(output, cost, &load_runtime);
    let service =
        Arc::new(QueryService::new(cluster, Runtime::serving(threads)).with_plan_cache(plan_cache));

    let server = HttpServer::bind(Arc::clone(&service), addr.as_str(), ServerConfig::default())
        .unwrap_or_else(|error| {
            eprintln!("error: cannot bind {addr}: {error}");
            std::process::exit(1);
        });
    eprintln!(
        "serving {triples} triples on http://{} ({threads} worker thread(s)); \
         GET /health, GET /query?name=Q4, POST /sparql",
        server.local_addr().expect("bound address")
    );
    if let Err(error) = server.serve() {
        eprintln!("error: accept loop failed: {error}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_argument_is_named() {
        for (args, unknown) in [
            (&["--scale", "1", "--threads=2"][..], None),
            (&["--addr", "127.0.0.1:0", "--plan-cache", "off"], None),
            (&["--thread", "2"], Some("--thread")),
            (&["--plan_cache", "off"], Some("--plan_cache")),
            (&["--threads", "2", "4"], Some("4")),
            (&["--threadsx=2"], Some("--threadsx=2")),
        ] {
            let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
            assert_eq!(unknown_argument(&args), unknown, "{args:?}");
        }
    }
}
