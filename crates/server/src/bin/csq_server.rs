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
//! template plan cache (default 128 entries) or disables it with `off`:
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

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            return iter.next().map(String::as_str);
        }
        if let Some(value) = arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Some(value);
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7878");
    let threads = match Runtime::try_from_option(flag_value(&args, "--threads").unwrap_or("auto")) {
        Ok(runtime) => runtime.threads(),
        Err(error) => {
            eprintln!("error: invalid --threads: {error}");
            std::process::exit(2);
        }
    };
    let scale = match LubmScale::try_from_option(flag_value(&args, "--scale").unwrap_or("1")) {
        Ok(scale) => scale,
        Err(error) => {
            eprintln!("error: invalid --scale: {error}");
            std::process::exit(2);
        }
    };

    let plan_cache = match flag_value(&args, "--plan-cache").unwrap_or("128").trim() {
        "off" | "0" => None,
        value => match value.parse::<usize>() {
            Ok(capacity) => Some(capacity),
            Err(_) => {
                eprintln!("error: invalid --plan-cache (expected a capacity or `off`)");
                std::process::exit(2);
            }
        },
    };

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

    let server = HttpServer::bind(Arc::clone(&service), addr, ServerConfig::default())
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
