//! Concurrent query serving for the CliqueSquare engine.
//!
//! The paper's experiments are one-shot: load a graph, run fourteen queries,
//! exit. This crate turns the engine into a *server*: many queries in flight
//! against one shared immutable store, executing on one persistent multi-job
//! scheduler ([`cliquesquare_mapreduce::Scheduler`]) so a cheap query is
//! never stuck behind an expensive one.
//!
//! * [`service::QueryService`] — the serving boundary: parses SPARQL text
//!   (or resolves a named LUBM query), plans it with the deterministic cost
//!   model, and executes it on the shared serving runtime. Every failure
//!   mode becomes a structured [`service::ServeError`] — malformed SPARQL,
//!   unknown query names, oversized requests, and worker panics all stay
//!   behind the boundary instead of poisoning a scheduler thread.
//! * [`plancache`] — a structure-keyed template plan cache: queries that
//!   repeat a BGP shape with different constants skip clique decomposition,
//!   plan-space search and translation entirely; the cached physical plan is
//!   rebound to the new constants in one pass. Bounded LRU, invalidated by
//!   the cluster's statistics epoch.
//! * [`http`] — a minimal HTTP/1.1 front end on `std::net::TcpListener`:
//!   `POST /sparql` with a query body, `GET /query?name=Q4` for the named
//!   LUBM mix, `GET /health`. Errors map to 400/404/405/408/413/500.
//!
//! Answers are bit-identical to the single-job path at any thread count and
//! any concurrency level: plans are chosen by a deterministic cost model and
//! executed with results keyed by task index, so interleaving jobs changes
//! only wall-clock time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod plancache;
pub mod service;

pub use http::{HttpServer, ServerConfig, ShutdownHandle};
pub use plancache::{CachedPlan, PlanCache, TemplateKey};
pub use service::{AnswerRows, QueryAnswer, QueryService, ServeError};
