//! Observability substrate for the CliqueSquare engine.
//!
//! The paper's evaluation (Section 7) explains every result through
//! per-stage MapReduce timings and shuffled volumes; this crate gives the
//! reproduction the same vocabulary as a first-class, zero-dependency
//! layer the rest of the workspace can lean on:
//!
//! - [`Registry`] — a process-wide metric registry of lock-free
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s, named and
//!   labeled, cheap enough for hot paths (one relaxed atomic op per
//!   update; registration hands out `Arc` handles so the hot path never
//!   touches the registry lock). [`Registry::render_prometheus`] emits
//!   the Prometheus text exposition format served by `GET /metrics`.
//! - [`profile`] — lightweight spans that assemble into a per-query
//!   [`QueryProfile`] tree (parse → plan → per-wave execute), serialized
//!   as JSON for the HTTP `profile=1` surface and as Chrome-trace events
//!   (`chrome://tracing` / Perfetto) for offline flame-graph inspection.
//! - [`promtext`] — a small parser for the Prometheus text format, used
//!   by tests to assert `/metrics` stays well-formed.
//! - [`json`] — the one JSON string escaper every hand-formatted writer
//!   in the workspace calls.

pub mod json;
mod metrics;
pub mod profile;
pub mod promtext;

pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, LATENCY_SECONDS_BUCKETS,
};
pub use profile::{chrome_trace, QueryProfile, SpanNode, TaskSpan};
