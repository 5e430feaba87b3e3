//! RDF data model and in-memory storage substrate for the CliqueSquare
//! reproduction.
//!
//! The crate provides:
//!
//! * [`Term`] / [`TermId`] — RDF terms (IRIs and literals) and their
//!   dictionary-encoded identifiers,
//! * [`Dictionary`] — a bidirectional string dictionary used to encode terms
//!   into compact integer identifiers,
//! * [`Triple`] — a dictionary-encoded RDF triple,
//! * [`Graph`] — an in-memory triple store (dictionary + triple list) whose
//!   per-position access paths are indexes built on first read,
//! * [`ntriples`] — a minimal N-Triples style reader/writer,
//! * [`lubm`] — a deterministic LUBM-like synthetic data generator standing
//!   in for the LUBM10k dataset used in the paper's evaluation,
//! * [`sp2b`] — a deterministic SP²Bench/DBLP-like generator with power-law
//!   author/journal skew and long citation chains,
//! * [`stats`] — catalog statistics (per-predicate counts and distincts,
//!   per-class `rdf:type` counts) from one grouping pass over the triples,
//!   backing the engine's selectivity estimates,
//! * [`load`] — sharded bulk-load primitives (chunk splitting, per-shard
//!   dictionary encoding, order-preserving merge) whose parallel
//!   orchestration lives in `cliquesquare_mapreduce::load`.
//!
//! # Example
//!
//! ```
//! use cliquesquare_rdf::{Graph, Term};
//!
//! let mut graph = Graph::new();
//! graph.insert_terms(
//!     Term::iri("http://example.org/alice"),
//!     Term::iri("http://example.org/knows"),
//!     Term::iri("http://example.org/bob"),
//! );
//! assert_eq!(graph.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dictionary;
pub mod graph;
pub mod load;
pub mod lubm;
pub mod ntriples;
pub mod sp2b;
pub mod stats;
pub mod term;
pub mod triple;

pub use dictionary::Dictionary;
pub use graph::Graph;
pub use lubm::{LubmGenerator, LubmScale};
pub use sp2b::{Sp2bGenerator, Sp2bScale};
pub use stats::{GraphStatistics, PredicateStats};
pub use term::{Term, TermId};
pub use triple::{Triple, TriplePosition};
