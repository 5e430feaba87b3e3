//! CSQ: the CliqueSquare execution engine over the simulated MapReduce
//! cluster.
//!
//! This crate turns the logical plans produced by `cliquesquare-core` into
//! physical MapReduce plans and executes them against the partitioned store
//! of `cliquesquare-mapreduce`, reproducing Section 5 of the paper:
//!
//! * [`physical`] — the physical operators (MapScan — with the paper's
//!   Filter over it fused in —, MapJoin, MapShuffler, ReduceJoin, Project)
//!   and physical plans,
//! * [`translate`](mod@translate) — logical → physical translation
//!   (Section 5.2),
//! * [`jobs`] — grouping of physical operators into MapReduce jobs
//!   (Section 5.3),
//! * [`executor`] — execution with full work accounting; per-node map and
//!   reduce task waves run on a [`cliquesquare_mapreduce::Runtime`]
//!   (sequential by default, real OS threads with `--threads`, bit-identical
//!   results either way),
//! * [`factorized`] — run-length factorized join outputs: star joins emit
//!   `(key, payload ranges)` runs and expand only at the projection
//!   boundary,
//! * [`cost`] — the Section 5.4 cost model used to choose among plans,
//! * [`reference`](mod@reference) — a naive single-node BGP evaluator used
//!   as a correctness oracle in tests,
//! * [`csq`] — the end-to-end façade (optimize, choose, execute).
//!
//! # Example
//!
//! ```
//! use cliquesquare_engine::csq::{Csq, CsqConfig};
//! use cliquesquare_mapreduce::{Cluster, ClusterConfig};
//! use cliquesquare_rdf::{LubmGenerator, LubmScale};
//! use cliquesquare_sparql::parser::parse_query;
//!
//! let graph = LubmGenerator::new(LubmScale::tiny()).generate();
//! let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
//! let csq = Csq::new(cluster, CsqConfig::default());
//! let report = csq.run(&parse_query(
//!     "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . }",
//! ).unwrap());
//! assert!(report.result_count > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod csq;
pub mod executor;
pub mod factorized;
pub mod jobs;
pub mod physical;
pub mod reference;
pub mod relation;
pub mod translate;

pub use cost::{q_error, CostEstimate, MapReduceCostModel};
pub use csq::{Csq, CsqConfig, CsqReport};
pub use executor::{BoundedOutput, ExecutionOutput, Executor, TripleBinder};
pub use factorized::{join_runs, BoundedProjection, RunsRelation};
pub use physical::{OpOrdering, PhysId, PhysicalOp, PhysicalPlan, ScanSpec};
pub use relation::{hash_partition, KeySet, Relation, SortOrder};
pub use translate::{interesting_orders, rebind_constants, translate};
