//! Deterministic MapReduce cluster simulator for CliqueSquare.
//!
//! The paper evaluates its plans on a 7-node Hadoop cluster. This crate
//! replaces that infrastructure with a deterministic simulator that preserves
//! the behaviours the evaluation depends on:
//!
//! * **Replicated, co-located partitioning** ([`partition`]): every triple is
//!   stored three times — placed by its subject, property and object value —
//!   and locally grouped per placement attribute and per property value
//!   (with `rdf:type` further split by object), exactly as in Section 5.1.
//!   This makes all first-level joins of a plan evaluable without
//!   communication (PWOC / co-located joins).
//! * **A cluster of compute nodes** ([`cluster`]) across which partitions are
//!   spread by hashing. How many partitions the data is physically split
//!   into follows the machine's threads ([`partitions_for`]); the 7 nodes of
//!   the paper's testbed are a cost parameter ([`CostParameters::nodes`]).
//! * **A MapReduce job model** ([`job`]): map-only and map+reduce jobs, each
//!   charged its startup overhead, materialization and shuffling.
//! * **Cost accounting** ([`metrics`]): scan, CPU, I/O and network costs in
//!   the style of Section 5.4, turned into a simulated response time.
//! * **A parallel task runtime** ([`runtime`]): per-node map and reduce
//!   tasks of a job wave execute concurrently on scoped OS threads, so the
//!   engine reports *measured* wall-clock times next to the simulated ones.
//! * **A persistent multi-job scheduler** ([`scheduler`]): for concurrent
//!   query serving, a fixed worker pool drains task waves from many jobs at
//!   once, round-robin across per-job queues, with worker panics contained
//!   and re-raised on the submitting thread.
//! * **A parallel bulk loader** ([`load`]): raw triples (N-Triples text or
//!   the LUBM generator) are parsed, dictionary-encoded through per-thread
//!   shard dictionaries, merged, indexed and partitioned as task waves on
//!   the same runtime — bit-identical to the sequential ingest path at any
//!   thread count.
//!
//! The simulator never moves real bytes across machines: "shuffling" a tuple
//! charges network cost and re-buckets it, which is sufficient to reproduce
//! the relative performance of flat versus deep plans.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod job;
pub mod load;
pub mod metrics;
pub mod partition;
pub mod runtime;
pub mod scheduler;

pub use cluster::{compute_statistics, Cluster, ClusterConfig};
pub use job::JobKind;
pub use load::{BulkLoader, LoadOptions, LoadOutput, LoadReport};
pub use metrics::{CostParameters, ExecutionMetrics};
pub use partition::{
    node_of_hash, scan_order, FileKey, PartitionedStore, PlacementStats, ScanFiles,
};
pub use runtime::{partitions_for, Runtime};
pub use scheduler::{JobId, Scheduler, SchedulerStats};
