//! The simulated compute cluster.

use crate::load::LoadOutput;
use crate::metrics::CostParameters;
use crate::partition::PartitionedStore;
use crate::runtime::{partitions_for, Runtime};
use cliquesquare_rdf::{Graph, GraphStatistics};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Computes the catalog statistics of `graph` from one grouping pass over
/// its triples and one task wave on `runtime`, one task per predicate (see
/// [`GraphStatistics::compute_with`]). The wave returns results in task
/// order, so the catalog is identical to the sequential one at any thread
/// count.
pub fn compute_statistics(graph: &Graph, runtime: &Runtime) -> GraphStatistics {
    GraphStatistics::compute_with(graph, |tasks| runtime.run_wave(tasks))
}

/// Static configuration of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Physical partitions: files per replica of the store, tasks per scan /
    /// join / reduce wave, shuffle fan-out and gather width. The size of
    /// the cluster the cost model prices is [`CostParameters::nodes`].
    pub nodes: usize,
    /// Cost parameters used to turn work counters into simulated time.
    pub cost: CostParameters,
}

impl Default for ClusterConfig {
    /// Partitions sized for this machine's threads ([`partitions_for`]),
    /// priced as the paper's 7-node testbed.
    fn default() -> Self {
        Self {
            nodes: partitions_for(Runtime::available().threads()),
            cost: CostParameters::default(),
        }
    }
}

impl ClusterConfig {
    /// A cluster of exactly `nodes` nodes: that many physical partitions,
    /// priced as that many modelled nodes, with default per-tuple costs.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            nodes,
            cost: CostParameters {
                nodes,
                ..CostParameters::default()
            },
        }
    }
}

/// A loaded cluster: the partitioned store plus the source graph (whose
/// dictionary is needed to resolve query constants into term ids).
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    graph: Arc<Graph>,
    store: Arc<PartitionedStore>,
    statistics: Arc<GraphStatistics>,
}

impl Cluster {
    /// Partitions `graph` into the configured number of partitions and
    /// returns the ready-to-query cluster.
    pub fn load(graph: Graph, config: ClusterConfig) -> Self {
        Self::load_with(graph, config, &Runtime::sequential())
    }

    /// Partitions `graph` and computes its catalog statistics on
    /// `runtime`'s task waves. Bit-identical to [`load`](Self::load) at any
    /// thread count (the store build is order-independent and the
    /// statistics wave returns its results in task order).
    pub fn load_with(graph: Graph, config: ClusterConfig, runtime: &Runtime) -> Self {
        let store = PartitionedStore::build_with(&graph, config.nodes, runtime);
        Self::assemble(graph, store, config, runtime)
    }

    /// Adopts a bulk load's graph and store — the partitions are the ones
    /// the loader built ([`crate::LoadOptions::nodes`] of them), not a
    /// second build — and computes the catalog statistics on `runtime`.
    /// Equal to [`load_with`](Self::load_with) on the loaded graph with
    /// that partition count and `cost`.
    pub fn from_load(output: LoadOutput, cost: CostParameters, runtime: &Runtime) -> Self {
        let config = ClusterConfig {
            nodes: output.store.nodes(),
            cost,
        };
        Self::assemble(output.graph, output.store, config, runtime)
    }

    fn assemble(
        graph: Graph,
        store: PartitionedStore,
        config: ClusterConfig,
        runtime: &Runtime,
    ) -> Self {
        let statistics = compute_statistics(&graph, runtime);
        Self {
            config,
            graph: Arc::new(graph),
            store: Arc::new(store),
            statistics: Arc::new(statistics),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of physical partitions ([`ClusterConfig::nodes`]).
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// The source graph (dictionary, statistics, reference evaluation).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The partitioned triple store.
    pub fn store(&self) -> &PartitionedStore {
        &self.store
    }

    /// An owned snapshot handle to the (immutable) source graph: what
    /// concurrent queries and `'static` task waves hold instead of a
    /// borrow. Cloning bumps a reference count.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// An owned snapshot handle to the (immutable) partitioned store.
    pub fn store_arc(&self) -> Arc<PartitionedStore> {
        Arc::clone(&self.store)
    }

    /// The catalog statistics computed when the cluster was loaded.
    pub fn statistics(&self) -> &GraphStatistics {
        &self.statistics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};

    #[test]
    fn default_config_matches_paper_testbed() {
        let config = ClusterConfig::default();
        assert_eq!(config.cost.nodes, 7);
        let threads = Runtime::available().threads();
        assert_eq!(config.nodes, partitions_for(threads));
        assert_eq!(config.nodes, crate::LoadOptions::default().nodes);
    }

    #[test]
    fn with_nodes_sets_the_partitions_and_the_modelled_cluster() {
        for nodes in [1, 3, 4, 7] {
            let config = ClusterConfig::with_nodes(nodes);
            assert_eq!(config.nodes, nodes);
            assert_eq!(
                config.cost,
                CostParameters {
                    nodes,
                    ..CostParameters::default()
                }
            );
        }
    }

    #[test]
    fn adopting_a_load_equals_partitioning_its_graph_again() {
        let scale = LubmScale::tiny();
        for threads in [1, 4] {
            let runtime = Runtime::with_threads(threads);
            let output = crate::BulkLoader::new(runtime.clone())
                .load_lubm(scale, &crate::LoadOptions::with_nodes(3));
            let rebuilt = Cluster::load_with(
                output.graph.clone(),
                ClusterConfig {
                    nodes: 3,
                    cost: CostParameters::fast(),
                },
                &runtime,
            );
            let adopted = Cluster::from_load(output, CostParameters::fast(), &runtime);
            assert_eq!(adopted.config(), rebuilt.config());
            assert_eq!(adopted.store(), rebuilt.store());
            assert_eq!(adopted.graph(), rebuilt.graph());
            assert_eq!(adopted.statistics(), rebuilt.statistics());
        }
    }

    #[test]
    fn load_partitions_the_graph() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let triples = graph.len();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        assert_eq!(cluster.nodes(), 4);
        assert_eq!(cluster.graph().len(), triples);
        assert_eq!(cluster.store().stats().stored_triples, triples * 3);
    }

    #[test]
    fn cluster_is_cheap_to_clone() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let cluster = Cluster::load(graph, ClusterConfig::default());
        let clone = cluster.clone();
        assert!(Arc::ptr_eq(&cluster.graph, &clone.graph));
        assert!(Arc::ptr_eq(&cluster.store, &clone.store));
        assert!(Arc::ptr_eq(&cluster.statistics, &clone.statistics));
    }

    #[test]
    fn parallel_statistics_match_sequential_at_any_thread_count() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let sequential = compute_statistics(&graph, &Runtime::sequential());
        assert_eq!(sequential.triples(), graph.len());
        for threads in [1, 2, 8] {
            let parallel = compute_statistics(&graph, &Runtime::with_threads(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn loaded_cluster_carries_statistics_and_a_fresh_epoch() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let first = Cluster::load(graph.clone(), ClusterConfig::with_nodes(4));
        let second = Cluster::load_with(
            graph,
            ClusterConfig::with_nodes(4),
            &Runtime::with_threads(4),
        );
        assert_eq!(first.statistics(), second.statistics());
        assert_eq!(first.statistics().triples(), first.graph().len());
    }
}
