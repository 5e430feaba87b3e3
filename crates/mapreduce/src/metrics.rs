//! Cost parameters and execution metrics (the cost model of Section 5.4).

use serde::{Deserialize, Serialize};

/// Per-tuple and per-job cost parameters of the simulated cluster.
///
/// These mirror the constants of the paper's cost model: `cread` / `cwrite`
/// (disk I/O per tuple), `cshuffle` (network transfer per tuple), `ccheck`
/// (a comparison) and the per-tuple join cost, plus the MapReduce job
/// start-up overhead that the paper repeatedly identifies as a dominant
/// factor for multi-job plans, and the size of the cluster being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParameters {
    /// Time to read one tuple from disk (seconds).
    pub read: f64,
    /// Time to write one tuple to disk (seconds).
    pub write: f64,
    /// Time to transfer one tuple across the network (seconds).
    pub shuffle: f64,
    /// Time to perform one comparison / filter check (seconds).
    pub check: f64,
    /// Time to produce one join output tuple (seconds).
    pub join: f64,
    /// Fixed start-up overhead charged for every MapReduce job (seconds).
    pub job_startup: f64,
    /// Fixed overhead charged for every task wave within a job (seconds).
    pub task_startup: f64,
    /// Compute nodes of the *modelled* cluster (the paper's testbed has 7):
    /// what per-tuple work is divided by, in [`ExecutionMetrics::simulated_seconds`]
    /// and in the optimizer's plan pricing. How many partitions the data is
    /// physically laid out in and executed over is `ClusterConfig::nodes`,
    /// a property of the machine, not of the model.
    pub nodes: usize,
}

impl Default for CostParameters {
    fn default() -> Self {
        Self {
            read: 2.0e-6,
            write: 4.0e-6,
            shuffle: 8.0e-6,
            check: 0.2e-6,
            join: 1.0e-6,
            job_startup: 8.0,
            task_startup: 0.5,
            nodes: 7,
        }
    }
}

impl CostParameters {
    /// Parameters for a faster, lower-latency cluster (useful in tests).
    pub fn fast() -> Self {
        Self {
            read: 1.0e-7,
            write: 2.0e-7,
            shuffle: 4.0e-7,
            check: 1.0e-8,
            join: 5.0e-8,
            job_startup: 1.0,
            task_startup: 0.1,
            ..Self::default()
        }
    }
}

/// Raw work counters accumulated while executing a plan.
///
/// Counters are totals across the cluster; [`ExecutionMetrics::simulated_seconds`]
/// divides the per-tuple work by the modelled number of compute nodes
/// (intra-operator parallelism) and adds the sequential per-job overheads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionMetrics {
    /// Tuples read from the distributed store or from intermediate files.
    pub tuples_read: u64,
    /// Tuples written to disk (intermediate or final results).
    pub tuples_written: u64,
    /// Tuples transferred across the network during shuffles.
    pub tuples_shuffled: u64,
    /// Comparisons performed by filters and projections.
    pub comparisons: u64,
    /// Join output tuples produced.
    pub join_output_tuples: u64,
    /// Number of MapReduce jobs executed.
    pub jobs: u64,
    /// Number of map task waves executed.
    pub map_tasks: u64,
    /// Number of reduce task waves executed.
    pub reduce_tasks: u64,
}

impl ExecutionMetrics {
    /// Merges another metrics record into this one.
    pub fn merge(&mut self, other: &ExecutionMetrics) {
        self.tuples_read += other.tuples_read;
        self.tuples_written += other.tuples_written;
        self.tuples_shuffled += other.tuples_shuffled;
        self.comparisons += other.comparisons;
        self.join_output_tuples += other.join_output_tuples;
        self.jobs += other.jobs;
        self.map_tasks += other.map_tasks;
        self.reduce_tasks += other.reduce_tasks;
    }

    /// Total per-tuple work in seconds, before dividing by cluster parallelism.
    pub fn total_work_seconds(&self, params: &CostParameters) -> f64 {
        self.tuples_read as f64 * params.read
            + self.tuples_written as f64 * params.write
            + self.tuples_shuffled as f64 * params.shuffle
            + self.comparisons as f64 * params.check
            + self.join_output_tuples as f64 * params.join
    }

    /// Simulated response time on the modelled cluster of `params.nodes`
    /// compute nodes.
    ///
    /// Per-tuple work benefits from intra-operator parallelism (divided by
    /// the node count, assuming balanced partitions); job and task start-up
    /// overheads are sequential because successive jobs depend on each other.
    pub fn simulated_seconds(&self, params: &CostParameters) -> f64 {
        let parallelism = params.nodes.max(1) as f64;
        let overhead = self.jobs as f64 * params.job_startup
            + (self.map_tasks + self.reduce_tasks) as f64 * params.task_startup;
        overhead + self.total_work_seconds(params) / parallelism
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionMetrics {
        ExecutionMetrics {
            tuples_read: 1_000,
            tuples_written: 500,
            tuples_shuffled: 200,
            comparisons: 2_000,
            join_output_tuples: 300,
            jobs: 2,
            map_tasks: 3,
            reduce_tasks: 2,
        }
    }

    #[test]
    fn merge_accumulates_all_counters() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.tuples_read, 2_000);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.reduce_tasks, 4);
    }

    #[test]
    fn simulated_time_decreases_with_more_nodes_but_keeps_overhead() {
        let m = ExecutionMetrics {
            tuples_read: 10_000_000,
            ..sample()
        };
        let params = CostParameters::default();
        let on = |nodes| m.simulated_seconds(&CostParameters { nodes, ..params });
        assert_eq!(params.nodes, 7, "the paper's testbed");
        assert!(on(7) < on(1));
        // Job overhead is not parallelizable: with huge node counts the time
        // converges to the sequential overhead.
        let t_many = on(1_000_000);
        let overhead = 2.0 * params.job_startup + 5.0 * params.task_startup;
        assert!((t_many - overhead).abs() / overhead < 0.05);
    }

    #[test]
    fn more_jobs_cost_more_time() {
        let params = CostParameters::default();
        let one_job = ExecutionMetrics {
            jobs: 1,
            ..Default::default()
        };
        let three_jobs = ExecutionMetrics {
            jobs: 3,
            ..Default::default()
        };
        assert!(three_jobs.simulated_seconds(&params) > one_job.simulated_seconds(&params));
    }

    #[test]
    fn total_work_matches_hand_computation() {
        let m = sample();
        let params = CostParameters {
            read: 1.0,
            write: 2.0,
            shuffle: 3.0,
            check: 4.0,
            join: 5.0,
            job_startup: 0.0,
            task_startup: 0.0,
            nodes: 1,
        };
        let expected = 1_000.0 + 500.0 * 2.0 + 200.0 * 3.0 + 2_000.0 * 4.0 + 300.0 * 5.0;
        assert_eq!(m.total_work_seconds(&params), expected);
        assert_eq!(m.simulated_seconds(&params), expected);
    }

    #[test]
    fn zero_node_cluster_is_treated_as_one() {
        let m = sample();
        let on = |nodes| {
            m.simulated_seconds(&CostParameters {
                nodes,
                ..CostParameters::default()
            })
        };
        assert_eq!(on(0), on(1));
    }
}
