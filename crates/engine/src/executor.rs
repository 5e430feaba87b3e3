//! Execution of physical plans against the partitioned cluster.
//!
//! Execution is faithful at the data level (it produces the exact query
//! answers) and at the accounting level (every tuple scanned, shuffled,
//! joined or written is charged to the job that processes it).
//!
//! **The driver only dispatches waves and moves ownership; every pass over
//! rows is a task.** The thread that calls [`Executor::execute`] walks the
//! plan and submits *task waves* to a [`Runtime`]; nothing it does itself
//! grows with a relation. An operator is one wave of one task per compute
//! node (a shuffled join adds its route wave). Every operator's result
//! stays per node (each part in the order the operator delivered), so the
//! next shuffle, the projection and the root consume parts in waves too;
//! the cluster-wide relation exists once, when the root is gathered by a
//! single k-way merge — itself a one-task wave.
//!
//! `Runtime::sequential()` (the deterministic default) runs every task
//! inline on the calling thread; `Runtime::with_threads` drains each wave
//! on scoped OS threads; `Runtime::serving` hands waves to the persistent
//! scheduler, where they interleave with other queries' waves (the
//! submitter helps drain its own). A wave whose operator reads fewer than
//! `INLINE_ROWS` rows runs on the submitting thread on every runtime, in
//! task-index order: dispatching it would cost more than the work inside
//! it. Results are **bit-identical** on all three at every thread count:
//! scan order, hash routing, stable merges with ties resolved by source
//! order, and the sorts the interesting-orders pass leaves in place are all
//! deterministic functions of the per-node inputs, which do not depend on
//! who runs the task.
//!
//! Scans use the store's three replicas as the indexes they are: files come
//! back in index order without a sort, and a residual constant (one no file
//! name consumed, [`ScanSpec::residual`]) is an equal-range seek in the
//! replica placed by its position.
//!
//! **A join is one operator; co-location only decides where a node's
//! inputs come from** ([`PhysicalPlan::co_located`]). One task per node
//! runs the join kernel the plan picks on that node's inputs. A co-located
//! join — a MapJoin over scans, which are placed by its key — reads part
//! `n` of every input in place. Any other join (every ReduceJoin) shuffles
//! first: one *route* task per (input, source part) hash-partitions that
//! part on the join attributes, the routed buckets change hands by move,
//! and node `n` merges the buckets it received in source order, as a
//! reducer sort-merges its own partition; the output parts then hold
//! hash-disjoint keys.
//!
//! **Keys cross job levels: only rows that can meet a partner are read or
//! shuffled.** The operators run in a post-order walk from the root
//! (`ExecState::visit`), under one invariant: *an operator is evaluated
//! after its inputs, once, and a restriction reaches it only through its
//! one consumer*. A join evaluates its inputs in an order fixed before any
//! runs: its unshared scans after its other inputs, and within each group
//! first those whose subtree can be sought (a residual constant, or a scan
//! that seeks a key set in scope), then by the catalog's stored rows of the
//! subtree's scans, ties by id. Once some inputs are evaluated, the
//! smallest of them supplies, for each join attribute, its distinct values
//! as a key set that stays in scope through the remaining input subtrees,
//! shufflers and nested joins included, as far as each operator outputs the
//! variable. The scope is the one key source, and a scan is the one place
//! it restricts: a scan binding a variable whose key set is in scope — its
//! own join's or an ancestor's — reads only those keys, by one seek of all
//! of them in the replica placed by the variable's position, when the set
//! has few rows against its stored rows (`RESTRICT_ROWS_PER_KEY`); any
//! other such scan reads its files in full and drops, as it binds them,
//! the triples whose key is not in the set (see `ExecState::eval_scan`).
//! An operator with more than one consumer is evaluated unrestricted, for
//! all of them. A restriction drops only rows no join above could keep, so
//! no answer changes; the counters (`tuples_read`, `tuples_shuffled`, join
//! rows) record what ran.
//!
//! Operators do **not** canonicalize their outputs. Leaf scans are tagged
//! with the index order the partitioned store already delivers, joins emit
//! their output in the order the plan's [`crate::physical::OpOrdering`]
//! demands (eliding the sort when their natural key order satisfies it),
//! shuffle buckets and per-node parts are combined with ordered merges
//! ([`Relation::merge_ordered`]) that preserve the tracked order, and a
//! single canonicalization of the gathered root makes the result relation
//! bit-identical at every thread count.
//!
//! Work is accounted once, per job: every tuple an operator reads, shuffles,
//! joins or writes is charged to the [`ExecutionMetrics`] of the job the
//! [`JobSchedule`] puts that operator in (`job_metrics`); their sum is
//! `metrics`, which the Section 5.4 cost model prices into
//! `simulated_seconds` — unchanged by the thread count. `wall_seconds` is
//! the real time of the whole execution.

use crate::factorized::{self, BoundedProjection, RunsRelation};
use crate::jobs::{schedule, JobSchedule};
use crate::physical::{FilterCondition, PhysId, PhysicalOp, PhysicalPlan, ScanSpec};
use crate::relation::{self, stats::RelationStats, KeySet, Relation, SortOrder};
use crate::translate::translate;
use cliquesquare_core::LogicalPlan;
use cliquesquare_mapreduce::{Cluster, ExecutionMetrics, JobKind, Runtime};
use cliquesquare_obs::{SpanNode, TaskSpan};
use cliquesquare_rdf::{TermId, Triple, TriplePosition};
use cliquesquare_sparql::{PatternTerm, TriplePattern, Variable};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// The result of executing one plan.
#[derive(Debug, Clone)]
pub struct ExecutionOutput {
    /// The final (projected) result relation in canonical (sorted) order.
    /// From [`Executor::execute`] and the profiled entries: the whole
    /// answer, duplicates preserved — nothing is counted or cut. From
    /// [`Executor::execute_bounded`]: only the first `max_rows` **distinct**
    /// rows, the count of the rest being [`BoundedOutput::total_rows`].
    pub results: Relation,
    /// Work counters of each scheduled job, indexed like
    /// [`JobSchedule::kinds`].
    pub job_metrics: Vec<ExecutionMetrics>,
    /// Aggregated work counters: the sum of `job_metrics`.
    pub metrics: ExecutionMetrics,
    /// Simulated response time on the cluster (cost model; independent of
    /// the runtime's thread count).
    pub simulated_seconds: f64,
    /// Measured wall-clock time of the whole execution on this machine.
    pub wall_seconds: f64,
    /// Number of OS threads the runtime executed task waves on.
    pub threads: usize,
    /// The job schedule the plan was executed under: the number and kinds
    /// of its jobs, and the paper's job descriptor.
    pub schedule: JobSchedule,
    /// The `execute` span subtree — one node per evaluated operator,
    /// grouped by job, each carrying wall time, rows in/out, sort/run
    /// counters and the per-task walls of its wave. `None` unless the
    /// plan ran through [`Executor::execute_profiled`]; recording is pure
    /// observation, so results are bit-identical either way.
    pub profile: Option<SpanNode>,
}

impl ExecutionOutput {
    /// Number of distinct result rows (BGP answers are sets of bindings).
    pub fn distinct_count(&self) -> usize {
        self.results.distinct_len()
    }
}

/// The result of executing one plan under a row bound
/// ([`Executor::execute_bounded`]).
#[derive(Debug, Clone)]
pub struct BoundedOutput {
    /// The execution's facts; its `results` hold the first `max_rows`
    /// distinct rows of the answer in canonical order.
    pub execution: ExecutionOutput,
    /// The exact number of distinct rows of the whole answer.
    pub total_rows: usize,
}

/// Intermediate operator results: one relation per compute node, or one
/// **run-length factorized** join output per node — cross products held as
/// `(key, payload ranges)` runs, expanded only at the final projection
/// boundary (see [`crate::factorized`]). The parts of a scan and of a
/// co-located join are placed by the scans' placement variable, those of a
/// shuffled join hash-partitioned on its join attributes; either way each
/// part is in the order its operator delivered, and consumers work part by
/// part. Shared between consumers via `Arc` — a memo hit costs a
/// reference-count bump, not a relation clone.
#[derive(Debug, Clone)]
enum Intermediate {
    Local(Vec<Relation>),
    LocalRuns(Vec<RunsRelation>),
}

impl Intermediate {
    /// Logical row count: factorized parts report the rows an expansion
    /// materializes, so every job counter (and the cost model on top) sees
    /// the same tuple volume as the eager path.
    fn cardinality(&self) -> u64 {
        let rows: usize = match self {
            Intermediate::Local(parts) => parts.iter().map(Relation::len).sum(),
            Intermediate::LocalRuns(parts) => parts.iter().map(RunsRelation::expanded_len).sum(),
        };
        rows as u64
    }

    /// Number of per-node parts.
    fn parts(&self) -> usize {
        match self {
            Intermediate::Local(parts) => parts.len(),
            Intermediate::LocalRuns(parts) => parts.len(),
        }
    }

    /// The per-node relations: what every consumer reads — a shuffle, a map
    /// join, a scan's key source, the root gather — but the root `Project`,
    /// the one consumer of factorized runs.
    fn relations(&self) -> &[Relation] {
        match self {
            Intermediate::Local(parts) => parts,
            Intermediate::LocalRuns(_) => unreachable!(
                "runs never leave the root Project: `translate::factorized_joins` factorizes \
                 only joins whose one consumer it is, and `PhysicalPlan::new`, the \
                 only constructor (`rebind_constants` included), applies it"
            ),
        }
    }

    /// One route task of the shuffle: hash-partitions part `part` on the
    /// join attributes into one bucket per destination node. Each bucket's
    /// flat buffer is built directly by [`relation::hash_partition`] — no
    /// per-row heap allocation — and inherits the part's tracked order, so
    /// a shuffle of key-ordered inputs hands the reduce side key-ordered
    /// buckets and nothing is re-sorted.
    ///
    /// When the part does **not** arrive in key order — a producer shared
    /// by consumers with incompatible requirements serves one group, and
    /// this consumer carries the residual (see `translate::winning_claim`)
    /// — the key order is established here, on each routed bucket: a
    /// planned local sort on the smallest pieces, not a join-input re-sort
    /// on the assembled bucket.
    fn route(&self, part: usize, attributes: &[Variable], nodes: usize) -> Vec<Relation> {
        let part = &self.relations()[part];
        let mut buckets = relation::hash_partition(part, attributes, nodes);
        for bucket in &mut buckets {
            establish_key_order(bucket, attributes);
        }
        buckets
    }

    /// The cluster-wide relation: one k-way merge interleaves the per-node
    /// parts (same schema by construction) by their shared tracked order.
    /// Ties go to the lower node, so the result is deterministic in node
    /// order and independent of the thread count. The parts are moved into
    /// the merge unless another consumer still shares them.
    fn gather(self: Arc<Self>) -> Relation {
        let Intermediate::Local(parts) = Arc::unwrap_or_clone(self) else {
            unreachable!("runs never leave the root Project (see `Intermediate::relations`)");
        };
        if parts.is_empty() {
            return Relation::empty(Vec::new());
        }
        Relation::merge_ordered(parts)
    }
}

/// Executes physical plans against a [`Cluster`] on a [`Runtime`].
///
/// The executor holds an owned [`Cluster`] handle (two `Arc` bumps — the
/// graph and the store stay shared) rather than a borrow, and its task
/// waves capture `Arc` snapshots of everything they touch. That makes every
/// wave `'static`: on a [`Runtime::serving`] runtime the waves go to the
/// persistent multi-job scheduler and interleave with concurrently running
/// queries, with results bit-identical to a solo run.
#[derive(Debug, Clone)]
pub struct Executor {
    cluster: Cluster,
    runtime: Runtime,
}

impl Executor {
    /// Creates a sequential (single-threaded) executor.
    pub fn sequential(cluster: &Cluster) -> Self {
        Self::with_runtime(cluster, Runtime::sequential())
    }

    /// Creates an executor with an explicit task runtime.
    pub fn with_runtime(cluster: &Cluster, runtime: Runtime) -> Self {
        Self {
            cluster: cluster.clone(),
            runtime,
        }
    }

    /// The task runtime executing the job waves.
    pub fn runtime(&self) -> Runtime {
        self.runtime.clone()
    }

    /// Translates a logical plan and executes it.
    pub fn execute_logical(&self, logical: &LogicalPlan) -> ExecutionOutput {
        let physical = translate(logical, self.cluster.graph());
        self.execute(&physical)
    }

    /// Executes a physical plan.
    pub fn execute(&self, plan: &PhysicalPlan) -> ExecutionOutput {
        self.execute_inner(plan, false, None, None).0
    }

    /// Executes a physical plan for a consumer that reads at most
    /// `max_rows` rows and the answer's size: returns the first `max_rows`
    /// **distinct** rows in canonical order and the exact distinct count,
    /// which are `execute(plan).results.distinct()` cut at `max_rows` and
    /// its length. Everything below the root runs as in
    /// [`execute`](Self::execute), with the same job counters and simulated
    /// seconds; the root `Project` counts on what its input holds — the
    /// factorized runs, or each part's rows — and materializes only each
    /// part's head when the parts' rows are provably disjoint
    /// (`ExecState::project_bounded`), and the whole answer is expanded,
    /// gathered, de-duplicated and cut otherwise. `Some(estimates)` records
    /// the span tree as
    /// [`execute_profiled_with_estimates`](Self::execute_profiled_with_estimates)
    /// does; the root `Project` span says which way it went (`bounded`).
    pub fn execute_bounded(
        &self,
        plan: &PhysicalPlan,
        max_rows: usize,
        estimates: Option<&[u64]>,
    ) -> BoundedOutput {
        let (execution, total_rows) =
            self.execute_inner(plan, estimates.is_some(), estimates, Some(max_rows));
        BoundedOutput {
            execution,
            total_rows,
        }
    }

    /// Executes a physical plan, recording the per-operator span tree into
    /// [`ExecutionOutput::profile`]. Profiling only brackets the existing
    /// waves with clocks and counter snapshots — it never changes what the
    /// tasks compute, so answers are bit-identical to [`Executor::execute`]
    /// at every thread count (asserted in `tests/observability.rs` and
    /// `tests/differential.rs`).
    pub fn execute_profiled(&self, plan: &PhysicalPlan) -> ExecutionOutput {
        self.execute_inner(plan, true, None, None).0
    }

    /// Like [`execute_profiled`](Self::execute_profiled), but additionally
    /// attaches the cost model's per-operator estimated cardinalities
    /// (`estimates[i]` for operator `i`, as produced by
    /// `MapReduceCostModel::estimate_cards`) as `est_rows` span attributes
    /// next to the measured `rows_out`, and observes each operator's
    /// q-error — `max(est/actual, actual/est)` — into the process-wide
    /// `csq_plan_qerror` histogram. Pure observation: answers stay
    /// bit-identical to [`Executor::execute`] at every thread count.
    pub fn execute_profiled_with_estimates(
        &self,
        plan: &PhysicalPlan,
        estimates: &[u64],
    ) -> ExecutionOutput {
        self.execute_inner(plan, true, Some(estimates), None).0
    }

    /// The one execution path. `bound` is read by the root `Project` wave
    /// and the gather alone; without one the second value returned is just
    /// the length of the results.
    fn execute_inner(
        &self,
        plan: &PhysicalPlan,
        profiled: bool,
        estimates: Option<&[u64]>,
        bound: Option<usize>,
    ) -> (ExecutionOutput, usize) {
        let started = Instant::now();
        let sched = schedule(plan);
        let mut state = ExecState {
            plan,
            cluster: &self.cluster,
            schedule: &sched,
            runtime: &self.runtime,
            job_id: self.runtime.begin_job(),
            jobs: vec![ExecutionMetrics::default(); sched.job_count],
            memo: vec![None; plan.len()],
            prof: profiled.then(|| ProfCtx::new(started)),
            estimates,
            bound,
            counted: None,
            key_sets: Vec::new(),
        };

        state.run();
        let (results, total_rows) = state.gather();

        // Per-job fixed counters: one map wave per job, one reduce wave for
        // map+reduce jobs (the *wave* count drives the cost model's task
        // start-up charge).
        let mut job_metrics = state.jobs;
        let mut metrics = ExecutionMetrics::default();
        for (job, kind) in job_metrics.iter_mut().zip(&sched.kinds) {
            job.jobs = 1;
            job.map_tasks = 1;
            job.reduce_tasks = u64::from(*kind == JobKind::MapReduce);
            metrics.merge(job);
        }
        let simulated_seconds = metrics.simulated_seconds(&self.cluster.config().cost);
        let profile = state.prof.map(|prof| {
            let mut execute = prof.into_execute_node(started);
            // The fan-out every wave of this execution ran at.
            execute.add_attr("partitions", self.cluster.nodes() as u64);
            execute
        });
        let output = ExecutionOutput {
            results,
            job_metrics,
            metrics,
            simulated_seconds,
            wall_seconds: started.elapsed().as_secs_f64(),
            threads: self.runtime.threads(),
            schedule: sched,
            profile,
        };
        (output, total_rows)
    }
}

/// Histogram bucket bounds for per-operator q-error: 1.0 is a perfect
/// estimate, each bucket doubles (roughly) the tolerated mis-estimation.
const QERROR_BUCKETS: &[f64] = &[1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0];

/// Observes one operator's estimation quality into the process-wide
/// `csq_plan_qerror` histogram (q-error = `max(est/actual, actual/est)`).
fn observe_q_error(estimated: u64, actual: u64) {
    cliquesquare_obs::global()
        .histogram(
            "csq_plan_qerror",
            "Per-operator cardinality estimation q-error (max of est/actual, actual/est)",
            &[],
            QERROR_BUCKETS,
        )
        .observe(crate::cost::q_error(estimated, actual));
}

/// Profiling state threaded through one `execute_profiled` run: the
/// epoch every span offset is measured from, the finished per-operator
/// nodes, and the observations of the operator currently evaluating
/// (drained into its node by the driver loop).
struct ProfCtx {
    /// The execution's start — span offsets are seconds since this.
    epoch: Instant,
    /// `(job, node)` per evaluated operator, in evaluation order.
    nodes: Vec<(usize, SpanNode)>,
    /// Per-task spans of the current operator's waves.
    tasks: Vec<TaskSpan>,
    /// Sum of the relation-stats deltas of the current operator's tasks.
    stats: RelationStats,
    /// Extra attributes pushed by the current operator (shuffle volume).
    attrs: Vec<(&'static str, u64)>,
    /// Override for the current operator's input tuple count (scans read
    /// raw triples, which no memoized input reports).
    rows_in: Option<u64>,
    /// Override for the current operator's output row count (a bounded root
    /// holds heads; its output is what it counted).
    rows_out: Option<u64>,
    /// When the current scan was restricted by a key set in scope: the keys
    /// it sought (`keys_in`) or the triples its filter dropped
    /// (`keys_filtered`: the triples read and not bound — a filtered scan
    /// has no residual constant, so only the key set, or a variable the
    /// pattern repeats, drops one), as that attribute's name and value, and
    /// the join the keys came from (`keys_from`). The estimator priced the whole
    /// file, so a deliberately narrowed scan carries these instead of an
    /// `est_rows` to be compared against.
    keyed: Option<(&'static str, u64, u64)>,
    /// Whether a wave of the current operator ran on the submitting thread
    /// because its volume was small ([`INLINE_ROWS`]).
    inline: bool,
    /// The root gather's span, once it ran.
    gather: Option<SpanNode>,
}

/// The driver-side bracket of a span being recorded: its start offset and
/// its clock.
type OpenSpan = (f64, Instant);

impl ProfCtx {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            nodes: Vec::new(),
            tasks: Vec::new(),
            stats: RelationStats::default(),
            attrs: Vec::new(),
            rows_in: None,
            rows_out: None,
            keyed: None,
            inline: false,
            gather: None,
        }
    }

    /// Assembles the finished operator nodes into the `execute` span: one
    /// child per job, whose children are that job's operators, then the
    /// root gather.
    fn into_execute_node(self, started: Instant) -> SpanNode {
        let mut execute = SpanNode::new("execute");
        let job_count = self.nodes.iter().map(|(job, _)| *job).max().unwrap_or(0);
        let mut jobs: Vec<SpanNode> = (1..=job_count)
            .map(|job| SpanNode::new(format!("job {job}")))
            .collect();
        for (job, node) in self.nodes {
            jobs[job - 1].children.push(node);
        }
        for mut job_node in jobs {
            if job_node.children.is_empty() {
                continue;
            }
            job_node.start_seconds = job_node
                .children
                .iter()
                .map(|c| c.start_seconds)
                .fold(f64::INFINITY, f64::min);
            let end = job_node
                .children
                .iter()
                .map(|c| c.start_seconds + c.wall_seconds)
                .fold(0.0, f64::max);
            job_node.wall_seconds = end - job_node.start_seconds;
            job_node.rows_in = job_node.children.first().map(|c| c.rows_in).unwrap_or(0);
            job_node.rows_out = job_node.children.last().map(|c| c.rows_out).unwrap_or(0);
            execute.children.push(job_node);
        }
        execute.children.extend(self.gather);
        execute.wall_seconds = started.elapsed().as_secs_f64();
        execute.rows_out = execute.children.last().map(|c| c.rows_out).unwrap_or(0);
        execute
    }
}

/// Marks the operators the executor evaluates: everything reachable from the
/// root.
fn evaluated_ops(plan: &PhysicalPlan) -> Vec<bool> {
    let mut needed = vec![false; plan.len()];
    let mut stack = vec![plan.root()];
    while let Some(id) = stack.pop() {
        if needed[id.index()] {
            continue;
        }
        needed[id.index()] = true;
        stack.extend(plan.op(id).inputs());
    }
    needed
}

/// How many evaluated operators consume each operator.
fn consumer_counts(plan: &PhysicalPlan, needed: &[bool]) -> Vec<usize> {
    let mut consumers = vec![0usize; plan.len()];
    for index in (0..plan.len()).filter(|&index| needed[index]) {
        for input in plan.op(PhysId(index)).inputs() {
            consumers[input.index()] += 1;
        }
    }
    consumers
}

/// A key set in scope while the remaining inputs of `join` are evaluated:
/// the distinct values of `variable`, an attribute of `join`, in `source`,
/// the smallest input of `join` evaluated so far, which holds `rows` rows.
/// A row below `join` whose `variable` is not among them has no partner
/// there ([`ExecState::visit_inputs`]).
#[derive(Debug, Clone)]
struct ScopedKeys {
    variable: Variable,
    source: PhysId,
    rows: u64,
    join: PhysId,
}

/// `scope` narrowed to what can restrict `input`: the key sets of the
/// variables its output carries. A variable `input` does not output is
/// not joined on above it through `input`, so it cannot filter its rows.
fn narrowed(plan: &PhysicalPlan, scope: &[ScopedKeys], input: PhysId) -> Vec<ScopedKeys> {
    let output = plan.op(input).output();
    let kept = scope.iter().filter(|keys| output.contains(&keys.variable));
    kept.cloned().collect()
}

/// A scan seeks a key set in scope when its stored rows are at least this
/// many times the rows of the key set's source (a bound on its distinct
/// keys). Looking one key up costs about `2·log2(rows per key) + 2`
/// probes, so from 64 rows per key a sought read touches under a quarter
/// of what a full read binds even when every row turns out to match; below
/// it the keys are dense enough that reading the file in full and checking
/// each triple's key as it is bound is as cheap.
const RESTRICT_ROWS_PER_KEY: usize = 64;

/// A wave runs on the submitting thread, in task-index order, when its
/// operator's input volume (`ExecState::run_wave`) is below this many rows.
/// Criterion `wave_dispatch` (2 cores, means of 1 s windows): a wave of 4
/// tasks — the fan-out of 2 threads — costs 2.6 µs more through
/// `Runtime::serving(1)` than inline when its tasks do nothing, 3.7 µs when
/// each spins 1 µs; 8 tasks cost 4.3–5.1 µs more. On two threads the pool
/// at best halves a wave's work W, so it pays once W / 2 exceeds that, at
/// W ≈ 7.4 µs. The cheapest row passes near the cut — a projection, the
/// gather's merge of ordered parts, a bind (3.5 ns a triple) — cost about
/// 2 ns a row, hence 4 096; a one-task wave never gains from the pool.
/// Against 1 024, alternating `point_lookup` and `lubm_mix` runs did not
/// favour the smaller cut (EXPERIMENTS.md, "Semi-joined shuffles and inline
/// waves").
const INLINE_ROWS: u64 = 4_096;

/// Sorts a shuffle bucket into join-key order when its tracked order does
/// not already deliver it. No-op (and no counter traffic) on the planned
/// path where the interesting-orders pass ordered the producer by this key.
/// Buckets of at most one row adopt the key descriptor outright (every
/// ordering holds on them), so a node's per-part buckets keep a shared
/// order and their k-way merge stays key-ordered.
fn establish_key_order(bucket: &mut Relation, attributes: &[Variable]) {
    let key_cols: Vec<usize> = attributes.iter().filter_map(|a| bucket.column(a)).collect();
    if key_cols.len() < attributes.len() || bucket.order().satisfies(&key_cols) {
        return;
    }
    if bucket.len() <= 1 {
        bucket.assume_order(SortOrder::by(key_cols.iter().copied()));
    } else {
        bucket.sort_by_columns(&key_cols);
    }
}

/// Mutable execution state threaded through the post-order evaluation walk.
struct ExecState<'a> {
    plan: &'a PhysicalPlan,
    cluster: &'a Cluster,
    schedule: &'a JobSchedule,
    runtime: &'a Runtime,
    /// This execution's job identity on the (shared, multi-job) scheduler.
    job_id: cliquesquare_mapreduce::JobId,
    /// Work charged to each scheduled job, indexed by `job - 1`.
    jobs: Vec<ExecutionMetrics>,
    memo: Vec<Option<Arc<Intermediate>>>,
    /// Span recording; `None` on the default (unprofiled) path.
    prof: Option<ProfCtx>,
    /// Cost-model estimated cardinalities per operator (arena-indexed),
    /// attached as `est_rows` span attributes when profiling.
    estimates: Option<&'a [u64]>,
    /// The number of result rows the caller reads
    /// ([`Executor::execute_bounded`]); `None` delivers the whole answer.
    bound: Option<usize>,
    /// Distinct rows of the whole answer, once the root `Project` counted
    /// them without expanding it; the memoized root then holds each part's
    /// head.
    counted: Option<usize>,
    /// Every key set built to filter a scan's full read, by its source and
    /// variable ([`ExecState::key_filter`]): the scans it filters share it.
    key_sets: Vec<(PhysId, Variable, Arc<KeySet>)>,
}

impl<'a> ExecState<'a> {
    fn job_mut(&mut self, id: PhysId) -> &mut ExecutionMetrics {
        let job = self.schedule.job_of(id);
        &mut self.jobs[job - 1]
    }

    /// Runs one wave of this job's tasks for an operator whose inputs hold
    /// `volume` rows: on the submitting thread, in task-index order, when
    /// that is below [`INLINE_ROWS`], and on the runtime otherwise. The
    /// volume is a scan's triples (what its seek found, or its stored rows),
    /// a key task's estimate (`ExecState::seek_keys`) or key source rows
    /// (`ExecState::key_filter`), a join wave's the rows its tasks join (for
    /// a shuffled join, what the shuffle delivered), and any other wave's
    /// operator input rows. With profiling on, every task is
    /// additionally bracketed — on the thread that runs it — with its start
    /// offset, its wall clock and its relation-stats delta: pure
    /// observations that cannot change task results. The deltas sum into
    /// the span of the operator being evaluated.
    fn run_wave<T, F>(&mut self, volume: u64, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let inline = volume < INLINE_ROWS;
        let Some(prof) = &mut self.prof else {
            return self.dispatch(inline, tasks);
        };
        prof.inline |= inline;
        let epoch = prof.epoch;
        let wrapped: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                move || {
                    let start = epoch.elapsed().as_secs_f64();
                    let before = relation::stats::snapshot();
                    let clock = Instant::now();
                    let result = task();
                    let wall = clock.elapsed().as_secs_f64();
                    let delta = relation::stats::snapshot().since(&before);
                    (result, start, wall, delta)
                }
            })
            .collect();
        let outcomes = self.dispatch(inline, wrapped);
        let prof = self.prof.as_mut().expect("`prof` is `Some`: checked above");
        let mut results = Vec::with_capacity(outcomes.len());
        for (index, (result, start, wall, delta)) in outcomes.into_iter().enumerate() {
            prof.tasks.push(TaskSpan {
                index,
                start_seconds: start,
                wall_seconds: wall,
            });
            prof.stats = prof.stats.plus(&delta);
            results.push(result);
        }
        results
    }

    /// Runs `tasks` on this thread in index order when `inline`, as a wave
    /// of this job on the runtime otherwise.
    fn dispatch<T, F>(&self, inline: bool, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match inline {
            true => tasks.into_iter().map(|task| task()).collect(),
            false => self.runtime.run_job_wave(self.job_id, tasks),
        }
    }

    /// Opens the driver-side bracket of a span; `None` unless profiling.
    fn open_span(&self) -> Option<OpenSpan> {
        let prof = self.prof.as_ref()?;
        Some((prof.epoch.elapsed().as_secs_f64(), Instant::now()))
    }

    /// Closes a span: the driver-side clock plus whatever the waves run
    /// inside it observed — their task spans, the sum of their sort and run
    /// counters, the attributes they pushed.
    fn close_span(&mut self, name: String, (start, clock): OpenSpan) -> SpanNode {
        let prof = self.prof.as_mut().expect("a span was opened");
        let mut node = SpanNode::new(name);
        node.start_seconds = start;
        node.wall_seconds = clock.elapsed().as_secs_f64();
        node.tasks = std::mem::take(&mut prof.tasks);
        let stats = std::mem::take(&mut prof.stats);
        for (name, value) in [
            ("sorts_performed", stats.sorts_performed),
            ("rows_sorted", stats.rows_sorted),
            ("sorts_elided", stats.sorts_elided),
            ("join_inputs_presorted", stats.join_inputs_presorted),
            ("join_inputs_resorted", stats.join_inputs_resorted),
            ("key_groups", stats.key_groups),
            ("runs_emitted", stats.runs_emitted),
            ("rows_expanded", stats.rows_expanded),
        ] {
            if value > 0 {
                node.add_attr(name, value);
            }
        }
        for (name, value) in std::mem::take(&mut prof.attrs) {
            node.add_attr(name, value);
        }
        if std::mem::take(&mut prof.inline) {
            node.add_attr("inline", 1);
        }
        node
    }

    /// Files the closed span of one evaluated operator under its job, with
    /// its rows in and out and its estimate.
    fn record_node(&mut self, id: PhysId, result: &Intermediate, mut node: SpanNode) {
        let job = self.schedule.job_of(id);
        let rows_in_from_inputs: u64 = self
            .plan
            .op(id)
            .inputs()
            .iter()
            .filter_map(|input| self.memo[input.index()].as_ref())
            .map(|value| value.cardinality())
            .sum();
        let prof = self.prof.as_mut().expect("record_node requires profiling");
        node.rows_in = prof.rows_in.take().unwrap_or(rows_in_from_inputs);
        node.rows_out = prof.rows_out.take().unwrap_or(result.cardinality());
        if let Some((name, value, join)) = prof.keyed.take() {
            node.add_attr(name, value);
            node.add_attr("keys_from", join);
        } else if let Some(&estimated) = self.estimates.and_then(|cards| cards.get(id.index())) {
            node.add_attr("est_rows", estimated);
            observe_q_error(estimated, node.rows_out);
        }
        prof.nodes.push((job, node));
    }

    /// Gathers the evaluated root into the result relation, as a one-task
    /// wave: the single k-way merge of its per-node parts, then the single
    /// canonicalization of the whole execution — elided for free when the
    /// interesting-orders pass already ordered the final projection
    /// canonically. With profiling on this is the `Gather` span.
    ///
    /// Under a bound the same task also cuts: heads of a counted root
    /// (disjoint across parts, each distinct and canonical) merge and lose
    /// what lies beyond the bound; an uncounted root is de-duplicated and
    /// counted here, whole, before the cut. Returns the results and the row
    /// count of the whole answer — distinct rows under a bound, every row
    /// (duplicates included) without one.
    fn gather(&mut self) -> (Relation, usize) {
        let root = self.memo[self.plan.root().index()]
            .take()
            .expect("root evaluated");
        let (bound, counted) = (self.bound, self.counted);
        let span = self.open_span();
        let rows = root.cardinality();
        let gathered = self.run_wave(
            rows,
            vec![move || {
                let mut results = root.gather();
                results.canonicalize();
                let merged = results.len();
                let Some(bound) = bound else {
                    return (results, merged, merged);
                };
                let (mut results, total) = match counted {
                    Some(total) => (results, total),
                    None => {
                        let results = results.distinct();
                        let total = results.len();
                        (results, total)
                    }
                };
                results.truncate(bound);
                (results, total, merged)
            }],
        );
        let (results, total, merged) = gathered.into_iter().next().expect("one gather task");
        if let Some(span) = span {
            let mut node = self.close_span("Gather".to_string(), span);
            node.rows_in = merged as u64;
            node.rows_out = results.len() as u64;
            self.prof.as_mut().expect("a span was opened").gather = Some(node);
        }
        (results, total)
    }

    /// Evaluates the plan into the memo: a post-order walk from the root
    /// ([`ExecState::visit`]), so every operator runs after its inputs and
    /// once. Nothing is restricted at the root; each join opens the scope
    /// its later inputs are evaluated under.
    fn run(&mut self) {
        let plan = self.plan;
        let needed = evaluated_ops(plan);
        let consumers = consumer_counts(plan, &needed);
        let shared: Vec<bool> = consumers.iter().map(|&consumers| consumers > 1).collect();
        self.visit(&shared, plan.root(), Vec::new());
    }

    /// Evaluates `id` after its inputs, under the key sets `scope` holds
    /// for it. A `shared` operator serves consumers with different scopes,
    /// so it (and all below it) is evaluated unrestricted. A join's inputs
    /// are evaluated by [`ExecState::visit_inputs`]; a shuffler or
    /// projection passes the scope on to its input, and a scan may seek a
    /// key set of it ([`ExecState::eval_scan`]).
    fn visit(&mut self, shared: &[bool], id: PhysId, scope: Vec<ScopedKeys>) {
        if self.memo[id.index()].is_some() {
            return;
        }
        let scope = if shared[id.index()] {
            Vec::new()
        } else {
            scope
        };
        match self.plan.op(id) {
            PhysicalOp::MapJoin {
                attributes, inputs, ..
            }
            | PhysicalOp::ReduceJoin {
                attributes, inputs, ..
            } => self.visit_inputs(shared, id, attributes, inputs, &scope),
            PhysicalOp::MapShuffler { input, .. } | PhysicalOp::Project { input, .. } => {
                self.visit(shared, *input, narrowed(self.plan, &scope, *input))
            }
            PhysicalOp::MapScan { .. } => {}
        }
        self.run_op(id, &scope);
    }

    /// Evaluates the inputs of join `id`, in an order fixed before any of
    /// them runs: its unshared scans after its other inputs; within each
    /// group first the inputs whose subtree can be sought (it holds a
    /// residual constant, or a scan that seeks a key set in `scope`),
    /// then by the catalog's stored rows summed over the subtree's scans,
    /// ties by id. Once an input is evaluated, the smallest evaluated so far
    /// supplies a key set for every attribute of the join, and each later
    /// input is evaluated under those and the ancestors' `scope` — a scan
    /// sought by its own join's keys reads only rows that can meet a
    /// partner, so it tends to supply the next input's keys in turn.
    fn visit_inputs(
        &mut self,
        shared: &[bool],
        id: PhysId,
        attributes: &BTreeSet<Variable>,
        inputs: &[PhysId],
        scope: &[ScopedKeys],
    ) {
        let plan = self.plan;
        let mut order: Vec<(bool, bool, u64, PhysId)> = (inputs.iter())
            .map(|&input| {
                let scan = matches!(plan.op(input), PhysicalOp::MapScan { .. });
                let seekable = self.seekable(shared, input, &narrowed(plan, scope, input));
                let rows = self.subtree_rows(input);
                (scan && !shared[input.index()], !seekable, rows, input)
            })
            .collect();
        order.sort_unstable();
        for (.., input) in order {
            let mut inner = narrowed(plan, scope, input);
            inner.extend(self.join_keys(id, attributes, inputs));
            self.visit(shared, input, inner);
        }
    }

    /// The key sets join `id` supplies once some of its inputs are
    /// evaluated: one per attribute, from the smallest evaluated input.
    fn join_keys(
        &self,
        id: PhysId,
        attributes: &BTreeSet<Variable>,
        inputs: &[PhysId],
    ) -> Vec<ScopedKeys> {
        let evaluated = inputs.iter().filter_map(|&input| {
            let value = self.memo[input.index()].as_ref()?;
            Some((value.cardinality(), input))
        });
        let Some((rows, source)) = evaluated.min() else {
            return Vec::new();
        };
        (attributes.iter())
            .map(|variable| ScopedKeys {
                variable: variable.clone(),
                source,
                rows,
                join: id,
            })
            .collect()
    }

    /// Whether the subtree of `id` can be sought under `scope`: it holds a
    /// residual constant, or a scan that seeks a key set in scope. A
    /// shared operator is evaluated unrestricted, so only its constants
    /// count.
    fn seekable(&self, shared: &[bool], id: PhysId, scope: &[ScopedKeys]) -> bool {
        let scope = if shared[id.index()] { &[] } else { scope };
        match self.plan.op(id) {
            PhysicalOp::MapScan { spec, output } => {
                let scoped = self.scoped_source(spec, output, scope);
                !spec.residual.is_empty() || scoped.is_some_and(|keys| self.seeks(spec, keys))
            }
            op => (op.inputs().iter())
                .any(|&input| self.seekable(shared, input, &narrowed(self.plan, scope, input))),
        }
    }

    /// The catalog's stored rows summed over the scans of `id`'s subtree.
    fn subtree_rows(&self, id: PhysId) -> u64 {
        match self.plan.op(id) {
            PhysicalOp::MapScan { spec, .. } => self.stored_rows(spec),
            op => op
                .inputs()
                .iter()
                .map(|&input| self.subtree_rows(input))
                .sum(),
        }
    }

    /// The key set in `scope` that restricts a scan of `spec`, if any: one
    /// of a variable the scan outputs, the one with the fewest rows, one on
    /// the placement variable on a tie.
    fn scoped_source<'s>(
        &self,
        spec: &ScanSpec,
        output: &BTreeSet<Variable>,
        scope: &'s [ScopedKeys],
    ) -> Option<&'s ScopedKeys> {
        let placement = placement_variable(spec);
        (scope.iter())
            .filter(|keys| output.contains(&keys.variable))
            .min_by_key(|keys| (keys.rows, placement != Some(&keys.variable)))
    }

    /// Whether a scan of `spec` seeks the key set `keys` (rather than
    /// filtering its full read by it): the set's source has few rows against
    /// the scan's stored rows ([`RESTRICT_ROWS_PER_KEY`]) — decided from
    /// cardinalities before anything is read.
    fn seeks(&self, spec: &ScanSpec, keys: &ScopedKeys) -> bool {
        keys.rows.saturating_mul(RESTRICT_ROWS_PER_KEY as u64) <= self.stored_rows(spec)
    }

    /// Evaluates one operator into the memo, under the key sets `scope`
    /// holds for it (read by a scan alone). With profiling on, the
    /// operator is bracketed with a driver-side clock; the wave wrapper in
    /// `run_wave` adds what its tasks observed.
    fn run_op(&mut self, id: PhysId, scope: &[ScopedKeys]) {
        let span = self.open_span();
        let result = self.eval_op(id, scope);
        if let Some(span) = span {
            let name = format!("{}#{}", self.plan.op(id).name(), id.index());
            let node = self.close_span(name, span);
            self.record_node(id, &result, node);
        }
        self.memo[id.index()] = Some(result);
    }

    /// An already-evaluated input.
    fn input(&self, id: PhysId) -> Arc<Intermediate> {
        self.memo[id.index()].clone().expect(
            "post-order: `ExecState::visit` evaluates an operator's inputs before it, and \
             `PhysicalPlan::new` asserts the plan is acyclic (inputs have smaller ids)",
        )
    }

    fn eval_op(&mut self, id: PhysId, scope: &[ScopedKeys]) -> Arc<Intermediate> {
        match self.plan.op(id) {
            PhysicalOp::MapScan { spec, output } => self.eval_scan(id, spec, output, scope),
            PhysicalOp::MapJoin {
                attributes, inputs, ..
            }
            | PhysicalOp::ReduceJoin {
                attributes, inputs, ..
            } => self.eval_join(id, attributes, inputs),
            PhysicalOp::MapShuffler { input, .. } => self.eval_shuffler(id, *input),
            PhysicalOp::Project { variables, input } => self.eval_project(id, variables, *input),
        }
    }

    /// Reads the triples `spec` selects and converts them to binding rows,
    /// applying the spec's residual constants and the pattern's own
    /// repeated-variable equalities. One map task per node, and two ways
    /// to read:
    ///
    /// * **sought**: a residual constant, or else the key set in `scope`
    ///   ([`ExecState::scoped_source`]) when it passes the seek cut
    ///   ([`ExecState::seeks`]), is looked up in the replica placed by its
    ///   position — the scan's own replica when that is its placement
    ///   position — as one equal range per key and file
    ///   ([`PartitionedStore::seek`](cliquesquare_mapreduce::PartitionedStore::seek),
    ///   [`ExecState::seek_keys`]); the scan's files are not read;
    /// * otherwise the files are read in full, as they are stored — and
    ///   under a key set that fails the cut, a triple whose key is not in
    ///   it ([`ExecState::key_filter`]) is dropped as it is bound.
    ///
    /// What was read is bound in bulk ([`TripleBinder::bind_all`]): one loop
    /// over the triples appends each schema column's source position
    /// straight into the relation's buffer — reserved at its exact size
    /// when neither a residual constant, a key set nor a repeated variable
    /// can reject a triple.
    ///
    /// Both reads deliver the store's placement-major order, so each
    /// node's relation starts pre-ordered: it is tagged with the index order
    /// the interesting-orders pass derived for this operator (verified in
    /// debug builds), and a scan feeding a join on the placement variable
    /// needs no re-sort at all.
    fn eval_scan(
        &mut self,
        id: PhysId,
        spec: &ScanSpec,
        output: &BTreeSet<Variable>,
        scope: &[ScopedKeys],
    ) -> Arc<Intermediate> {
        let plan = self.plan;
        let nodes = self.cluster.nodes();
        let schema: Vec<Variable> = output.iter().cloned().collect();
        // Columns of the delivered index order. The pass keeps delivered
        // orders inside the output schema, but truncate at the first missing
        // variable anyway: a dropped order column breaks ties invisibly, so
        // claiming the columns after it would be unsound.
        let order_cols: Vec<usize> = plan
            .ordering(id)
            .delivered
            .iter()
            .map_while(|v| schema.iter().position(|s| s == v))
            .collect();
        let store = self.cluster.store_arc();
        let (placement, property, class) = (spec.placement, spec.property, spec.type_object);
        let scoped = (spec.residual.is_empty())
            .then(|| self.scoped_source(spec, output, scope))
            .flatten();
        let (sought, keys, keys_in) = match (spec.residual.first(), scoped) {
            (Some(seek), _) => {
                let constant = [seek.constant];
                let sought = store.seek(placement, property, class, seek.position, &constant);
                (Some(sought), None, None)
            }
            (None, Some(scoped)) if self.seeks(spec, scoped) => {
                let (sought, keys) = self.seek_keys(spec, scoped);
                (Some(sought), None, Some(keys))
            }
            (None, Some(scoped)) => (None, Some(self.key_filter(spec, scoped)), None),
            (None, None) => (None, None, None),
        };
        let volume = match &sought {
            Some(sought) => sought.iter().map(|triples| triples.len() as u64).sum(),
            None => self.stored_rows(spec),
        };
        // One `'static` snapshot shared by the wave's tasks: the store stays
        // behind its `Arc`, everything else is this scan's own small state.
        let ctx = Arc::new(ScanWave {
            store,
            spec: spec.clone(),
            binder: TripleBinder::new(&spec.pattern, schema),
            order_cols,
            residual: spec.residual.iter().skip(1).cloned().collect(),
            sought,
            keys,
        });
        let tasks: Vec<_> = (0..nodes)
            .map(|node| {
                let ctx = Arc::clone(&ctx);
                move || ctx.task(node)
            })
            .collect();
        let results = self.run_wave(volume, tasks);

        let checks = (spec.residual.len() as u64).max(1);
        let scanned: u64 = results.iter().map(|(_, scanned)| scanned).sum();
        let parts: Vec<Relation> = results.into_iter().map(|(relation, _)| relation).collect();
        let produced = parts.iter().map(|part| part.len() as u64).sum::<u64>();
        let job = self.job_mut(id);
        job.tuples_read += scanned;
        job.comparisons += scanned * checks;
        job.tuples_written += produced;
        if let Some(prof) = &mut self.prof {
            // The scan's true input is the raw triples it read, which no
            // memoized intermediate reports.
            prof.rows_in = Some(scanned);
            let join = scoped.map(|scoped| scoped.join.index() as u64);
            prof.keyed = join.map(|join| match keys_in {
                Some(keys) => ("keys_in", keys, join),
                None => ("keys_filtered", scanned - produced, join),
            });
        }
        Arc::new(Intermediate::Local(parts))
    }

    /// The triples a full read of `spec`'s files binds, from the catalog:
    /// each replica holds every triple once.
    fn stored_rows(&self, spec: &ScanSpec) -> u64 {
        let stats = self.cluster.statistics();
        stats.scan_cardinality(spec.property, spec.type_object) as u64
    }

    /// The values a scan of `spec` is restricted to by the key set
    /// `scoped`: the position of the key variable in `spec`'s pattern, and
    /// that variable's values in `scoped.source`, to be gathered by the one
    /// task that seeks them ([`ExecState::seek_keys`]) or builds the set
    /// that filters the full read ([`ExecState::key_filter`]).
    fn key_values(&self, spec: &ScanSpec, scoped: &ScopedKeys) -> (TriplePosition, KeyValues) {
        let variable = &scoped.variable;
        let position = (TriplePosition::ALL.into_iter())
            .zip(spec.pattern.terms())
            .find_map(|(position, term)| (term.as_variable() == Some(variable)).then_some(position))
            .expect("a scan outputs only variables of its pattern");
        let source = self.input(scoped.source);
        let column = (source.relations().first())
            .and_then(|part| part.column(variable))
            .expect("every input of a join binds its attributes");
        (position, KeyValues { source, column })
    }

    /// The seek of a scan of `spec` by the key set `scoped`, as a one-task
    /// wave: the task collects the distinct values of the key column of
    /// `scoped.source` and seeks them, in one call, in the replica placed
    /// by the variable's position
    /// ([`PartitionedStore::seek`](cliquesquare_mapreduce::PartitionedStore::seek)).
    /// The wave's volume is the catalog's estimate of what the seek finds:
    /// the source's rows (a bound on its distinct keys) times the rows per
    /// distinct value at that position (one for a class file), at most the
    /// stored rows. Returns the triples per node, in scan order, and the
    /// number of keys.
    fn seek_keys(&mut self, spec: &ScanSpec, scoped: &ScopedKeys) -> (Vec<Vec<Triple>>, u64) {
        let (position, values) = self.key_values(spec, scoped);
        let stored = self.stored_rows(spec);
        let rows_per_key = match (spec.type_object, spec.property) {
            (Some(_), _) => 1,
            (None, Some(property)) => {
                let distinct = self.cluster.statistics().distinct_at(property, position);
                stored.div_ceil(distinct.max(1) as u64)
            }
            (None, None) => stored,
        };
        let volume = stored.min(scoped.rows.saturating_mul(rows_per_key));
        let store = self.cluster.store_arc();
        let (placement, property, class) = (spec.placement, spec.property, spec.type_object);
        let found = self.run_wave(
            volume,
            vec![move || {
                let mut keys: Vec<TermId> = values.iter().collect();
                keys.sort_unstable();
                keys.dedup();
                let sought = store.seek(placement, property, class, position, &keys);
                (sought, keys.len() as u64)
            }],
        );
        found.into_iter().next().expect("one task, one result")
    }

    /// The filter of a scan of `spec` by the key set `scoped`, which it
    /// cannot seek: the set of the key column's values in `scoped.source`,
    /// and each triple whose value at the returned position is not in it is
    /// dropped as it is bound. One task builds the set the first time a
    /// scan of the execution asks for it; later scans filtered by the same
    /// source and variable share it.
    fn key_filter(
        &mut self,
        spec: &ScanSpec,
        scoped: &ScopedKeys,
    ) -> (TriplePosition, Arc<KeySet>) {
        let (position, values) = self.key_values(spec, scoped);
        let built = (self.key_sets.iter())
            .find(|(source, variable, _)| *source == scoped.source && *variable == scoped.variable);
        if let Some((_, _, keys)) = built {
            return (position, Arc::clone(keys));
        }
        let built = self.run_wave(scoped.rows, vec![move || Arc::new(values.iter().collect())]);
        let keys: Arc<KeySet> = built.into_iter().next().expect("one task, one result");
        let key = (scoped.source, scoped.variable.clone(), Arc::clone(&keys));
        self.key_sets.push(key);
        (position, keys)
    }

    fn eval_shuffler(&mut self, id: PhysId, input: PhysId) -> Arc<Intermediate> {
        let value = self.input(input);
        let rows = value.cardinality();
        // A previous job's stored output, re-read by this job's map tasks.
        // (Runs never reach a shuffler in well-formed plans; their expanded
        // volumes are what a re-read would see.)
        let job = self.job_mut(id);
        job.tuples_read += rows;
        job.tuples_written += rows;
        value
    }

    /// Evaluates a join — MapJoin and ReduceJoin alike: one wave of one
    /// task per node runs the kernel the plan picks on that node's inputs
    /// ([`NodeInputs::join`]) and emits in the order the interesting-orders
    /// pass picked to satisfy the consumer (sorting only when the join's
    /// natural key order does not already deliver it). The factorized
    /// kernel emits `(key, payload ranges)` runs per node instead of
    /// materializing the cross product; counters report the rows an
    /// expansion yields, so the job totals (and the cost model on top)
    /// match the eager kernel exactly.
    ///
    /// The one branch is where a node's inputs come from. A co-located
    /// join ([`PhysicalPlan::co_located`]) reads part `n` of every input in
    /// place. Any other join's inputs are shuffled ([`ExecState::shuffle`]):
    /// the hash partition gives the nodes disjoint key sets and never
    /// separates joinable rows, so the per-node outputs together are the
    /// cluster-wide join.
    fn eval_join(
        &mut self,
        id: PhysId,
        attributes: &BTreeSet<Variable>,
        inputs: &[PhysId],
    ) -> Arc<Intermediate> {
        let plan = self.plan;
        let attrs: Arc<[Variable]> = attributes.iter().cloned().collect();
        let delivered: Arc<[Variable]> = plan.ordering(id).delivered.as_slice().into();
        let evaluated: Arc<[Arc<Intermediate>]> = inputs.iter().map(|&i| self.input(i)).collect();
        let node_inputs: Vec<NodeInputs> = if plan.co_located(id) {
            let nodes = 0..self.cluster.nodes();
            (nodes.map(|node| NodeInputs::Parts(Arc::clone(&evaluated), node))).collect()
        } else {
            let volume = evaluated.iter().map(|v| v.cardinality()).sum();
            let (buckets, shuffled) = self.shuffle(&evaluated, &attrs, volume);
            if let Some(prof) = &mut self.prof {
                prof.attrs.push(("tuples_shuffled", shuffled));
            }
            self.job_mut(id).tuples_shuffled += shuffled;
            buckets.into_iter().map(NodeInputs::Buckets).collect()
        };
        Arc::new(if plan.factorized(id) {
            let (join, rows) = (factorized::join_runs, RunsRelation::expanded_len);
            Intermediate::LocalRuns(self.join_wave(id, node_inputs, &attrs, &delivered, join, rows))
        } else {
            let (join, rows) = (Relation::join, Relation::len);
            Intermediate::Local(self.join_wave(id, node_inputs, &attrs, &delivered, join, rows))
        })
    }

    /// The wave of one join: one task per node joins that node's inputs
    /// with `join`; its volume is the rows those inputs hold. Deterministic
    /// in part order, so identical at every thread count. Returns the
    /// per-node outputs, whose logical row counts `rows` reports, and
    /// charges them to the join's job.
    fn join_wave<T: Send + 'static>(
        &mut self,
        id: PhysId,
        node_inputs: Vec<NodeInputs>,
        attrs: &Arc<[Variable]>,
        delivered: &Arc<[Variable]>,
        join: JoinKernel<T>,
        rows: fn(&T) -> usize,
    ) -> Vec<T> {
        let volume = node_inputs.iter().map(NodeInputs::rows).sum();
        let tasks: Vec<_> = node_inputs
            .into_iter()
            .map(|inputs| {
                let (attrs, delivered) = (Arc::clone(attrs), Arc::clone(delivered));
                move || inputs.join(join, &attrs, &delivered)
            })
            .collect();
        let parts = self.run_wave(volume, tasks);
        let produced = parts.iter().map(rows).sum::<usize>() as u64;
        let job = self.job_mut(id);
        job.join_output_tuples += produced;
        job.tuples_written += produced;
        parts
    }

    /// The shuffle of one join: a wave of one route task per (input, source
    /// part) hash-partitions every part on the join attributes
    /// ([`Intermediate::route`]), so all rows agreeing on the key meet on
    /// one node; the routed buckets are then handed to their destinations
    /// by move. Returns, per destination node and per input, the buckets
    /// that node received, in source-part order, and the number of rows
    /// routed.
    fn shuffle(
        &mut self,
        evaluated: &[Arc<Intermediate>],
        attrs: &Arc<[Variable]>,
        volume: u64,
    ) -> (Vec<Vec<Vec<Relation>>>, u64) {
        let nodes = self.cluster.nodes();
        let tasks: Vec<_> = (evaluated.iter())
            .flat_map(|value| (0..value.parts()).map(move |part| (value, part)))
            .map(|(value, part)| {
                let (value, attrs) = (Arc::clone(value), Arc::clone(attrs));
                move || value.route(part, &attrs, nodes)
            })
            .collect();
        let route_tasks = tasks.len() as u64;
        let routed = self.run_wave(volume, tasks);

        let mut received: Vec<Vec<Vec<Relation>>> = (0..nodes)
            .map(|_| {
                let per_input = evaluated.iter().map(|v| Vec::with_capacity(v.parts()));
                per_input.collect()
            })
            .collect();
        let (mut shuffle_bytes, mut shuffled) = (0, 0);
        let mut routed = routed.into_iter();
        for (input, value) in evaluated.iter().enumerate() {
            for buckets in routed.by_ref().take(value.parts()) {
                for (node, bucket) in buckets.into_iter().enumerate() {
                    shuffle_bytes += bucket.buffer_bytes();
                    shuffled += bucket.len() as u64;
                    received[node][input].push(bucket);
                }
            }
        }
        relation::stats::note_shuffle(shuffle_bytes);
        if let Some(prof) = &mut self.prof {
            prof.attrs.push(("route_tasks", route_tasks));
            prof.attrs.push(("shuffle_bytes", shuffle_bytes));
        }
        (received, shuffled)
    }

    fn eval_project(
        &mut self,
        id: PhysId,
        variables: &[Variable],
        input: PhysId,
    ) -> Arc<Intermediate> {
        let value = self.input(input);
        let rows = value.cardinality();
        let vars: Arc<[Variable]> = variables.into();
        self.job_mut(id).comparisons += rows;
        if let Some(bound) = self.bound.filter(|_| id == self.plan.root()) {
            let heads = self.project_bounded(&value, &vars, input, bound);
            if let Some(prof) = &mut self.prof {
                prof.attrs.push(("bounded", heads.is_some() as u64));
            }
            if let Some(heads) = heads {
                return Arc::new(Intermediate::Local(heads));
            }
        }
        let tasks: Vec<_> = (0..value.parts())
            .map(|index| {
                let (value, vars) = (Arc::clone(&value), Arc::clone(&vars));
                move || match &*value {
                    Intermediate::Local(parts) => parts[index].project(&vars),
                    // Expansion boundary: runs materialize here, directly
                    // at the projected arity — the full-width cross product
                    // never exists.
                    Intermediate::LocalRuns(parts) => parts[index].project_expand(&vars),
                }
            })
            .collect();
        let projected = self.run_wave(rows, tasks);
        Arc::new(Intermediate::Local(projected))
    }

    /// The root projection under a bound: one task per part returns the
    /// part's first `bound` distinct projected rows in canonical order and
    /// its distinct count — from the runs without expanding them
    /// ([`RunsRelation::project_bounded`]), from an eager part by
    /// projecting, ordering and counting it in place. The counts add up and
    /// the heads cover the answer's head only if no row occurs in two
    /// parts. That holds when the projection keeps every attribute of the
    /// join that produced `input` — its output is partitioned on them — and,
    /// for runs that drop one, when some kept column vouches in every part
    /// with runs and its values never repeat across parts
    /// ([`ExecState::vouched`]) — which holds at one partition exactly when
    /// it holds at any. On success `counted` is set and the heads are
    /// returned; `None` (nothing else changed) sends the caller down the
    /// unbounded path, and the gather counts.
    fn project_bounded(
        &mut self,
        value: &Arc<Intermediate>,
        vars: &Arc<[Variable]>,
        input: PhysId,
        bound: usize,
    ) -> Option<Vec<Relation>> {
        let keys_kept =
            partition_key(self.plan, input).is_some_and(|key| key.iter().all(|k| vars.contains(k)));
        if matches!(**value, Intermediate::Local(_)) && !keys_kept {
            return None;
        }
        let tasks: Vec<_> = (0..value.parts())
            .map(|index| {
                let (value, vars) = (Arc::clone(value), Arc::clone(vars));
                move || match &*value {
                    Intermediate::Local(parts) => {
                        let mut head = parts[index].project(&vars).distinct();
                        let count = head.len();
                        head.truncate(bound);
                        Some(BoundedProjection {
                            head,
                            count,
                            runs_expanded: 0,
                            witness: None,
                        })
                    }
                    Intermediate::LocalRuns(parts) => parts[index].project_bounded(&vars, bound),
                }
            })
            .collect();
        let volume = value.cardinality();
        let parts: Vec<BoundedProjection> = self
            .run_wave(volume, tasks)
            .into_iter()
            .collect::<Option<_>>()?;
        let (mut heads, mut witnesses) = (Vec::new(), Vec::new());
        let (mut count, mut runs_expanded) = (0, 0);
        for (index, part) in parts.into_iter().enumerate() {
            count += part.count;
            runs_expanded += part.runs_expanded;
            heads.push(part.head);
            witnesses.extend(part.witness.map(|(column, values)| (index, column, values)));
        }
        if !witnesses.is_empty() && !self.vouched(value, vars, witnesses, volume) {
            return None;
        }
        self.counted = Some(count);
        if let Some(prof) = &mut self.prof {
            prof.rows_out = Some(count as u64);
            prof.attrs.push(("rows_counted", count as u64));
            if matches!(**value, Intermediate::LocalRuns(_)) {
                prof.attrs.push(("runs_emitted", runs_expanded as u64));
            }
        }
        Some(heads)
    }

    /// Whether one column vouches for the runs of every part together: the
    /// first projected column, in column order, that vouches in each part
    /// with runs and whose values no two parts share — the column one part
    /// holding every run would vouch with, so the answer is the same at
    /// every partition count. `witnesses` holds each such part's first
    /// column, as `(part, column, values)`. When they differ, the parts
    /// behind are asked again from the furthest, and when they agree on a
    /// column whose values two parts share, every part is asked from the
    /// next: each a wave of its own, rarely run.
    fn vouched(
        &mut self,
        value: &Arc<Intermediate>,
        vars: &Arc<[Variable]>,
        mut witnesses: Vec<(usize, usize, Relation)>,
        volume: u64,
    ) -> bool {
        loop {
            let column = (witnesses.iter().map(|&(_, column, _)| column).max())
                .expect("a part with runs names a column");
            let (from, behind): (usize, Vec<usize>) =
                if witnesses.iter().all(|&(_, named, _)| named == column) {
                    let parts = witnesses.iter().map(|&(part, ..)| part).collect();
                    let values: Vec<Relation> = witnesses.drain(..).map(|(.., v)| v).collect();
                    let disjoint = self.run_wave(
                        volume,
                        vec![move || {
                            let merged = Relation::merge_ordered(values);
                            merged.distinct_len() == merged.len()
                        }],
                    );
                    if disjoint == [true] {
                        return true;
                    }
                    (column + 1, parts)
                } else {
                    let (behind, ahead) = witnesses.drain(..).partition(|w| w.1 < column);
                    witnesses = ahead;
                    (column, behind.into_iter().map(|(part, ..)| part).collect())
                };
            let tasks: Vec<_> = (behind.iter())
                .map(|&part| {
                    let (value, vars) = (Arc::clone(value), Arc::clone(vars));
                    move || match &*value {
                        Intermediate::LocalRuns(parts) => parts[part].witness_from(&vars, from),
                        Intermediate::Local(_) => unreachable!("eager parts keep every key"),
                    }
                })
                .collect();
            for (part, found) in behind.into_iter().zip(self.run_wave(volume, tasks)) {
                let Some((column, values)) = found else {
                    return false;
                };
                witnesses.push((part, column, values));
            }
        }
    }
}

/// The variable at a scan's placement position — the one its files are
/// placed and ordered by — unless a constant sits there.
fn placement_variable(spec: &ScanSpec) -> Option<&Variable> {
    let term = match spec.placement {
        TriplePosition::Subject => &spec.pattern.subject,
        TriplePosition::Property => &spec.pattern.property,
        TriplePosition::Object => &spec.pattern.object,
    };
    term.as_variable()
}

/// The variables the parts of `id`'s output are partitioned on: the
/// attributes of the join that produced it (a shuffled join's output is
/// hash-partitioned on all of them, a co-located join's placed by one of
/// them). `None` for anything else.
fn partition_key(plan: &PhysicalPlan, id: PhysId) -> Option<&BTreeSet<Variable>> {
    match plan.op(id) {
        PhysicalOp::MapJoin { attributes, .. } | PhysicalOp::ReduceJoin { attributes, .. } => {
            Some(attributes)
        }
        _ => None,
    }
}

/// What a join task runs on its node's inputs, given the join attributes
/// and the order the plan demands of the output: [`Relation::join`] or
/// [`factorized::join_runs`].
type JoinKernel<T> = fn(&[&Relation], &[Variable], &[Variable]) -> T;

/// The shared `'static` context of one scan wave: the store snapshot plus
/// this scan's own small state, behind a single `Arc`.
struct ScanWave {
    store: Arc<cliquesquare_mapreduce::PartitionedStore>,
    spec: ScanSpec,
    binder: TripleBinder,
    order_cols: Vec<usize>,
    /// Constants still checked triple by triple (all but the sought one).
    residual: Vec<FilterCondition>,
    /// Per-node triples a seek found; `None` reads the files.
    sought: Option<Vec<Vec<Triple>>>,
    /// The key set a full read is filtered by, and the position it checks.
    keys: Option<(TriplePosition, Arc<KeySet>)>,
}

impl ScanWave {
    /// One node's triples in scan order: what the seek found for it, or
    /// its files read in full.
    fn read(&self, node: usize) -> Cow<'_, [Triple]> {
        if let Some(sought) = &self.sought {
            return Cow::Borrowed(&sought[node]);
        }
        let spec = &self.spec;
        let files = self
            .store
            .scan_files(node, spec.placement, spec.property, spec.type_object);
        files.read()
    }

    /// One node's scan task: reads the node's triples and binds them in
    /// bulk, tagging the rows with the index order. Returns the relation
    /// and the triples read.
    fn task(&self, node: usize) -> (Relation, u64) {
        let triples = self.read(node);
        let order = SortOrder::by(self.order_cols.iter().copied());
        let keys = self
            .keys
            .as_ref()
            .map(|(position, keys)| (*position, &**keys));
        let relation = self.binder.bind_all(&triples, &self.residual, keys, order);
        (relation, triples.len() as u64)
    }
}

/// The values of one column over every part of an evaluated key source.
struct KeyValues {
    source: Arc<Intermediate>,
    column: usize,
}

impl KeyValues {
    fn iter(&self) -> impl Iterator<Item = TermId> + '_ {
        let rows = self.source.relations().iter().flat_map(Relation::rows);
        rows.map(|row| row[self.column])
    }
}

/// One join task's inputs — the only thing a co-located join and a
/// shuffled one do differently ([`ExecState::eval_join`]).
enum NodeInputs {
    /// Co-located: part `node` of every evaluated input, read in place.
    Parts(Arc<[Arc<Intermediate>]>, usize),
    /// Shuffled: per input, the buckets this node received, in source-part
    /// order.
    Buckets(Vec<Vec<Relation>>),
}

impl NodeInputs {
    /// The rows the task joins.
    fn rows(&self) -> u64 {
        let rows: usize = match self {
            NodeInputs::Parts(evaluated, node) => (evaluated.iter())
                .map(|value| value.relations()[*node].len())
                .sum(),
            NodeInputs::Buckets(buckets) => buckets.iter().flatten().map(Relation::len).sum(),
        };
        rows as u64
    }

    /// Runs `join` on this node's inputs. Shuffled buckets are first merged
    /// per input, in source order — a stable merge by their shared key
    /// order, so inputs the pass ordered by this join's attributes are
    /// joined without a re-sort — as a reducer sort-merges its partition.
    fn join<T>(self, join: JoinKernel<T>, attrs: &[Variable], delivered: &[Variable]) -> T {
        let (evaluated, merged): (Arc<[Arc<Intermediate>]>, Vec<Relation>);
        let inputs: Vec<&Relation> = match self {
            NodeInputs::Parts(parts, node) => {
                evaluated = parts;
                (evaluated.iter())
                    .map(|value| &value.relations()[node])
                    .collect()
            }
            NodeInputs::Buckets(buckets) => {
                merged = buckets.into_iter().map(Relation::merge_ordered).collect();
                merged.iter().collect()
            }
        };
        join(&inputs, attrs, delivered)
    }
}

/// Converts the raw triples a scan read into binding rows over a fixed
/// schema. Where each column comes from and which positions a repeated
/// variable ties together is resolved **once** per scan;
/// [`TripleBinder::bind_all`] then turns a whole file into a relation in one
/// loop that writes straight into the relation's buffer.
#[derive(Debug, Clone)]
pub struct TripleBinder {
    schema: Vec<Variable>,
    /// Per schema column, in slot order: the triple position (as an index
    /// into [`Triple::as_array`]) of the variable's first occurrence in the
    /// pattern.
    sources: Vec<usize>,
    /// `(position, earlier position)` of every repeated occurrence of a
    /// schema variable: a triple binds it only when both hold one term.
    repeats: Vec<(usize, usize)>,
    /// `true` when some schema variable does not occur in the pattern: no
    /// triple can bind it, so the scan produces no rows.
    unbound_column: bool,
}

impl TripleBinder {
    /// Resolves `pattern`'s variables against the output `schema`.
    pub fn new(pattern: &TriplePattern, schema: Vec<Variable>) -> Self {
        let terms = [&pattern.subject, &pattern.property, &pattern.object];
        let mut first: Vec<Option<usize>> = vec![None; schema.len()];
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (position, term) in terms.into_iter().enumerate() {
            let PatternTerm::Variable(v) = term else {
                continue;
            };
            let Some(slot) = schema.iter().position(|s| s == v) else {
                continue;
            };
            match first[slot] {
                Some(earlier) => repeats.push((position, earlier)),
                None => first[slot] = Some(position),
            }
        }
        Self {
            schema,
            unbound_column: first.contains(&None),
            sources: first.into_iter().flatten().collect(),
            repeats,
        }
    }

    /// The rows `triples` bind, in the triples' order: every triple that
    /// holds each `residual` constant, whose term at the `keys` position (if
    /// any) is in the key set, and that holds one term wherever a variable
    /// repeats contributes its source positions in slot order. `order` is
    /// what the caller knows the triples — hence the rows — to be sorted by
    /// (verified in debug builds).
    ///
    /// The buffer is reserved at exactly `triples.len() × arity` when
    /// nothing can reject a triple, and grown otherwise. A zero-arity
    /// schema still counts its rows.
    pub fn bind_all(
        &self,
        triples: &[Triple],
        residual: &[FilterCondition],
        keys: Option<(TriplePosition, &KeySet)>,
        order: SortOrder,
    ) -> Relation {
        let mut data: Vec<TermId> = Vec::new();
        let mut rows = 0usize;
        if !self.unbound_column {
            if residual.is_empty() && keys.is_none() && self.repeats.is_empty() {
                data.reserve_exact(triples.len() * self.sources.len());
            }
            for triple in triples {
                let terms = triple.as_array();
                let rejected = (residual.iter())
                    .any(|condition| triple.get(condition.position) != condition.constant)
                    || keys.is_some_and(|(position, keys)| !keys.contains(triple.get(position)))
                    || self.repeats.iter().any(|&(a, b)| terms[a] != terms[b]);
                if !rejected {
                    data.extend(self.sources.iter().map(|&source| terms[source]));
                    rows += 1;
                }
            }
        }
        Relation::from_raw(self.schema.clone(), data, rows, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_eval;
    use cliquesquare_core::{Optimizer, Variant};
    use cliquesquare_mapreduce::ClusterConfig;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};
    use cliquesquare_sparql::parser::parse_query;

    fn cluster() -> Cluster {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        Cluster::load(graph, ClusterConfig::with_nodes(4))
    }

    fn run(cluster: &Cluster, query: &str, variant: Variant) -> ExecutionOutput {
        let q = parse_query(query).unwrap();
        let result = Optimizer::with_variant(variant).optimize(&q);
        let logical = result.flattest_plans()[0].clone();
        Executor::sequential(cluster).execute_logical(&logical)
    }

    #[test]
    fn two_pattern_join_matches_reference() {
        let cluster = cluster();
        let query = "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }";
        let output = run(&cluster, query, Variant::Msc);
        let reference = reference_eval(cluster.graph(), &parse_query(query).unwrap());
        assert!(output.distinct_count() > 0);
        assert_eq!(output.distinct_count(), reference.len());
        assert_eq!(
            output.results.clone().distinct().sorted(),
            reference.sorted()
        );
    }

    #[test]
    fn star_query_runs_as_single_map_only_job() {
        let cluster = cluster();
        let output = run(
            &cluster,
            "SELECT ?x ?d ?e WHERE { ?x ub:worksFor ?d . ?x ub:emailAddress ?e . ?x rdf:type ub:FullProfessor }",
            Variant::Msc,
        );
        assert_eq!(output.schedule.job_count, 1);
        assert_eq!(output.schedule.descriptor(), "M");
        assert_eq!(output.metrics.tuples_shuffled, 0);
        assert!(output.distinct_count() > 0);
    }

    #[test]
    fn estimates_attach_as_span_attrs_without_changing_answers() {
        let cluster = cluster();
        let query = "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z }";
        let q = parse_query(query).unwrap();
        let logical = Optimizer::with_variant(Variant::Msc)
            .optimize(&q)
            .flattest_plans()[0]
            .clone();
        let physical = crate::translate::translate(&logical, cluster.graph());
        let estimates = crate::cost::MapReduceCostModel::new(&cluster).estimate_cards(&physical);
        let executor = Executor::sequential(&cluster);
        let plain = executor.execute(&physical);
        let with_estimates = executor.execute_profiled_with_estimates(&physical, &estimates);
        assert_eq!(
            plain.results.clone().distinct().sorted(),
            with_estimates.results.clone().distinct().sorted(),
            "estimate attachment is pure observation"
        );
        let profile = with_estimates
            .profile
            .expect("profiled run has a span tree");
        let mut est_attrs = 0usize;
        let mut stack = vec![&profile];
        while let Some(node) = stack.pop() {
            if node.attrs.iter().any(|(name, _)| name == "est_rows") {
                est_attrs += 1;
            }
            stack.extend(node.children.iter());
        }
        assert!(
            est_attrs >= 2,
            "every evaluated operator carries est_rows (got {est_attrs})"
        );
    }

    #[test]
    fn selective_constant_query_matches_reference() {
        let cluster = cluster();
        let query = "SELECT ?x ?y WHERE { ?x rdf:type ub:Lecturer . ?y rdf:type ub:Department . \
                     ?x ub:worksFor ?y . ?y ub:subOrganizationOf <http://www.University0.edu> }";
        let output = run(&cluster, query, Variant::Msc);
        let reference = reference_eval(cluster.graph(), &parse_query(query).unwrap());
        assert_eq!(output.distinct_count(), reference.len());
        assert!(output.distinct_count() > 0);
    }

    #[test]
    fn chain_query_matches_reference_for_flat_and_deep_plans() {
        let cluster = cluster();
        let query = "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }";
        let reference = reference_eval(cluster.graph(), &parse_query(query).unwrap());
        for variant in [Variant::Msc, Variant::Mxc, Variant::MscPlus] {
            let output = run(&cluster, query, variant);
            assert_eq!(
                output.distinct_count(),
                reference.len(),
                "variant {variant} returned wrong answers"
            );
        }
    }

    #[test]
    fn all_msc_plans_of_a_query_agree() {
        let cluster = cluster();
        let query = "SELECT ?x ?y ?z WHERE { ?x rdf:type ub:UndergraduateStudent . ?y rdf:type ub:FullProfessor . \
                     ?z rdf:type ub:Course . ?x ub:advisor ?y . ?x ub:takesCourse ?z . ?y ub:teacherOf ?z }";
        let q = parse_query(query).unwrap();
        let plans = Optimizer::with_variant(Variant::Msc).optimize(&q).plans;
        let reference = reference_eval(cluster.graph(), &q);
        let executor = Executor::sequential(&cluster);
        for plan in plans.iter().take(8) {
            let output = executor.execute_logical(plan);
            assert_eq!(output.distinct_count(), reference.len());
        }
        assert!(!reference.is_empty());
    }

    #[test]
    fn empty_answer_queries_execute_cleanly() {
        let cluster = cluster();
        let output = run(
            &cluster,
            "SELECT ?x WHERE { ?x ub:noSuchProperty ?y . ?y ub:worksFor ?z }",
            Variant::Msc,
        );
        assert_eq!(output.distinct_count(), 0);
        assert!(output.simulated_seconds > 0.0);
    }

    #[test]
    fn deeper_plans_cost_more_simulated_time() {
        let cluster = cluster();
        let query = "SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d . ?d ub:p4 ?e . ?e ub:p5 ?f . ?f ub:p6 ?g }";
        let flat = run(&cluster, query, Variant::Msc);
        let deep = run(&cluster, query, Variant::Mxc);
        assert!(flat.schedule.job_count <= deep.schedule.job_count);
        if flat.schedule.job_count < deep.schedule.job_count {
            assert!(flat.simulated_seconds < deep.simulated_seconds);
        }
    }

    #[test]
    fn metrics_account_for_scans_and_joins() {
        let cluster = cluster();
        let output = run(
            &cluster,
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            Variant::Msc,
        );
        assert!(output.metrics.tuples_read > 0);
        assert!(output.metrics.join_output_tuples > 0);
        assert_eq!(output.metrics.jobs, output.schedule.job_count as u64);
    }

    #[test]
    fn repeated_variable_pattern_binds_consistently() {
        // A pattern like { ?x ub:advisor ?x } only matches triples whose
        // subject equals their object; none exist in the LUBM data.
        let cluster = cluster();
        let output = run(
            &cluster,
            "SELECT ?x WHERE { ?x ub:advisor ?x . ?x ub:memberOf ?d }",
            Variant::Msc,
        );
        assert_eq!(output.distinct_count(), 0);
    }

    /// The scan a pattern, an output schema and residual constants ask
    /// for, the way the executor ran it before the bulk bind: one triple at
    /// a time — skip it unless it holds every constant, write each schema
    /// variable's first occurrence into its slot, reject the triple if a
    /// later occurrence disagrees, and bind nothing at all when a column has
    /// no position to come from.
    fn per_triple_scan(
        pattern: &TriplePattern,
        schema: &[Variable],
        residual: &[FilterCondition],
        triples: &[Triple],
    ) -> Vec<Vec<TermId>> {
        let mut rows = Vec::new();
        'triples: for triple in triples {
            for condition in residual {
                if triple.get(condition.position) != condition.constant {
                    continue 'triples;
                }
            }
            let mut row: Vec<Option<TermId>> = vec![None; schema.len()];
            for (term, position) in pattern.terms().into_iter().zip(TriplePosition::ALL) {
                let slot = (term.as_variable()).and_then(|v| schema.iter().position(|s| s == v));
                let Some(slot) = slot else {
                    continue;
                };
                match row[slot] {
                    None => row[slot] = Some(triple.get(position)),
                    Some(bound) if bound != triple.get(position) => continue 'triples,
                    Some(_) => {}
                }
            }
            if let Some(row) = row.into_iter().collect::<Option<Vec<TermId>>>() {
                rows.push(row);
            }
        }
        rows
    }

    proptest::proptest! {
        /// Bulk bind ≡ per-triple reference: over random triple files and
        /// patterns with 0–3 variables (a variable may repeat, `?x p ?x`), a
        /// schema that keeps any of them and possibly a column the pattern
        /// cannot bind, residual constants that reject none, some or all
        /// triples, and a key set at any position or none — its ids reaching
        /// past the file's and falling short of them — a scan task delivers
        /// the reference's rows over the triples whose key is in the set, in
        /// the reference's order, and reports every triple of the file as
        /// read.
        #[test]
        fn bulk_bind_equals_the_per_triple_reference(
            file in proptest::collection::vec((0u32..4, 0u32..3, 0u32..4), 0..40),
            terms in proptest::collection::vec(0usize..5, 3..4),
            kept in proptest::collection::vec(proptest::prelude::any::<bool>(), 4..5),
            constants in proptest::collection::vec((0usize..3, 0u32..5), 0..3),
            key_position in 0usize..4,
            key_ids in proptest::collection::vec(0u32..7, 0..4),
        ) {
            static CLUSTER: std::sync::OnceLock<Cluster> = std::sync::OnceLock::new();
            let names = ["x", "y", "z"];
            // Terms 0–2 are variables, anything above a constant.
            let term = |choice: usize| match names.get(choice) {
                Some(name) => PatternTerm::variable(*name),
                None => PatternTerm::iri(format!("http://example.org/c{choice}")),
            };
            let pattern = TriplePattern::new(term(terms[0]), term(terms[1]), term(terms[2]));
            // The variables of the pattern that `kept` keeps, in schema
            // (sorted) order, then — `kept[3]` — one it does not mention.
            let mut schema: Vec<Variable> = (names.iter().zip(&kept))
                .filter(|(name, keep)| **keep && pattern.mentions(&Variable::new(**name)))
                .map(|(name, _)| Variable::new(*name))
                .collect();
            if kept[3] {
                schema.push(Variable::new("zz"));
            }
            let residual: Vec<FilterCondition> = constants
                .iter()
                .map(|&(position, constant)| FilterCondition {
                    position: TriplePosition::ALL[position],
                    constant: TermId(constant),
                })
                .collect();
            let triples: Vec<Triple> = file
                .iter()
                .map(|&(s, p, o)| Triple::new(TermId(s), TermId(p), TermId(o)))
                .collect();
            // Position 3 is no key set.
            let keys = (TriplePosition::ALL.get(key_position))
                .map(|&position| (position, key_ids.iter().map(|&id| TermId(id)).collect()))
                .map(|(position, keys): (_, KeySet)| (position, Arc::new(keys)));
            let in_keys = |triple: &&Triple| match &keys {
                Some((position, keys)) => KeySet::contains(keys, triple.get(*position)),
                None => true,
            };
            let kept_triples: Vec<Triple> = triples.iter().filter(in_keys).copied().collect();

            let wave = ScanWave {
                store: CLUSTER.get_or_init(cluster).store_arc(),
                spec: ScanSpec {
                    pattern_index: 0,
                    pattern: pattern.clone(),
                    placement: TriplePosition::Subject,
                    property: None,
                    type_object: None,
                    residual: Vec::new(),
                },
                binder: TripleBinder::new(&pattern, schema.clone()),
                order_cols: Vec::new(),
                residual: residual.clone(),
                sought: Some(vec![triples.clone()]),
                keys,
            };
            let (relation, read) = wave.task(0);
            let expected = per_triple_scan(&pattern, &schema, &residual, &kept_triples);
            proptest::prop_assert_eq!(relation.schema(), &schema[..]);
            proptest::prop_assert_eq!(relation.len(), expected.len());
            let rows: Vec<Vec<TermId>> = relation.rows().map(<[TermId]>::to_vec).collect();
            proptest::prop_assert_eq!(rows, expected);
            proptest::prop_assert_eq!(read, triples.len() as u64);
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_sequential() {
        let cluster = cluster();
        let queries = [
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
            "SELECT ?x ?y ?z WHERE { ?x rdf:type ub:UndergraduateStudent . ?y rdf:type ub:FullProfessor . \
             ?z rdf:type ub:Course . ?x ub:advisor ?y . ?x ub:takesCourse ?z . ?y ub:teacherOf ?z }",
        ];
        for query in queries {
            let q = parse_query(query).unwrap();
            let result = Optimizer::with_variant(Variant::Msc).optimize(&q);
            let logical = result.flattest_plans()[0].clone();
            let sequential = Executor::sequential(&cluster).execute_logical(&logical);
            for threads in [2, 4, 8] {
                let parallel = Executor::with_runtime(&cluster, Runtime::with_threads(threads))
                    .execute_logical(&logical);
                assert_eq!(sequential.results, parallel.results, "threads={threads}");
                assert_eq!(parallel.threads, threads);
                assert_eq!(sequential.schedule, parallel.schedule);
                assert_eq!(sequential.job_metrics, parallel.job_metrics);
                assert_eq!(sequential.metrics, parallel.metrics);
                assert_eq!(
                    sequential.simulated_seconds, parallel.simulated_seconds,
                    "the cost model must not depend on the thread count"
                );
            }
        }
    }

    #[test]
    fn job_metrics_sum_to_the_total() {
        let cluster = cluster();
        let query = "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }";
        let result = Optimizer::with_variant(Variant::Msc).optimize(&parse_query(query).unwrap());
        let physical = translate(result.flattest_plans()[0], cluster.graph());
        let output = Executor::sequential(&cluster).execute_profiled(&physical);
        assert!(output.wall_seconds > 0.0);
        assert_eq!(output.job_metrics.len(), output.schedule.job_count);
        let mut total = ExecutionMetrics::default();
        for (job, kind) in output.job_metrics.iter().zip(&output.schedule.kinds) {
            assert_eq!(job.reduce_tasks, u64::from(*kind == JobKind::MapReduce));
            total.merge(job);
        }
        assert_eq!(total, output.metrics);
        // The jobs read what their scans read (plus, from the second job
        // on, the stored output a MapShuffler re-reads).
        let profile = output.profile.expect("profiled run has a span tree");
        let operators = profile.children.iter().flat_map(|job| &job.children);
        let read: u64 = operators
            .filter(|op| op.name.starts_with("MapScan#") || op.name.starts_with("MapShuffler#"))
            .map(|op| op.rows_in)
            .sum();
        assert!(read > 0);
        assert_eq!(output.metrics.tuples_read, read);
    }

    #[test]
    fn results_are_canonical() {
        let cluster = cluster();
        let output = run(
            &cluster,
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            Variant::Msc,
        );
        assert!(output.results.is_canonical());
        let mut sorted = output.results.clone();
        sorted.canonicalize();
        assert_eq!(sorted, output.results);
    }

    /// Selective templates over LUBM: a constant in subject position, in
    /// object position, in both (around a variable property, so the scans
    /// read the property-placed replica), a constant that leaves one join
    /// input empty (absent from the dictionary; present but never under
    /// that property), repeated variables, two-attribute MapJoins, and a
    /// class scan joined on the reduce side to one department's advisees.
    const SELECTIVE_TEMPLATES: &[&str] = &[
        "SELECT ?X WHERE { ?X rdf:type ub:AssistantProfessor . \
         ?X ub:doctoralDegreeFrom <http://www.University0.edu> }",
        "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . \
         ?D ub:subOrganizationOf <http://www.University0.edu> }",
        "SELECT ?X ?Y WHERE { ?X rdf:type ub:Lecturer . ?Y rdf:type ub:Department . \
         ?X ub:worksFor ?Y . ?Y ub:subOrganizationOf <http://www.University1.edu> }",
        "SELECT ?D ?S WHERE { <http://www.Department0.University0.edu/FullProfessor0> \
         ub:worksFor ?D . ?S ub:memberOf ?D }",
        "SELECT ?P ?S WHERE { <http://www.Department0.University0.edu/FullProfessor0> ?P \
         <http://www.Department0.University0.edu> . ?S ?P <http://www.Department1.University0.edu> }",
        "SELECT ?Z ?U WHERE { ?Z ub:subOrganizationOf ?U . ?U ub:name \"University3\" }",
        "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . \
         ?D ub:subOrganizationOf <http://www.University999.edu> }",
        "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . \
         ?D ub:subOrganizationOf <http://www.Department0.University0.edu> }",
        "SELECT ?X ?D WHERE { ?X ub:advisor ?X . ?X ub:memberOf ?D }",
        "SELECT ?X ?P WHERE { ?X ?P ?X . ?X ub:memberOf ?D }",
        "SELECT ?S ?P ?D WHERE { ?S ub:worksFor ?D . ?S ?P ?D }",
        "SELECT ?S ?C WHERE { ?S rdf:type ?C . ?S ?P ?C . ?S ub:doctoralDegreeFrom \
         <http://www.University2.edu> }",
        "SELECT ?X ?Y WHERE { ?X rdf:type ub:UndergraduateStudent . ?Y rdf:type ub:FullProfessor . \
         ?X ub:advisor ?Y . ?Y ub:worksFor <http://www.Department0.University0.edu> }",
    ];

    /// A profiling execution state over `plan`, nothing evaluated yet.
    fn exec_state<'a>(
        cluster: &'a Cluster,
        plan: &'a PhysicalPlan,
        sched: &'a JobSchedule,
        runtime: &'a Runtime,
    ) -> ExecState<'a> {
        ExecState {
            plan,
            cluster,
            schedule: sched,
            runtime,
            job_id: runtime.begin_job(),
            jobs: vec![ExecutionMetrics::default(); sched.job_count],
            memo: vec![None; plan.len()],
            prof: Some(ProfCtx::new(Instant::now())),
            estimates: None,
            bound: None,
            counted: None,
            key_sets: Vec::new(),
        }
    }

    /// Evaluates `plan` and returns the per-node parts of every join `kind`
    /// selects, plus how many scans sought keys in scope. With
    /// `restrict` off, every scan is evaluated first, in full (a residual
    /// constant is still sought); the walk then finds them memoized and
    /// restricts none. With it on, each selected join is walked first,
    /// inputs first, under no ancestor's key set: its scans are restricted
    /// by its own keys alone, which only drop rows with no partner in it.
    fn join_parts(
        cluster: &Cluster,
        plan: &PhysicalPlan,
        runtime: &Runtime,
        restrict: bool,
        kind: fn(&PhysicalOp) -> bool,
    ) -> (Vec<Vec<Relation>>, usize) {
        let sched = schedule(plan);
        let mut state = exec_state(cluster, plan, &sched, runtime);
        if restrict {
            let consumers = consumer_counts(plan, &evaluated_ops(plan));
            let shared: Vec<bool> = consumers.iter().map(|&consumers| consumers > 1).collect();
            for id in plan.ops_where(kind) {
                state.visit(&shared, id, Vec::new());
            }
        } else {
            for id in plan.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. })) {
                state.run_op(id, &[]);
            }
        }
        state.run();
        let restricted = state.prof.iter().flat_map(|prof| &prof.nodes);
        let restricted = restricted
            .filter(|(_, node)| node.attrs.iter().any(|(name, _)| name == "keys_in"))
            .count();
        let parts = plan
            .ops_where(kind)
            .into_iter()
            .map(|id| match &*state.input(id) {
                Intermediate::Local(parts) => parts.clone(),
                Intermediate::LocalRuns(parts) => parts.iter().map(RunsRelation::expand).collect(),
            })
            .collect();
        (parts, restricted)
    }

    /// Restricting scans by the keys in scope — sought or filtered at bind —
    /// only drops rows that have no partner: on
    /// every node, every MapJoin of every selective template outputs the
    /// rows, in the order, it outputs over scans read in full — at threads
    /// {1, 2, 8} — and the templates do restrict.
    #[test]
    fn restricted_map_joins_equal_unrestricted_ones_node_for_node() {
        let graph = LubmGenerator::new(LubmScale::with_universities(4)).generate();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        let mut restricted_scans = 0;
        for query in SELECTIVE_TEMPLATES
            .iter()
            .map(|text| parse_query(text).unwrap())
        {
            let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
            let physical = translate(result.flattest_plans()[0], cluster.graph());
            let map_joins = |op: &PhysicalOp| matches!(op, PhysicalOp::MapJoin { .. });
            let sequential = Runtime::sequential();
            let (full, none) = join_parts(&cluster, &physical, &sequential, false, map_joins);
            assert_eq!(none, 0, "scans evaluated on their own never restrict");
            for threads in [1, 2, 8] {
                let runtime = Runtime::with_threads(threads);
                let (parts, restricted) =
                    join_parts(&cluster, &physical, &runtime, true, map_joins);
                assert_eq!(parts, full, "threads={threads}: {query}");
                restricted_scans += restricted;
            }
        }
        assert!(restricted_scans > 0, "the templates exercise key passing");
    }

    /// LUBM Q14: its X-star has two consumers and runs unrestricted, and
    /// its second-level reduce join meets it with a side many times smaller.
    const SHARED_STAR_TEMPLATE: &str = "SELECT ?X ?Y ?Z WHERE { ?X rdf:type ub:FullProfessor . \
         ?X ub:teacherOf ?Y . ?Y rdf:type ub:GraduateCourse . ?X ub:worksFor ?Z . \
         ?W ub:advisor ?X . ?W rdf:type ub:GraduateStudent . ?W ub:emailAddress ?E . \
         ?Z rdf:type ub:Department . ?Z ub:subOrganizationOf ?U . ?U ub:name \"University3\" }";

    /// A scan restricted by a key set in scope binds exactly the rows that
    /// can still meet it, whether it seeks the keys or filters its full
    /// read by them:
    ///
    /// * on every node, the parts of every unconstrained scan of every
    ///   selective template restricted by the values of each variable it
    ///   shares with another scan of the plan (the key source, read in
    ///   full) equal the parts a full read binds filtered by those values —
    ///   at threads {1, 2, 8}, with the key variable at the scan's placement
    ///   position (a seek in its own replica) and off it (a seek in
    ///   another), and with key sources of no rows. A key set that passes
    ///   the seek cut is sought (`keys_in`); the same keys counted one row
    ///   over the cut filter the full read (`keys_filtered`, the triples
    ///   read and not bound). Each such span names the join the keys came
    ///   from (`keys_from`).
    #[test]
    fn key_sought_scans_equal_full_ones_filtered_by_the_keys() {
        let graph = LubmGenerator::new(LubmScale::with_universities(4)).generate();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        let (mut at_placement, mut off_placement, mut empty_sources) = (0, 0, 0);
        let mut filtered_cases = 0;
        for text in SELECTIVE_TEMPLATES {
            let query = parse_query(text).unwrap();
            let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
            let plan = translate(result.flattest_plans()[0], cluster.graph());
            let sched = schedule(&plan);
            let sequential = Runtime::sequential();
            let scans = plan.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. }));
            let full_read = |id: PhysId| {
                let mut state = exec_state(&cluster, &plan, &sched, &sequential);
                state.run_op(id, &[]);
                let (_, span) = state.prof.as_ref().unwrap().nodes.last().unwrap();
                (state.input(id).relations().to_vec(), span.rows_in)
            };
            for (&scan, &source) in scans.iter().flat_map(|s| scans.iter().map(move |t| (s, t))) {
                let PhysicalOp::MapScan { spec, output } = plan.op(scan) else {
                    unreachable!("a scan");
                };
                let shared = output
                    .intersection(&plan.op(source).output())
                    .next()
                    .cloned();
                let (Some(variable), true) = (shared, scan != source && spec.residual.is_empty())
                else {
                    continue;
                };
                let (source_parts, _) = full_read(source);
                let column = source_parts[0].column(&variable).unwrap();
                let keys: BTreeSet<TermId> = source_parts
                    .iter()
                    .flat_map(|p| p.rows().map(|row| row[column]))
                    .collect();
                let rows = source_parts.iter().map(Relation::len).sum::<usize>() as u64;
                let state = exec_state(&cluster, &plan, &sched, &sequential);
                let over_cut = state.stored_rows(spec) / RESTRICT_ROWS_PER_KEY as u64 + 1;
                let column = output.iter().position(|v| *v == variable).unwrap();
                let (full, read) = full_read(scan);
                let expected: Vec<Relation> = (full.iter())
                    .map(|part| rows_where(part, |row| keys.contains(&row[column])))
                    .collect();
                let kept = expected.iter().map(Relation::len).sum::<usize>() as u64;
                let join = plan.root();
                let sought = (rows < over_cut).then_some((rows, "keys_in"));
                for (rows, restriction) in sought.into_iter().chain([(over_cut, "keys_filtered")]) {
                    for threads in [1, 2, 8] {
                        let runtime = Runtime::with_threads(threads);
                        let mut state = exec_state(&cluster, &plan, &sched, &runtime);
                        state.run_op(source, &[]);
                        let scoped = ScopedKeys {
                            variable: variable.clone(),
                            source,
                            rows,
                            join,
                        };
                        state.run_op(scan, &[scoped]);
                        let at = format!(
                            "threads={threads}, {restriction}, {variable} of {source:?}: {text}"
                        );
                        assert_eq!(state.input(scan).relations(), &expected[..], "{at}");
                        let (_, span) = state.prof.as_ref().unwrap().nodes.last().unwrap();
                        let attr = |name| span.attrs.iter().find(|(n, _)| n == name).map(|a| a.1);
                        assert_eq!(attr("keys_from"), Some(join.index() as u64), "{at}");
                        match restriction {
                            "keys_in" => assert!(attr("keys_in").is_some(), "{at}"),
                            _ => assert_eq!(attr("keys_filtered"), Some(read - kept), "{at}"),
                        }
                    }
                    if restriction == "keys_filtered" {
                        filtered_cases += 1;
                        continue;
                    }
                    match placement_variable(spec) == Some(&variable) {
                        true => at_placement += 1,
                        false => off_placement += 1,
                    }
                    empty_sources += usize::from(rows == 0);
                }
            }
        }
        assert!(at_placement > 0 && off_placement > 0 && empty_sources > 0);
        assert!(filtered_cases > 0);
    }

    /// Restricting the inputs of a reduce join by the keys in scope only
    /// drops rows that have no partner: on every node, every ReduceJoin of
    /// the first eight MSC plans of every selective template and of
    /// [`SHARED_STAR_TEMPLATE`] outputs the rows, in the order, it outputs
    /// over scans read in full — at threads {1, 2, 8} — and the plans both
    /// seek by key for a reduce join and filter at bind. (At 24
    /// universities the advisees' side is small enough against the class
    /// file for a keyed read.)
    #[test]
    fn semi_joined_reduce_joins_equal_full_ones_node_for_node() {
        let graph = LubmGenerator::new(LubmScale::with_universities(24)).generate();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        let reduce_joins = |op: &PhysicalOp| matches!(op, PhysicalOp::ReduceJoin { .. });
        let (mut sought_for_reduce, mut filtered_scans) = (0, 0);
        let queries = (SELECTIVE_TEMPLATES.iter().chain([&SHARED_STAR_TEMPLATE]))
            .map(|text| parse_query(text).unwrap());
        for query in queries {
            let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
            for plan in result.plans.iter().take(8) {
                let physical = translate(plan, cluster.graph());
                let sequential = Runtime::sequential();
                let (full, _) = join_parts(&cluster, &physical, &sequential, false, reduce_joins);
                for threads in [1, 2, 8] {
                    let runtime = Runtime::with_threads(threads);
                    let (parts, _) = join_parts(&cluster, &physical, &runtime, true, reduce_joins);
                    assert_eq!(parts, full, "threads={threads}: {query}");
                }
                let output = Executor::sequential(&cluster).execute_profiled(&physical);
                let profile = output.profile.expect("profiled");
                let operators = profile.children.iter().flat_map(|job| &job.children);
                for op in operators {
                    let attr = |name| op.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                    filtered_scans += usize::from(attr("keys_filtered").is_some());
                    let id = op
                        .name
                        .split_once('#')
                        .map(|(_, id)| id.parse::<usize>().unwrap());
                    let consumer = physical.ops().iter().find(|consumer| {
                        reduce_joins(consumer) && consumer.inputs().contains(&PhysId(id.unwrap()))
                    });
                    sought_for_reduce +=
                        usize::from(attr("keys_in").is_some() && consumer.is_some());
                }
            }
        }
        assert!(sought_for_reduce > 0, "a reduce join drives a scan by key");
        assert!(filtered_scans > 0, "a scan filters at bind");
    }

    /// The parts' runs vouch together exactly when one part holding them all
    /// would: over `(?k, ?p)` ⋈ `(?k, ?s)` projected onto `?p ?s`, parts
    /// whose first vouching columns differ (asked again from the furthest),
    /// parts agreeing on a column whose values they share (asked again from
    /// the next), and parts no column vouches for together.
    #[test]
    fn parts_vouch_together_as_one_part_would() {
        let cluster = cluster();
        let plan = translate(
            Optimizer::with_variant(Variant::Msc)
                .optimize(&parse_query("SELECT ?x WHERE { ?x ub:advisor ?y }").unwrap())
                .flattest_plans()[0],
            cluster.graph(),
        );
        let (sched, runtime) = (schedule(&plan), Runtime::sequential());
        let vars: Arc<[Variable]> = [Variable::new("p"), Variable::new("s")].into();
        let runs = |rows: &[(u32, u32, u32)]| {
            let side = |pick: fn(&(u32, u32, u32)) -> u32, name| {
                let rows = rows
                    .iter()
                    .map(|row| vec![TermId(row.0), TermId(pick(row))]);
                Relation::new(
                    vec![Variable::new("k"), Variable::new(name)],
                    rows.collect(),
                )
            };
            let (left, right) = (side(|row| row.1, "p"), side(|row| row.2, "s"));
            factorized::join_runs(&[&left, &right], &[Variable::new("k")], &[])
        };
        // Per part, `(k, p, s)` rows; whether the parts vouch together.
        type Parts<'a> = &'a [&'a [(u32, u32, u32)]];
        let cases: [(Parts, bool); 3] = [
            (&[&[(1, 10, 20), (2, 10, 21)], &[(3, 11, 22)]], true),
            (&[&[(1, 10, 20)], &[(2, 10, 21)]], true),
            (&[&[(1, 10, 20)], &[(2, 10, 20)]], false),
        ];
        for (parts, expected) in cases {
            let whole: Vec<(u32, u32, u32)> = parts.concat();
            let one = runs(&whole).project_bounded(&vars, usize::MAX);
            assert_eq!(one.is_some(), expected, "{parts:?} as one part");
            let parts: Vec<RunsRelation> = parts.iter().map(|rows| runs(rows)).collect();
            let witnesses: Vec<(usize, usize, Relation)> = (parts.iter().enumerate())
                .filter_map(|(index, part)| {
                    let (column, values) = part.project_bounded(&vars, usize::MAX)?.witness?;
                    Some((index, column, values))
                })
                .collect();
            assert_eq!(
                witnesses.len(),
                parts.len(),
                "{parts:?}: every part vouches"
            );
            let value = Arc::new(Intermediate::LocalRuns(parts));
            let mut state = exec_state(&cluster, &plan, &sched, &runtime);
            let vouched = state.vouched(&value, &vars, witnesses, 0);
            assert_eq!(vouched, expected, "{value:?}");
        }
    }

    /// The rows of `relation` that `keep` accepts, in order.
    fn rows_where(relation: &Relation, keep: impl Fn(&[TermId]) -> bool) -> Relation {
        let mut kept = Relation::empty(relation.schema().to_vec());
        for row in relation.rows().filter(|row| keep(row)) {
            kept.push_row(row);
        }
        kept
    }

    /// The rows of `relation` whose `key_cols` hash to `node`, canonically
    /// ordered: what a shuffle on those columns must deliver to that node.
    fn rows_routed_to(
        relation: &Relation,
        key_cols: &[usize],
        node: usize,
        nodes: usize,
    ) -> Relation {
        let hashed = |row: &[TermId]| relation::shuffle_node(row, key_cols, nodes);
        rows_where(relation, |row| hashed(row) == node).sorted()
    }

    /// The shuffle moves rows, it neither copies, drops nor misroutes them:
    /// on every destination node the reduce task merges, per input, exactly
    /// the input's rows whose key hashes to that node, in join-key order,
    /// and the part it outputs is the cluster-wide join restricted to that
    /// node's keys. At threads {1, 2, 8}.
    #[test]
    fn reduce_tasks_join_exactly_the_rows_routed_to_their_node() {
        let graph = LubmGenerator::new(LubmScale::with_universities(2)).generate();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        let nodes = cluster.nodes();
        let queries = [
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
            "SELECT ?x ?y ?z WHERE { ?x rdf:type ub:UndergraduateStudent . ?y rdf:type ub:FullProfessor . \
             ?z rdf:type ub:Course . ?x ub:advisor ?y . ?x ub:takesCourse ?z . ?y ub:teacherOf ?z }",
            "SELECT ?a ?e WHERE { ?a ub:advisor ?b . ?b ub:worksFor ?c . ?c ub:subOrganizationOf ?d . \
             ?e ub:undergraduateDegreeFrom ?d }",
        ];
        let mut reduce_joins = 0;
        for text in queries {
            let query = parse_query(text).unwrap();
            let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
            let plan = translate(result.flattest_plans()[0], cluster.graph());
            let sched = schedule(&plan);
            for threads in [1, 2, 8] {
                let runtime = Runtime::with_threads(threads);
                let mut state = exec_state(&cluster, &plan, &sched, &runtime);
                state.run();
                for id in plan.ops_where(|op| matches!(op, PhysicalOp::ReduceJoin { .. })) {
                    let PhysicalOp::ReduceJoin {
                        attributes, inputs, ..
                    } = plan.op(id)
                    else {
                        unreachable!("filtered above");
                    };
                    reduce_joins += 1;
                    let attrs: Arc<[Variable]> = attributes.iter().cloned().collect();
                    let evaluated: Vec<_> = inputs.iter().map(|&i| state.input(i)).collect();
                    let whole: Vec<Relation> =
                        evaluated.iter().map(|v| Arc::clone(v).gather()).collect();
                    let (received, shuffled) = state.shuffle(&evaluated, &attrs, u64::MAX);
                    let expected: usize = whole.iter().map(Relation::len).sum();
                    assert_eq!(shuffled, expected as u64, "{text}");
                    assert_eq!(received.len(), nodes);
                    for (node, per_input) in received.into_iter().enumerate() {
                        let at = format!("threads={threads} node={node}: {text}");
                        for (buckets, whole) in per_input.into_iter().zip(&whole) {
                            let merged = Relation::merge_ordered(buckets);
                            let key_cols: Vec<usize> =
                                attrs.iter().map(|a| merged.column(a).unwrap()).collect();
                            assert!(
                                merged.len() <= 1 || merged.order().satisfies(&key_cols),
                                "{at}: a merged input lost the key order"
                            );
                            let mut by_key = merged.clone();
                            by_key.sort_by_columns(&key_cols);
                            assert_eq!(by_key.data(), merged.data(), "the order holds");
                            let routed = rows_where(whole, |row| {
                                relation::shuffle_node(row, &key_cols, nodes) == node
                            });
                            assert_eq!(merged.sorted(), routed.sorted(), "{at}");
                        }
                    }
                    let parts = match &*state.input(id) {
                        Intermediate::Local(parts) => parts.clone(),
                        Intermediate::LocalRuns(parts) => {
                            parts.iter().map(RunsRelation::expand).collect()
                        }
                    };
                    let whole: Vec<&Relation> = whole.iter().collect();
                    let joined = Relation::join(&whole, &attrs, &[]);
                    let key_cols: Vec<usize> =
                        attrs.iter().map(|a| joined.column(a).unwrap()).collect();
                    assert_eq!(parts.len(), nodes);
                    for (node, part) in parts.into_iter().enumerate() {
                        assert_eq!(
                            part.sorted(),
                            rows_routed_to(&joined, &key_cols, node, nodes),
                            "threads={threads} node={node}: {text}"
                        );
                    }
                }
            }
        }
        assert!(reduce_joins > 0, "the queries exercise reduce joins");
    }

    /// A MapJoin is co-located only when the plan says so (all its inputs
    /// are scans): a hand-built one over a ReduceJoin's output — per-node
    /// parts too, but partitioned by another key — is shuffled instead, and
    /// its driven scan is keyed the non-co-located way: a node may seek only
    /// the output's keys the store places on it, never its own part's. The
    /// answers equal the reference's.
    #[test]
    fn a_map_join_over_a_reduce_output_is_not_taken_for_co_located() {
        let graph = LubmGenerator::new(LubmScale::with_universities(4)).generate();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        let physical = |text: &str| {
            let query = parse_query(text).unwrap();
            let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
            translate(result.flattest_plans()[0], cluster.graph())
        };
        // The translated chain ends ReduceJoin → Project, with the few
        // departments of one university bound to ?z; the scan of
        // ub:memberOf placed by ?z comes from a star on ?z.
        let chain = physical(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . \
             ?z ub:subOrganizationOf <http://www.University0.edu> }",
        );
        let star = physical("SELECT ?s ?p WHERE { ?s ub:memberOf ?z . ?p ub:worksFor ?z }");
        let mut ops = chain.ops().to_vec();
        let Some(PhysicalOp::Project { input: reduced, .. }) = ops.pop() else {
            panic!("the chain's root is a projection");
        };
        assert!(matches!(
            ops[reduced.index()],
            PhysicalOp::ReduceJoin { .. }
        ));
        let binds_s = |op: &&PhysicalOp| matches!(op, PhysicalOp::MapScan { output, .. } if output.contains(&Variable::new("s")));
        ops.push(star.ops().iter().find(binds_s).unwrap().clone());
        let member_of = PhysId(ops.len() - 1);
        let mut output = ops[reduced.index()].output();
        output.insert(Variable::new("s"));
        ops.push(PhysicalOp::MapJoin {
            attributes: [Variable::new("z")].into(),
            inputs: vec![reduced, member_of],
            output,
        });
        ops.push(PhysicalOp::Project {
            variables: ["x", "z", "s"].map(Variable::new).to_vec(),
            input: PhysId(ops.len() - 1),
        });
        let root = PhysId(ops.len() - 1);
        let plan = PhysicalPlan::new(ops, root);
        assert!(!plan.co_located(PhysId(root.index() - 1)));

        let query = parse_query(
            "SELECT ?x ?z ?s WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . \
             ?z ub:subOrganizationOf <http://www.University0.edu> . ?s ub:memberOf ?z }",
        )
        .unwrap();
        let reference = reference_eval(cluster.graph(), &query).sorted();
        assert!(!reference.is_empty());
        for threads in [1, 2, 8] {
            let executor = Executor::with_runtime(&cluster, Runtime::with_threads(threads));
            let output = executor.execute(&plan);
            assert_eq!(
                output.results.distinct().sorted(),
                reference,
                "threads={threads}"
            );
        }
    }

    /// Leaf scans start pre-ordered: a first-level join consumes every scan
    /// through the tracked-order fast path, so a map-only plan re-sorts no
    /// join input at all.
    #[test]
    fn map_only_plans_resort_no_join_input() {
        use crate::relation::stats;
        let cluster = cluster();
        let query = "SELECT ?x ?d ?e WHERE { ?x ub:worksFor ?d . ?x ub:emailAddress ?e . ?x rdf:type ub:FullProfessor }";
        let q = parse_query(query).unwrap();
        let result = Optimizer::with_variant(Variant::Msc).optimize(&q);
        let logical = result.flattest_plans()[0].clone();
        let physical = translate(&logical, cluster.graph());
        assert_eq!(physical.reduce_join_count(), 0, "star query is map-only");
        stats::reset();
        let output = Executor::sequential(&cluster).execute(&physical);
        let after = stats::snapshot();
        assert!(output.distinct_count() > 0);
        assert_eq!(
            after.join_inputs_resorted, 0,
            "every scan of a first-level join starts in key order"
        );
        assert!(after.join_inputs_presorted > 0);
    }

    /// The interesting-orders pass elides sorts end to end: over the whole
    /// execution of a two-level plan, requirements satisfied by tracked
    /// orders outnumber the sorts that actually run.
    #[test]
    fn order_propagation_elides_more_sorts_than_it_performs() {
        use crate::relation::stats;
        let cluster = cluster();
        let query = "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }";
        let q = parse_query(query).unwrap();
        let result = Optimizer::with_variant(Variant::Msc).optimize(&q);
        let logical = result.flattest_plans()[0].clone();
        let physical = translate(&logical, cluster.graph());
        stats::reset();
        let output = Executor::sequential(&cluster).execute(&physical);
        let after = stats::snapshot();
        assert!(output.distinct_count() > 0);
        assert!(
            after.sorts_elided > after.sorts_performed,
            "elided {} vs performed {}",
            after.sorts_elided,
            after.sorts_performed
        );
    }
}
