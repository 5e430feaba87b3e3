//! Allocation regression tests for the flat columnar relation layer.
//!
//! A counting global allocator measures the *actual* number of heap
//! allocations performed by [`Relation::join`], the shuffle's
//! [`hash_partition`] and [`Relation::merge_ordered`]: each must allocate a
//! bounded number of whole buffers — never one allocation per row or per
//! key. It is the relation layer's one allocation measurement (the engine's
//! `relation::stats` counters record work, not allocations). The same
//! allocator counts bytes, to hold a served (bounded) answer's memory
//! against the bounded and the unbounded execution of the same plan.

use cliquesquare::engine::relation::stats;
use cliquesquare::engine::{
    hash_partition, join_runs, translate, Csq, CsqConfig, Executor, Relation, SortOrder,
    TripleBinder,
};
use cliquesquare::mapreduce::{Cluster, ClusterConfig, Runtime};
use cliquesquare::querygen::lubm_queries::q1;
use cliquesquare::rdf::{LubmGenerator, LubmScale, TermId, Triple};
use cliquesquare::sparql::{PatternTerm, TriplePattern, Variable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, counting every allocation call made by the
/// **current thread** (a per-thread counter keeps concurrently running
/// tests in this binary from polluting each other's measurements).
struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
        THREAD_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
        THREAD_BYTES.with(|n| n.set(n.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Bytes the current thread has asked the allocator for so far.
fn allocated_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

fn v(name: &str) -> Variable {
    Variable::new(name)
}

/// Builds an `(x, a)` relation of `rows` rows, claiming canonical order
/// when the rows are in it (before any measurement starts).
fn build(schema: &[&str], rows: usize, key_of: impl Fn(usize) -> u32) -> Relation {
    let rows = (0..rows).map(|i| vec![TermId(key_of(i)), TermId(i as u32)]);
    Relation::new(schema.iter().map(|s| v(s)).collect(), rows.collect())
}

/// `Relation::join` allocates whole buffers, not per-row keys: the absolute
/// allocation count of a 4 000 × 4 000-row join stays bounded by a small
/// constant (the historical hash join allocated a key `Vec` per row plus a
/// `Vec<Option<TermId>>` template per output row — tens of thousands here).
#[test]
fn sort_merge_join_allocates_no_per_row_memory() {
    const ROWS: usize = 4_000;
    // Mostly-unique keys: output size ~= input size.
    let left = build(&["x", "a"], ROWS, |i| i as u32);
    // Trailing key on the right side to also exercise the re-sort path.
    let right = build(&["b", "x"], ROWS, |i| (ROWS - i) as u32);

    stats::reset();
    let before = allocations();
    let joined = Relation::join(&[&left, &right], &[v("x")], &[]);
    let during_join = allocations() - before;
    let relation_stats = stats::snapshot();

    assert!(
        joined.len() >= ROWS - 1,
        "join produced {} rows",
        joined.len()
    );
    assert_eq!(relation_stats.join_rows_out, joined.len() as u64);
    assert!(
        during_join < 256,
        "join of {ROWS}x{ROWS} rows performed {during_join} allocations \
         (expected a small constant, got per-row behaviour)"
    );
}

/// The shuffle path builds per-node flat buffers directly: allocations
/// scale with the node count (plus buffer growth), never with the rows.
#[test]
fn shuffle_partitioning_allocates_no_per_row_memory() {
    const ROWS: usize = 4_000;
    const NODES: usize = 8;
    let relation = build(&["x", "a"], ROWS, |i| (i * 7) as u32);

    let before = allocations();
    let buckets = hash_partition(&relation, &[v("x")], NODES);
    let during_shuffle = allocations() - before;

    assert_eq!(buckets.len(), NODES);
    assert_eq!(buckets.iter().map(Relation::len).sum::<usize>(), ROWS);
    assert!(
        during_shuffle < 256,
        "shuffle of {ROWS} rows across {NODES} nodes performed {during_shuffle} \
         allocations (expected O(nodes), got per-row behaviour)"
    );
}

/// The k-way ordered merge writes into one output buffer reserved once at
/// the summed size: no growth, no per-row or per-run allocation, whether
/// keys arrive in long runs or every run is a single row.
#[test]
fn ordered_merge_allocates_one_output_buffer() {
    const ROWS: usize = 4_000;
    const PARTS: usize = 7;
    for run in [1, 500] {
        let parts: Vec<Relation> = (0..PARTS)
            .map(|part| build(&["x", "a"], ROWS, |i| ((i / run) * PARTS + part) as u32))
            .collect();
        assert!(parts.iter().all(|part| part.order().satisfies(&[0])));

        let before = allocations();
        let merged = Relation::merge_ordered(parts);
        let during_merge = allocations() - before;

        assert_eq!(merged.len(), PARTS * ROWS);
        assert!(merged.order().satisfies(&[0]));
        assert_eq!(
            merged.reserved_bytes(),
            std::mem::size_of_val(merged.data()),
            "the output buffer is reserved once, at the summed size"
        );
        assert!(
            during_merge <= 4,
            "merging {PARTS} x {ROWS} rows in runs of {run} performed {during_merge} \
             allocations (expected the output buffer and the merge's own few)"
        );
    }
}

/// The factorized join kernels (run emission and the projection-boundary
/// expansion) allocate whole buffers like the eager sort-merge path: no
/// per-row or per-run heap traffic.
#[test]
fn factorized_join_and_expansion_allocate_no_per_row_memory() {
    const ROWS: usize = 4_000;
    // 16 distinct keys: a high-fan-out star whose cross products dwarf the
    // run count, so per-run allocation would still be cheap but per-expanded-
    // row allocation would blow the bound.
    let left = build(&["x", "a"], ROWS, |i| (i % 16) as u32);
    let right = build(&["x", "b"], ROWS, |i| (i % 16) as u32);

    stats::reset();
    let before = allocations();
    let runs = join_runs(&[&left, &right], &[v("x")], &[]);
    let expanded = runs.expand();
    let during = allocations() - before;
    let relation_stats = stats::snapshot();

    assert_eq!(runs.runs(), 16);
    assert_eq!(expanded.len(), 16 * (ROWS / 16) * (ROWS / 16));
    assert_eq!(relation_stats.runs_emitted, 16);
    assert_eq!(relation_stats.rows_expanded, expanded.len() as u64);
    assert!(
        during < 256,
        "factorized join + expansion of {ROWS}x{ROWS} rows performed {during} \
         allocations (expected a small constant, got per-row behaviour)"
    );
}

/// `hash_partition` reserves per-bucket capacity from the observed routing
/// counts, not the input row count: on a fully skewed input the empty
/// buckets reserve nothing, so the total reserved bytes stay bounded by the
/// input (the old per-bucket `rows * arity` reservation held `NODES`x that).
#[test]
fn shuffle_reservations_track_bucket_fill_not_input_size() {
    const ROWS: usize = 4_000;
    const NODES: usize = 8;
    // Every row hashes to the same bucket: worst-case skew.
    let relation = build(&["x", "a"], ROWS, |_| 42);
    let input_bytes = std::mem::size_of_val(relation.data());

    let buckets = hash_partition(&relation, &[v("x")], NODES);
    let reserved: usize = buckets.iter().map(Relation::reserved_bytes).sum();

    assert_eq!(buckets.iter().map(Relation::len).sum::<usize>(), ROWS);
    assert!(
        buckets.iter().filter(|b| b.is_empty()).count() >= NODES - 1,
        "skewed input should fill at most one bucket"
    );
    assert!(
        reserved <= input_bytes,
        "buckets reserved {reserved} bytes for a {input_bytes}-byte input \
         (per-bucket reservations no longer track observed fill)"
    );
}

/// Doubling the row count must not meaningfully change the allocation
/// count of a join (only the logarithmic buffer-growth term moves).
#[test]
fn join_allocations_do_not_scale_with_row_count() {
    let count_join = |rows: usize| -> u64 {
        let left = build(&["x", "a"], rows, |i| i as u32);
        let right = build(&["x", "b"], rows, |i| i as u32);
        let before = allocations();
        let joined = Relation::join(&[&left, &right], &[v("x")], &[]);
        let spent = allocations() - before;
        assert_eq!(joined.len(), rows);
        spent
    };
    let small = count_join(1_000);
    let large = count_join(8_000);
    assert!(
        large <= small + 16,
        "8x the rows cost {large} allocations vs {small}: the join allocates per row"
    );
}

/// The join's working state — alignment cursors, the emitter's odometer —
/// is allocated once per join, never per key group: a 4-input star of 4 000
/// singleton groups and a join of 40 groups of 10 × 10 rows (4 000 output
/// rows each) both stay under one small bound made of the per-input views
/// and the output buffer's doublings. One `to_vec` per group would add
/// 4 000 allocations to the first and 40 to the second, and fail both.
#[test]
fn join_state_is_allocated_per_join_not_per_group() {
    const BOUND: u64 = 40;
    let key = [v("x")];
    let spokes: Vec<Relation> = ["a", "b", "c", "d"]
        .iter()
        .map(|payload| build(&["x", payload], 4_000, |i| i as u32))
        .collect();
    let star: Vec<&Relation> = spokes.iter().collect();
    let left = build(&["x", "a"], 400, |i| (i / 10) as u32);
    let right = build(&["x", "b"], 400, |i| (i / 10) as u32);
    for (inputs, groups) in [(&star[..], 4_000), (&[&left, &right][..], 40)] {
        stats::reset();
        let before = allocations();
        let joined = Relation::join(inputs, &key, &[]);
        let spent = allocations() - before;
        assert_eq!(joined.len(), 4_000);
        assert_eq!(stats::snapshot().key_groups, groups);
        assert!(
            spent <= BOUND,
            "a join of {groups} key groups performed {spent} allocations"
        );
    }
}

/// A scan with nothing to reject knows its size: the row buffer is
/// allocated once, at exactly `triples × arity` (the per-triple push grew it
/// from empty, ≈ 16 doublings for this file). What else the bind allocates
/// is the relation's schema and order descriptor.
#[test]
fn scan_bind_allocates_its_row_buffer_once() {
    const TRIPLES: u32 = 100_000;
    let triples: Vec<Triple> = (0..TRIPLES)
        .map(|i| Triple::new(TermId(i / 2), TermId(7), TermId(TRIPLES + i)))
        .collect();
    let pattern = TriplePattern::new(
        PatternTerm::variable("x"),
        PatternTerm::iri("http://example.org/p"),
        PatternTerm::variable("y"),
    );
    let binder = TripleBinder::new(&pattern, vec![v("x"), v("y")]);

    let before = allocations();
    let relation = binder.bind_all(&triples, &[], None, SortOrder::by([0]));
    let spent = allocations() - before;

    assert_eq!(relation.len(), TRIPLES as usize);
    assert_eq!(
        relation.reserved_bytes(),
        std::mem::size_of_val(relation.data()),
        "the row buffer is reserved at exactly the rows bound"
    );
    assert!(
        spent <= 3,
        "binding {TRIPLES} triples performed {spent} allocations"
    );
}

/// Bounded means bounded memory: Q1 at 48 universities is 192 runs for
/// 109 824 rows, and answering its first 1 000 with the count asks the
/// allocator for well under half of what executing the same plan unbounded
/// asks for (measured 0.82 MB against 2.30 MB: what is left is the scans
/// and the join, ≈ 3 kB per run against the ≈ 9 kB per run the expansion and
/// the gather copy add). The whole served request adds a constant to the
/// bounded execution: the plan-cache rebind and the answer's few fields —
/// its 1 000 rows stay the execution's ids, so nothing is allocated per
/// row or per cell (measured 5.3 kB; one `String` per cell was 0.44 MB). A
/// root that expanded the answer again would fail the first bound, an
/// answer that decoded its cells the second.
#[test]
fn serving_q1_allocates_a_fraction_of_executing_it() {
    const ROWS: usize = 192 * 11 * 52;
    /// What serving may allocate beyond `execute_bounded`: three times the
    /// measured 5.3 kB.
    const ANSWER_BYTES: u64 = 16 * 1024;
    let graph = LubmGenerator::new(LubmScale::with_universities(48)).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    let (_, chosen, _) = Csq::new(cluster.clone(), CsqConfig::default()).plan(&q1());
    let plan = translate(&chosen, cluster.graph());
    let executor = Executor::sequential(&cluster);
    let service = cliquesquare_server::QueryService::new(cluster.clone(), Runtime::sequential());
    // First calls pay for the plan cache entry and lazy statics.
    let warm = service.execute_named("Q1").expect("Q1 serves");
    assert_eq!((warm.total_rows, warm.rows.len()), (ROWS, 1_000));
    executor.execute(&plan);

    let before = allocated_bytes();
    let output = executor.execute(&plan);
    let executing = allocated_bytes() - before;
    let before = allocated_bytes();
    let bounded = executor.execute_bounded(&plan, 1_000, None);
    let bounding = allocated_bytes() - before;
    let before = allocated_bytes();
    let answer = service.execute_named("Q1").expect("Q1 serves");
    let serving = allocated_bytes() - before;

    assert_eq!(output.results.len(), ROWS);
    assert_eq!(bounded.total_rows, ROWS);
    assert!(answer.cache_hit && answer.truncated);
    assert!(
        bounding * 2 < executing,
        "the bounded execution allocated {bounding} bytes, the unbounded one {executing}"
    );
    assert!(
        serving <= bounding + ANSWER_BYTES,
        "serving Q1 allocated {serving} bytes, its bounded execution {bounding}"
    );
}
