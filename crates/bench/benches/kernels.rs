//! Criterion micro-benchmarks for the relation-level execution kernels: the
//! column-major sort and merge-compare paths of `Relation`, the run-length
//! factorized join (run emission and projection-boundary expansion), the
//! fill-proportional shuffle partitioner, and the galloping k-way ordered
//! merge of the reduce tasks and the root gather. These isolate the kernels the
//! `report_execution` wall-clock columns are built from.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cliquesquare_engine::{hash_partition, join_runs, JoinOrder, Relation};
use cliquesquare_rdf::TermId;
use cliquesquare_sparql::Variable;

const ROWS: usize = 20_000;

fn v(name: &str) -> Variable {
    Variable::new(name)
}

/// An unsorted `(x, a, b)` relation whose key column cycles through
/// `rows / 8` distinct values (so sorts see real duplicate groups).
fn unsorted(rows: usize) -> Relation {
    let mut relation = Relation::empty(vec![v("x"), v("a"), v("b")]);
    let keys = (rows / 8).max(1) as u32;
    for i in 0..rows {
        let i = i as u32;
        relation.push_row_unordered(&[
            TermId((i.wrapping_mul(2_654_435_761)) % keys),
            TermId(i),
            TermId(i ^ 0x5a5a),
        ]);
    }
    relation
}

/// A canonical (key-sorted) `(x, payload)` relation with `fanout` rows per
/// key — the star-join input shape.
fn sorted_star_input(rows: usize, fanout: usize, payload: &str) -> Relation {
    let mut relation = Relation::empty(vec![v("x"), v(payload)]);
    for i in 0..rows {
        relation.push_row(&[TermId((i / fanout) as u32), TermId(i as u32)]);
    }
    relation
}

/// A star's output: `arity` columns grouped by column 0 (four rows per
/// key), the other columns dense term ids below 2¹⁹ in no order — what a
/// consumer keyed on another column has to re-sort.
fn grouped(rows: usize, arity: usize) -> Relation {
    let mut relation = Relation::empty((0..arity).map(|c| v(&format!("c{c}"))).collect());
    let mut row = vec![TermId(0); arity];
    for i in 0..rows as u32 {
        row[0] = TermId(i / 4);
        for (c, cell) in row.iter_mut().enumerate().skip(1) {
            *cell = TermId((i + c as u32).wrapping_mul(2_654_435_761) >> 13);
        }
        relation.push_row(&row);
    }
    relation
}

fn bench_sort(c: &mut Criterion) {
    let base = unsorted(ROWS);
    let mut group = c.benchmark_group("kernels_sort");
    group.bench_function("canonicalize_20k_x3", |b| {
        b.iter(|| {
            let mut relation = base.clone();
            relation.canonicalize();
            black_box(relation.len())
        })
    });
    // LUBM Q11's MapJoin output delivered on the next join's key, Q8's
    // expansion delivered in canonical order of another column sequence,
    // and a sort too small to amortize anything.
    let shapes: [(&str, usize, usize, &[usize]); 3] = [
        ("one_key_100k_x4", 100_000, 4, &[3]),
        ("three_keys_60k_x3", 60_000, 3, &[2, 1, 0]),
        ("one_key_48_x2", 48, 2, &[1]),
    ];
    for (name, rows, arity, keys) in shapes {
        let base = grouped(rows, arity);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut relation = base.clone();
                relation.sort_by_columns(keys);
                black_box(relation.len())
            })
        });
    }
    group.finish();
}

fn bench_merge_join(c: &mut Criterion) {
    let left = sorted_star_input(ROWS, 4, "a");
    let right = sorted_star_input(ROWS, 4, "b");
    let key = [v("x")];
    let mut group = c.benchmark_group("kernels_merge_join");
    group.bench_function("eager_20k_x_20k", |b| {
        b.iter(|| {
            black_box(Relation::join_ordered(&[&left, &right], &key, JoinOrder::Natural).len())
        })
    });
    group.finish();
}

fn bench_factorized(c: &mut Criterion) {
    let left = sorted_star_input(ROWS, 4, "a");
    let right = sorted_star_input(ROWS, 4, "b");
    let key = [v("x")];
    let mut group = c.benchmark_group("kernels_factorized");
    group.bench_function("join_runs_20k_x_20k", |b| {
        b.iter(|| black_box(join_runs(&[&left, &right], &key, &[]).runs()))
    });
    let runs = join_runs(&[&left, &right], &key, &[]);
    group.bench_function("expand_20k_x_20k", |b| {
        b.iter(|| black_box(runs.expand().len()))
    });
    group.bench_function("project_expand_20k_x_20k", |b| {
        let vars = [v("a"), v("b")];
        b.iter(|| black_box(runs.project_expand(&vars).len()))
    });
    // LUBM Q1 as the benchmark serves it (1 200 universities): 4 800
    // departments of 11 professors and 52 members each, the join key
    // projected away — 2.7 M rows of two columns, of which a served answer
    // reads 1 000 and the count.
    let works_for = sorted_star_input(4_800 * 11, 11, "p");
    let member_of = sorted_star_input(4_800 * 52, 52, "s");
    let q1 = join_runs(&[&works_for, &member_of], &key, &[]);
    let vars = [v("p"), v("s")];
    group.bench_function("q1_project_expand_4800_runs", |b| {
        b.iter(|| black_box(q1.project_expand(&vars).len()))
    });
    group.bench_function("q1_project_bounded_4800_runs_k1000", |b| {
        b.iter(|| {
            let bounded = q1.project_bounded(&vars, 1_000).expect("?p never repeats");
            black_box((bounded.count, bounded.head.len()))
        })
    });
    group.finish();
}

fn bench_shuffle(c: &mut Criterion) {
    let relation = unsorted(ROWS);
    let key = [v("x")];
    let mut group = c.benchmark_group("kernels_shuffle");
    group.bench_function("hash_partition_20k_8n", |b| {
        b.iter(|| black_box(hash_partition(&relation, &key, 8).len()))
    });
    group.finish();
}

/// `merge_ordered` over `k` key-ordered parts of `ROWS` rows each, their
/// keys interleaved in runs of `run` rows: runs of one row are the kernel's
/// worst case (a head scan and a gallop per row), runs of 500 the shape of a
/// gathered star join.
fn bench_merge_ordered(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_merge_ordered");
    for (k, run) in [(2, 1), (2, 500), (7, 1), (7, 500)] {
        let parts: Vec<Relation> = (0..k)
            .map(|part| {
                let mut relation = Relation::empty(vec![v("x"), v("a")]);
                for i in 0..ROWS {
                    relation.push_row(&[TermId(((i / run) * k + part) as u32), TermId(i as u32)]);
                }
                relation
            })
            .collect();
        group.bench_function(format!("k{k}_runs_of_{run}_20k_each"), |b| {
            b.iter(|| black_box(Relation::merge_ordered(parts.clone()).len()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sort,
    bench_merge_join,
    bench_factorized,
    bench_shuffle,
    bench_merge_ordered
);
criterion_main!(benches);
