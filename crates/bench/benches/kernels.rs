//! Criterion micro-benchmarks for the relation-level execution kernels: the
//! column-major sort and merge-compare paths of `Relation`, the run-length
//! factorized join (run emission and projection-boundary expansion), the
//! fill-proportional shuffle partitioner, the galloping k-way ordered
//! merge of the reduce tasks and the root gather, and the scan's bulk bind,
//! with and without the key set it filters by.
//! These isolate the kernels the `report_execution` wall-clock columns are
//! built from. `answer_render` times the server's answer body, rendered from
//! ids. `wave_dispatch` sizes the executor's run-time decision of which
//! waves run on the submitting thread.
//! `cargo bench --bench kernels -- kernels_merge_join` runs one group.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cliquesquare_engine::{hash_partition, join_runs, KeySet, Relation, SortOrder, TripleBinder};
use cliquesquare_mapreduce::Runtime;
use cliquesquare_rdf::term::vocab;
use cliquesquare_rdf::{LubmGenerator, LubmScale, Term, TermId, Triple, TriplePosition};
use cliquesquare_server::http::render_answer;
use cliquesquare_server::{AnswerRows, QueryAnswer};
use cliquesquare_sparql::{PatternTerm, TriplePattern, Variable};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        relation.push_row(&[
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
    relation.canonicalize();
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

/// A key-ordered relation over `schema` (key columns first) holding
/// `copies(key)` rows for every key below `keys`; each row's key columns
/// come from `key_of(key, copy)` and the rest count rows. Canonical order
/// is claimed where the rows are in it.
fn keyed(
    schema: &[&str],
    keys: usize,
    copies: impl Fn(usize) -> usize,
    key_of: impl Fn(usize, usize) -> Vec<u32>,
) -> Relation {
    let mut rows: Vec<Vec<TermId>> = Vec::new();
    for key in 0..keys {
        for copy in 0..copies(key) {
            let mut row: Vec<TermId> = key_of(key, copy).into_iter().map(TermId).collect();
            while row.len() < schema.len() {
                row.push(TermId(rows.len() as u32));
            }
            rows.push(row);
        }
    }
    Relation::new(schema.iter().map(|name| v(name)).collect(), rows)
}

fn bench_merge_join(c: &mut Criterion) {
    let left = sorted_star_input(ROWS, 4, "a");
    let right = sorted_star_input(ROWS, 4, "b");
    let key = [v("x")];
    let mut group = c.benchmark_group("kernels_merge_join");
    group.bench_function("eager_20k_x_20k", |b| {
        b.iter(|| black_box(Relation::join(&[&left, &right], &key, &[]).len()))
    });

    // LUBM Q11's first-level star on ?X as one of four partitions sees it
    // at 1 200 universities: advisor (46.5 k rows, three students in four
    // have one), takesCourse (124 k, two courses a student on average),
    // memberOf and the type scan (62 k each) — 93 k rows of 4 columns, every
    // group 1 x k x 1 x 1. `star4_align_only` walks the same groups without
    // emitting a row, so the difference is the emission.
    const STUDENTS: usize = 62_000;
    let one = |key: usize, _: usize| vec![key as u32];
    let advisor = keyed(&["x", "w"], STUDENTS, |key| usize::from(key % 4 != 3), one);
    let takes = keyed(&["x", "y"], STUDENTS, |key| 1 + key % 3, one);
    let member = keyed(&["x", "z"], STUDENTS, |_| 1, one);
    let typed = keyed(&["x"], STUDENTS, |_| 1, one);
    let star = [&advisor, &takes, &member, &typed];
    group.bench_function("star4_align_only", |b| {
        b.iter(|| black_box(Relation::key_groups(&star, &key)))
    });
    group.bench_function("star4_eager", |b| {
        b.iter(|| black_box(Relation::join(&star, &key, &[]).len()))
    });

    // LUBM Q10's reduce join: two inputs of 150 k rows on two attributes,
    // three rows to a leading value, of which the second column pairs two.
    let keys = [v("x"), v("y")];
    let two = |shift: usize| move |key: usize, copy: usize| vec![key as u32, (copy + shift) as u32];
    let advised = keyed(&["x", "y", "a"], 50_000, |_| 3, two(0));
    let taught = keyed(&["x", "y", "b"], 50_000, |_| 3, two(1));
    group.bench_function("two_keys_150k_x2", |b| {
        b.iter(|| black_box(Relation::join(&[&advised, &taught], &keys, &[]).len()))
    });

    // A non-key column both inputs bind: four rows a key on either side,
    // of which the shared column lets half the combinations through.
    let shared = |key: usize, copy: usize| vec![key as u32, (copy % 2) as u32];
    let left = keyed(&["x", "s", "a"], ROWS / 4, |_| 4, shared);
    let right = keyed(&["x", "s", "b"], ROWS / 4, |_| 4, shared);
    group.bench_function("shared_column_20k_x_20k", |b| {
        b.iter(|| black_box(Relation::join(&[&left, &right], &key, &[]).len()))
    });
    group.finish();
}

/// The scan's bulk bind over one partition's file of a 125 k-triple
/// property (LUBM `takesCourse` at 1 200 universities on four partitions),
/// subject-ordered: one and two columns with nothing to reject, and a
/// repeated variable that rejects all but every eighth triple. Then the
/// bind filter: 100 k triples of 12 500 subjects spread over 800 k term
/// ids (a dictionary's range at a few million triples, so the key set is
/// as large as a served query's, 100 kB), bound with no key set and under
/// sets that keep all, half and 1 % of them, and the build of the set of
/// all 12 500 keys.
fn bench_scan(c: &mut Criterion) {
    const TRIPLES: u32 = 125_000;
    let triples: Vec<Triple> = (0..TRIPLES)
        .map(|i| {
            let subject = i / 2;
            let object = if i % 8 == 0 { subject } else { TRIPLES + i };
            Triple::new(TermId(subject), TermId(7), TermId(object))
        })
        .collect();
    let property = || PatternTerm::iri("takesCourse");
    let pattern = |object: &str| {
        TriplePattern::new(
            PatternTerm::variable("x"),
            property(),
            PatternTerm::variable(object),
        )
    };
    let shapes = [
        ("bind_1col_125k", pattern("y"), vec![v("x")]),
        ("bind_2col_125k", pattern("y"), vec![v("x"), v("y")]),
        ("bind_repeated_variable_125k", pattern("x"), vec![v("x")]),
    ];
    let mut group = c.benchmark_group("kernels_scan");
    for (name, pattern, schema) in shapes {
        let binder = TripleBinder::new(&pattern, schema);
        let bind = || binder.bind_all(&triples, &[], None, SortOrder::by([0]));
        group.bench_function(name, |b| b.iter(|| black_box(bind().len())));
    }
    const FILTERED: u32 = 100_000;
    const SPREAD: u32 = 64;
    let subjects = FILTERED / 8;
    let file: Vec<Triple> = (0..FILTERED)
        .map(|i| Triple::new(TermId(i / 8 * SPREAD), TermId(7), TermId(FILTERED + i)))
        .collect();
    let kept = |share: u32| -> KeySet {
        let kept = (0..subjects).filter(|k| k % 100 < share);
        kept.map(|k| TermId(k * SPREAD)).collect()
    };
    let binder = TripleBinder::new(&pattern("y"), vec![v("x"), v("y")]);
    let bind = |keys: Option<&KeySet>| {
        let keys = keys.map(|keys| (TriplePosition::Subject, keys));
        binder.bind_all(&file, &[], keys, SortOrder::by([0])).len()
    };
    group.bench_function("bind_100k", |b| b.iter(|| black_box(bind(None))));
    for share in [100, 50, 1] {
        let keys = kept(share);
        group.bench_function(format!("bind_100k_keep{share}"), |b| {
            b.iter(|| black_box(bind(Some(&keys))))
        });
    }
    let keys = file.iter().step_by(8).map(|t| t.subject);
    group.bench_function("key_set_12_5k", |b| {
        b.iter(|| black_box(keys.clone().collect::<KeySet>()))
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
                relation.canonicalize();
                relation
            })
            .collect();
        group.bench_function(format!("k{k}_runs_of_{run}_20k_each"), |b| {
            b.iter(|| black_box(Relation::merge_ordered(parts.clone()).len()))
        });
    }
    group.finish();
}

/// The served answer's JSON body, its rows rendered from ids: LUBM Q3 as
/// `point_lookup` asks it, 1 000 (professor, student) rows of one
/// university's departments — two IRI columns, each cell escaped straight
/// from the dictionary.
fn bench_answer_render(c: &mut Criterion) {
    let graph = LubmGenerator::new(LubmScale::with_universities(1)).generate();
    let id = |local: &str| {
        graph
            .lookup(&Term::iri(vocab::ub(local)))
            .expect("a LUBM term")
    };
    let (works_for, member_of) = (id("worksFor"), id("memberOf"));
    let with =
        |property| (graph.triples().iter()).filter(move |t: &&Triple| t.property == property);
    let mut rows: Vec<Vec<TermId>> = with(works_for)
        .flat_map(|p| {
            let members = with(member_of).filter(move |s| s.object == p.object);
            members.map(move |s| vec![p.subject, s.subject])
        })
        .take(1_000)
        .collect();
    rows.sort();
    assert_eq!(rows.len(), 1_000);
    let answer = QueryAnswer {
        query: String::new(),
        variables: vec!["?P".to_string(), "?S".to_string()],
        rows: AnswerRows::new(Relation::new(vec![v("P"), v("S")], rows), Arc::new(graph)),
        total_rows: 1_000,
        truncated: false,
        job_descriptor: "1".to_string(),
        simulated_seconds: 0.0,
        wall_seconds: 0.0,
        plan_seconds: 0.0,
        cache_hit: true,
        profile: None,
    };
    let mut group = c.benchmark_group("answer_render");
    group.bench_function("q3_lookup_1000_rows_x2_iris", |b| {
        b.iter(|| black_box(render_answer(&answer).len()))
    });
    group.finish();
}

/// One wave of `k` tasks that each spin for `work`, through the persistent
/// scheduler with one worker (the submitter helps drain it) and inline on
/// the submitting thread: what dispatching a wave costs over running it.
fn bench_wave_dispatch(c: &mut Criterion) {
    let serving = Runtime::serving(1);
    let job = serving.begin_job();
    let wave = |k: usize, work: Duration| -> Vec<_> {
        (0..k)
            .map(|task| {
                move || {
                    let start = Instant::now();
                    while start.elapsed() < work {
                        std::hint::spin_loop();
                    }
                    task
                }
            })
            .collect()
    };
    let mut group = c.benchmark_group("wave_dispatch");
    for (label, work) in [("noop", Duration::ZERO), ("1us", Duration::from_micros(1))] {
        for k in [1, 4, 8] {
            group.bench_function(format!("serving1_k{k}_{label}"), |b| {
                b.iter(|| black_box(serving.run_job_wave(job, wave(k, work)).len()))
            });
            group.bench_function(format!("inline_k{k}_{label}"), |b| {
                b.iter(|| black_box(wave(k, work).into_iter().map(|task| task()).sum::<usize>()))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sort,
    bench_merge_join,
    bench_factorized,
    bench_shuffle,
    bench_merge_ordered,
    bench_scan,
    bench_answer_render,
    bench_wave_dispatch
);
criterion_main!(benches);
