//! Criterion benchmarks for plan execution (Figure 20 companion): CSQ's
//! MSC-best plan versus the best binary bushy and linear plans on
//! representative LUBM queries over the simulated cluster, and the
//! service's entry on the queries whose keys cross job levels.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cliquesquare_baselines::BinaryPlanner;
use cliquesquare_bench::{bench_scale, lubm_cluster};
use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_engine::{translate, Executor};
use cliquesquare_querygen::lubm_queries::{q1, q10, q11, q12, q13, q4};
use cliquesquare_rdf::LubmScale;

fn bench_plan_families(c: &mut Criterion) {
    let cluster = lubm_cluster(bench_scale());
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    let planner = BinaryPlanner::new(cluster.graph());
    let executor = Executor::sequential(&cluster);

    let mut group = c.benchmark_group("figure20_execution");
    for query in [q1(), q4(), q10(), q12()] {
        let (_, msc_plan, _) = csq.plan(&query);
        let bushy = planner.best_bushy(&query).expect("bushy plan");
        let linear = planner.best_linear(&query).expect("linear plan");
        group.bench_function(format!("{}/msc", query.name()), |b| {
            b.iter(|| black_box(executor.execute_logical(black_box(&msc_plan)).results.len()))
        });
        group.bench_function(format!("{}/bushy", query.name()), |b| {
            b.iter(|| black_box(executor.execute_logical(black_box(&bushy)).results.len()))
        });
        group.bench_function(format!("{}/linear", query.name()), |b| {
            b.iter(|| black_box(executor.execute_logical(black_box(&linear)).results.len()))
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let cluster = lubm_cluster(bench_scale());
    let csq = Csq::new(cluster, CsqConfig::default());
    let mut group = c.benchmark_group("csq_end_to_end");
    for query in [q1(), q10()] {
        group.bench_function(query.name().to_string(), |b| {
            b.iter(|| black_box(csq.run(black_box(&query))).result_count)
        });
    }
    group.finish();
}

/// Q11 and Q13, whose constant-fed side of 4–44 rows meets a side built
/// from whole property files at the top of the plan: the join evaluates the
/// constant-fed side first and the other side's scans seek its keys. Timed
/// through the service's entry (`execute_bounded`, 1 000 rows) on LUBM at
/// 50 universities, where both pass keys across a job boundary.
fn bench_key_passing(c: &mut Criterion) {
    let cluster = lubm_cluster(LubmScale::with_universities(50));
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    let executor = Executor::sequential(&cluster);
    let mut group = c.benchmark_group("key_passing");
    for query in [q11(), q13()] {
        let (_, plan, _) = csq.plan(&query);
        let physical = translate(&plan, cluster.graph());
        group.bench_function(query.name().to_string(), |b| {
            b.iter(|| {
                black_box(executor.execute_bounded(black_box(&physical), 1_000, None)).total_rows
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_families,
    bench_end_to_end,
    bench_key_passing
);
criterion_main!(benches);
