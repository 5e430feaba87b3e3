//! Criterion benchmarks for plan execution (Figure 20 companion): CSQ's
//! MSC-best plan versus the best binary bushy and linear plans on
//! representative LUBM queries over the simulated cluster.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cliquesquare_baselines::BinaryPlanner;
use cliquesquare_bench::{bench_scale, lubm_cluster};
use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_engine::Executor;
use cliquesquare_querygen::lubm_queries::{q1, q10, q12, q4};

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

criterion_group!(benches, bench_plan_families, bench_end_to_end);
criterion_main!(benches);
