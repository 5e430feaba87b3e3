//! Criterion benchmarks for the logical optimizer (Figure 18 companion):
//! optimization time per variant on representative query shapes, the
//! complexity-bound computation of Figure 8, and the whole plan-cache miss
//! (`Csq::plan` and `Csq::choose`: search plus pricing the candidates that
//! can win).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cliquesquare_bench::{bench_scale, lubm_cluster};
use cliquesquare_core::complexity::worst_case_decompositions;
use cliquesquare_core::decomposition::DecompositionLimits;
use cliquesquare_core::{Optimizer, OptimizerConfig, Variant};
use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_querygen::lubm_queries::{q11, q12, q14, q7};
use cliquesquare_querygen::{SyntheticShape, SyntheticWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_variants_on_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize_shape");
    let mut rng = StdRng::seed_from_u64(5);
    let queries = vec![
        (
            "chain8",
            SyntheticWorkload::query(SyntheticShape::Chain, 8, &mut rng),
        ),
        (
            "star8",
            SyntheticWorkload::query(SyntheticShape::Star, 8, &mut rng),
        ),
        (
            "dense8",
            SyntheticWorkload::query(SyntheticShape::RandomDense, 8, &mut rng),
        ),
        (
            "thin8",
            SyntheticWorkload::query(SyntheticShape::RandomThin, 8, &mut rng),
        ),
    ];
    // The practical variants identified by the paper.
    for variant in [Variant::MscPlus, Variant::Mxc, Variant::Msc] {
        for (label, query) in &queries {
            group.bench_function(format!("{variant}/{label}"), |b| {
                let optimizer = Optimizer::with_variant(variant);
                b.iter(|| black_box(optimizer.optimize(black_box(query))).plans.len())
            });
        }
    }
    group.finish();
}

fn bench_lubm_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize_lubm");
    let config = OptimizerConfig::recommended()
        .with_max_plans(5_000)
        .with_limits(DecompositionLimits {
            max_decompositions: 1_000,
            max_candidate_cliques: 10_000,
        });
    for query in [q7(), q11(), q14()] {
        group.bench_function(query.name().to_string(), |b| {
            let optimizer = Optimizer::new(config);
            b.iter(|| black_box(optimizer.optimize(black_box(&query))).plans.len())
        });
    }
    group.finish();
}

/// What a plan-cache miss costs. Q12 and Q14 (with Q13, which has Q12's
/// shape) carry over 90 % of the LUBM mix's planning time. `Q12` / `Q14`
/// time `Csq::plan`, which builds every candidate the search reaches (Q14:
/// 1 434); `Q12/choose` / `Q14/choose` time `Csq::choose`, the server's
/// miss, which hands each leaf of the search to the chooser with its floor
/// (its estimate less its sort charges, read off the path) and builds,
/// translates and estimates only the candidates whose floor can still win
/// (Q14: 17 at LUBM 80 universities). This is the before / after for a
/// change to the optimizer's recursion, `decompositions`, `translate`,
/// `interesting_orders`, the floors' memo or the cost model's walk.
fn bench_plan_selection(c: &mut Criterion) {
    let csq = Csq::new(lubm_cluster(bench_scale()), CsqConfig::default());
    let mut group = c.benchmark_group("plan_selection");
    for query in [q12(), q14()] {
        group.bench_function(query.name().to_string(), |b| {
            b.iter(|| black_box(csq.plan(black_box(&query))).0.len())
        });
        group.bench_function(format!("{}/choose", query.name()), |b| {
            b.iter(|| black_box(csq.choose(black_box(&query))).candidates)
        });
    }
    group.finish();
}

fn bench_complexity_bounds(c: &mut Criterion) {
    c.bench_function("figure8_bounds_n2_to_n10", |b| {
        b.iter(|| {
            let mut total = 0u128;
            for n in 2..=10 {
                for variant in Variant::ALL {
                    total = total.wrapping_add(worst_case_decompositions(variant, black_box(n)));
                }
            }
            total
        })
    });
}

criterion_group!(
    benches,
    bench_variants_on_shapes,
    bench_lubm_queries,
    bench_plan_selection,
    bench_complexity_bounds
);
criterion_main!(benches);
