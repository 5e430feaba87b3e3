//! Plan-space measurements: the quantities reported in Figures 16–19 of the
//! paper's Section 6.2 (number of plans, optimality ratio, optimization time,
//! uniqueness ratio) plus height-optimality helpers.

use crate::decomposition::Variant;
use crate::optimizer::{OptimizeResult, Optimizer, OptimizerConfig};
use crate::plan::LogicalPlan;
use cliquesquare_sparql::BgpQuery;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Computes the optimal (smallest achievable) plan height for a query.
///
/// CliqueSquare-MSC is height-optimal *partial* (Theorem 4.3): for every
/// query it produces at least one plan of optimal height, so the minimum
/// height over its plan space equals the global optimum. Returns `None` for
/// queries on which no plan exists (empty or disconnected queries).
pub fn optimal_height(query: &BgpQuery) -> Option<usize> {
    Optimizer::with_variant(Variant::Msc)
        .optimize(query)
        .min_height()
}

/// Per-query measurements for one variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryMeasurement {
    /// Name of the query.
    pub query: String,
    /// Variant under measurement.
    pub variant: Variant,
    /// Total number of generated plans (duplicates included, as in Fig. 16).
    pub plans: usize,
    /// Number of structurally unique plans.
    pub unique_plans: usize,
    /// Number of height-optimal plans among the generated ones.
    pub height_optimal_plans: usize,
    /// Optimal height of the query (from the MSC reference), if any plan exists.
    pub optimal_height: Option<usize>,
    /// Minimum height among the generated plans, if any.
    pub min_height: Option<usize>,
    /// Optimization wall-clock time in milliseconds.
    pub time_ms: f64,
    /// Whether the search was truncated by the configured limits.
    pub truncated: bool,
}

impl QueryMeasurement {
    /// Optimality ratio for this query: HO plans / all plans, 0 when no plan
    /// was found (the convention of Figure 17).
    pub fn optimality_ratio(&self) -> f64 {
        if self.plans == 0 {
            0.0
        } else {
            self.height_optimal_plans as f64 / self.plans as f64
        }
    }

    /// Uniqueness ratio for this query: unique plans / all plans, 1 when no
    /// plan was found (no duplicates were produced).
    pub fn uniqueness_ratio(&self) -> f64 {
        if self.plans == 0 {
            1.0
        } else {
            self.unique_plans as f64 / self.plans as f64
        }
    }
}

/// Measures one variant on one query.
pub fn measure_query(
    query: &BgpQuery,
    variant: Variant,
    config: OptimizerConfig,
) -> QueryMeasurement {
    let config = OptimizerConfig { variant, ..config };
    let result: OptimizeResult = Optimizer::new(config).optimize(query);
    let optimal = optimal_height(query);
    let height_optimal_plans = match optimal {
        Some(h) => result.plans.iter().filter(|p| p.height() == h).count(),
        None => 0,
    };
    QueryMeasurement {
        query: query.name().to_string(),
        variant,
        plans: result.plans.len(),
        unique_plans: result.unique_count(),
        height_optimal_plans,
        optimal_height: optimal,
        min_height: result.min_height(),
        time_ms: result.elapsed.as_secs_f64() * 1000.0,
        truncated: result.truncated,
    }
}

/// Aggregate of [`QueryMeasurement`]s for one variant over a workload:
/// one row of Figures 16–19.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantReport {
    /// Variant under measurement.
    pub variant: Variant,
    /// Average number of generated plans per query (Figure 16).
    pub avg_plans: f64,
    /// Average optimality ratio (Figure 17).
    pub avg_optimality_ratio: f64,
    /// Average optimization time in milliseconds (Figure 18).
    pub avg_time_ms: f64,
    /// Average uniqueness ratio (Figure 19).
    pub avg_uniqueness_ratio: f64,
    /// Number of queries for which the variant found no plan at all.
    pub failed_queries: usize,
    /// Number of queries measured.
    pub queries: usize,
}

/// Aggregate report over a workload for a set of variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSpaceReport {
    /// One row per variant.
    pub rows: Vec<VariantReport>,
    /// The individual per-query measurements behind the aggregates.
    pub measurements: Vec<QueryMeasurement>,
}

impl PlanSpaceReport {
    /// Returns the report row for `variant`, if it was measured.
    pub fn row(&self, variant: Variant) -> Option<&VariantReport> {
        self.rows.iter().find(|r| r.variant == variant)
    }
}

/// Runs the Section 6.2 experiment: measures every variant on every query
/// and aggregates per-variant averages.
pub fn evaluate_variants(
    queries: &[BgpQuery],
    variants: &[Variant],
    config: OptimizerConfig,
) -> PlanSpaceReport {
    let mut measurements = Vec::new();
    let mut rows = Vec::new();
    for &variant in variants {
        let per_query: Vec<QueryMeasurement> = queries
            .iter()
            .map(|q| measure_query(q, variant, config))
            .collect();
        let n = per_query.len().max(1) as f64;
        let avg_plans = per_query.iter().map(|m| m.plans as f64).sum::<f64>() / n;
        let avg_optimality_ratio = per_query
            .iter()
            .map(QueryMeasurement::optimality_ratio)
            .sum::<f64>()
            / n;
        let avg_time_ms = per_query.iter().map(|m| m.time_ms).sum::<f64>() / n;
        let avg_uniqueness_ratio = per_query
            .iter()
            .map(QueryMeasurement::uniqueness_ratio)
            .sum::<f64>()
            / n;
        let failed_queries = per_query.iter().filter(|m| m.plans == 0).count();
        rows.push(VariantReport {
            variant,
            avg_plans,
            avg_optimality_ratio,
            avg_time_ms,
            avg_uniqueness_ratio,
            failed_queries,
            queries: per_query.len(),
        });
        measurements.extend(per_query);
    }
    PlanSpaceReport { rows, measurements }
}

/// Classification of a variant's ability to find height-optimal plans
/// (Definition 4.2 / 4.3 and Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HoClass {
    /// The variant's plan space contains *all* HO plans of every query.
    Complete,
    /// The variant's plan space contains *at least one* HO plan of every query.
    Partial,
    /// There are queries for which the variant finds no HO plan.
    Lossy,
}

/// The paper's classification of each variant (Figure 9).
pub fn paper_ho_class(variant: Variant) -> HoClass {
    match variant {
        Variant::Sc => HoClass::Complete,
        Variant::ScPlus | Variant::MscPlus | Variant::Msc => HoClass::Partial,
        Variant::MxcPlus | Variant::XcPlus | Variant::Mxc | Variant::Xc => HoClass::Lossy,
    }
}

/// Empirically checks, over a set of queries, whether `variant` found at
/// least one HO plan for every query (the HO-partial property restricted to
/// the given workload). Returns the names of the queries where it failed.
pub fn ho_failures(queries: &[BgpQuery], variant: Variant, config: OptimizerConfig) -> Vec<String> {
    let mut failures = Vec::new();
    for query in queries {
        let Some(optimal) = optimal_height(query) else {
            continue;
        };
        let measurement = measure_query(query, variant, config);
        if measurement.min_height != Some(optimal) {
            failures.push(query.name().to_string());
        }
    }
    failures
}

/// Returns the set of plan signatures produced by `variant` for `query`
/// (used to verify the plan-space inclusions of Figure 7).
pub fn plan_signatures(
    query: &BgpQuery,
    variant: Variant,
    config: OptimizerConfig,
) -> BTreeSet<String> {
    let config = OptimizerConfig { variant, ..config };
    Optimizer::new(config)
        .optimize(query)
        .plans
        .iter()
        .map(LogicalPlan::signature)
        .collect()
}

/// The plan-space inclusion lattice of Figure 7: pairs `(smaller, larger)`
/// such that the plan space of `smaller` is included in that of `larger`.
pub fn figure7_inclusions() -> Vec<(Variant, Variant)> {
    use Variant::*;
    vec![
        (MxcPlus, XcPlus),
        (MxcPlus, MscPlus),
        (MxcPlus, Mxc),
        (XcPlus, ScPlus),
        (XcPlus, Xc),
        (MscPlus, ScPlus),
        (MscPlus, Msc),
        (Mxc, Xc),
        (Mxc, Msc),
        (ScPlus, Sc),
        (Xc, Sc),
        (Msc, Sc),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_examples;

    fn config() -> OptimizerConfig {
        OptimizerConfig::recommended()
    }

    #[test]
    fn optimal_heights_of_paper_examples() {
        assert_eq!(optimal_height(&paper_examples::figure1_q1()), Some(3));
        assert_eq!(optimal_height(&paper_examples::figure10_query()), Some(2));
        assert_eq!(optimal_height(&paper_examples::figure11_qx()), Some(2));
        assert_eq!(optimal_height(&paper_examples::figure14_query()), Some(2));
    }

    #[test]
    fn msc_measurements_are_all_height_optimal_on_small_examples() {
        // On the small example queries every MSC plan is height optimal, as
        // in the paper's synthetic workload (Figure 17). This is not
        // guaranteed in general, so larger queries only assert HO-partiality.
        for query in [
            paper_examples::figure10_query(),
            paper_examples::figure11_qx(),
        ] {
            let m = measure_query(&query, Variant::Msc, config());
            assert!(m.plans > 0);
            assert_eq!(m.optimality_ratio(), 1.0, "MSC not HO on {}", query.name());
            assert!(m.uniqueness_ratio() > 0.0);
        }
        // On Figure 14 and the large Figure 1 query MSC mixes optimal and
        // non-optimal plans but, being HO-partial, always includes at least
        // one height-optimal plan.
        for query in [
            paper_examples::figure14_query(),
            paper_examples::figure1_q1(),
        ] {
            let m = measure_query(&query, Variant::Msc, config());
            assert!(m.plans > 0);
            assert!(
                m.height_optimal_plans >= 1,
                "no HO plan on {}",
                query.name()
            );
            assert_eq!(m.min_height, m.optimal_height);
        }
    }

    #[test]
    fn exact_variants_are_lossy_on_figure14() {
        let q = paper_examples::figure14_query();
        for variant in [Variant::Mxc, Variant::Xc] {
            let m = measure_query(&q, variant, config());
            assert!(m.plans > 0);
            assert_eq!(m.optimality_ratio(), 0.0, "{variant}");
        }
        for variant in [Variant::MxcPlus, Variant::XcPlus] {
            let m = measure_query(&q, variant, config());
            assert_eq!(m.plans, 0, "{variant} cannot cover Figure 14 exactly");
            assert_eq!(m.optimality_ratio(), 0.0);
        }
    }

    #[test]
    fn evaluate_variants_produces_one_row_per_variant() {
        // Only the small example queries: running SC / XC over the 11-pattern
        // Figure 1 query enumerates tens of thousands of plans and belongs in
        // the benchmark harness, not a unit test.
        let queries = [
            paper_examples::figure10_query(),
            paper_examples::figure11_qx(),
            paper_examples::figure14_query(),
        ];
        let report = evaluate_variants(&queries, &Variant::ALL, config());
        assert_eq!(report.rows.len(), 8);
        assert_eq!(report.measurements.len(), 8 * queries.len());
        let msc = report.row(Variant::Msc).unwrap();
        assert_eq!(msc.failed_queries, 0);
        assert!(msc.avg_plans >= 1.0);
        assert!(msc.avg_optimality_ratio > 0.7);
        let mxc_plus = report.row(Variant::MxcPlus).unwrap();
        assert!(mxc_plus.failed_queries > 0);
    }

    #[test]
    fn ho_failures_match_paper_classification_on_examples() {
        let queries = [
            paper_examples::figure10_query(),
            paper_examples::figure11_qx(),
            paper_examples::figure14_query(),
        ];
        for variant in [Variant::Msc, Variant::MscPlus, Variant::ScPlus, Variant::Sc] {
            assert!(
                ho_failures(&queries, variant, config()).is_empty(),
                "{variant} should be HO-partial on the example queries"
            );
        }
        // The exact variants all miss the flattest plan of Figure 14.
        for variant in [Variant::Mxc, Variant::Xc, Variant::MxcPlus, Variant::XcPlus] {
            assert!(
                ho_failures(&queries, variant, config()).contains(&"Fig14".to_string()),
                "{variant} should fail on Figure 14"
            );
        }
    }

    #[test]
    fn figure7_inclusions_hold_on_small_examples() {
        // Verify the plan-space inclusion lattice on the tractable examples.
        let queries = [
            paper_examples::figure10_query(),
            paper_examples::figure11_qx(),
            paper_examples::figure14_query(),
        ];
        for (smaller, larger) in figure7_inclusions() {
            for query in &queries {
                let s = plan_signatures(query, smaller, config());
                let l = plan_signatures(query, larger, config());
                assert!(
                    s.is_subset(&l),
                    "P_{smaller} ⊄ P_{larger} on {}",
                    query.name()
                );
            }
        }
    }

    #[test]
    fn paper_ho_classification_table() {
        assert_eq!(paper_ho_class(Variant::Sc), HoClass::Complete);
        assert_eq!(paper_ho_class(Variant::Msc), HoClass::Partial);
        assert_eq!(paper_ho_class(Variant::MscPlus), HoClass::Partial);
        assert_eq!(paper_ho_class(Variant::ScPlus), HoClass::Partial);
        for v in [Variant::Mxc, Variant::Xc, Variant::MxcPlus, Variant::XcPlus] {
            assert_eq!(paper_ho_class(v), HoClass::Lossy);
        }
    }
}
