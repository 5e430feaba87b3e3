//! CliqueSquare logical optimizer.
//!
//! This crate implements the paper's primary contribution: building **flat**
//! logical plans for conjunctive (BGP) RDF queries using *n-ary star equality
//! joins* at every level of the plan.
//!
//! The main pieces are:
//!
//! * [`VariableGraph`] — the query representation the optimizer works on
//!   (Section 3.1): nodes are sets of triple patterns, edges are labelled by
//!   shared variables.
//! * [`Clique`] / [`Decomposition`] — variable cliques and clique
//!   decompositions (Definitions 3.2 and 3.3), generated by the eight
//!   decomposition [`Variant`]s (MXC+, XC+, MSC+, SC+, MXC, XC, MSC, SC).
//! * [`Optimizer`] — the recursive CliqueSquare algorithm (Algorithm 1) that
//!   repeatedly decomposes and reduces the variable graph and turns each
//!   sequence of graphs into a [`LogicalPlan`] of n-ary joins.
//! * [`planspace`] — plan-space measurements (plan counts, height-optimality
//!   ratio, uniqueness ratio) used in the Section 6.2 evaluation.
//! * [`complexity`] — the worst-case decomposition-count bounds of Figure 8.
//!
//! # Example
//!
//! ```
//! use cliquesquare_core::{Optimizer, OptimizerConfig, Variant};
//! use cliquesquare_sparql::parser::parse_query;
//!
//! let query = parse_query(
//!     "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
//! ).unwrap();
//! let optimizer = Optimizer::new(OptimizerConfig::variant(Variant::Msc));
//! let result = optimizer.optimize(&query);
//! assert!(!result.plans.is_empty());
//! // MSC is HO-partial: it found a flattest possible plan for this query.
//! assert_eq!(result.min_height().unwrap(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clique;
pub mod complexity;
pub mod decomposition;
pub mod optimizer;
pub mod paper_examples;
pub mod plan;
pub mod planspace;
pub mod variable_graph;

pub use clique::{Clique, Decomposition};
pub use decomposition::{DecompositionLimits, Variant};
pub use optimizer::{Leaf, OptimizeResult, Optimizer, OptimizerConfig, SearchSummary};
pub use plan::{LogicalOp, LogicalPlan, OpId, PlanSink};
pub use planspace::{PlanSpaceReport, VariantReport};
pub use variable_graph::{GraphNode, VariableGraph};
