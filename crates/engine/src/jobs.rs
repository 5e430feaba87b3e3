//! Grouping physical plans into MapReduce jobs (Section 5.3).
//!
//! The rules of the paper are:
//!
//! * projections and filters run in the same task as their parent operator
//!   (here a filter is part of the MapScan whose triples it checks),
//! * map joins (and all their ancestors in the scan chains) run inside a map
//!   task,
//! * every reduce join needs a shuffle, and a reduce join can only consume
//!   another reduce join's output through a new job (whose map phase re-reads
//!   and re-shuffles the stored intermediate result).
//!
//! Consequently the number of jobs of a plan equals the number of stacked
//! reduce-join levels (independent reduce joins at the same depth share a
//! job), or a single map-only job when the plan has no reduce join at all.

use crate::physical::{PhysId, PhysicalOp, PhysicalPlan};
use cliquesquare_mapreduce::JobKind;
use serde::{Deserialize, Serialize};

/// The job assignment of every operator of a physical plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSchedule {
    /// Number of MapReduce jobs (always at least 1).
    pub job_count: usize,
    /// Kind of each job, indexed by `job - 1`.
    pub kinds: Vec<JobKind>,
    /// 1-based job index each operator executes in, indexed by operator id.
    pub op_jobs: Vec<usize>,
    /// Reduce-join nesting level of each operator (`0` for map-side ops,
    /// `k >= 1` for a reduce join with `k - 1` reduce joins below it).
    pub levels: Vec<usize>,
}

impl JobSchedule {
    /// The job descriptor used in the paper's figures: `"M"` for a single
    /// map-only job, otherwise the number of jobs.
    pub fn descriptor(&self) -> String {
        if self.job_count == 1 && self.kinds.first() == Some(&JobKind::MapOnly) {
            "M".to_string()
        } else {
            self.job_count.to_string()
        }
    }

    /// The 1-based job index of an operator.
    pub fn job_of(&self, id: PhysId) -> usize {
        self.op_jobs[id.index()]
    }
}

/// Computes the job schedule of a physical plan.
pub fn schedule(plan: &PhysicalPlan) -> JobSchedule {
    let n = plan.len();
    // Reduce-join nesting level, bottom-up (operators are stored bottom-up:
    // inputs always have smaller ids than their consumers).
    let mut levels = vec![0usize; n];
    for index in 0..n {
        let op = plan.op(PhysId(index));
        let child_max = op
            .inputs()
            .iter()
            .map(|c| levels[c.index()])
            .max()
            .unwrap_or(0);
        levels[index] = child_max + usize::from(matches!(op, PhysicalOp::ReduceJoin { .. }));
    }

    let reduce_levels = levels[plan.root().index()];
    let job_count = reduce_levels.max(1);
    let kinds = if reduce_levels == 0 {
        vec![JobKind::MapOnly]
    } else {
        vec![JobKind::MapReduce; job_count]
    };

    // Assign each operator to a job: a reduce join runs in the job of its own
    // level; a map-side operator runs in the job of its nearest reduce-join
    // ancestor; operators above every reduce join run in the last job.
    let mut op_jobs = vec![job_count; n];
    fn assign(
        plan: &PhysicalPlan,
        levels: &[usize],
        op_jobs: &mut [usize],
        id: PhysId,
        context: usize,
    ) {
        let op = plan.op(id);
        let job = if matches!(op, PhysicalOp::ReduceJoin { .. }) {
            levels[id.index()]
        } else {
            context
        };
        op_jobs[id.index()] = job;
        for &input in op.inputs() {
            assign(plan, levels, op_jobs, input, job);
        }
    }
    assign(plan, &levels, &mut op_jobs, plan.root(), job_count);

    JobSchedule {
        job_count,
        kinds,
        op_jobs,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use cliquesquare_core::{Optimizer, Variant};
    use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale};
    use cliquesquare_sparql::parser::parse_query;

    fn graph() -> Graph {
        LubmGenerator::new(LubmScale::tiny()).generate()
    }

    fn physical(query: &str, variant: Variant) -> PhysicalPlan {
        let q = parse_query(query).unwrap();
        let result = Optimizer::with_variant(variant).optimize(&q);
        let logical = result.flattest_plans()[0].clone();
        translate(&logical, &graph())
    }

    #[test]
    fn single_star_join_is_a_map_only_job() {
        let plan = physical(
            "SELECT ?x WHERE { ?x ub:worksFor ?d . ?x ub:emailAddress ?e . ?x rdf:type ub:FullProfessor }",
            Variant::Msc,
        );
        assert_eq!(plan.reduce_join_count(), 0);
        let schedule = schedule(&plan);
        assert_eq!(schedule.job_count, 1);
        assert_eq!(schedule.kinds, vec![JobKind::MapOnly]);
        assert_eq!(schedule.descriptor(), "M");
    }

    #[test]
    fn one_reduce_level_is_one_job() {
        let plan = physical(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
            Variant::Msc,
        );
        let schedule = schedule(&plan);
        assert_eq!(schedule.job_count, 1);
        assert_eq!(schedule.kinds, vec![JobKind::MapReduce]);
        assert_eq!(schedule.descriptor(), "1");
    }

    #[test]
    fn stacked_reduce_joins_need_more_jobs() {
        let plan = physical(
            "SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d . ?d ub:p4 ?e . ?e ub:p5 ?f . ?f ub:p6 ?g . ?g ub:p7 ?h . ?h ub:p8 ?i }",
            Variant::Msc,
        );
        let sched = schedule(&plan);
        assert!(
            sched.job_count >= 2,
            "8-pattern chain needs at least 2 jobs"
        );
        assert!(sched.kinds.iter().all(|k| *k == JobKind::MapReduce));
        assert_eq!(sched.descriptor(), sched.job_count.to_string());
    }

    #[test]
    fn map_side_operators_are_assigned_to_their_consuming_job() {
        let plan = physical(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
            Variant::Msc,
        );
        let sched = schedule(&plan);
        for (index, op) in plan.ops().iter().enumerate() {
            let job = sched.op_jobs[index];
            assert!(job >= 1 && job <= sched.job_count);
            if matches!(op, PhysicalOp::ReduceJoin { .. }) {
                assert_eq!(job, sched.levels[index]);
            }
        }
    }

    #[test]
    fn flat_plans_need_fewer_jobs_than_deep_plans() {
        let query = "SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d . ?d ub:p4 ?e . ?e ub:p5 ?f . ?f ub:p6 ?g }";
        let flat = physical(query, Variant::Msc);
        let deep = physical(query, Variant::Mxc);
        let flat_jobs = schedule(&flat).job_count;
        let deep_jobs = schedule(&deep).job_count;
        assert!(
            flat_jobs <= deep_jobs,
            "flat plan uses {flat_jobs} jobs, deep one {deep_jobs}"
        );
    }
}
