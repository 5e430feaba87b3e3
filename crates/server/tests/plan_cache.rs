//! The template plan cache under serving load: repeated templates hit, hits
//! skip optimization, and answers are byte-identical with the cache on or
//! off, solo or with many concurrent clients, at every worker count.

use cliquesquare_mapreduce::{Cluster, ClusterConfig, Runtime};
use cliquesquare_rdf::{LubmGenerator, LubmScale};
use cliquesquare_server::{QueryAnswer, QueryService};
use std::sync::Arc;

/// A template mix: three templates, each instantiated with several
/// different constants, plus one constant-free query. Every query is
/// answerable on tiny LUBM.
const MIX: &[&str] = &[
    "SELECT ?x ?d WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }",
    "SELECT ?x ?d WHERE { ?x rdf:type ub:UndergraduateStudent . ?x ub:memberOf ?d }",
    "SELECT ?x ?y WHERE { ?x rdf:type ub:FullProfessor . ?x ub:worksFor ?y }",
    "SELECT ?x ?y WHERE { ?x rdf:type ub:AssistantProfessor . ?x ub:worksFor ?y }",
    "SELECT ?s ?a WHERE { ?s rdf:type ub:GraduateStudent . ?s ub:advisor ?a }",
    "SELECT ?s ?a WHERE { ?s rdf:type ub:UndergraduateStudent . ?s ub:advisor ?a }",
    "SELECT ?x ?y WHERE { ?x ub:advisor ?y }",
];

fn cluster() -> Cluster {
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    Cluster::load(graph, ClusterConfig::with_nodes(4))
}

fn comparable(answer: &QueryAnswer) -> (Vec<String>, Vec<Vec<String>>, usize) {
    (
        answer.variables.clone(),
        answer.rows.decoded().collect(),
        answer.total_rows,
    )
}

#[test]
fn cache_on_and_off_answers_are_identical_at_every_worker_count() {
    let cluster = cluster();
    for workers in [1usize, 2, 8] {
        let cached = QueryService::new(cluster.clone(), Runtime::serving(workers));
        let uncached =
            QueryService::new(cluster.clone(), Runtime::serving(workers)).with_plan_cache(None);
        // Two passes so the second pass reads cached plans.
        for _ in 0..2 {
            for text in MIX {
                let warm = cached.execute_text(text).expect("cached serves");
                let cold = uncached.execute_text(text).expect("uncached serves");
                assert_eq!(
                    comparable(&warm),
                    comparable(&cold),
                    "answers diverge at {workers} workers for {text}"
                );
                assert!(!cold.cache_hit);
            }
        }
    }
}

#[test]
fn repeated_templates_hit_and_skip_optimization() {
    let service = QueryService::new(cluster(), Runtime::serving(2));
    let cache = service.plan_cache().expect("cache on by default");
    let (h0, m0, _) = cache.counters();

    let cold = service.execute_text(MIX[0]).expect("cold serves");
    assert!(!cold.cache_hit, "first sight of a template is a miss");

    // The same text again and a different constant of the same template
    // both hit.
    let warm_same = service.execute_text(MIX[0]).expect("warm serves");
    let warm_rebound = service.execute_text(MIX[1]).expect("rebound serves");
    assert!(warm_same.cache_hit);
    assert!(warm_rebound.cache_hit);

    let (h1, m1, _) = cache.counters();
    assert_eq!(h1 - h0, 2);
    assert_eq!(m1 - m0, 1);

    // The rebound answer matches planning the query from scratch.
    let from_scratch = QueryService::new(cluster(), Runtime::serving(2))
        .with_plan_cache(None)
        .execute_text(MIX[1])
        .expect("scratch serves");
    assert!(from_scratch.total_rows > 0);
    assert_eq!(comparable(&warm_rebound), comparable(&from_scratch));
}

#[test]
fn concurrent_clients_over_a_template_mix_match_the_solo_answers() {
    let service = Arc::new(QueryService::new(cluster(), Runtime::serving(4)));
    let solo: Vec<_> = MIX
        .iter()
        .map(|text| comparable(&service.execute_text(text).expect("solo serves")))
        .collect();
    let handles: Vec<_> = (0..6)
        .map(|client| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                // Each client walks the mix from a different offset so
                // cache hits and misses interleave across threads.
                (0..MIX.len())
                    .map(|i| {
                        let text = MIX[(client + i) % MIX.len()];
                        (
                            (client + i) % MIX.len(),
                            comparable(&service.execute_text(text).expect("serves")),
                        )
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        for (index, answer) in handle.join().expect("client thread") {
            assert_eq!(answer, solo[index]);
        }
    }
    let (hits, _, _) = service.plan_cache().expect("cache").counters();
    assert!(hits > 0, "concurrent template repeats should hit the cache");
}

#[test]
fn warm_planning_is_reported_separately_from_execution() {
    let service = QueryService::new(cluster(), Runtime::serving(2));
    let cold = service.execute_text(MIX[2]).expect("cold serves");
    let warm = service.execute_text(MIX[2]).expect("warm serves");
    assert!(!cold.cache_hit);
    assert!(warm.cache_hit);
    // plan_seconds is planning only — execution wall is tracked separately,
    // and both are always populated.
    assert!(cold.plan_seconds > 0.0);
    assert!(warm.plan_seconds > 0.0);
    assert!(cold.wall_seconds > 0.0);
    // The warm path rebinds constants instead of re-optimizing: it must be
    // well under the cold planning wall (generous 2x margin against noisy
    // schedulers: rebinding is microseconds, planning is milliseconds).
    assert!(
        warm.plan_seconds < cold.plan_seconds,
        "warm planning ({}) should undercut cold planning ({})",
        warm.plan_seconds,
        cold.plan_seconds
    );
}

/// The bounded root reads nothing stale from a cached plan:
/// `rebind_constants` splices new constants into the plan a first query
/// cached, and the count, the cut and the schema are the new query's — for
/// a constant that moves the answer from over the 1 000-row cut to under
/// it, one that empties it, and the first one again.
#[test]
fn a_rebound_plan_is_counted_and_cut_like_a_fresh_one() {
    let graph = LubmGenerator::new(LubmScale::with_universities(8)).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    let cached = QueryService::new(cluster.clone(), Runtime::serving(2));
    let fresh = QueryService::new(cluster, Runtime::serving(2)).with_plan_cache(None);
    let members = |class: &str| {
        format!("SELECT ?x ?d WHERE {{ ?x rdf:type ub:{class} . ?x ub:memberOf ?d }}")
    };

    let over = cached
        .execute_text(&members("UndergraduateStudent"))
        .expect("serves");
    assert!(!over.cache_hit);
    assert!(
        over.truncated && over.total_rows > 1_000,
        "{}",
        over.total_rows
    );
    assert_eq!(over.rows.len(), 1_000);

    for class in ["GraduateStudent", "NoSuchClass", "UndergraduateStudent"] {
        let warm = cached.execute_text(&members(class)).expect("serves");
        let cold = fresh.execute_text(&members(class)).expect("serves");
        assert!(warm.cache_hit && !cold.cache_hit, "{class}");
        assert_eq!(comparable(&warm), comparable(&cold), "{class}");
        assert_eq!(warm.truncated, cold.truncated, "{class}");
        assert_eq!(warm.variables, ["?x", "?d"], "{class}");
        match class {
            "GraduateStudent" => {
                assert!(!warm.truncated && warm.total_rows > 0, "{class}");
                assert_eq!(warm.rows.len(), warm.total_rows, "{class}");
            }
            "NoSuchClass" => {
                assert_eq!((warm.total_rows, warm.rows.len()), (0, 0), "{class}");
                assert!(!warm.truncated, "{class}");
            }
            _ => assert_eq!(comparable(&warm), comparable(&over), "{class}"),
        }
    }
}
