//! Concurrency determinism of the serving stack: a query mix run **solo**
//! must yield byte-identical answers when the same mix runs **interleaved**
//! with random other queries on a shared persistent scheduler, at worker
//! thread counts 1, 2 and 8. This is the N-jobs-in-flight extension of the
//! single-job differential oracles in `parallel_runtime.rs`.

use cliquesquare_mapreduce::{Cluster, ClusterConfig, Runtime};
use cliquesquare_querygen::lubm_queries::lubm_queries;
use cliquesquare_rdf::{LubmGenerator, LubmScale};
use cliquesquare_server::{QueryAnswer, QueryService};
use cliquesquare_sparql::BgpQuery;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn tiny_cluster() -> &'static Cluster {
    static CLUSTER: OnceLock<Cluster> = OnceLock::new();
    CLUSTER.get_or_init(|| {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        Cluster::load(graph, ClusterConfig::with_nodes(4))
    })
}

/// The solo oracle: each LUBM query answered once on a dedicated
/// single-worker service with nothing else in flight.
fn solo_answers() -> &'static Vec<(String, QueryAnswer)> {
    static SOLO: OnceLock<Vec<(String, QueryAnswer)>> = OnceLock::new();
    SOLO.get_or_init(|| {
        let service = QueryService::new(tiny_cluster().clone(), Runtime::serving(1));
        lubm_queries()
            .into_iter()
            .map(|query| {
                let answer = service.run(&query).expect("solo run serves");
                (query.name().to_string(), answer)
            })
            .collect()
    })
}

/// The fields of an answer that must be byte-identical across runs
/// (wall-clock time legitimately varies).
fn stable(answer: &QueryAnswer) -> (String, Vec<String>, Vec<Vec<String>>, usize, String) {
    (
        answer.query.clone(),
        answer.variables.clone(),
        answer.rows.decoded().collect(),
        answer.total_rows,
        answer.job_descriptor.clone(),
    )
}

/// Runs `mix` on a fresh service at `threads` workers while `noise_threads`
/// background clients hammer the service with `noise` queries, and checks
/// every mix answer against the solo oracle.
fn check_interleaved(threads: usize, mix: &[usize], noise: &[usize], noise_threads: usize) {
    let queries = lubm_queries();
    let solo = solo_answers();
    let service = Arc::new(QueryService::new(
        tiny_cluster().clone(),
        Runtime::serving(threads),
    ));

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let interference: Vec<_> = (0..noise_threads)
        .map(|offset| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let noise: Vec<BgpQuery> = noise
                .iter()
                .map(|&i| queries[(i + offset) % queries.len()].clone())
                .collect();
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for query in &noise {
                        service.run(query).expect("noise query serves");
                    }
                    if noise.is_empty() {
                        break;
                    }
                }
            })
        })
        .collect();

    for &index in mix {
        let query = &queries[index];
        let answer = service.run(query).expect("mix query serves");
        let (name, expected) = &solo[index];
        assert_eq!(
            &stable(&answer),
            &stable(expected),
            "threads={threads}: {name} diverged from its solo answer"
        );
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for handle in interference {
        handle.join().expect("interference client");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The satellite acceptance property: the same query mix, solo vs.
    /// interleaved with random other queries, at worker threads {1, 2, 8},
    /// yields byte-identical answers per query.
    #[test]
    fn interleaved_serving_is_byte_identical_to_solo(
        mix in proptest::collection::vec(0usize..14, 2..6),
        noise in proptest::collection::vec(0usize..14, 1..4),
    ) {
        for threads in [1usize, 2, 8] {
            check_interleaved(threads, &mix, &noise, 2);
        }
    }
}

/// Deterministic (non-property) cover of the full mix at every thread count,
/// so the oracle is exercised even when `PROPTEST_CASES=0`.
#[test]
fn full_lubm_mix_is_identical_at_all_worker_counts() {
    let full: Vec<usize> = (0..lubm_queries().len()).collect();
    for threads in [1usize, 2, 8] {
        check_interleaved(threads, &full, &full[..3], 1);
    }
}
