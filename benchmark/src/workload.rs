//! The four workloads: what each loads and which requests make one pass.
//! Everything here is a pure function of `--seed`; the program under test
//! sees only the generated inputs.

use crate::stats::Rng;
use crate::sut::{get_request, post_request, Dataset};
use cliquesquare_mapreduce::{BulkLoader, LoadOptions, Runtime};
use cliquesquare_querygen::{lubm_queries, sp2b_queries};
use cliquesquare_rdf::{ntriples, LubmScale, Sp2bScale};
use cliquesquare_sparql::parser::parse_query;
use cliquesquare_sparql::BgpQuery;
use std::sync::Arc;

/// LUBM universities of `lubm_mix` and `point_lookup` (2 095 200 triples).
const LUBM_UNIVERSITIES: usize = 1_200;
/// SP²Bench articles of `sp2b_heavy` (≈ 575 k triples).
const SP2B_ARTICLES: usize = 60_000;
/// LUBM universities of `cold_restart` (≈ 140 k triples, ≈ 22 MB of text):
/// sized so that at least 20 restart cycles fit in one run.
const RESTART_UNIVERSITIES: usize = 80;
/// Requests in one `point_lookup` pass: sized, like everything else, so
/// that at least 20 passes fit in one run.
const LOOKUPS_PER_PASS: usize = 90;

/// One distinct request of a pass.
#[derive(Debug, Clone)]
pub struct Request {
    /// Short name for reports (`Q7`, `S3`, `Q3@University412`).
    pub label: String,
    /// The bytes sent on the socket.
    pub raw: Vec<u8>,
    /// The same request with `profile=1`.
    pub raw_profiled: Vec<u8>,
    /// The parsed query, for the oracle and the in-process layer probes.
    pub query: BgpQuery,
    /// The SPARQL text of a `POST /sparql` request; `None` for
    /// `GET /query?name=`.
    pub text: Option<String>,
}

impl Request {
    fn named(query: BgpQuery) -> Self {
        let name = query.name().to_string();
        Self {
            raw: get_request(&format!("/query?name={name}")),
            raw_profiled: get_request(&format!("/query?name={name}&profile=1")),
            label: name,
            query,
            text: None,
        }
    }

    fn sparql(label: String, text: String) -> Self {
        let mut query = parse_query(&text).expect("generated SPARQL parses");
        query.set_name(label.clone());
        Self {
            raw: post_request("/sparql", &text),
            raw_profiled: post_request("/sparql?profile=1", &text),
            label,
            query,
            text: Some(text),
        }
    }
}

/// Everything a run needs to know about its workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub dataset: Dataset,
    pub requests: Vec<Request>,
    /// `cold_restart`: every pass rebuilds the system first, so each
    /// request is a plan-cache miss on cold scratch pools.
    pub restart_each_pass: bool,
}

/// Builds workload `name` for `seed`; `smoke` swaps in the generators'
/// `tiny()` scales.
pub fn build(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
    let lubm = |universities: usize| LubmScale {
        seed,
        ..if smoke {
            LubmScale::tiny()
        } else {
            LubmScale::with_universities(universities)
        }
    };
    match name {
        "lubm_mix" => Ok(Workload {
            dataset: Dataset::Lubm(lubm(LUBM_UNIVERSITIES)),
            requests: lubm_queries().into_iter().map(Request::named).collect(),
            restart_each_pass: false,
        }),
        "sp2b_heavy" => {
            let scale = if smoke {
                Sp2bScale::tiny()
            } else {
                Sp2bScale {
                    // One journal per two articles instead of per fifty:
                    // S5's journal self-join keeps its power-law head but
                    // the reference evaluator — a nested-loop index join
                    // that must enumerate every same-journal pair — can
                    // check it in about a second instead of a minute.
                    journals: SP2B_ARTICLES / 2,
                    ..Sp2bScale::with_articles(SP2B_ARTICLES)
                }
            };
            let scale = Sp2bScale { seed, ..scale };
            Ok(Workload {
                dataset: Dataset::Sp2b(scale),
                requests: sp2b_queries()
                    .into_iter()
                    .map(|q| Request::sparql(q.name().to_string(), q.to_string()))
                    .collect(),
                restart_each_pass: false,
            })
        }
        "point_lookup" => {
            let scale = lubm(LUBM_UNIVERSITIES);
            Ok(Workload {
                requests: point_lookups(scale.universities, seed),
                dataset: Dataset::Lubm(scale),
                restart_each_pass: false,
            })
        }
        "cold_restart" => {
            let scale = lubm(RESTART_UNIVERSITIES);
            let graph = BulkLoader::new(Runtime::with_threads(crate::sut::nproc()))
                .load_lubm(scale, &LoadOptions::default())
                .graph;
            Ok(Workload {
                dataset: Dataset::NTriples(Arc::new(ntriples::serialize(&graph))),
                requests: lubm_queries().into_iter().map(Request::named).collect(),
                restart_each_pass: true,
            })
        }
        other => Err(format!(
            "unknown workload {other:?} (expected one of: {})",
            crate::spec::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// The Q2/Q3/Q4 shapes of the LUBM mix with the university constant drawn
/// by seed: `LOOKUPS_PER_PASS / 3` distinct universities per shape.
fn point_lookups(universities: usize, seed: u64) -> Vec<Request> {
    const SHAPES: [(&str, &str); 3] = [
        (
            "Q2",
            "SELECT ?X WHERE { ?X rdf:type ub:AssistantProfessor . \
             ?X ub:doctoralDegreeFrom <U> }",
        ),
        (
            "Q3",
            "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . \
             ?D ub:subOrganizationOf <U> }",
        ),
        (
            "Q4",
            "SELECT ?X ?Y WHERE { ?X rdf:type ub:Lecturer . ?Y rdf:type ub:Department . \
             ?X ub:worksFor ?Y . ?Y ub:subOrganizationOf <U> }",
        ),
    ];
    let mut ids: Vec<usize> = (0..universities.max(1)).collect();
    Rng::new(seed ^ 0x706f_696e_7473).shuffle(&mut ids);
    let per_shape = (LOOKUPS_PER_PASS / SHAPES.len()).min(ids.len());
    let mut requests = Vec::with_capacity(per_shape * SHAPES.len());
    for (shape, (name, template)) in SHAPES.iter().enumerate() {
        for k in 0..per_shape {
            let university = ids[(shape * per_shape + k) % ids.len()];
            requests.push(Request::sparql(
                format!("{name}@University{university}"),
                template.replace("<U>", &format!("<http://www.University{university}.edu>")),
            ));
        }
    }
    requests
}
