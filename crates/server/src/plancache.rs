//! Structure-keyed template plan cache: optimize once, serve many.
//!
//! Serving workloads repeat query *templates* — the same BGP shape with
//! different constants (a different class, a different department IRI).
//! The expensive part of answering such a query is everything between
//! parsing and execution: clique decomposition, plan-space exploration,
//! cost-based choice and physical translation. None of it depends on the
//! *values* of the constants, only on where constants sit and how the
//! variables connect.
//!
//! [`TemplateKey`] captures exactly that structure: each pattern position is
//! recorded as a canonically renamed variable, an anonymous constant, or the
//! `rdf:type` property (which must stay distinct from other constants —
//! translation routes `rdf:type` patterns to class-split partition files
//! instead of residual filters). [`PlanCache`] maps keys to finished
//! physical plans; a hit skips straight to
//! [`cliquesquare_engine::rebind_constants`], which splices the new
//! constants into the cached plan in one pass over its operators.
//!
//! A cache belongs to one service, which serves one cluster for its whole
//! life, so a cached plan never outlives the data and statistics it was
//! chosen against. Entries are evicted least-recently-used beyond
//! [`DEFAULT_CAPACITY`], or dropped when they fail to rebind. Hits, misses
//! and evictions are exported as `csq_plancache_{hits,misses,evictions}_total`
//! in the global metric registry.

use cliquesquare_engine::PhysicalPlan;
use cliquesquare_obs::Counter;
use cliquesquare_rdf::Term;
use cliquesquare_sparql::{BgpQuery, PatternTerm, Variable};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default maximum number of cached template plans.
pub const DEFAULT_CAPACITY: usize = 128;

/// One pattern position in a template: a canonically renamed variable, an
/// anonymous constant, or the `rdf:type` property. `rdf:type` gets its own
/// slot kind because translation branches on it: a type pattern's object
/// narrows the scan to a class-split file, while any other constant object
/// becomes a residual filter condition — rebinding across that divide would
/// silently drop the restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TemplateSlot {
    /// A variable, named by first-occurrence index over the whole query.
    Variable(u32),
    /// A constant whose value is erased by the template.
    Constant,
    /// The `rdf:type` property constant.
    TypeProperty,
}

/// The structural identity of a query: constants stripped, variables
/// canonically renamed. Two queries with equal keys translate to physical
/// plans that differ only in constant values, so one cached plan serves
/// both via constant rebinding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    /// `[subject, property, object]` slots per pattern, in pattern order.
    patterns: Vec<[TemplateSlot; 3]>,
    /// Projection as canonical variable ids, in projection order.
    distinguished: Vec<u32>,
}

impl TemplateKey {
    /// Computes the template of `query`, or `None` for queries the cache
    /// should pass through (a projected variable that occurs in no
    /// pattern never reaches a plan's schema, so such queries are not
    /// cacheable by structure alone).
    pub fn of(query: &BgpQuery) -> Option<Self> {
        let rdf_type = Term::iri(cliquesquare_rdf::term::vocab::RDF_TYPE);
        let mut canonical: HashMap<&str, u32> = HashMap::new();
        let mut patterns = Vec::with_capacity(query.patterns().len());
        for pattern in query.patterns() {
            let mut slots = [TemplateSlot::Constant; 3];
            for (slot, (term, is_property)) in slots.iter_mut().zip([
                (&pattern.subject, false),
                (&pattern.property, true),
                (&pattern.object, false),
            ]) {
                *slot = match term {
                    PatternTerm::Variable(v) => {
                        let next = canonical.len() as u32;
                        TemplateSlot::Variable(*canonical.entry(v.name()).or_insert(next))
                    }
                    PatternTerm::Constant(t) if is_property && *t == rdf_type => {
                        TemplateSlot::TypeProperty
                    }
                    PatternTerm::Constant(_) => TemplateSlot::Constant,
                };
            }
            patterns.push(slots);
        }
        let distinguished = query
            .distinguished()
            .iter()
            .map(|v| canonical.get(v.name()).copied())
            .collect::<Option<Vec<u32>>>()?;
        Some(Self {
            patterns,
            distinguished,
        })
    }
}

/// A cache hit: the template's finished physical plan plus the template
/// query's variables in first-occurrence order. The plan's operators still
/// carry the template's variable *names*; zipping `variables` against the
/// incoming query's first-occurrence variables gives the rename map for
/// presenting answer schemas under the incoming query's names.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The physical plan built for the template query.
    pub plan: Arc<PhysicalPlan>,
    /// The template query's variables, in first-occurrence order.
    pub variables: Vec<Variable>,
}

#[derive(Debug)]
struct Entry {
    cached: CachedPlan,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<TemplateKey, Entry>,
    tick: u64,
}

/// One event counted twice: for this cache alone (what
/// [`PlanCache::counters`] reports) and in the process-wide `csq_plancache_*`
/// series that every cache in the process shares.
#[derive(Debug)]
struct Tally {
    own: Counter,
    series: Arc<Counter>,
}

impl Tally {
    fn new(series: Arc<Counter>) -> Self {
        Self {
            own: Counter::default(),
            series,
        }
    }

    fn inc(&self) {
        self.own.inc();
        self.series.inc();
    }
}

/// A bounded, thread-safe template → plan cache with LRU eviction.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: Tally,
    misses: Tally,
    evictions: Tally,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (at least one).
    pub fn new(capacity: usize) -> Self {
        let registry = cliquesquare_obs::global();
        Self {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: Tally::new(registry.counter(
                "csq_plancache_hits_total",
                "Plan cache lookups answered from a cached template plan",
                &[],
            )),
            misses: Tally::new(registry.counter(
                "csq_plancache_misses_total",
                "Plan cache lookups that fell through to full planning",
                &[],
            )),
            evictions: Tally::new(registry.counter(
                "csq_plancache_evictions_total",
                "Plan cache entries dropped (LRU pressure or a failed rebind)",
                &[],
            )),
        }
    }

    /// Looks up `key`, counting a hit or a miss.
    pub fn lookup(&self, key: &TemplateKey) -> Option<CachedPlan> {
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.inc();
                Some(entry.cached.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Counts a miss for a query the cache cannot key (see
    /// [`TemplateKey::of`]), so the miss counter reflects every query that
    /// paid for full planning.
    pub fn note_uncacheable(&self) {
        self.misses.inc();
    }

    /// Inserts a freshly planned template, evicting the least recently used
    /// entry if the cache is full.
    pub fn insert(&self, key: TemplateKey, cached: CachedPlan) {
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                self.evictions.inc();
            }
        }
        inner.entries.insert(
            key,
            Entry {
                cached,
                last_used: tick,
            },
        );
    }

    /// Drops `key` outright. Used when a cached plan fails to rebind — a
    /// template collision that full planning then papers over.
    pub fn remove(&self, key: &TemplateKey) {
        let mut inner = self.inner.lock().expect("plan cache lock");
        if inner.entries.remove(key).is_some() {
            self.evictions.inc();
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache lock").entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime `(hits, misses, evictions)` of this cache alone — other
    /// caches in the process move only the shared `csq_plancache_*` series.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.own.get(),
            self.misses.own.get(),
            self.evictions.own.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_sparql::parser::parse_query;

    fn key(text: &str) -> TemplateKey {
        TemplateKey::of(&parse_query(text).unwrap()).expect("cacheable")
    }

    fn dummy_plan(text: &str) -> CachedPlan {
        use cliquesquare_engine::translate;
        use cliquesquare_rdf::{LubmGenerator, LubmScale};
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let query = parse_query(text).unwrap();
        let logical = cliquesquare_core::Optimizer::default()
            .optimize(&query)
            .flattest_plans()
            .first()
            .map(|p| (*p).clone())
            .expect("plan");
        CachedPlan {
            plan: Arc::new(translate(&logical, &graph)),
            variables: query.variables(),
        }
    }

    #[test]
    fn templates_erase_constants_and_variable_names() {
        // Same shape, different constants and different variable names:
        // one template.
        assert_eq!(
            key("SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }"),
            key("SELECT ?s WHERE { ?s rdf:type ub:FullProfessor . ?s ub:memberOf ?w }"),
        );
        // rdf:type in property position is structurally different from any
        // other property constant.
        assert_ne!(
            key("SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }"),
            key("SELECT ?x WHERE { ?x ub:worksFor ub:GraduateStudent . ?x ub:memberOf ?d }"),
        );
        // Different variable wiring: different template.
        assert_ne!(
            key("SELECT ?x WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z }"),
            key("SELECT ?x WHERE { ?x ub:advisor ?y . ?x ub:worksFor ?z }"),
        );
        // Different projection: different template.
        assert_ne!(
            key("SELECT ?x WHERE { ?x ub:advisor ?y }"),
            key("SELECT ?y WHERE { ?x ub:advisor ?y }"),
        );
    }

    #[test]
    fn lru_eviction_drops_the_least_recently_used_template() {
        let cache = PlanCache::new(2);
        let (h0, m0, e0) = cache.counters();
        let a = key("SELECT ?x WHERE { ?x ub:advisor ?y }");
        let b = key("SELECT ?x WHERE { ?x ub:worksFor ?y . ?y ub:subOrganizationOf ?z }");
        let c = key("SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent }");
        let plan = dummy_plan("SELECT ?x WHERE { ?x ub:advisor ?y }");
        cache.insert(a.clone(), plan.clone());
        cache.insert(b.clone(), plan.clone());
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.lookup(&a).is_some());
        cache.insert(c.clone(), plan.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&b).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&a).is_some());
        assert!(cache.lookup(&c).is_some());
        let (h1, m1, e1) = cache.counters();
        assert_eq!(h1 - h0, 3);
        assert_eq!(m1 - m0, 1);
        assert_eq!(e1 - e0, 1);
    }
}
