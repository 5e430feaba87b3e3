//! The parallel bulk-load pipeline: raw triples in, ready-to-query
//! [`Graph`] + [`PartitionedStore`] out.
//!
//! Sequential ingest funnels every triple through one dictionary, then one
//! partitioner — so load time, not query time, bounds the dataset scales
//! the benchmarks can reach. [`BulkLoader`] runs the same pipeline as waves
//! of per-chunk tasks on the existing [`Runtime`]:
//!
//! 1. **input + encode wave** — one task per N-Triples chunk (or LUBM
//!    university batch / SP²Bench unit batch) starts from an empty
//!    [`shard::EncodedShard`] and parses (or generates) the chunk straight
//!    into it: the shard is the producer's sink and encodes each term
//!    against its own shard dictionary as it arrives, so no decoded triple
//!    list exists at any point of the load;
//! 2. **merge + remap** — shard dictionaries merge into the global
//!    dictionary by one sequential walk over the shards in chunk order,
//!    which assigns final ids in global first-occurrence order — the ids a
//!    sequential load assigns (see `cliquesquare_rdf::load`). Then every
//!    shard rewrites its triples to final ids, one task per shard;
//! 3. **graph assembly** — the remapped chunks are concatenated in chunk
//!    order into the [`Graph`]. The graph's positional indexes are not
//!    built here: the graph builds each on its first read, and neither the
//!    store nor the catalog reads them;
//! 4. **partition wave** — the Section 5.1 replicated store is built by
//!    one wave of one task per placement, each scattering the triples into
//!    files allocated at their exact size and sorting them in place, see
//!    [`PartitionedStore::build_with`].
//!
//! **Determinism contract** (mirroring the execution runtime's): the loaded
//! graph and store are **bit-identical** to the sequential path —
//! [`cliquesquare_rdf::ntriples::parse_into_graph`] /
//! [`cliquesquare_rdf::LubmGenerator::generate`] followed by
//! [`PartitionedStore::build`] — at any thread count and any chunking.
//! Same [`cliquesquare_rdf::TermId`] assignment, same triple order, same
//! file placement; `tests/bulk_load.rs` enforces it at threads 1, 2 and 8.

use crate::partition::PartitionedStore;
use crate::runtime::{partitions_for, Runtime};
use cliquesquare_rdf::load as shard;
use cliquesquare_rdf::ntriples::{self, ParseError};
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale};
use std::time::Instant;

/// How many chunks each worker thread gets by default: a few per thread so
/// the wave's dynamic pickup can balance uneven chunks.
const CHUNKS_PER_THREAD: usize = 4;

/// Configuration of a bulk load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOptions {
    /// Partitions of the store: files per replica (what
    /// [`crate::ClusterConfig::nodes`] is to a cluster).
    pub nodes: usize,
    /// Number of input chunks (shards). `None` sizes the chunking from the
    /// runtime: one chunk on the sequential runtime (the loader then *is*
    /// the sequential path), a few per thread otherwise. LUBM loads cap the
    /// count at one university per chunk. The loaded result is bit-identical
    /// either way; chunking only affects balance.
    pub chunks: Option<usize>,
}

impl Default for LoadOptions {
    /// Partitions sized for this machine's threads, the count
    /// [`crate::ClusterConfig::default`] expects, and default chunking.
    fn default() -> Self {
        Self {
            nodes: partitions_for(Runtime::available().threads()),
            chunks: None,
        }
    }
}

impl LoadOptions {
    /// Options with the given partition count and default chunking.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            nodes,
            ..Self::default()
        }
    }
}

/// Wall-clock and size accounting of one bulk load, per pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Worker threads of the loading runtime.
    pub threads: usize,
    /// Input chunks (= dictionary shards) the load used.
    pub chunks: usize,
    /// Partitions of the store.
    pub nodes: usize,
    /// Triples loaded.
    pub triples: usize,
    /// Distinct terms in the merged dictionary.
    pub distinct_terms: usize,
    /// Seconds of the input + encode wave: parsing N-Triples text or
    /// generating synthetic data, each triple dictionary-encoded against
    /// its chunk's shard dictionary as it is produced.
    pub input_seconds: f64,
    /// Always 0: encoding happens inside the input wave, term by term as
    /// each triple is produced, so it has no stage of its own and its time
    /// is part of [`input_seconds`](Self::input_seconds). The field keeps
    /// its name for the readers that sum the stages.
    pub encode_seconds: f64,
    /// Seconds spent merging shard dictionaries and remapping shard triples
    /// to final ids (the sequential merge walk + the parallel remap wave).
    pub merge_seconds: f64,
    /// Seconds spent assembling the graph: concatenating the remapped
    /// chunks and checking their ids against the dictionary. No index is
    /// built here: the graph builds each on its first read.
    pub index_seconds: f64,
    /// Seconds spent building the replicated partitioned store.
    pub partition_seconds: f64,
    /// Always 0: no decoded term buffer is held by a load, because every
    /// producer encodes into its shard as it emits. The field keeps its
    /// name for the readers that report it.
    pub peak_inflight_bytes: u64,
}

impl LoadReport {
    /// End-to-end load seconds (sum of all stages).
    pub fn total_seconds(&self) -> f64 {
        self.input_seconds
            + self.encode_seconds
            + self.merge_seconds
            + self.index_seconds
            + self.partition_seconds
    }

    /// End-to-end load throughput in triples per second.
    pub fn triples_per_second(&self) -> f64 {
        let total = self.total_seconds();
        if total > 0.0 {
            self.triples as f64 / total
        } else {
            0.0
        }
    }
}

/// The result of a bulk load: the graph, the partitioned store, and the
/// per-stage timing report.
#[derive(Debug, Clone)]
pub struct LoadOutput {
    /// The dictionary-encoded graph.
    pub graph: Graph,
    /// The Section 5.1 replicated, property-grouped store.
    pub store: PartitionedStore,
    /// Per-stage wall-clock and size accounting.
    pub report: LoadReport,
}

/// The parallel bulk loader (see the module docs for the pipeline).
#[derive(Debug, Clone, Default)]
pub struct BulkLoader {
    runtime: Runtime,
}

impl BulkLoader {
    /// A loader running its waves on `runtime`.
    pub fn new(runtime: Runtime) -> Self {
        Self { runtime }
    }

    /// A loader on the sequential runtime: every stage runs inline, which
    /// is exactly the historical single-threaded ingest path.
    pub fn sequential() -> Self {
        Self::new(Runtime::sequential())
    }

    /// The loader's runtime.
    pub fn runtime(&self) -> Runtime {
        self.runtime.clone()
    }

    /// The number of input chunks a load will use.
    fn chunk_count(&self, options: &LoadOptions) -> usize {
        options
            .chunks
            .unwrap_or_else(|| {
                if self.runtime.is_parallel() {
                    self.runtime.threads() * CHUNKS_PER_THREAD
                } else {
                    1
                }
            })
            .max(1)
    }

    /// Parses and loads an N-Triples document.
    ///
    /// The text is split at line boundaries into chunks parsed on separate
    /// workers; parse errors report the document-global line number of the
    /// offending line, and the *earliest* failing line wins — exactly the
    /// error a sequential parse would have reported.
    pub fn load_ntriples(
        &self,
        text: &str,
        options: &LoadOptions,
    ) -> Result<LoadOutput, ParseError> {
        let started = Instant::now();
        let chunks = shard::split_ntriples(text, self.chunk_count(options));
        let encoded = self.runtime.run_wave(
            chunks
                .into_iter()
                .map(|chunk| {
                    move || {
                        let mut shard = shard::EncodedShard::default();
                        ntriples::parse_from_into(chunk.text, chunk.first_line, &mut shard)
                            .map(|()| shard)
                    }
                })
                .collect(),
        );
        // Chunks are in document order, so the first error is the earliest.
        let shards = encoded.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(self.assemble(shards, options, started.elapsed().as_secs_f64()))
    }

    /// Generates and loads the LUBM-like dataset at `scale`. The unit of
    /// generation is the university (universities draw from independent RNG
    /// streams, see [`LubmGenerator::university_triples_into`]);
    /// universities are grouped into [`LoadOptions::chunks`] contiguous
    /// batches — capped at one university per batch — each generated into
    /// one shard.
    pub fn load_lubm(&self, scale: LubmScale, options: &LoadOptions) -> LoadOutput {
        let generator = LubmGenerator::new(scale);
        let generator = &generator;
        let batches = self.chunk_count(options).min(scale.universities.max(1));
        let per_batch = scale.universities.div_ceil(batches.max(1)).max(1);
        self.load_generated(scale.universities, per_batch, options, &|u, shard| {
            generator.university_triples_into(u, shard)
        })
    }

    /// Generates and loads the SP²Bench/DBLP-like dataset at `scale`. The
    /// unit of generation is the [`Sp2bGenerator`] unit (author or article
    /// batch); units are grouped into [`LoadOptions::chunks`] contiguous
    /// batches, each generated into one shard.
    pub fn load_sp2b(&self, scale: Sp2bScale, options: &LoadOptions) -> LoadOutput {
        let generator = Sp2bGenerator::new(scale);
        let units = generator.units();
        let generator = &generator;
        let batches = self.chunk_count(options).min(units.max(1));
        let per_batch = units.div_ceil(batches.max(1)).max(1);
        self.load_generated(units, per_batch, options, &|unit, shard| {
            generator.unit_triples_into(unit, shard)
        })
    }

    /// The generate + encode wave shared by the synthetic loaders: `units`
    /// generation units grouped `per_batch` to a shard, each batch
    /// generated straight into its shard.
    fn load_generated(
        &self,
        units: usize,
        per_batch: usize,
        options: &LoadOptions,
        generate: &(dyn Fn(usize, &mut shard::EncodedShard) + Sync),
    ) -> LoadOutput {
        let started = Instant::now();
        let shards = self.runtime.run_wave(
            (0..units)
                .step_by(per_batch.max(1))
                .map(|first| {
                    let last = (first + per_batch).min(units);
                    move || {
                        let mut shard = shard::EncodedShard::default();
                        (first..last).for_each(|unit| generate(unit, &mut shard));
                        shard
                    }
                })
                .collect(),
        );
        self.assemble(shards, options, started.elapsed().as_secs_f64())
    }

    /// Stages 2–4: merge + remap, graph assembly, partition.
    fn assemble(
        &self,
        shards: Vec<shard::EncodedShard>,
        options: &LoadOptions,
        input_seconds: f64,
    ) -> LoadOutput {
        let chunks = shards.len().max(1);

        // Sequential merge + parallel remap.
        let started = Instant::now();
        let (dictionaries, local_triples): (Vec<_>, Vec<_>) = shards
            .into_iter()
            .map(|s| (s.dictionary, s.triples))
            .unzip();
        let (dictionary, remaps) = shard::merge_dictionaries(dictionaries);
        let remapped = self.runtime.run_wave(
            local_triples
                .into_iter()
                .zip(remaps)
                .map(|(triples, remap)| move || shard::remap_triples(&triples, &remap))
                .collect(),
        );
        let merge_seconds = started.elapsed().as_secs_f64();

        // Graph assembly: concatenate in chunk order.
        let started = Instant::now();
        let graph = Graph::from_parts(dictionary, remapped.concat());
        let index_seconds = started.elapsed().as_secs_f64();

        // Partition wave: the Section 5.1 replicated store.
        let started = Instant::now();
        let store = PartitionedStore::build_with(&graph, options.nodes, &self.runtime);
        let partition_seconds = started.elapsed().as_secs_f64();

        let report = LoadReport {
            threads: self.runtime.threads(),
            chunks,
            nodes: store.nodes(),
            triples: graph.len(),
            distinct_terms: graph.dictionary().len(),
            input_seconds,
            encode_seconds: 0.0,
            merge_seconds,
            index_seconds,
            partition_seconds,
            peak_inflight_bytes: 0,
        };
        LoadOutput {
            graph,
            store,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_rdf::ntriples;

    fn sequential_baseline(text: &str, nodes: usize) -> (Graph, PartitionedStore) {
        let graph = ntriples::parse_into_graph(text).expect("baseline parses");
        let store = PartitionedStore::build(&graph, nodes);
        (graph, store)
    }

    #[test]
    fn ntriples_load_matches_sequential_path() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let text = ntriples::serialize(&graph);
        let (expected_graph, expected_store) = sequential_baseline(&text, 4);
        for threads in [1, 2, 8] {
            let loader = BulkLoader::new(Runtime::with_threads(threads));
            let output = loader
                .load_ntriples(&text, &LoadOptions::with_nodes(4))
                .expect("load succeeds");
            assert_eq!(output.graph, expected_graph, "threads={threads}");
            assert_eq!(output.store, expected_store, "threads={threads}");
            assert_eq!(output.report.triples, expected_graph.len());
        }
    }

    #[test]
    fn lubm_load_matches_sequential_generate() {
        let scale = LubmScale::tiny();
        let expected = LubmGenerator::new(scale).generate();
        let loader = BulkLoader::new(Runtime::with_threads(4));
        let output = loader.load_lubm(scale, &LoadOptions::with_nodes(3));
        assert_eq!(output.graph, expected);
        assert_eq!(output.store, PartitionedStore::build(&expected, 3));
        assert_eq!(output.report.chunks, scale.universities);
    }

    #[test]
    fn lubm_load_honors_the_chunk_option() {
        let scale = LubmScale::default(); // 3 universities
        let expected = LubmGenerator::new(scale).generate();
        for (chunks, expected_batches) in [(1, 1), (2, 2), (100, scale.universities)] {
            let loader = BulkLoader::new(Runtime::with_threads(2));
            let output = loader.load_lubm(
                scale,
                &LoadOptions {
                    nodes: 3,
                    chunks: Some(chunks),
                },
            );
            assert_eq!(output.graph, expected, "chunks={chunks}");
            assert_eq!(output.report.chunks, expected_batches, "chunks={chunks}");
        }
    }

    #[test]
    fn parse_errors_keep_global_line_numbers() {
        let good = "<a> <p> <b> .\n";
        let mut text = good.repeat(10);
        text.push_str("broken line\n");
        text.push_str(&good.repeat(5));
        text.push_str("also broken\n");
        let loader = BulkLoader::new(Runtime::with_threads(2));
        let err = loader
            .load_ntriples(
                &text,
                &LoadOptions {
                    nodes: 2,
                    chunks: Some(4),
                },
            )
            .unwrap_err();
        // The earliest failing line wins, exactly like a sequential parse.
        assert_eq!(err.line, 11);
    }

    #[test]
    fn empty_input_loads_an_empty_graph() {
        let loader = BulkLoader::new(Runtime::with_threads(2));
        let output = loader
            .load_ntriples("", &LoadOptions::default())
            .expect("empty input is fine");
        assert!(output.graph.is_empty());
        assert_eq!(output.report.triples, 0);
        assert_eq!(output.report.triples_per_second(), 0.0);
    }

    #[test]
    fn report_accounts_every_stage() {
        let loader = BulkLoader::sequential();
        let output = loader.load_lubm(LubmScale::tiny(), &LoadOptions::default());
        let r = output.report;
        assert_eq!(r.threads, 1);
        assert_eq!(r.chunks, 1);
        assert_eq!(r.nodes, LoadOptions::default().nodes);
        assert!(r.triples > 100);
        assert!(r.distinct_terms > 50);
        for stage in [
            r.input_seconds,
            r.encode_seconds,
            r.merge_seconds,
            r.index_seconds,
            r.partition_seconds,
        ] {
            assert!(stage >= 0.0 && stage.is_finite());
        }
        assert!(r.total_seconds() > 0.0);
        assert!(r.triples_per_second() > 0.0);
        // Encoding runs inside the input wave and holds no decoded buffer.
        assert_eq!(r.encode_seconds, 0.0);
        assert_eq!(r.peak_inflight_bytes, 0);
    }

    #[test]
    fn sp2b_load_matches_sequential_generate() {
        let scale = Sp2bScale::tiny();
        let expected = Sp2bGenerator::new(scale).generate();
        let expected_store = PartitionedStore::build(&expected, 3);
        for threads in [1, 2, 8] {
            let loader = BulkLoader::new(Runtime::with_threads(threads));
            let output = loader.load_sp2b(scale, &LoadOptions::with_nodes(3));
            assert_eq!(output.graph, expected, "threads={threads}");
            assert_eq!(output.store, expected_store, "threads={threads}");
        }
    }

    /// A parallel load merges three shard dictionaries into the graph and
    /// store the sequential loader builds from one.
    #[test]
    fn parallel_loads_use_the_partitioned_merge() {
        let scale = LubmScale::default(); // 3 universities → 3 shards
        let sequential = BulkLoader::sequential().load_lubm(scale, &LoadOptions::default());
        let loader = BulkLoader::new(Runtime::with_threads(2));
        let parallel = loader.load_lubm(
            scale,
            &LoadOptions {
                chunks: Some(3),
                ..LoadOptions::default()
            },
        );
        assert_eq!(parallel.report.chunks, 3);
        assert_eq!(parallel.graph, sequential.graph);
        assert_eq!(parallel.store, sequential.store);
    }

    #[test]
    fn chunk_count_is_configurable_and_harmless() {
        let scale = LubmScale::tiny();
        let text = ntriples::serialize(&LubmGenerator::new(scale).generate());
        let (expected_graph, expected_store) = sequential_baseline(&text, 5);
        for chunks in [1, 3, 17] {
            let loader = BulkLoader::new(Runtime::with_threads(2));
            let output = loader
                .load_ntriples(
                    &text,
                    &LoadOptions {
                        nodes: 5,
                        chunks: Some(chunks),
                    },
                )
                .expect("load succeeds");
            assert_eq!(output.graph, expected_graph, "chunks={chunks}");
            assert_eq!(output.store, expected_store, "chunks={chunks}");
            assert!(output.report.chunks <= chunks.max(1));
        }
    }
}
