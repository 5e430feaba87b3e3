//! The parallel bulk-load pipeline: raw triples in, ready-to-query
//! [`Graph`] + [`PartitionedStore`] out.
//!
//! Sequential ingest funnels every triple through one dictionary, then one
//! partitioner — so load time, not query time, bounds the dataset scales
//! the benchmarks can reach. [`BulkLoader`] runs the same pipeline as waves
//! of per-chunk tasks on the existing [`Runtime`]:
//!
//! 1. **fused input + encode wave** — each N-Triples chunk is parsed (or
//!    each LUBM university batch / SP²Bench unit generated) and immediately
//!    dictionary-encoded against its own shard dictionary, **in the same
//!    task**: the decoded `(Term, Term, Term)` buffer of a chunk lives only
//!    between its parse and its encode, so at most one buffer per worker is
//!    in flight at a time instead of one per chunk — peak term-buffer bytes
//!    are bounded by the worker count, not the input size. The buffers
//!    themselves come from a recycled scratch pool that persists across
//!    waves *and* across loads ([`LoadReport::scratch_allocations`] counts
//!    the cold allocations; a warm reload makes zero);
//! 2. **merge + remap** — shard dictionaries merge into the global
//!    dictionary by one sequential walk over the shards in chunk order,
//!    which assigns final ids in global first-occurrence order — the ids a
//!    sequential load assigns (see `cliquesquare_rdf::load`). Then every
//!    shard rewrites its triples to final ids, one task per shard;
//! 3. **graph assembly** — the remapped chunks are concatenated in chunk
//!    order into the [`Graph`]. The graph's positional indexes are not
//!    built here: the graph builds each on its first read, and neither the
//!    store nor the catalog reads them;
//! 4. **partition wave** — the Section 5.1 replicated store is built as a
//!    map wave (route chunks) plus a reduce wave (merge per node), see
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
use cliquesquare_rdf::ntriples::ParseError;
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale, Term};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// Seconds spent parsing N-Triples text / generating synthetic data
    /// (the parse/generate share of the fused input+encode wave, attributed
    /// pro-rata by measured per-task time).
    pub input_seconds: f64,
    /// Seconds spent dictionary-encoding chunks against shard dictionaries
    /// (the encode share of the fused wave).
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
    /// High-water mark of decoded term-buffer bytes held concurrently by
    /// the fused input+encode wave. Bounded by the worker count × chunk
    /// size — *not* by the input size — which is what keeps a 10M-triple
    /// load from materializing every parsed chunk at once.
    pub peak_inflight_bytes: u64,
    /// Total decoded term-buffer bytes produced across all chunks: the
    /// bytes the historical all-chunks-in-memory pipeline would have held
    /// simultaneously. `peak_inflight_bytes / parsed_bytes` is the
    /// streaming win.
    pub parsed_bytes: u64,
    /// Scratch term buffers allocated because the recycle pool was empty.
    /// At most one per concurrent worker on a cold loader; zero on a warm
    /// reload.
    pub scratch_allocations: u64,
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

/// Live counters of the fused input+encode wave, shared across its tasks.
#[derive(Debug, Default)]
struct StreamGauges {
    /// Nanoseconds spent parsing / generating, summed over tasks.
    input_nanos: AtomicU64,
    /// Nanoseconds spent dictionary-encoding, summed over tasks.
    encode_nanos: AtomicU64,
    /// Decoded term-buffer bytes currently in flight (parsed, not yet
    /// encoded).
    inflight_bytes: AtomicU64,
    /// High-water mark of `inflight_bytes`.
    peak_inflight_bytes: AtomicU64,
    /// Total decoded bytes across all chunks.
    parsed_bytes: AtomicU64,
    /// Scratch buffers allocated because the pool was empty.
    scratch_allocations: AtomicU64,
}

impl StreamGauges {
    /// Marks `bytes` of decoded terms as in flight and bumps the peak.
    fn note_parsed(&self, bytes: u64) {
        let held = self.inflight_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_inflight_bytes.fetch_max(held, Ordering::Relaxed);
        self.parsed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Marks `bytes` of decoded terms as consumed by the encode step.
    fn note_encoded(&self, bytes: u64) {
        self.inflight_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Splits the fused wave's wall-clock seconds into (input, encode)
    /// pro-rata by the measured per-task time of each half.
    fn split_wall(&self, wall: f64) -> (f64, f64) {
        let input = self.input_nanos.load(Ordering::Relaxed) as f64;
        let encode = self.encode_nanos.load(Ordering::Relaxed) as f64;
        if input + encode <= 0.0 {
            return (wall, 0.0);
        }
        let input_share = wall * input / (input + encode);
        (input_share, wall - input_share)
    }
}

/// A decoded-triple scratch buffer of the fused input+encode wave.
type TripleBuffer = Vec<(Term, Term, Term)>;

/// Estimated heap bytes of a decoded term buffer: the tuple slots plus the
/// term text (the dominant cost at RDF's IRI lengths).
fn buffer_bytes(terms: &[(Term, Term, Term)]) -> u64 {
    let slots = std::mem::size_of_val(terms);
    let text: usize = terms
        .iter()
        .map(|(s, p, o)| s.value().len() + p.value().len() + o.value().len())
        .sum();
    (slots + text) as u64
}

/// The parallel bulk loader (see the module docs for the pipeline).
#[derive(Debug, Clone, Default)]
pub struct BulkLoader {
    runtime: Runtime,
    /// Recycled decoded-term buffers for the fused input+encode wave. The
    /// pool is shared by clones and survives across loads, so a warm loader
    /// parses arbitrarily many chunks without a single fresh triple-buffer
    /// allocation (`tests/load_allocations.rs` pins this down).
    scratch: Arc<Mutex<Vec<TripleBuffer>>>,
}

impl BulkLoader {
    /// A loader running its waves on `runtime`.
    pub fn new(runtime: Runtime) -> Self {
        Self {
            runtime,
            scratch: Arc::default(),
        }
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

    /// The number of recycled scratch buffers currently pooled.
    pub fn pooled_scratch_buffers(&self) -> usize {
        self.scratch.lock().expect("scratch pool poisoned").len()
    }

    /// Pops a pooled scratch buffer, allocating (and counting) a fresh one
    /// only when every pooled buffer is already in flight.
    fn take_scratch(&self, gauges: &StreamGauges) -> TripleBuffer {
        let pooled = self.scratch.lock().expect("scratch pool poisoned").pop();
        pooled.unwrap_or_else(|| {
            gauges.scratch_allocations.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        })
    }

    /// Returns a drained scratch buffer to the pool, keeping its capacity.
    fn recycle_scratch(&self, mut buffer: TripleBuffer) {
        buffer.clear();
        self.scratch
            .lock()
            .expect("scratch pool poisoned")
            .push(buffer);
    }

    /// One task of the fused input+encode wave: `fill` parses or generates
    /// a chunk into a recycled scratch buffer (timed as input), which is
    /// then encoded against the chunk's own shard dictionary (timed as
    /// encode); its decoded bytes count as in flight in between. The
    /// buffer goes back to the pool whether `fill` fails or not.
    fn fused_chunk<E>(
        &self,
        gauges: &StreamGauges,
        fill: impl FnOnce(&mut TripleBuffer) -> Result<(), E>,
    ) -> Result<shard::EncodedShard, E> {
        let mut buffer = self.take_scratch(gauges);
        let input_started = Instant::now();
        let filled = fill(&mut buffer);
        let input_nanos = input_started.elapsed().as_nanos() as u64;
        gauges.input_nanos.fetch_add(input_nanos, Ordering::Relaxed);
        if let Err(error) = filled {
            self.recycle_scratch(buffer);
            return Err(error);
        }
        let bytes = buffer_bytes(&buffer);
        gauges.note_parsed(bytes);
        let encode_started = Instant::now();
        let encoded = shard::encode_shard_from(&mut buffer);
        let encode_nanos = encode_started.elapsed().as_nanos() as u64;
        gauges
            .encode_nanos
            .fetch_add(encode_nanos, Ordering::Relaxed);
        gauges.note_encoded(bytes);
        self.recycle_scratch(buffer);
        Ok(encoded)
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
        let gauges = StreamGauges::default();
        let gauges = &gauges;
        // Fused parse+encode: a chunk's decoded terms live only inside its
        // own task, so in-flight bytes stay bounded by the worker count.
        let encoded = self.runtime.run_wave(
            chunks
                .into_iter()
                .map(|chunk| {
                    move || {
                        self.fused_chunk(gauges, |buffer| shard::parse_chunk_into(chunk, buffer))
                    }
                })
                .collect(),
        );
        // Chunks are in document order, so the first error is the earliest.
        let shards = encoded.into_iter().collect::<Result<Vec<_>, _>>()?;
        let (input_seconds, encode_seconds) = gauges.split_wall(started.elapsed().as_secs_f64());
        Ok(self.assemble(shards, options, input_seconds, encode_seconds, gauges))
    }

    /// Generates and loads the LUBM-like dataset at `scale`. The unit of
    /// generation is the university (universities draw from independent RNG
    /// streams, see [`LubmGenerator::university_triples`]); universities are
    /// grouped into [`LoadOptions::chunks`] contiguous batches — capped at
    /// one university per batch — each generated and encoded as one shard.
    pub fn load_lubm(&self, scale: LubmScale, options: &LoadOptions) -> LoadOutput {
        let generator = LubmGenerator::new(scale);
        let generator = &generator;
        let batches = self.chunk_count(options).min(scale.universities.max(1));
        let per_batch = scale.universities.div_ceil(batches.max(1)).max(1);
        self.load_generated(scale.universities, per_batch, options, &|u, buffer| {
            generator.university_triples_into(u, buffer)
        })
    }

    /// Generates and loads the SP²Bench/DBLP-like dataset at `scale`. The
    /// unit of generation is the [`Sp2bGenerator`] unit (author or article
    /// batch); units are grouped into [`LoadOptions::chunks`] contiguous
    /// batches, each generated and encoded as one shard.
    pub fn load_sp2b(&self, scale: Sp2bScale, options: &LoadOptions) -> LoadOutput {
        let generator = Sp2bGenerator::new(scale);
        let units = generator.units();
        let generator = &generator;
        let batches = self.chunk_count(options).min(units.max(1));
        let per_batch = units.div_ceil(batches.max(1)).max(1);
        self.load_generated(units, per_batch, options, &|unit, buffer| {
            generator.unit_triples_into(unit, buffer)
        })
    }

    /// The fused generate+encode wave shared by the synthetic loaders:
    /// `units` generation units grouped `per_batch` to a shard, each batch
    /// generated into a recycled scratch buffer and encoded in the same
    /// task.
    fn load_generated(
        &self,
        units: usize,
        per_batch: usize,
        options: &LoadOptions,
        generate: &(dyn Fn(usize, &mut TripleBuffer) + Sync),
    ) -> LoadOutput {
        let started = Instant::now();
        let gauges = StreamGauges::default();
        let gauges = &gauges;
        let shards = self.runtime.run_wave(
            (0..units)
                .step_by(per_batch.max(1))
                .map(|first| {
                    let last = (first + per_batch).min(units);
                    move || {
                        let Ok(encoded) = self.fused_chunk::<Infallible>(gauges, |buffer| {
                            (first..last).for_each(|unit| generate(unit, buffer));
                            Ok(())
                        });
                        encoded
                    }
                })
                .collect(),
        );
        let (input_seconds, encode_seconds) = gauges.split_wall(started.elapsed().as_secs_f64());
        self.assemble(shards, options, input_seconds, encode_seconds, gauges)
    }

    /// Stages 2–4: merge + remap, graph assembly, partition.
    fn assemble(
        &self,
        shards: Vec<shard::EncodedShard>,
        options: &LoadOptions,
        input_seconds: f64,
        encode_seconds: f64,
        gauges: &StreamGauges,
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

        // Partition wave(s): the Section 5.1 replicated store.
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
            encode_seconds,
            merge_seconds,
            index_seconds,
            partition_seconds,
            peak_inflight_bytes: gauges.peak_inflight_bytes.load(Ordering::Relaxed),
            parsed_bytes: gauges.parsed_bytes.load(Ordering::Relaxed),
            scratch_allocations: gauges.scratch_allocations.load(Ordering::Relaxed),
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
        assert!(r.parsed_bytes > 0);
        assert!(r.peak_inflight_bytes > 0);
        assert!(r.peak_inflight_bytes <= r.parsed_bytes);
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

    /// The fused parse+encode wave holds at most a worker's worth of
    /// decoded chunks at a time: with 16 chunks on 2 workers, peak in-flight
    /// bytes stay well under the all-chunks-at-once total.
    #[test]
    fn streaming_keeps_inflight_bytes_bounded() {
        let text = ntriples::serialize(&LubmGenerator::new(LubmScale::default()).generate());
        let loader = BulkLoader::new(Runtime::with_threads(2));
        let output = loader
            .load_ntriples(
                &text,
                &LoadOptions {
                    nodes: 4,
                    chunks: Some(16),
                },
            )
            .expect("load succeeds");
        let r = output.report;
        assert!(r.parsed_bytes > 0);
        assert!(r.peak_inflight_bytes > 0);
        assert!(
            r.peak_inflight_bytes * 4 <= r.parsed_bytes,
            "streaming window did not bound memory: peak {} of {} total bytes",
            r.peak_inflight_bytes,
            r.parsed_bytes
        );
    }

    /// Scratch buffers are pooled. What the pool guarantees on two workers
    /// is a bound, not a schedule: a buffer is allocated only when a chunk
    /// task finds the pool empty, so whichever load's threads first overlap
    /// inside a chunk task allocates the second buffer — but all loads
    /// together allocate at most one per worker, and every buffer returns
    /// to the pool. On one thread there is no overlap to wait for: the cold
    /// load allocates one buffer and the warm reload exactly none.
    #[test]
    fn scratch_pool_recycles_across_loads() {
        let text = ntriples::serialize(&LubmGenerator::new(LubmScale::tiny()).generate());
        let options = LoadOptions {
            nodes: 3,
            chunks: Some(8),
        };
        let workers = 2;
        let loader = BulkLoader::new(Runtime::with_threads(workers));
        let cold = loader.load_ntriples(&text, &options).expect("cold load");
        let mut allocated = cold.report.scratch_allocations;
        assert!(allocated >= 1);
        for _ in 0..2 {
            let warm = loader.load_ntriples(&text, &options).expect("warm load");
            allocated += warm.report.scratch_allocations;
            assert_eq!(warm.graph, cold.graph);
        }
        assert!(
            allocated <= workers as u64,
            "more scratch buffers than workers: {allocated}"
        );
        assert_eq!(
            loader.pooled_scratch_buffers() as u64,
            allocated,
            "every buffer returns to the pool"
        );

        let loader = BulkLoader::new(Runtime::sequential());
        let cold = loader.load_ntriples(&text, &options).expect("cold load");
        assert_eq!(cold.report.scratch_allocations, 1);
        let warm = loader.load_ntriples(&text, &options).expect("warm load");
        assert_eq!(warm.report.scratch_allocations, 0);
        assert_eq!(loader.pooled_scratch_buffers(), 1);
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
