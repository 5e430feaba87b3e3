//! In-memory relations (variable bindings) stored as flat columnar buffers,
//! plus the n-ary sort-merge join.
//!
//! A [`Relation`] keeps all of its rows in **one** row-major `Vec<TermId>`
//! buffer (`arity` consecutive ids per row) instead of a `Vec` per row. Rows
//! are handed out as borrowed `&[TermId]` slices, so scanning, shuffling and
//! joining perform no per-row heap allocation — the counting allocator of
//! `tests/join_allocations.rs` measures that.
//!
//! Relations track the ordering their rows are known to satisfy as an
//! explicit [`SortOrder`] descriptor: the column permutation the rows are
//! currently sorted by. *Canonical* order (sorted by all columns in schema
//! order) is the special case used to compare results and deduplicate; the
//! interesting-orders machinery in `translate`/`executor` mostly works with
//! **partial** orders — a join only needs its inputs sorted by the key
//! columns, and a shuffle bucket of a key-ordered input is still key-ordered.
//! Appending a row ([`Relation::push_row`]) claims no order; an order is
//! claimed by [`Relation::sort_by_columns`] (or [`Relation::canonicalize`]),
//! which elides the sort whenever the tracked order — or a linear
//! verification pass — proves the rows already ordered, or by a kernel that
//! knows the order it wrote. The `sorts_performed` / `sorts_elided` counters
//! in [`stats`] record which way each requirement went. The one n-ary
//! [`Relation::join`] cashes the same invariant in: inputs whose tracked
//! order has the join attributes as a prefix are merged in place, and every
//! other input pays one column-permuted index sort — never a hash table,
//! never a key `Vec` per row.

use cliquesquare_mapreduce::node_of_hash;
use cliquesquare_rdf::TermId;
use cliquesquare_sparql::Variable;
use std::cmp::Ordering;

/// Thread-local work counters for the relation layer.
///
/// The counters exist so the sort-elision and factorization claims are
/// *measured*, not asserted: the join counters record output volume and
/// which of the two sort-merge paths each input took, the `sorts_*`
/// counters record how every ordering requirement was met, the run counters
/// how much of a join stayed factorized, and the peaks the largest
/// intermediates. (Allocations are not counted here: the counting allocator
/// of `tests/join_allocations.rs` measures them.)
///
/// The thread-local cells are the counters' only home: a sequential
/// `reset` → execute → `snapshot` reads an execution's totals (the golden
/// `BENCH_execution.json`, `benchmark/` and the counter tests do), and a
/// profiled execution brackets every task with `snapshot` / `since` on the
/// thread that runs it and sums the deltas per operator.
pub mod stats {
    use std::cell::Cell;

    /// A snapshot of the thread-local relation counters.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct RelationStats {
        /// Rows produced by [`super::Relation::join`].
        pub join_rows_out: u64,
        /// Aligned key groups the joins found (distinct keys common to all
        /// inputs of a join, summed over the joins): `rows_in / key_groups`
        /// and `rows_out / key_groups` say whether a join spends its time
        /// aligning keys or emitting cross products.
        pub key_groups: u64,
        /// Join inputs consumed through the tracked-order fast path (the
        /// join attributes are a prefix of the input's [`super::SortOrder`];
        /// no re-sort needed).
        pub join_inputs_presorted: u64,
        /// Join inputs that paid the one-shot column-permuted index sort.
        pub join_inputs_resorted: u64,
        /// Index sorts actually performed (runs of the one sort kernel):
        /// [`super::Relation::sort_by_columns`] calls that had to permute
        /// rows, plus join-input re-sorts.
        pub sorts_performed: u64,
        /// Rows that went through the sort kernel, summed over
        /// `sorts_performed`.
        pub rows_sorted: u64,
        /// Ordering requirements satisfied *without* sorting: the tracked
        /// [`super::SortOrder`] (or a linear verification pass) proved the
        /// rows already ordered.
        pub sorts_elided: u64,
        /// Key groups emitted as factorized runs by
        /// [`crate::factorized::join_runs`] instead of materialized rows.
        /// On an output-sublinear star join this stays far below
        /// `rows_expanded`.
        pub runs_emitted: u64,
        /// Rows materialized when factorized runs were expanded at the
        /// projection boundary.
        pub rows_expanded: u64,
        /// Largest single intermediate relation produced so far, in rows.
        pub peak_rows: u64,
        /// Largest single intermediate buffer produced so far, in bytes.
        pub peak_bytes: u64,
        /// Largest shuffle of the execution: bytes of routed buckets alive
        /// between the route and reduce waves of one join.
        pub shuffle_peak_bytes: u64,
    }

    impl RelationStats {
        /// Counter increments between `earlier` and `self`, both snapshots
        /// of the *same* thread (the profiler brackets each task with
        /// this). The `peak_*` fields are high-water marks, not monotone
        /// counters, so the delta carries `self`'s value unchanged.
        pub fn since(&self, earlier: &RelationStats) -> RelationStats {
            self.zip(earlier, u64::saturating_sub, |now, _| now)
        }

        /// The counterpart of [`since`](Self::since): the field-wise sum of
        /// two deltas (peaks combine as maxima). A profiled operator's
        /// counters are the sum of its tasks' deltas.
        pub fn plus(&self, other: &RelationStats) -> RelationStats {
            self.zip(other, |a, b| a + b, u64::max)
        }

        /// The one field-by-field walk: counters combine through `count`,
        /// high-water marks through `peak`.
        fn zip(
            &self,
            other: &RelationStats,
            count: fn(u64, u64) -> u64,
            peak: fn(u64, u64) -> u64,
        ) -> RelationStats {
            RelationStats {
                join_rows_out: count(self.join_rows_out, other.join_rows_out),
                key_groups: count(self.key_groups, other.key_groups),
                join_inputs_presorted: count(
                    self.join_inputs_presorted,
                    other.join_inputs_presorted,
                ),
                join_inputs_resorted: count(self.join_inputs_resorted, other.join_inputs_resorted),
                sorts_performed: count(self.sorts_performed, other.sorts_performed),
                rows_sorted: count(self.rows_sorted, other.rows_sorted),
                sorts_elided: count(self.sorts_elided, other.sorts_elided),
                runs_emitted: count(self.runs_emitted, other.runs_emitted),
                rows_expanded: count(self.rows_expanded, other.rows_expanded),
                peak_rows: peak(self.peak_rows, other.peak_rows),
                peak_bytes: peak(self.peak_bytes, other.peak_bytes),
                shuffle_peak_bytes: peak(self.shuffle_peak_bytes, other.shuffle_peak_bytes),
            }
        }
    }

    thread_local! {
        static STATS: Cell<RelationStats> = const { Cell::new(RelationStats {
            join_rows_out: 0,
            key_groups: 0,
            join_inputs_presorted: 0,
            join_inputs_resorted: 0,
            sorts_performed: 0,
            rows_sorted: 0,
            sorts_elided: 0,
            runs_emitted: 0,
            rows_expanded: 0,
            peak_rows: 0,
            peak_bytes: 0,
            shuffle_peak_bytes: 0,
        }) };
    }

    /// Resets this thread's counters to zero.
    pub fn reset() {
        STATS.with(|s| s.set(RelationStats::default()));
    }

    /// Reads this thread's counters.
    pub fn snapshot() -> RelationStats {
        STATS.with(|s| s.get())
    }

    fn update(f: impl FnOnce(&mut RelationStats)) {
        STATS.with(|s| {
            let mut v = s.get();
            f(&mut v);
            s.set(v);
        });
    }

    /// One finished join: the rows it produced and the key groups its
    /// alignment found.
    pub(crate) fn count_join(rows: u64, key_groups: u64) {
        update(|s| {
            s.join_rows_out += rows;
            s.key_groups += key_groups;
        });
    }

    pub(crate) fn count_join_input(presorted: bool) {
        update(|s| {
            if presorted {
                s.join_inputs_presorted += 1;
            } else {
                s.join_inputs_resorted += 1;
            }
        });
    }

    /// One run of the sort kernel over `rows` rows.
    pub(crate) fn count_sort_performed(rows: u64) {
        update(|s| {
            s.sorts_performed += 1;
            s.rows_sorted += rows;
        });
    }

    pub(crate) fn count_sort_elided() {
        update(|s| s.sorts_elided += 1);
    }

    pub(crate) fn count_runs(n: u64) {
        update(|s| s.runs_emitted += n);
    }

    pub(crate) fn count_expanded(n: u64) {
        update(|s| s.rows_expanded += n);
    }

    /// Records one materialized intermediate; the peak counters keep the
    /// high-water mark over the execution.
    pub(crate) fn note_intermediate(rows: u64, bytes: u64) {
        update(|s| {
            s.peak_rows = s.peak_rows.max(rows);
            s.peak_bytes = s.peak_bytes.max(bytes);
        });
    }

    /// Records the bytes a shuffle holds at one instant; the peak counter
    /// keeps the high-water mark over the execution.
    pub(crate) fn note_shuffle(bytes: u64) {
        update(|s| s.shuffle_peak_bytes = s.shuffle_peak_bytes.max(bytes));
    }
}

/// The ordering a relation's rows are known to satisfy: rows are sorted
/// lexicographically by the listed columns, in sequence. Every sort and
/// merge of this module is stable: rows that tie on every listed column
/// keep the relative order they arrived in, so rows ordered by `[x]` and
/// then sorted by `[z]` satisfy `[z, x]`. A descriptor listing **all**
/// columns means equal rows are adjacent, and the identity permutation
/// means *canonical* order.
///
/// An empty descriptor claims nothing ([`SortOrder::none`]); it is always a
/// safe value — it only costs a re-sort later.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortOrder(Vec<usize>);

impl SortOrder {
    /// The empty descriptor: no ordering is claimed.
    pub fn none() -> Self {
        Self(Vec::new())
    }

    /// An ordering by the given column sequence. Repeated columns are
    /// dropped (ordering by an already-listed column adds nothing).
    pub fn by(columns: impl IntoIterator<Item = usize>) -> Self {
        let mut cols: Vec<usize> = Vec::new();
        for c in columns {
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        Self(cols)
    }

    /// Canonical order: every column in schema position order.
    pub fn canonical(arity: usize) -> Self {
        Self((0..arity).collect())
    }

    /// The column sequence of the descriptor.
    pub fn columns(&self) -> &[usize] {
        &self.0
    }

    /// Returns `true` when no ordering is claimed.
    pub fn is_none(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns `true` when this is the canonical order of an `arity`-column
    /// relation (the identity permutation over all columns).
    pub fn is_canonical(&self, arity: usize) -> bool {
        self.0.len() == arity && self.0.iter().enumerate().all(|(i, &c)| c == i)
    }

    /// Returns `true` when rows sorted by this descriptor are also sorted by
    /// `columns`: the requirement (ignoring columns this order has already
    /// pinned earlier) must be a prefix of the tracked sequence.
    pub fn satisfies(&self, columns: &[usize]) -> bool {
        let mut position = 0usize;
        for &c in columns {
            if self.0[..position].contains(&c) {
                // Already pinned by an earlier column of the requirement:
                // rows tying up to `position` are equal on `c` too.
                continue;
            }
            if position < self.0.len() && self.0[position] == c {
                position += 1;
            } else {
                return false;
            }
        }
        true
    }

    /// The longest common prefix of two descriptors (the order a merge of
    /// two relations can preserve).
    pub fn shared_prefix<'a>(&'a self, other: &SortOrder) -> &'a [usize] {
        let n = self
            .0
            .iter()
            .zip(&other.0)
            .take_while(|(a, b)| a == b)
            .count();
        &self.0[..n]
    }
}

/// A relation over query variables: a schema plus dictionary-encoded rows in
/// one flat row-major buffer.
///
/// This is the tuple format flowing between simulated physical operators.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Vec<Variable>,
    /// Row-major storage: row `i` occupies `data[i * arity .. (i + 1) * arity]`.
    data: Vec<TermId>,
    /// Number of rows, tracked explicitly because the arity can be zero
    /// (a relation over no variables still distinguishes 0 rows from 1).
    rows: usize,
    /// The ordering the rows are known to satisfy; [`SortOrder::none`] is
    /// always a safe value (it only costs a re-sort later).
    order: SortOrder,
}

/// Equality compares schema and rows; the `order` bookkeeping descriptor is
/// derived state and must not influence it.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows && self.data == other.data
    }
}

impl Eq for Relation {}

/// Compares two rows by the given column sequence.
fn cmp_by_columns(a: &[TermId], b: &[TermId], columns: &[usize]) -> Ordering {
    for &c in columns {
        match a[c].cmp(&b[c]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// One linear pass checking that a flat buffer's rows are sorted by the
/// given column sequence.
fn sorted_by(data: &[TermId], arity: usize, columns: &[usize]) -> bool {
    if arity == 0 || columns.is_empty() {
        return true;
    }
    let mut chunks = data.chunks_exact(arity);
    let Some(mut previous) = chunks.next() else {
        return true;
    };
    for row in chunks {
        if cmp_by_columns(previous, row, columns) == Ordering::Greater {
            return false;
        }
        previous = row;
    }
    true
}

/// Borrowed iterator over a relation's rows as `&[TermId]` slices.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    data: &'a [TermId],
    arity: usize,
    remaining: usize,
    offset: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [TermId];

    fn next(&mut self) -> Option<&'a [TermId]> {
        if self.remaining == 0 {
            return None;
        }
        let row = &self.data[self.offset..self.offset + self.arity];
        self.offset += self.arity;
        self.remaining -= 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Vec<Variable>) -> Self {
        let order = SortOrder::canonical(schema.len());
        Self {
            schema,
            data: Vec::new(),
            rows: 0,
            order,
        }
    }

    /// The relation with no variables and exactly one (empty) row — the
    /// identity for binding extension in the reference evaluator.
    pub fn unit() -> Self {
        Self {
            schema: Vec::new(),
            data: Vec::new(),
            rows: 1,
            order: SortOrder::canonical(0),
        }
    }

    /// Creates a relation from a schema and materialized rows — a
    /// convenience for tests and small fixtures; operators write their
    /// buffers directly. One linear check claims canonical order when the
    /// rows are in it, so consumers can still skip redundant sorts.
    ///
    /// # Panics
    ///
    /// Panics if any row's arity differs from the schema's.
    pub fn new(schema: Vec<Variable>, rows: Vec<Vec<TermId>>) -> Self {
        let mut relation = Self::empty(schema);
        let arity = relation.arity();
        relation.data.reserve(arity * rows.len());
        for row in &rows {
            relation.push_row(row);
        }
        let canonical = SortOrder::canonical(arity);
        if sorted_by(&relation.data, arity, canonical.columns()) {
            relation.order = canonical;
        }
        relation
    }

    /// The relation's schema (variable order of each row).
    pub fn schema(&self) -> &[Variable] {
        &self.schema
    }

    /// Number of columns per row.
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// The flat row-major buffer backing the relation.
    pub fn data(&self) -> &[TermId] {
        &self.data
    }

    /// Bytes currently reserved by the flat row buffer (capacity, not just
    /// the filled length) — lets tests regress the shuffle's reservation
    /// policy against real numbers.
    pub fn reserved_bytes(&self) -> usize {
        self.data.capacity() * TERM_BYTES
    }

    /// Builds a relation from pre-assembled raw parts, adopting `order` as
    /// the tracked claim (verified in debug builds). Used by the factorized
    /// expansion, which knows the order its emission loop produced.
    pub(crate) fn from_raw(
        schema: Vec<Variable>,
        data: Vec<TermId>,
        rows: usize,
        order: SortOrder,
    ) -> Self {
        let arity = schema.len();
        debug_assert_eq!(data.len(), rows * arity, "raw buffer length mismatch");
        debug_assert!(
            sorted_by(&data, arity, order.columns()),
            "raw relation does not satisfy the claimed order"
        );
        Self {
            schema,
            data,
            rows,
            order,
        }
    }

    /// Row `index` as a borrowed slice.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn row(&self, index: usize) -> &[TermId] {
        assert!(index < self.rows, "row index out of bounds");
        let arity = self.schema.len();
        &self.data[index * arity..(index + 1) * arity]
    }

    /// Iterates over the rows as borrowed `&[TermId]` slices (no per-row
    /// allocation).
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            data: &self.data,
            arity: self.schema.len(),
            remaining: self.rows,
            offset: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Heap bytes of the flat row buffer (the unit of the `peak_bytes` and
    /// `shuffle_peak_bytes` counters in [`stats`]).
    pub fn buffer_bytes(&self) -> u64 {
        (self.data.len() * TERM_BYTES) as u64
    }

    /// Returns `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The ordering the rows are known to satisfy.
    pub fn order(&self) -> &SortOrder {
        &self.order
    }

    /// Returns `true` if the rows are known to be in canonical (sorted)
    /// order.
    pub fn is_canonical(&self) -> bool {
        self.order.is_canonical(self.schema.len())
    }

    /// Declares the ordering the rows are known to satisfy, without the
    /// verification pass of [`Relation::sort_by_columns`] and without
    /// counting an elided sort. The caller guarantees the claim; it is
    /// verified in debug builds.
    pub(crate) fn assume_order(&mut self, order: SortOrder) {
        debug_assert!(
            sorted_by(&self.data, self.schema.len(), order.columns()),
            "assumed order {:?} not satisfied",
            order
        );
        self.order = order;
    }

    /// Appends a row by copying it into the flat buffer. The relation then
    /// claims no order ([`SortOrder::none`]): a caller that knows the order
    /// of what it appended claims it with [`Relation::sort_by_columns`],
    /// whose verification pass finds it without a sort.
    ///
    /// # Panics
    ///
    /// Panics if the row arity differs from the schema's.
    pub fn push_row(&mut self, row: &[TermId]) {
        assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        if !self.order.is_none() {
            self.order = SortOrder::none();
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Index of `variable` in the schema.
    pub fn column(&self, variable: &Variable) -> Option<usize> {
        self.schema.iter().position(|v| v == variable)
    }

    /// Sorts the rows into canonical order: [`Relation::sort_by_columns`]
    /// over every column in schema order.
    pub fn canonicalize(&mut self) {
        self.sort_by_columns(SortOrder::canonical(self.schema.len()).columns());
    }

    /// Ensures the rows are sorted by the given column sequence, eliding the
    /// sort when the tracked order (or a linear verification pass) proves
    /// them already ordered. The outcome is recorded in the
    /// `sorts_performed` / `sorts_elided` counters of [`stats`].
    pub fn sort_by_columns(&mut self, columns: &[usize]) {
        let order = SortOrder::by(columns.iter().copied());
        if self.rows <= 1 {
            // At most one row: every ordering holds, adopt the claim as-is.
            self.order = order;
            stats::count_sort_elided();
            return;
        }
        if self.order.satisfies(order.columns()) {
            stats::count_sort_elided();
            return;
        }
        let arity = self.schema.len();
        if sorted_by(&self.data, arity, order.columns()) {
            self.order = order;
            stats::count_sort_elided();
            return;
        }
        // The stable index sort over the key columns alone (gathered into
        // contiguous column-major storage first; its scratch is freed
        // before the copy is allocated), then one permuted copy. A handful
        // of buffer allocations, zero per-row allocations.
        let permutation =
            KeyChunk::gather(&self.data, arity, order.columns(), self.rows).sorted_permutation();
        let mut sorted: Vec<TermId> = Vec::with_capacity(self.data.len());
        for &row in &permutation {
            sorted.extend_from_slice(self.row(row as usize));
        }
        self.data = sorted;
        self.order = order;
    }

    /// Merges relations with identical schemas into one, interleaving rows
    /// by the ordering prefix every non-empty input shares: a single-pass,
    /// **stable** k-way merge. Ties go to the earliest input and rows of
    /// one input keep their relative order, so the result is deterministic
    /// in the input order — and, a stable merge being associative, equal to
    /// any tree of pairwise merges over inputs that share one descriptor.
    /// Inputs sharing no order are concatenated. This is how a reduce task
    /// combines the shuffle buckets it received and how the root gathers
    /// the per-node parts, without re-sorting.
    ///
    /// The merge *gallops*: it takes the input holding the smallest head,
    /// finds how far that input runs before the runner-up's head with one
    /// exponential + binary search, and copies the whole run with one
    /// `extend_from_slice` — a run of one row costs one probe beyond
    /// placing the input's next head among the others, a run of hundreds a
    /// handful. The output buffer is reserved once at the summed size; when
    /// at most one input has rows it is returned as is, without a copy.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the schemas differ.
    pub fn merge_ordered(mut parts: Vec<Relation>) -> Relation {
        assert!(!parts.is_empty(), "merge_ordered needs at least one input");
        for part in &parts[1..] {
            assert_eq!(part.schema, parts[0].schema, "schema mismatch in merge");
        }
        if parts.iter().filter(|part| part.rows > 0).count() <= 1 {
            let keep = parts.iter().position(|part| part.rows > 0).unwrap_or(0);
            return parts.swap_remove(keep);
        }
        parts.retain(|part| part.rows > 0);
        let rows: usize = parts.iter().map(|part| part.rows).sum();
        let (first, others) = parts.split_first().expect("two inputs have rows");
        let arity = first.schema.len();
        let shared = others
            .iter()
            .map(|part| first.order.shared_prefix(&part.order).len())
            .min()
            .expect("two inputs have rows");
        let shared = &first.order.columns()[..shared];
        let mut data: Vec<TermId> = Vec::new();
        if arity > 0 {
            data.reserve_exact(rows * arity);
            match shared.split_first() {
                None => parts
                    .iter()
                    .for_each(|part| data.extend_from_slice(&part.data)),
                Some((&first, more)) => merge_runs(&parts, arity, first, more, &mut data),
            }
        }
        debug_assert!(
            sorted_by(&data, arity, shared),
            "merge of ordered inputs lost the shared order"
        );
        let order = SortOrder::by(shared.iter().copied());
        Relation {
            schema: parts.swap_remove(0).schema,
            data,
            rows,
            order,
        }
    }

    /// Projects the relation onto `variables` (dropping duplicates of rows is
    /// *not* performed: BGP semantics keep multiplicities).
    pub fn project(&self, variables: &[Variable]) -> Relation {
        let columns: Vec<usize> = variables.iter().filter_map(|v| self.column(v)).collect();
        let kept: Vec<Variable> = variables
            .iter()
            .filter(|v| self.column(v).is_some())
            .cloned()
            .collect();
        let arity = kept.len();
        let mut data: Vec<TermId> = Vec::with_capacity(arity * self.rows);
        for row in self.rows() {
            for &c in &columns {
                data.push(row[c]);
            }
        }
        // Ordering survives projection as the longest prefix of the tracked
        // order whose columns are all kept (a dropped column breaks ties in
        // a way the output can no longer see).
        let mut order_columns: Vec<usize> = Vec::new();
        for &c in self.order.columns() {
            match columns.iter().position(|&kept_col| kept_col == c) {
                Some(out_col) => order_columns.push(out_col),
                None => break,
            }
        }
        let out = Relation {
            schema: kept,
            data,
            rows: self.rows,
            order: SortOrder::by(order_columns),
        };
        debug_assert!(
            sorted_by(&out.data, arity, out.order.columns()),
            "projection lost the inherited order"
        );
        out
    }

    /// Sorts rows lexicographically (used to compare results in tests).
    /// Already-canonical relations are returned unchanged.
    pub fn sorted(mut self) -> Relation {
        self.canonicalize();
        self
    }

    /// Deduplicates rows in place (after sorting, skipped when already
    /// canonical). BGP evaluation is set semantics in the paper's
    /// formalization, so final results are compared deduplicated.
    pub fn distinct(mut self) -> Relation {
        self.canonicalize();
        let arity = self.schema.len();
        if arity == 0 {
            self.rows = self.rows.min(1);
            return self;
        }
        if self.rows <= 1 {
            return self;
        }
        let mut write = 1usize;
        for read in 1..self.rows {
            let duplicate = self.data[read * arity..(read + 1) * arity]
                == self.data[(write - 1) * arity..write * arity];
            if !duplicate {
                if read != write {
                    self.data
                        .copy_within(read * arity..(read + 1) * arity, write * arity);
                }
                write += 1;
            }
        }
        self.data.truncate(write * arity);
        self.rows = write;
        self
    }

    /// Keeps the first `rows` rows (all of them when there are fewer) and
    /// gives the rest of the buffer back. A prefix inherits the tracked
    /// order.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.rows {
            self.rows = rows;
            self.data.truncate(rows * self.schema.len());
            self.data.shrink_to_fit();
        }
    }

    /// Number of distinct rows, without consuming or cloning the relation:
    /// counted in place when the tracked order covers every column (any full
    /// column permutation puts equal rows next to each other), along one
    /// index sort otherwise.
    pub fn distinct_len(&self) -> usize {
        let arity = self.schema.len();
        if arity == 0 {
            return self.rows.min(1);
        }
        let duplicates = if self.order.columns().len() == arity {
            debug_assert!(
                sorted_by(&self.data, arity, self.order.columns()),
                "tracked order not satisfied"
            );
            (1..self.rows)
                .filter(|&i| self.row(i - 1) == self.row(i))
                .count()
        } else {
            // Equal rows are adjacent along the sorted visit order; no row
            // is copied.
            let columns = SortOrder::canonical(arity);
            KeyChunk::gather(&self.data, arity, columns.columns(), self.rows)
                .sorted_permutation()
                .windows(2)
                .filter(|pair| self.row(pair[0] as usize) == self.row(pair[1] as usize))
                .count()
        };
        self.rows - duplicates
    }

    /// N-ary **sort-merge** join of `inputs` on the shared `attributes`,
    /// its output sorted by the `delivered` variables.
    ///
    /// The output schema is the union of the input schemas in input order
    /// (join attributes appear once). This mirrors the logical `J_A`
    /// operator: every input must contain every join attribute.
    ///
    /// Each input is walked in key order: an input whose tracked
    /// [`SortOrder`] has the join attributes as a prefix is consumed as-is,
    /// and any other input pays one column-permuted index sort — no hash
    /// table and no per-row key allocation on either path. The inputs' key
    /// columns are aligned by a leapfrog, one column at a time over one
    /// contiguous slice per input (`merge_key_groups`), and each aligned
    /// group's cross product is written straight into the output buffer —
    /// an output row is input 0's row followed by the columns each later
    /// input is the first to provide — skipping combinations that disagree
    /// on a shared non-join attribute (`Emitter`).
    ///
    /// The merge emits key groups in ascending key order, so the raw output
    /// is sorted by the join attributes; the output is then sorted by the
    /// columns of `delivered` (variables the output lacks are skipped) —
    /// elided whenever the natural key order already satisfies them, as it
    /// satisfies an empty `delivered`. All paths are deterministic, so join
    /// results are bit-identical at any thread count.
    pub fn join(inputs: &[&Relation], attributes: &[Variable], delivered: &[Variable]) -> Relation {
        assert!(!inputs.is_empty(), "join needs at least one input");
        // Output schema: union of schemas, first occurrence wins.
        let mut schema: Vec<Variable> = Vec::new();
        for rel in inputs {
            for v in rel.schema() {
                if !schema.contains(v) {
                    schema.push(v.clone());
                }
            }
        }
        let deliver = |out: &mut Relation| {
            let columns: Vec<usize> = delivered.iter().filter_map(|v| out.column(v)).collect();
            out.sort_by_columns(&columns);
        };
        if inputs.len() == 1 {
            // Single input: the join is the identity.
            let mut out = Relation {
                schema,
                data: inputs[0].data.clone(),
                rows: inputs[0].rows,
                order: inputs[0].order.clone(),
            };
            deliver(&mut out);
            stats::count_join(out.rows as u64, 0);
            return out;
        }

        // Per input: key columns and the row visit order that makes the
        // rows key-sorted.
        let views: Vec<InputView<'_>> = inputs
            .iter()
            .map(|rel| InputView::new(rel, attributes))
            .collect();
        let natural = SortOrder::by(attributes.iter().map(|a| {
            schema
                .iter()
                .position(|s| s == a)
                .expect("join attribute in output schema")
        }));
        let mut emitter = Emitter::new(&views, &schema, attributes);
        let key_groups = merge_key_groups(&views, |cursors, ends| emitter.emit(cursors, ends));
        // Key groups were emitted in ascending key order: the output is
        // sorted by the join attributes' output columns. (An empty output
        // satisfies any ordering, so delivering it adopts the requested one
        // and downstream consumers see the order the plan promised.)
        let Emitter { data, rows, .. } = emitter;
        let mut out = Relation::from_raw(schema, data, rows, natural);
        deliver(&mut out);
        stats::count_join(out.rows as u64, key_groups as u64);
        stats::note_intermediate(out.rows as u64, out.buffer_bytes());
        out
    }

    /// The number of distinct keys every input holds — the aligned key
    /// groups an n-ary join of `inputs` on `attributes` walks, counted
    /// without emitting a row: [`Relation::join`] minus its cross
    /// products. The kernel benches time it to split a join into alignment
    /// and emission; the join oracle checks it against the nested loop.
    pub fn key_groups(inputs: &[&Relation], attributes: &[Variable]) -> usize {
        let views: Vec<InputView<'_>> = inputs
            .iter()
            .map(|rel| InputView::new(rel, attributes))
            .collect();
        merge_key_groups(&views, |_, _| {})
    }
}

/// The merge loop of [`Relation::merge_ordered`]: appends the rows of
/// `parts` (non-empty, each sorted by column `first`, then by the columns
/// `more`) to `out` in merged order.
///
/// `order` lists the inputs that still have rows, sorted by (head row,
/// input index) — so `order[0]` holds the smallest head, ties going to the
/// earliest input, and `order[1]` the runner-up. Each round copies from the
/// first the run that precedes the runner-up's head; what follows that run
/// sorts after the runner-up, which therefore leads the next round without
/// a comparison, and the first input is re-inserted behind it. The leading
/// column decides most comparisons (all of them when parts are ordered by
/// one join key), so every input's head value of it is kept at hand.
fn merge_runs(
    parts: &[Relation],
    arity: usize,
    first: usize,
    more: &[usize],
    out: &mut Vec<TermId>,
) {
    // What is left of every input: its rows, their number, the head's key.
    let mut rest: Vec<(&[TermId], usize, TermId)> = parts
        .iter()
        .map(|part| (part.data.as_slice(), part.rows, part.data[first]))
        .collect();
    let cmp_heads = |rest: &[(&[TermId], usize, TermId)], a: usize, b: usize| {
        let ((a_rows, _, a_key), (b_rows, _, b_key)) = (rest[a], rest[b]);
        a_key
            .cmp(&b_key)
            .then_with(|| cmp_by_columns(a_rows, b_rows, more))
            .then(a.cmp(&b))
    };
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by(|&a, &b| cmp_heads(&rest, a, b));
    while let [best, second, ..] = order[..] {
        let (bound, _, bound_key) = rest[second];
        let (rows, count, _) = rest[best];
        // `best` runs until the runner-up's head: through the rows equal to
        // it when `best` is the earlier input, up to them otherwise.
        let last = if best < second {
            Ordering::Equal
        } else {
            Ordering::Less
        };
        let run = gallop(rows, count, arity, |row| {
            let cmp = row[first]
                .cmp(&bound_key)
                .then_with(|| cmp_by_columns(row, bound, more));
            cmp <= last
        });
        let (run_rows, rows) = rows.split_at(run * arity);
        out.extend_from_slice(run_rows);
        if run == count {
            order.remove(0);
            continue;
        }
        rest[best] = (rows, count - run, rows[first]);
        let mut slot = 0;
        while slot + 1 < order.len()
            && (slot == 0 || cmp_heads(&rest, order[slot + 1], best) == Ordering::Less)
        {
            order[slot] = order[slot + 1];
            slot += 1;
        }
        order[slot] = best;
    }
    out.extend_from_slice(rest[order[0]].0);
}

/// Number of leading rows among the `count` rows of `rows` that satisfy
/// `keep`, which holds on a prefix of the rows and on the first row: an
/// exponential probe brackets the end of the prefix, a binary search pins
/// it.
fn gallop(rows: &[TermId], count: usize, arity: usize, keep: impl Fn(&[TermId]) -> bool) -> usize {
    let row = |index: usize| &rows[index * arity..(index + 1) * arity];
    // `keep` holds at `low` and fails at `high` (or `high` is the end).
    let (mut low, mut step) = (0usize, 1usize);
    while low + step < count && keep(row(low + step)) {
        low += step;
        step *= 2;
    }
    let mut high = (low + step).min(count);
    while high - low > 1 {
        let middle = low + (high - low) / 2;
        if keep(row(middle)) {
            low = middle;
        } else {
            high = middle;
        }
    }
    high
}

/// Bytes per stored [`TermId`], for the `peak_bytes` accounting.
pub(crate) const TERM_BYTES: usize = std::mem::size_of::<TermId>();

/// A row count or row position as the `u32` the sort kernel's permutations
/// and the factorized runs' offsets store.
///
/// # Panics
///
/// Panics past `u32::MAX` rows, where the narrow form would wrap into a
/// wrong answer.
pub(crate) fn row_offset(rows: usize) -> u32 {
    u32::try_from(rows).expect("relation too large")
}

/// Drives the n-ary sort-merge alignment over pre-built [`InputView`]s and
/// hands every aligned key group — per input the equal-key range
/// `[cursors[i], ends[i])` of key-sorted positions — to `on_group`, in
/// ascending key order. Returns the number of groups. Shared by the eager
/// cross-product join and the factorized run-emitting join in
/// [`crate::factorized`].
///
/// The alignment is a leapfrog over one key column at a time
/// ([`align`]): the leading column is aligned over every input's whole
/// contiguous key slice, and a join on more attributes refines each aligned
/// range on the next column by the same routine one level down. The state
/// of all levels (a cursor and an end per input and level) is allocated
/// here, once per join.
pub(crate) fn merge_key_groups<F>(views: &[InputView<'_>], mut on_group: F) -> usize
where
    F: FnMut(&[usize], &[usize]),
{
    let n = views.len();
    if views.iter().any(|view| view.len() == 0) {
        return 0;
    }
    let levels = views[0].key_arity();
    // Level-major: `columns[level * n + i]` is input `i`'s key column `level`.
    let columns: Vec<&[TermId]> = (0..levels)
        .flat_map(|level| views.iter().map(move |view| view.keys.column(level)))
        .collect();
    let mut state = vec![0usize; 2 * n * (levels + 1)];
    let (whole, state) = state.split_at_mut(2 * n);
    let (from, to) = whole.split_at_mut(n);
    for (to, view) in to.iter_mut().zip(views) {
        *to = view.len();
    }
    let mut groups = 0usize;
    align(&columns, n, from, to, state, &mut |cursors, ends| {
        groups += 1;
        on_group(cursors, ends);
    });
    groups
}

/// One level of the alignment: `columns[..n]` holds every input's slice of
/// the key column this level aligns (`columns[n..]` the deeper levels'),
/// ascending inside the non-empty range `[from[i], to[i])` because the
/// columns before it are constant there. Leapfrog: input 0's head is the
/// first target; advance each input in turn while it is below the target,
/// and let a head above the target become the target — until every input's
/// head equals it (the largest head there was); then delimit each input's
/// run of the target and either hand the ranges to `on_group` (last column)
/// or align the next column inside them. Ends when an input's range runs
/// out. With no column at all (a cross product) the ranges as given are the
/// one group.
fn align<F>(
    columns: &[&[TermId]],
    n: usize,
    from: &[usize],
    to: &[usize],
    state: &mut [usize],
    on_group: &mut F,
) where
    F: FnMut(&[usize], &[usize]),
{
    if columns.is_empty() {
        on_group(from, to);
        return;
    }
    let (columns, deeper) = columns.split_at(n);
    let (level, state) = state.split_at_mut(2 * n);
    // `heads[i]` scans forward through input `i`'s range; `starts[i]` is
    // where its run of the current target began.
    let (starts, heads) = level.split_at_mut(n);
    heads.copy_from_slice(from);
    while heads[0] < to[0] {
        let mut target = columns[0][heads[0]];
        // Consecutive inputs (cyclically, up to the one before `i`) whose
        // head equals the target.
        let (mut agreed, mut i) = (0, 0);
        while agreed < n {
            let column = &columns[i][..to[i]];
            let mut head = heads[i];
            while head < column.len() && column[head] < target {
                head += 1;
            }
            if head == column.len() {
                return;
            }
            heads[i] = head;
            if column[head] == target {
                agreed += 1;
            } else {
                target = column[head];
                agreed = 1;
            }
            i = if i + 1 == n { 0 } else { i + 1 };
        }
        for i in 0..n {
            let column = &columns[i][..to[i]];
            let mut end = heads[i] + 1;
            while end < column.len() && column[end] == target {
                end += 1;
            }
            starts[i] = std::mem::replace(&mut heads[i], end);
        }
        if deeper.is_empty() {
            on_group(starts, heads);
        } else {
            align(deeper, n, starts, heads, state, on_group);
        }
    }
}

/// A column-major (PAX-style) copy of a relation's key columns: column `k`'s
/// values for every row sit in one contiguous `&[TermId]` slice. The merge
/// comparator and the sort kernel walk these slices instead of striding
/// through whole row-major rows, so they touch only key cache lines.
pub(crate) struct KeyChunk {
    buf: Vec<TermId>,
    rows: usize,
    cols: usize,
}

impl KeyChunk {
    /// Gathers `key_cols` of a row-major buffer into column-major storage.
    /// One buffer allocation sized `key_cols.len() * rows`; no per-row
    /// allocation.
    pub(crate) fn gather(data: &[TermId], arity: usize, key_cols: &[usize], rows: usize) -> Self {
        let mut buf: Vec<TermId> = Vec::with_capacity(key_cols.len() * rows);
        if rows > 0 {
            for &col in key_cols {
                buf.extend(data[col..].iter().step_by(arity).copied());
            }
        }
        Self {
            buf,
            rows,
            cols: key_cols.len(),
        }
    }

    /// Key column `k` as one contiguous slice.
    #[inline]
    pub(crate) fn column(&self, k: usize) -> &[TermId] {
        &self.buf[k * self.rows..(k + 1) * self.rows]
    }

    /// The one sort kernel: the permutation (position → row) that visits the
    /// chunk's rows in ascending key order, rows with equal keys in
    /// ascending row order. A stable least-significant-digit radix sort of
    /// the row indices — last key column first, one counting pass per byte
    /// of the key — that skips every byte on which all keys of a column
    /// agree: dictionary ids are dense and small, so two or three passes per
    /// column replace a comparison sort's log₂ n compares through the
    /// permutation. The scratch is one more `rows`-index buffer, freed on
    /// return.
    pub(crate) fn sorted_permutation(&self) -> Vec<u32> {
        const DIGIT_BITS: usize = 8;
        const DIGIT_MASK: usize = (1 << DIGIT_BITS) - 1;
        stats::count_sort_performed(self.rows as u64);
        let mut rows: Vec<u32> = (0..row_offset(self.rows)).collect();
        let mut scattered: Vec<u32> = vec![0; self.rows];
        for col in (0..self.cols).rev().map(|k| self.column(k)) {
            // The key bits that differ anywhere in the column.
            let (any, all) = col
                .iter()
                .fold((0, u32::MAX), |(any, all), key| (any | key.0, all & key.0));
            let varying = any ^ all;
            for shift in (0..u32::BITS).step_by(DIGIT_BITS) {
                if (varying >> shift) as usize & DIGIT_MASK == 0 {
                    continue;
                }
                let digit = |key: TermId| (key.0 >> shift) as usize & DIGIT_MASK;
                // Count every digit, turn the counts into each digit's first
                // output position, then deal the rows out in their current
                // order (which is what keeps the pass stable).
                let mut offsets = [0u32; DIGIT_MASK + 1];
                for &key in col {
                    offsets[digit(key)] += 1;
                }
                let mut start = 0u32;
                for offset in &mut offsets {
                    start += std::mem::replace(offset, start);
                }
                for &row in &rows {
                    let offset = &mut offsets[digit(col[row as usize])];
                    scattered[*offset as usize] = row;
                    *offset += 1;
                }
                std::mem::swap(&mut rows, &mut scattered);
            }
        }
        rows
    }

    /// Reorders every column by `permutation` (new position → old position).
    fn permute(&mut self, permutation: &[u32]) {
        let mut permuted: Vec<TermId> = Vec::with_capacity(self.buf.len());
        for k in 0..self.cols {
            let col = self.column(k);
            permuted.extend(permutation.iter().map(|&row| col[row as usize]));
        }
        self.buf = permuted;
    }
}

/// One join input viewed in key-sorted row order, with the key columns
/// gathered into a contiguous column-major [`KeyChunk`] so the merge
/// comparators never touch payload columns.
pub(crate) struct InputView<'r> {
    rel: &'r Relation,
    /// Column of each join attribute in the input's schema.
    key_cols: Vec<usize>,
    /// Column-major copy of the key columns, in key-sorted row order.
    keys: KeyChunk,
    /// Row visit order: `None` when the relation's tracked order has the
    /// join attributes as a prefix (rows are already key-sorted); otherwise
    /// the keys' [`KeyChunk::sorted_permutation`].
    order: Option<Vec<u32>>,
}

impl<'r> InputView<'r> {
    pub(crate) fn new(rel: &'r Relation, attributes: &[Variable]) -> Self {
        let key_cols: Vec<usize> = attributes
            .iter()
            .map(|a| {
                rel.column(a)
                    .unwrap_or_else(|| panic!("join attribute {a} missing from input"))
            })
            .collect();
        // A relation with at most one row satisfies *every* ordering: empty
        // shuffle buckets (and singleton groups) must not be counted — or
        // paid for — as re-sorts just because their tracked descriptor was
        // claimed for a different column sequence.
        let presorted = rel.len() <= 1 || rel.order().satisfies(&key_cols);
        stats::count_join_input(presorted);
        let mut keys = KeyChunk::gather(rel.data(), rel.arity(), &key_cols, rel.len());
        let order = if presorted {
            stats::count_sort_elided();
            None
        } else {
            let order = keys.sorted_permutation();
            keys.permute(&order);
            Some(order)
        };
        Self {
            rel,
            key_cols,
            keys,
            order,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.rel.len()
    }

    /// Number of join-key columns.
    pub(crate) fn key_arity(&self) -> usize {
        self.key_cols.len()
    }

    /// The `k`-th key column's value at key-sorted position `pos`, read from
    /// the contiguous chunk.
    #[inline]
    pub(crate) fn key(&self, k: usize, pos: usize) -> TermId {
        self.keys.column(k)[pos]
    }

    /// The row at key-sorted position `pos`.
    pub(crate) fn row(&self, pos: usize) -> &'r [TermId] {
        match &self.order {
            None => self.rel.row(pos),
            Some(order) => self.rel.row(order[pos] as usize),
        }
    }
}

/// The eager join's emitter: appends the cross products of aligned key
/// groups to the output buffer, rows written in place.
///
/// The output schema is the inputs' schemas unioned in input order, so an
/// output row is one *segment* per input laid end to end: the columns that
/// input is the first to provide, in its schema order (all of input 0's; a
/// later input's minus the join attributes and whatever else an earlier
/// input already binds). The row under construction lives at the tail of
/// the buffer; a shared non-key column is compared against what is already
/// written there.
struct Emitter<'v, 'r> {
    views: &'v [InputView<'r>],
    /// Per input: the source columns of its segment.
    takes: Vec<Vec<usize>>,
    /// Per input: `(column, output column)` of every non-key column some
    /// earlier input already provides; rows that disagree are rejected.
    checks: Vec<Vec<(usize, usize)>>,
    /// Output column at which each input's segment starts, then the arity.
    starts: Vec<usize>,
    /// No input has anything to check: a group emits its whole product.
    unchecked: bool,
    /// The odometer: every input's position inside the current group.
    at: Vec<usize>,
    data: Vec<TermId>,
    rows: usize,
}

impl<'v, 'r> Emitter<'v, 'r> {
    fn new(views: &'v [InputView<'r>], schema: &[Variable], attributes: &[Variable]) -> Self {
        let n = views.len();
        let mut takes: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut checks: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut starts = Vec::with_capacity(n + 1);
        // First occurrences claim output columns in sequence, which is how
        // the schema union numbered them.
        let mut provided = 0;
        for (i, view) in views.iter().enumerate() {
            starts.push(provided);
            for (src, v) in view.rel.schema().iter().enumerate() {
                let dst = schema.iter().position(|s| s == v).expect("schema union");
                if dst == provided {
                    provided += 1;
                    takes[i].push(src);
                } else if !attributes.contains(v) {
                    checks[i].push((src, dst));
                }
            }
        }
        debug_assert_eq!(provided, schema.len());
        starts.push(provided);
        Self {
            views,
            takes,
            unchecked: checks.iter().all(Vec::is_empty),
            checks,
            starts,
            at: vec![0; n],
            data: Vec::new(),
            rows: 0,
        }
    }

    /// Appends the cross product of the aligned groups
    /// `[cursors[i], ends[i])`, nested in input order with input 0
    /// outermost, minus the combinations that disagree on a shared non-key
    /// column (a rejected row of input `i` is skipped with everything that
    /// would extend it).
    ///
    /// When no input has anything to check the group's size is known and
    /// reserved at once. A group of one row per input is one short append;
    /// anything larger runs the odometer `at`: [`place`] the rows of the
    /// inputs from `depth` on, count the row, [`step`] the last input that
    /// has a row left (the inputs behind it start over) and begin the next
    /// row as a copy of the finished one's segments before that input. A
    /// rejected row steps its input at once and is cut back the same way.
    fn emit(&mut self, cursors: &[usize], ends: &[usize]) {
        let n = self.views.len();
        let arity = self.starts[n];
        let mut base = self.data.len();
        let product: usize = cursors.iter().zip(ends).map(|(c, e)| e - c).product();
        if self.unchecked {
            self.data.reserve(product * arity);
        }
        if product == 1 {
            let segments = self.takes.iter().zip(&self.checks);
            let rows = self.views.iter().zip(cursors);
            if (rows.zip(segments)).all(|((view, &pos), (takes, checks))| {
                place(&mut self.data, base, view.row(pos), takes, checks)
            }) {
                self.rows += 1;
            } else {
                self.data.truncate(base);
            }
            return;
        }
        self.at[0] = cursors[0];
        let mut depth = 0;
        loop {
            while depth < n {
                let row = self.views[depth].row(self.at[depth]);
                if place(
                    &mut self.data,
                    base,
                    row,
                    &self.takes[depth],
                    &self.checks[depth],
                ) {
                    depth += 1;
                    if depth < n {
                        self.at[depth] = cursors[depth];
                    }
                } else if let Some(next) = step(&mut self.at, ends, depth) {
                    depth = next;
                    self.data.truncate(base + self.starts[depth]);
                } else {
                    self.data.truncate(base);
                    return;
                }
            }
            self.rows += 1;
            let Some(next) = step(&mut self.at, ends, n - 1) else {
                return;
            };
            depth = next;
            self.data
                .extend_from_within(base..base + self.starts[depth]);
            base += arity;
        }
    }
}

/// Appends the columns `takes` of an input's `row` as the next segment of
/// the output row that starts at `data[base]` — unless the row disagrees
/// with the segments already there on a `(column, output column)` of
/// `checks`.
#[inline]
fn place(
    data: &mut Vec<TermId>,
    base: usize,
    row: &[TermId],
    takes: &[usize],
    checks: &[(usize, usize)],
) -> bool {
    let built = &data[base..];
    if checks.iter().any(|&(src, dst)| built[dst] != row[src]) {
        return false;
    }
    data.extend(takes.iter().map(|&src| row[src]));
    true
}

/// One step of the odometer `at` from input `depth`: moves the last input at
/// or before `depth` that has a row left in its group `[.., ends[i])` on to
/// it and returns that input — the ones behind it start over — or `None`
/// when the group is exhausted.
fn step(at: &mut [usize], ends: &[usize], mut depth: usize) -> Option<usize> {
    loop {
        at[depth] += 1;
        if at[depth] < ends[depth] {
            return Some(depth);
        }
        depth = depth.checked_sub(1)?;
    }
}

/// Hash-partitions a relation's rows into `nodes` buckets on the given
/// attributes (the simulated shuffle's routing step), building each bucket's
/// flat buffer directly — zero per-row heap allocations. Routing runs in two
/// passes: the first hashes every row once and counts the per-bucket fill,
/// the second scatters rows into buffers reserved at **exactly** the
/// observed fill — so a skewed key distribution (wide fan-out) never
/// over-reserves, and empty buckets reserve nothing.
///
/// The route is deterministic ([`shuffle_node`]), so rows are routed
/// identically on every run and at every thread count. Rows are
/// appended to their bucket in input order, which preserves the relative
/// order of the input — every bucket inherits the input's tracked
/// [`SortOrder`].
///
/// # Panics
///
/// Panics if an attribute is missing from the relation's schema.
pub fn hash_partition(relation: &Relation, attributes: &[Variable], nodes: usize) -> Vec<Relation> {
    let nodes = nodes.max(1);
    let arity = relation.arity();
    let columns: Vec<usize> = (attributes.iter())
        .map(|attribute| {
            (relation.column(attribute))
                .unwrap_or_else(|| panic!("shuffle attribute {attribute} missing from input"))
        })
        .collect();
    // Pass 1: hash every row to its node, remembering the route (one u32
    // per row) and the per-bucket row counts. Row counts are tracked
    // explicitly so zero-arity rows (empty key, empty payload) are routed
    // like any other row instead of vanishing.
    let mut routes: Vec<u32> = Vec::with_capacity(relation.len());
    let mut counts = vec![0usize; nodes];
    for row in relation.rows() {
        let node = shuffle_node(row, &columns, nodes);
        routes.push(node as u32);
        counts[node] += 1;
    }
    // Pass 2: scatter into buffers reserved at exactly the observed fill.
    let mut buffers: Vec<Vec<TermId>> = counts
        .iter()
        .map(|&rows| Vec::with_capacity(rows * arity))
        .collect();
    for (row, &node) in relation.rows().zip(&routes) {
        buffers[node as usize].extend_from_slice(row);
    }
    buffers
        .into_iter()
        .zip(counts)
        .map(|(data, rows)| {
            let out = Relation {
                schema: relation.schema().to_vec(),
                data,
                rows,
                order: relation.order.clone(),
            };
            debug_assert!(
                sorted_by(out.data(), arity, out.order.columns()),
                "bucket lost the input's order"
            );
            out
        })
        .collect()
}

/// A set of term ids, one bit per id up to the largest inserted: membership
/// is a shift and a mask, and the set spans only the dictionary range its
/// ids reach (ids are dense, so at most a few hundred kB on millions of
/// triples). The key filter of a scan's bind
/// ([`TripleBinder::bind_all`](crate::TripleBinder::bind_all)) and the
/// repeat check of factorized runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeySet {
    words: Vec<u64>,
}

impl KeySet {
    /// Adds `id` to the set.
    pub fn insert(&mut self, id: TermId) {
        let word = id.0 as usize / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (id.0 % 64);
    }

    /// Returns `true` when `id` is in the set.
    pub fn contains(&self, id: TermId) -> bool {
        let word = self.words.get(id.0 as usize / 64);
        word.is_some_and(|word| word >> (id.0 % 64) & 1 == 1)
    }
}

impl FromIterator<TermId> for KeySet {
    fn from_iter<I: IntoIterator<Item = TermId>>(ids: I) -> Self {
        let mut set = Self::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// The node of `nodes` the hash-partitioned shuffle routes `row` to: its
/// key columns folded into one word (multiply by the FNV prime, xor the
/// next id) and placed by the store's [`node_of_hash`], so rows are routed
/// identically on every run and at every thread count. A one-column key is
/// its id, routed where the store places that value: a part placed by the
/// join key stays on its node.
pub fn shuffle_node(row: &[TermId], columns: &[usize], nodes: usize) -> usize {
    let hash = (columns.iter()).fold(0u64, |hash, &column| {
        hash.wrapping_mul(0x0000_0100_0000_01B3) ^ u64::from(row[column].0)
    });
    node_of_hash(hash, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(name: &str) -> Variable {
        Variable::new(name)
    }

    fn t(id: u32) -> TermId {
        TermId(id)
    }

    fn rel(schema: &[&str], rows: &[&[u32]]) -> Relation {
        Relation::new(
            schema.iter().map(|s| v(s)).collect(),
            rows.iter()
                .map(|r| r.iter().map(|&x| t(x)).collect())
                .collect(),
        )
    }

    fn rows_of(relation: &Relation) -> Vec<Vec<TermId>> {
        relation.rows().map(<[TermId]>::to_vec).collect()
    }

    #[test]
    fn basic_accessors() {
        let r = rel(&["a", "b"], &[&[1, 2], &[3, 4]]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.arity(), 2);
        assert_eq!(r.column(&v("b")), Some(1));
        assert_eq!(r.column(&v("z")), None);
        assert_eq!(r.row(0), &[t(1), t(2)]);
        assert_eq!(r.row(1), &[t(3), t(4)]);
        assert_eq!(r.data(), &[t(1), t(2), t(3), t(4)]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let _ = rel(&["a", "b"], &[&[1]]);
    }

    #[test]
    fn rows_iterator_is_exact_size() {
        let r = rel(&["a"], &[&[1], &[2], &[3]]);
        let mut rows = r.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.next(), Some(&[t(1)][..]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.count(), 2);
    }

    #[test]
    fn unit_relation_has_one_empty_row() {
        let unit = Relation::unit();
        assert_eq!(unit.len(), 1);
        assert_eq!(unit.arity(), 0);
        assert_eq!(unit.rows().next(), Some(&[][..]));
        assert_eq!(unit.clone().distinct().len(), 1);
        assert_eq!(unit.distinct_len(), 1);
    }

    #[test]
    fn sort_order_prefix_reasoning() {
        let order = SortOrder::by([2, 0, 1]);
        assert!(order.satisfies(&[]));
        assert!(order.satisfies(&[2]));
        assert!(order.satisfies(&[2, 0]));
        assert!(order.satisfies(&[2, 0, 1]));
        assert!(!order.satisfies(&[0]));
        assert!(!order.satisfies(&[2, 1]));
        // A column the order already pinned earlier is skipped.
        assert!(order.satisfies(&[2, 2, 0]));
        assert!(order.satisfies(&[2, 0, 2, 1]));
        // Requirements longer than the tracked order fail.
        assert!(!SortOrder::by([2]).satisfies(&[2, 0]));
        // Canonical checks.
        assert!(SortOrder::canonical(3).is_canonical(3));
        assert!(!SortOrder::by([0, 1]).is_canonical(3));
        assert!(!SortOrder::by([1, 0, 2]).is_canonical(3));
        assert!(SortOrder::none().is_none());
        // Shared prefixes.
        assert_eq!(
            SortOrder::by([2, 0, 1]).shared_prefix(&SortOrder::by([2, 0])),
            &[2, 0]
        );
        assert_eq!(
            SortOrder::by([1, 0]).shared_prefix(&SortOrder::by([0, 1])),
            &[] as &[usize]
        );
        // `by` deduplicates.
        assert_eq!(SortOrder::by([1, 1, 0, 1]).columns(), &[1, 0]);
    }

    #[test]
    fn sort_by_columns_elides_satisfied_requirements() {
        let mut r = rel(&["a", "b"], &[&[1, 9], &[2, 5], &[3, 7]]);
        assert!(r.is_canonical());
        stats::reset();
        r.sort_by_columns(&[0]);
        assert_eq!(stats::snapshot().sorts_elided, 1);
        assert_eq!(stats::snapshot().sorts_performed, 0);
        // Sorting by b permutes the rows and retags the order.
        r.sort_by_columns(&[1]);
        assert_eq!(stats::snapshot().sorts_performed, 1);
        assert_eq!(r.order().columns(), &[1]);
        assert!(!r.is_canonical());
        let b_values: Vec<u32> = r.rows().map(|row| row[1].0).collect();
        assert_eq!(b_values, vec![5, 7, 9]);
        // The new order now satisfies a [1]-prefix requirement.
        r.sort_by_columns(&[1]);
        assert_eq!(stats::snapshot().sorts_performed, 1);
        assert_eq!(stats::snapshot().sorts_elided, 2);
    }

    #[test]
    fn sort_by_columns_rescues_accidentally_ordered_rows() {
        // Built unordered (descending pushes), but ascending on column 1.
        let mut r = Relation::empty(vec![v("a"), v("b")]);
        r.push_row(&[t(9), t(1)]);
        r.push_row(&[t(5), t(2)]);
        assert!(r.order().is_none());
        stats::reset();
        r.sort_by_columns(&[1]);
        assert_eq!(stats::snapshot().sorts_elided, 1);
        assert_eq!(stats::snapshot().sorts_performed, 0);
        assert_eq!(r.order().columns(), &[1]);
    }

    #[test]
    fn sorts_are_stable_and_the_next_requirement_cashes_it_in() {
        // Rows in [x] order; y and z tie heavily.
        let mut r = Relation::empty(vec![v("x"), v("y"), v("z")]);
        for i in 0..64u32 {
            r.push_row(&[t(i), t(i % 2), t(i * 7 % 4)]);
        }
        r.sort_by_columns(&[0]);
        assert!(r.order().satisfies(&[0]));
        stats::reset();
        r.sort_by_columns(&[2, 1]);
        // Ties on (z, y) kept their [x] order, so the rows satisfy
        // [z, y, x] and asking for it costs a verification pass, no sort.
        assert!(sorted_by(r.data(), 3, &[2, 1, 0]));
        r.sort_by_columns(&[2, 1, 0]);
        let after = stats::snapshot();
        assert_eq!((after.sorts_performed, after.sorts_elided), (1, 1));
        assert_eq!(after.rows_sorted, 64);
        assert_eq!(r.order().columns(), &[2, 1, 0]);
    }

    /// One key column's values from raw draws: every byte varying, the byte
    /// boundaries mixed into uniform draws, a tiny domain, dense ids below
    /// 2¹⁹ (two high bytes skipped), only the high byte varying, all equal.
    fn shaped(shape: usize, raw: u32) -> u32 {
        const EDGES: [u32; 7] = [0, 255, 256, 65_535, 65_536, 1 << 24, u32::MAX];
        match shape {
            0 => raw,
            1 if raw.is_multiple_of(3) => raw.rotate_left(7),
            1 => EDGES[raw as usize % EDGES.len()],
            2 => raw % 8,
            3 => raw >> 13,
            4 => raw & 0xff00_0000 | 0x00ab_00cd,
            _ => 65_536,
        }
    }

    proptest! {
        /// The kernel is the stable sort by the key columns, and
        /// `sort_by_columns` delivers its input rows along it.
        #[test]
        fn sorted_permutation_is_the_stable_sort(
            raw in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
                0..5_001,
            ),
            shapes in proptest::collection::vec(0..6usize, 4..5),
            keys in 1..=4usize,
            first in 0..4usize,
        ) {
            let key_cols: Vec<usize> = (0..keys).map(|k| (first + k) % 4).collect();
            let mut r = Relation::empty(vec![v("a"), v("b"), v("c"), v("d")]);
            for &(a, b, c, d) in &raw {
                let row: Vec<TermId> = [a, b, c, d]
                    .iter()
                    .zip(&shapes)
                    .map(|(&raw, &shape)| t(shaped(shape, raw)))
                    .collect();
                r.push_row(&row);
            }
            let chunk = KeyChunk::gather(r.data(), 4, &key_cols, r.len());
            let mut expected: Vec<u32> = (0..r.len() as u32).collect();
            expected.sort_by(|&a, &b| {
                cmp_by_columns(r.row(a as usize), r.row(b as usize), &key_cols)
            });
            prop_assert_eq!(&chunk.sorted_permutation(), &expected);

            let mut sorted = r.clone();
            sorted.sort_by_columns(&key_cols);
            prop_assert!(sorted_by(sorted.data(), 4, &key_cols));
            let permuted: Vec<&[TermId]> =
                expected.iter().map(|&row| r.row(row as usize)).collect();
            prop_assert_eq!(sorted.rows().collect::<Vec<_>>(), permuted);
        }
    }

    #[test]
    fn row_offsets_in_range_convert() {
        assert_eq!(row_offset(0), 0);
        assert_eq!(row_offset(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "relation too large")]
    fn row_offsets_past_u32_panic_instead_of_wrapping() {
        row_offset(u32::MAX as usize + 1);
    }

    #[test]
    fn assume_order_and_unordered_pushes() {
        let mut r = Relation::empty(vec![v("a"), v("b")]);
        // Rows ascending on column 1, not on column 0.
        r.push_row(&[t(9), t(1)]);
        r.push_row(&[t(5), t(2)]);
        assert!(r.order().is_none());
        r.assume_order(SortOrder::by([1]));
        assert!(r.order().satisfies(&[1]));
    }

    #[test]
    fn binary_join_on_one_attribute() {
        let left = rel(&["a", "x"], &[&[1, 10], &[2, 20], &[3, 10]]);
        let right = rel(&["x", "b"], &[&[10, 100], &[20, 200], &[30, 300]]);
        let joined = Relation::join(&[&left, &right], &[v("x")], &[]).sorted();
        assert_eq!(joined.schema(), &[v("a"), v("x"), v("b")]);
        assert_eq!(
            rows_of(&joined),
            rows_of(
                &rel(
                    &["a", "x", "b"],
                    &[&[1, 10, 100], &[2, 20, 200], &[3, 10, 100]]
                )
                .sorted()
            )
        );
    }

    #[test]
    fn three_way_star_join() {
        let r1 = rel(&["x", "a"], &[&[1, 11], &[2, 12]]);
        let r2 = rel(&["x", "b"], &[&[1, 21], &[1, 22]]);
        let r3 = rel(&["x", "c"], &[&[1, 31], &[3, 33]]);
        let joined = Relation::join(&[&r1, &r2, &r3], &[v("x")], &[]).sorted();
        // Only x = 1 survives; r2 contributes two rows.
        assert_eq!(joined.len(), 2);
        for row in joined.rows() {
            assert_eq!(row[0], t(1));
        }
    }

    #[test]
    fn join_on_multiple_attributes() {
        let left = rel(&["x", "y", "a"], &[&[1, 2, 10], &[1, 3, 11]]);
        let right = rel(&["x", "y", "b"], &[&[1, 2, 20], &[1, 9, 21]]);
        let joined = Relation::join(&[&left, &right], &[v("x"), v("y")], &[]);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined.row(0), &[t(1), t(2), t(10), t(20)]);
    }

    #[test]
    fn join_checks_shared_non_join_attributes() {
        // Both inputs carry variable `z` but the join is only on `x`; rows
        // that disagree on `z` must not combine.
        let left = rel(&["x", "z"], &[&[1, 5], &[1, 6]]);
        let right = rel(&["x", "z", "b"], &[&[1, 5, 50], &[1, 7, 70]]);
        let joined = Relation::join(&[&left, &right], &[v("x")], &[]);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined.row(0), &[t(1), t(5), t(50)]);
    }

    #[test]
    fn empty_input_produces_empty_join() {
        let left = rel(&["x", "a"], &[]);
        let right = rel(&["x", "b"], &[&[1, 2]]);
        let joined = Relation::join(&[&left, &right], &[v("x")], &[]);
        assert!(joined.is_empty());
    }

    #[test]
    fn single_input_join_is_identity_up_to_order() {
        let r = rel(&["x", "a"], &[&[1, 2], &[3, 4]]);
        let joined = Relation::join(&[&r], &[v("x")], &[]);
        assert_eq!(rows_of(&joined), rows_of(&r));
    }

    #[test]
    fn join_output_is_canonical() {
        let left = rel(&["a", "x"], &[&[9, 10], &[2, 20], &[3, 10]]);
        let right = rel(&["x", "b"], &[&[10, 100], &[20, 200]]);
        let joined = Relation::join(&[&left, &right], &[v("x")], &[v("a"), v("x"), v("b")]);
        assert!(joined.is_canonical());
        assert!(sorted_by(joined.data(), joined.arity(), &[0, 1, 2]));
    }

    #[test]
    fn join_ordered_natural_keeps_key_order() {
        let left = rel(&["a", "x"], &[&[9, 10], &[2, 20], &[3, 10]]);
        let right = rel(&["x", "b"], &[&[10, 100], &[20, 200]]);
        // Nothing delivered: output schema [a, x, b] stays sorted by the key
        // column x (= column 1), not canonicalized.
        let joined = Relation::join(&[&left, &right], &[v("x")], &[]);
        assert_eq!(joined.order().columns(), &[1]);
        assert!(joined.order().satisfies(&[1]));
        let keys: Vec<u32> = joined.rows().map(|row| row[1].0).collect();
        assert_eq!(keys, vec![10, 10, 20]);
        // Same rows as the canonical join, different order.
        let canonical = Relation::join(&[&left, &right], &[v("x")], &[v("a"), v("x"), v("b")]);
        assert!(canonical.is_canonical());
        assert_eq!(joined.sorted(), canonical);
    }

    #[test]
    fn join_ordered_columns_sorts_by_the_requirement() {
        let left = rel(&["a", "x"], &[&[9, 10], &[2, 20], &[3, 10]]);
        let right = rel(&["x", "b"], &[&[10, 100], &[20, 200]]);
        let joined = Relation::join(&[&left, &right], &[v("x")], &[v("a")]);
        let a_values: Vec<u32> = joined.rows().map(|row| row[0].0).collect();
        assert_eq!(a_values, vec![2, 3, 9]);
        assert!(joined.order().satisfies(&[0]));

        // A requirement the natural key order already satisfies is elided.
        stats::reset();
        let by_key = Relation::join(&[&left, &right], &[v("x")], &[v("x")]);
        assert!(by_key.order().satisfies(&[1]));
        let after = stats::snapshot();
        assert_eq!(
            after.sorts_performed, 1,
            "only the left input's key re-sort runs; the output sort is elided"
        );
    }

    #[test]
    fn join_with_no_attributes_is_a_cross_product() {
        let left = rel(&["a"], &[&[1], &[2]]);
        let right = rel(&["b"], &[&[7], &[8], &[9]]);
        let joined = Relation::join(&[&left, &right], &[], &[]);
        assert_eq!(joined.len(), 6);
        assert_eq!(joined.schema(), &[v("a"), v("b")]);
    }

    #[test]
    fn join_uses_the_presorted_fast_path_for_leading_keys() {
        stats::reset();
        // Canonical, key `x` leading in both inputs → no re-sort.
        let left = rel(&["x", "a"], &[&[1, 10], &[2, 20]]);
        let right = rel(&["x", "b"], &[&[1, 5], &[3, 6]]);
        assert!(left.is_canonical() && right.is_canonical());
        let joined = Relation::join(&[&left, &right], &[v("x")], &[]);
        assert_eq!(joined.len(), 1);
        let after = stats::snapshot();
        assert_eq!(after.join_inputs_presorted, 2);
        assert_eq!(after.join_inputs_resorted, 0);

        stats::reset();
        // Key `x` trailing in the left input → one column-permuted sort.
        let trailing = rel(&["a", "x"], &[&[10, 1], &[20, 2]]);
        let joined = Relation::join(&[&trailing, &right], &[v("x")], &[]);
        assert_eq!(joined.len(), 1);
        let after = stats::snapshot();
        assert_eq!(after.join_inputs_presorted, 1);
        assert_eq!(after.join_inputs_resorted, 1);
    }

    #[test]
    fn join_accepts_any_tracked_key_prefix_order() {
        // Key `x` trailing in the schema, but the rows are *tracked* as
        // sorted by x — the fast path must accept them without a re-sort.
        let mut left = Relation::empty(vec![v("a"), v("x")]);
        left.push_row(&[t(30), t(1)]);
        left.push_row(&[t(10), t(2)]);
        left.assume_order(SortOrder::by([1]));
        let right = rel(&["x", "b"], &[&[1, 5], &[2, 6]]);
        stats::reset();
        let joined = Relation::join(&[&left, &right], &[v("x")], &[]);
        assert_eq!(joined.len(), 2);
        let after = stats::snapshot();
        assert_eq!(after.join_inputs_presorted, 2);
        assert_eq!(after.join_inputs_resorted, 0);
        assert_eq!(after.sorts_performed, 0);
    }

    #[test]
    fn join_handles_duplicate_keys_on_both_sides() {
        let left = rel(&["x", "a"], &[&[1, 10], &[1, 11], &[2, 12]]);
        let right = rel(&["x", "b"], &[&[1, 20], &[1, 21], &[1, 22]]);
        let joined = Relation::join(&[&left, &right], &[v("x")], &[]);
        // 2 left rows with x=1 × 3 right rows with x=1.
        assert_eq!(joined.len(), 6);
    }

    #[test]
    fn hash_partition_routes_every_row_exactly_once() {
        let r = rel(&["x", "a"], &[&[1, 10], &[2, 20], &[3, 30], &[4, 40]]);
        let buckets = hash_partition(&r, &[v("x")], 3);
        assert_eq!(buckets.len(), 3);
        let total: usize = buckets.iter().map(Relation::len).sum();
        assert_eq!(total, r.len());
        let mut recombined: Vec<Vec<TermId>> = buckets.iter().flat_map(rows_of).collect();
        recombined.sort_unstable();
        let mut expected = rows_of(&r);
        expected.sort_unstable();
        assert_eq!(recombined, expected);
        // Same key → same bucket.
        for bucket in &buckets {
            for row in bucket.rows() {
                let node = shuffle_node(row, &[0], 3);
                assert_eq!(bucket.schema(), r.schema());
                assert!(
                    std::ptr::eq(&buckets[node], bucket) || buckets[node].is_empty() || {
                        // The row must live in the bucket its hash selects.
                        rows_of(&buckets[node]).contains(&row.to_vec())
                    }
                );
            }
        }
    }

    /// A one-column key routes each row where the store places its value,
    /// so a part already placed by the key is not moved.
    #[test]
    fn a_one_column_shuffle_follows_placement() {
        let rows: Vec<Vec<TermId>> = (0..64).map(|x| vec![t(x * 4), t(x)]).collect();
        let r = Relation::new(vec![v("x"), v("a")], rows);
        for nodes in [1, 2, 4, 7] {
            let buckets = hash_partition(&r, &[v("x")], nodes);
            for (node, bucket) in buckets.iter().enumerate() {
                for row in bucket.rows() {
                    assert_eq!(node_of_hash(u64::from(row[0].0), nodes), node);
                }
            }
            assert!(
                buckets.iter().all(|bucket| !bucket.is_empty()),
                "{nodes} nodes"
            );
        }
    }

    #[test]
    fn hash_partition_keeps_zero_arity_rows() {
        let buckets = hash_partition(&Relation::unit(), &[], 3);
        assert_eq!(buckets.iter().map(Relation::len).sum::<usize>(), 1);
        for bucket in &buckets {
            assert_eq!(bucket.arity(), 0);
        }
    }

    proptest! {
        /// `KeySet` membership is set membership, ids far apart included.
        #[test]
        fn a_key_set_holds_exactly_what_was_inserted(
            ids in proptest::collection::vec(0u32..5_000, 0..60),
            probes in proptest::collection::vec(0u32..6_000, 0..60),
        ) {
            let keys: KeySet = ids.iter().map(|&id| t(id)).collect();
            let set: std::collections::BTreeSet<u32> = ids.iter().copied().collect();
            for probe in probes.iter().chain(&ids) {
                prop_assert_eq!(keys.contains(t(*probe)), set.contains(probe));
            }
        }
    }

    #[test]
    fn hash_partition_preserves_sortedness_per_bucket() {
        let r = rel(&["x"], &[&[1], &[2], &[3], &[4], &[5], &[6]]);
        assert!(r.is_canonical());
        for bucket in hash_partition(&r, &[v("x")], 4) {
            assert!(bucket.is_canonical());
        }
    }

    #[test]
    fn hash_partition_buckets_inherit_partial_orders() {
        // Tracked order [1] (sorted by x in trailing position).
        let mut r = Relation::empty(vec![v("a"), v("x")]);
        for i in 0..16u32 {
            r.push_row(&[t(100 - i), t(i)]);
        }
        r.assume_order(SortOrder::by([1]));
        for bucket in hash_partition(&r, &[v("x")], 4) {
            assert_eq!(bucket.order().columns(), &[1]);
        }
    }

    #[test]
    fn merge_ordered_interleaves_by_the_shared_order() {
        // Every part is sorted by x only (column 0), not canonically.
        let part = |rows: &[[u32; 2]]| {
            let mut r = Relation::empty(vec![v("x"), v("p")]);
            for row in rows {
                r.push_row(&[t(row[0]), t(row[1])]);
            }
            r.assume_order(SortOrder::by([0]));
            r
        };
        let a = part(&[[1, 9], [4, 2]]);
        let b = part(&[[2, 1], [3, 8]]);
        let c = part(&[[4, 1]]);
        let merged = Relation::merge_ordered(vec![a, b, c]);
        assert_eq!(merged.order().columns(), &[0]);
        let xs: Vec<u32> = merged.rows().map(|row| row[0].0).collect();
        assert_eq!(xs, vec![1, 2, 3, 4, 4]);
        // Ties on the shared order go to the earlier input.
        assert_eq!(merged.row(3), &[t(4), t(2)]);
        assert_eq!(merged.row(4), &[t(4), t(1)]);
    }

    #[test]
    fn merge_ordered_concatenates_unrelated_orders() {
        let a = rel(&["x"], &[&[3], &[1]]); // unordered
        let b = rel(&["x"], &[&[2], &[4]]);
        assert!(a.order().is_none());
        let merged = Relation::merge_ordered(vec![a, b]);
        assert!(merged.order().is_none());
        let xs: Vec<u32> = merged.rows().map(|row| row[0].0).collect();
        assert_eq!(xs, vec![3, 1, 2, 4]);
    }

    #[test]
    fn project_and_distinct() {
        let r = rel(&["a", "b", "c"], &[&[1, 2, 3], &[1, 2, 4], &[5, 6, 7]]);
        let projected = r.project(&[v("a"), v("b")]);
        assert_eq!(projected.schema(), &[v("a"), v("b")]);
        assert_eq!(projected.len(), 3);
        assert_eq!(projected.distinct().len(), 2);
        // Projecting onto an absent variable silently drops it.
        let narrowed = r.project(&[v("a"), v("z")]);
        assert_eq!(narrowed.schema(), &[v("a")]);
    }

    #[test]
    fn project_inherits_the_surviving_order_prefix() {
        let r = rel(&["a", "b", "c"], &[&[1, 2, 3], &[1, 2, 4], &[5, 6, 7]]);
        assert!(r.is_canonical());
        // Keeping a leading prefix keeps canonical order.
        let leading = r.project(&[v("a"), v("b")]);
        assert!(leading.is_canonical());
        // Reordering the kept columns yields a full (but non-canonical)
        // permutation order — distinct_len can still count in place.
        let reordered = r.project(&[v("b"), v("a")]);
        assert_eq!(reordered.order().columns(), &[1, 0]);
        assert!(!reordered.is_canonical());
        assert_eq!(reordered.distinct_len(), 2);
        // Dropping the first order column severs the inherited order.
        let severed = r.project(&[v("b"), v("c")]);
        assert!(severed.order().is_none());
    }

    #[test]
    fn project_to_zero_columns_keeps_the_row_count() {
        let r = rel(&["a"], &[&[1], &[2]]);
        let projected = r.project(&[v("z")]);
        assert_eq!(projected.arity(), 0);
        assert_eq!(projected.len(), 2);
        assert_eq!(projected.distinct().len(), 1);
    }

    #[test]
    fn merge_ordered_of_canonical_inputs_stays_canonical() {
        let a = rel(&["x"], &[&[1], &[4], &[9]]);
        let b = rel(&["x"], &[&[2], &[4], &[7]]);
        assert!(a.is_canonical() && b.is_canonical());
        let a = Relation::merge_ordered(vec![a, b]);
        assert!(a.is_canonical());
        let values: Vec<u32> = a.rows().map(|r| r[0].0).collect();
        assert_eq!(values, vec![1, 2, 4, 4, 7, 9]);
    }

    #[test]
    fn merge_ordered_merges_by_the_shared_order_prefix() {
        // Both sides sorted by the trailing column only.
        let mut a = Relation::empty(vec![v("a"), v("x")]);
        a.push_row(&[t(9), t(1)]);
        a.push_row(&[t(1), t(5)]);
        a.assume_order(SortOrder::by([1]));
        let mut b = Relation::empty(vec![v("a"), v("x")]);
        b.push_row(&[t(7), t(2)]);
        b.push_row(&[t(2), t(5)]);
        b.assume_order(SortOrder::by([1]));
        let a = Relation::merge_ordered(vec![a, b]);
        assert_eq!(a.order().columns(), &[1]);
        let xs: Vec<u32> = a.rows().map(|row| row[1].0).collect();
        assert_eq!(xs, vec![1, 2, 5, 5]);
        // The tie on x = 5 keeps the earlier input's row first.
        assert_eq!(a.row(2), &[t(1), t(5)]);
        assert_eq!(a.row(3), &[t(2), t(5)]);
    }

    #[test]
    fn merge_ordered_with_an_unordered_input_concatenates() {
        let a = rel(&["x"], &[&[1], &[2]]);
        let b = rel(&["x"], &[&[5], &[3]]);
        assert!(!b.is_canonical());
        let a = Relation::merge_ordered(vec![a, b]);
        assert!(!a.is_canonical());
        assert_eq!(a.len(), 4);
        assert_eq!(a.distinct_len(), 4);
    }

    #[test]
    fn distinct_len_matches_distinct() {
        let canonical = rel(&["x"], &[&[1], &[1], &[2], &[3], &[3]]);
        assert!(canonical.is_canonical());
        assert_eq!(canonical.distinct_len(), 3);
        let scrambled = rel(&["x"], &[&[3], &[1], &[2], &[1], &[3]]);
        assert!(!scrambled.is_canonical());
        assert_eq!(scrambled.distinct_len(), 3);
        assert_eq!(scrambled.distinct().len(), 3);
    }

    #[test]
    fn equality_ignores_the_order_descriptor() {
        let sorted = rel(&["x"], &[&[1], &[2]]);
        let mut pushed = Relation::empty(vec![v("x")]);
        pushed.push_row(&[t(1)]);
        pushed.push_row(&[t(2)]);
        assert!(pushed.order().is_none());
        assert_eq!(sorted, pushed);
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn merge_ordered_with_different_schemas_panics() {
        let a = rel(&["x"], &[&[1]]);
        let b = rel(&["y"], &[&[2]]);
        Relation::merge_ordered(vec![a, b]);
    }
}
