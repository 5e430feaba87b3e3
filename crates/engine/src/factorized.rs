//! Run-length factorized join outputs.
//!
//! The n-ary sort-merge join receives its inputs grouped by key, so a star
//! join's output is a sequence of *cross products* — one per aligned key
//! group. Materializing them eagerly costs `Π |group_i|` rows per key even
//! though the join itself only has to walk `Σ |group_i|` input rows. A
//! [`RunsRelation`] keeps the output in factorized form instead: one run per
//! aligned key group holding the key tuple plus each input's payload rows,
//! and the cross products are expanded only at the final projection boundary
//! ([`RunsRelation::project_expand`]) — directly into the projected arity,
//! so the full-width intermediate never exists. That makes high-fan-out star
//! joins output-sublinear in intermediate rows: `runs_emitted` stays far
//! below `rows_expanded` in [`crate::relation::stats`].
//!
//! Factorization is only legal when the join's inputs pairwise share
//! **nothing but the join attributes** (otherwise cross-input equality
//! checks filter the cross product and the runs would over-count);
//! `translate::factorized_joins` proves that from the plan, and
//! [`join_runs`] re-asserts it. Expansion reproduces the eager join's
//! emission order exactly and re-establishes the plan's delivered order with
//! the same sort-elision machinery, so results stay bit-identical to the
//! row-major path at every thread count.

use crate::relation::{
    merge_key_groups, row_offset, stats, InputView, KeyChunk, KeySet, Relation, SortOrder,
    TERM_BYTES,
};
use cliquesquare_rdf::TermId;
use cliquesquare_sparql::Variable;

/// The run-length factorized output of one n-ary sort-merge join: one run
/// per aligned key group, holding `(key tuple, per-input payload ranges)`
/// instead of the materialized cross product.
#[derive(Debug, Clone)]
pub struct RunsRelation {
    /// Union of the input schemas in input order (what an eager join of the
    /// same inputs would produce).
    schema: Vec<Variable>,
    /// Output column of each join attribute, in attribute order.
    key_cols: Vec<usize>,
    /// The output order the plan asked the join for; re-established when
    /// the runs are expanded.
    delivered: Vec<Variable>,
    /// One key tuple per run, row-major (`key_cols.len()` ids per run),
    /// ascending in key order.
    keys: Vec<TermId>,
    /// Per join input: the payload columns it contributes and their values,
    /// grouped by run.
    inputs: Vec<RunInput>,
    /// Number of runs (aligned key groups).
    runs: usize,
    /// Total rows an expansion materializes: `Σ_runs Π_inputs |group|`.
    expanded_rows: usize,
}

/// One join input's contribution to every run.
#[derive(Debug, Clone)]
struct RunInput {
    /// Output columns this input alone provides (its non-key variables).
    dst_cols: Vec<usize>,
    /// Payload values, row-major `dst_cols.len()` ids per row, grouped by
    /// run in key order.
    payload: Vec<TermId>,
    /// Prefix offsets into the payload rows: run `g` spans payload rows
    /// `offsets[g]..offsets[g + 1]`.
    offsets: Vec<u32>,
}

impl RunInput {
    /// The payload rows of run `run`.
    fn group(&self, run: usize) -> std::ops::Range<usize> {
        self.offsets[run] as usize..self.offsets[run + 1] as usize
    }

    /// The values of payload column `col` over all runs — or `None` as soon
    /// as a value of one run has occurred in an earlier run (within a run
    /// it may repeat). One bit per term id seen ([`KeySet`]), two passes
    /// over each run: look its values up, then mark them.
    fn column_unless_repeated(&self, col: usize, runs: usize) -> Option<Vec<TermId>> {
        let pay = self.dst_cols.len();
        let value = |row: usize| self.payload[row * pay + col];
        let mut seen = KeySet::default();
        for run in 0..runs {
            if self.group(run).any(|row| seen.contains(value(row))) {
                return None;
            }
            for v in self.group(run).map(value) {
                seen.insert(v);
            }
        }
        Some((self.payload.iter().skip(col).step_by(pay).copied()).collect())
    }

    /// This input reduced to the payload columns `writes` keeps (as
    /// `(payload column, _)` pairs), each run's rows sorted and
    /// **de-duplicated**: what the input contributes to the distinct
    /// projection of its runs. An input that keeps nothing contributes one
    /// zero-width row per run. `O(|group|)` per run whose kept rows already
    /// ascend strictly (scans deliver them so), a per-group sort otherwise.
    fn project_distinct(&self, writes: &[(usize, usize)], runs: usize) -> RunInput {
        let pay = self.dst_cols.len();
        let width = writes.len();
        let mut offsets: Vec<u32> = Vec::with_capacity(runs + 1);
        offsets.push(0);
        let mut payload: Vec<TermId> = Vec::with_capacity(width * self.payload.len() / pay.max(1));
        for run in 0..runs {
            if width == 0 {
                offsets.push(row_offset(run + 1));
                continue;
            }
            let start = payload.len();
            for pos in self.group(run) {
                payload.extend(writes.iter().map(|&(src, _)| self.payload[pos * pay + src]));
            }
            sort_distinct_rows(&mut payload, start, width);
            offsets.push(row_offset(payload.len() / width));
        }
        RunInput {
            dst_cols: writes.iter().map(|&(src, _)| self.dst_cols[src]).collect(),
            payload,
            offsets,
        }
    }
}

/// Sorts and de-duplicates the `width`-column rows of `rows[start..]` in
/// place. One pass of neighbour comparisons decides what is needed: nothing
/// when the rows already ascend strictly, no sort when they merely ascend.
fn sort_distinct_rows(rows: &mut Vec<TermId>, start: usize, width: usize) {
    let group = &mut rows[start..];
    let (mut ascending, mut strictly) = (true, true);
    for (a, b) in group
        .chunks_exact(width)
        .zip(group.chunks_exact(width).skip(1))
    {
        ascending &= a <= b;
        strictly &= a < b;
    }
    if strictly {
        return;
    }
    if !ascending {
        if width == 1 {
            group.sort_unstable();
        } else {
            let mut sorted: Vec<&[TermId]> = group.chunks_exact(width).collect();
            sorted.sort_unstable();
            let sorted = sorted.concat();
            group.copy_from_slice(&sorted);
        }
    }
    let mut kept = 1;
    for row in 1..group.len() / width {
        if group[row * width..(row + 1) * width] != group[(kept - 1) * width..kept * width] {
            group.copy_within(row * width..(row + 1) * width, kept * width);
            kept += 1;
        }
    }
    rows.truncate(start + kept * width);
}

/// Where each column of a projection of the runs comes from.
struct Projection {
    /// The projected schema: the requested variables the runs bind, in the
    /// order requested.
    kept: Vec<Variable>,
    /// `(key slot, projected column)` per kept join attribute.
    key_writes: Vec<(usize, usize)>,
    /// Per input: `(payload column, projected column)` per kept payload
    /// column, in projected-column order.
    writes: Vec<Vec<(usize, usize)>>,
}

/// Where the leading column of a projection comes from.
#[derive(Clone, Copy)]
enum Lead {
    /// Key slot.
    Key(usize),
    /// `(input, payload column)` of the distinct projection.
    Payload(usize, usize),
}

/// What one part's runs contribute to a bounded root: see
/// [`RunsRelation::project_bounded`].
#[derive(Debug, Clone)]
pub struct BoundedProjection {
    /// The part's first `k` distinct projected rows, in canonical order.
    pub head: Relation,
    /// The part's distinct projected rows, counted on the runs.
    pub count: usize,
    /// Runs the head was expanded from.
    pub runs_expanded: usize,
    /// Set when the projection drops a join attribute: the first projected
    /// column, in column order, none of whose values occurs in two of this
    /// part's runs (which is what makes the runs' rows disjoint), and its
    /// distinct values in ascending order. Rows of *different parts* are
    /// disjoint when every part names the same column and no value occurs
    /// in two parts either — the caller's check, which asks a part for a
    /// later column with [`RunsRelation::witness_from`].
    pub witness: Option<(usize, Relation)>,
}

/// N-ary sort-merge join emitting run-length factorized output instead of
/// materialized cross products. The merge skeleton (input views, the
/// leapfrog alignment of their key columns) is shared with
/// [`Relation::join`]; only the per-group emission differs: each
/// aligned group appends one run — the key tuple plus each input's payload
/// rows — in `O(Σ |group|)` instead of `O(Π |group|)`.
///
/// `delivered` is the output order the plan requires; it is stored on the
/// result and re-established at expansion time.
///
/// # Panics
///
/// Panics if fewer than two inputs are given or if two inputs share a
/// non-join attribute (the planner's legality condition).
pub fn join_runs(
    inputs: &[&Relation],
    attributes: &[Variable],
    delivered: &[Variable],
) -> RunsRelation {
    assert!(
        inputs.len() >= 2,
        "factorized join needs at least two inputs"
    );
    // Output schema: union of schemas, first occurrence wins (identical to
    // the eager join).
    let mut schema: Vec<Variable> = Vec::new();
    for rel in inputs {
        for v in rel.schema() {
            if !schema.contains(v) {
                schema.push(v.clone());
            }
        }
    }
    let key_cols: Vec<usize> = attributes
        .iter()
        .map(|a| {
            schema
                .iter()
                .position(|s| s == a)
                .expect("join attribute in output schema")
        })
        .collect();

    // Per input: the payload (non-key) columns it contributes, as
    // `(src, dst)` column pairs. Inputs must pairwise share only the join
    // attributes, so every non-key output column has exactly one provider
    // and the aligned groups combine as pure cross products.
    let mut provided = vec![false; schema.len()];
    for &c in &key_cols {
        provided[c] = true;
    }
    let mut run_inputs: Vec<RunInput> = Vec::with_capacity(inputs.len());
    let mut src_cols: Vec<Vec<usize>> = Vec::with_capacity(inputs.len());
    for rel in inputs {
        let mut dst_cols: Vec<usize> = Vec::new();
        let mut srcs: Vec<usize> = Vec::new();
        for (src, v) in rel.schema().iter().enumerate() {
            let dst = schema.iter().position(|s| s == v).expect("schema union");
            if key_cols.contains(&dst) {
                continue;
            }
            assert!(
                !provided[dst],
                "factorized join inputs must share only join attributes (duplicate {v})"
            );
            provided[dst] = true;
            dst_cols.push(dst);
            srcs.push(src);
        }
        run_inputs.push(RunInput {
            dst_cols,
            payload: Vec::new(),
            offsets: vec![0],
        });
        src_cols.push(srcs);
    }

    let views: Vec<InputView<'_>> = inputs
        .iter()
        .map(|rel| InputView::new(rel, attributes))
        .collect();
    let mut keys: Vec<TermId> = Vec::new();
    let mut expanded_rows = 0usize;
    let runs = merge_key_groups(&views, |cursors, ends| {
        // The aligned group's key tuple, read from the first input's
        // contiguous key chunk.
        for k in 0..views[0].key_arity() {
            keys.push(views[0].key(k, cursors[0]));
        }
        let mut combinations = 1usize;
        for (i, view) in views.iter().enumerate() {
            let input = &mut run_inputs[i];
            for pos in cursors[i]..ends[i] {
                let row = view.row(pos);
                for &src in &src_cols[i] {
                    input.payload.push(row[src]);
                }
            }
            let group = ends[i] - cursors[i];
            combinations *= group;
            let taken = *input.offsets.last().expect("seeded offsets") as usize;
            input.offsets.push(row_offset(taken + group));
        }
        expanded_rows += combinations;
    });
    // The factorized join *is* the join at the accounting level: it reports
    // the logical output volume (what an expansion materializes), so
    // throughput metrics stay comparable with the eager path, plus the run
    // count that makes output-sublinearity measurable.
    stats::count_runs(runs as u64);
    stats::count_join(expanded_rows as u64, runs as u64);
    let held = keys.len() + run_inputs.iter().map(|i| i.payload.len()).sum::<usize>();
    stats::note_intermediate(runs as u64, (held * TERM_BYTES) as u64);
    RunsRelation {
        schema,
        key_cols,
        delivered: delivered.to_vec(),
        keys,
        inputs: run_inputs,
        runs,
        expanded_rows,
    }
}

impl RunsRelation {
    /// The full (eager-equivalent) output schema.
    pub fn schema(&self) -> &[Variable] {
        &self.schema
    }

    /// Number of runs (aligned key groups) held.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Number of rows an expansion materializes.
    pub fn expanded_len(&self) -> usize {
        self.expanded_rows
    }

    /// Materializes the full-width eager join output, bit-identical to
    /// [`Relation::join`] with the same `delivered`: runs
    /// expand in key order as cross products nested in input order (exactly
    /// the eager emitter's order), the natural key order is claimed, and the
    /// delivered order is re-established with the same sort-elision path the
    /// eager join's finalize step takes.
    pub fn expand(&self) -> Relation {
        let writes: Vec<Vec<(usize, usize)>> = self
            .inputs
            .iter()
            .map(|input| input.dst_cols.iter().copied().enumerate().collect())
            .collect();
        let key_writes: Vec<(usize, usize)> = self.key_cols.iter().copied().enumerate().collect();
        let out = self.expand_with(
            self.schema.clone(),
            &key_writes,
            &writes,
            SortOrder::by(self.key_cols.iter().copied()),
        );
        debug_assert_eq!(out.len(), self.expanded_rows);
        out
    }

    /// Expands directly into the projected arity: payload values are written
    /// straight into projected rows, so the full-width join output is never
    /// materialized. Inputs none of whose columns survive the projection
    /// still multiply the emission by their group sizes (projection keeps
    /// multiplicities). The result carries the same row multiset as
    /// `self.expand().project(variables)`.
    pub fn project_expand(&self, variables: &[Variable]) -> Relation {
        let Projection {
            kept,
            key_writes,
            writes,
        } = self.projection(variables);
        // Runs expand in ascending key order, so the output is sorted by the
        // longest *prefix* of the key attribute sequence that survives the
        // projection (a dropped key column breaks ties the output can no
        // longer see — same reasoning as Relation::project).
        let mut order_cols: Vec<usize> = Vec::new();
        for k in 0..self.key_cols.len() {
            match key_writes.iter().find(|&&(kw, _)| kw == k) {
                Some(&(_, dst)) => order_cols.push(dst),
                None => break,
            }
        }
        self.expand_with(kept, &key_writes, &writes, SortOrder::by(order_cols))
    }

    /// Where each column of a projection onto `variables` comes from: a key
    /// slot or one input's payload column.
    fn projection(&self, variables: &[Variable]) -> Projection {
        let kept: Vec<Variable> = variables
            .iter()
            .filter(|v| self.schema.contains(v))
            .cloned()
            .collect();
        let mut key_writes: Vec<(usize, usize)> = Vec::new();
        let mut writes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.inputs.len()];
        for (dst, v) in kept.iter().enumerate() {
            let full = self
                .schema
                .iter()
                .position(|s| s == v)
                .expect("kept column in full schema");
            if let Some(k) = self.key_cols.iter().position(|&c| c == full) {
                key_writes.push((k, dst));
            } else {
                let (i, src) = self
                    .inputs
                    .iter()
                    .enumerate()
                    .find_map(|(i, input)| {
                        input
                            .dst_cols
                            .iter()
                            .position(|&c| c == full)
                            .map(|src| (i, src))
                    })
                    .expect("non-key column has exactly one providing input");
                writes[i].push((src, dst));
            }
        }
        Projection {
            kept,
            key_writes,
            writes,
        }
    }

    /// The **distinct** projection of the runs onto `variables`, counted on
    /// the factorized form and expanded only as far as its first `k` rows
    /// in canonical order: `O(Σ |group|)` plus the ≈ `k` rows of the head,
    /// never `O(Π |group|)`.
    ///
    /// * **Count.** Within a run the distinct projected rows are the cross
    ///   product of each input's distinct kept payload rows
    ///   (`RunInput::project_distinct` — checked per group, so nothing
    ///   here relies on the join inputs being sets; a graph may hold a
    ///   triple twice). Runs contribute disjoint rows when every join
    ///   attribute is kept; when one is dropped they still do if some kept
    ///   payload column holds no value in two runs, which is verified on
    ///   that column alone — stopping at the first repeat — and handed back
    ///   as [`BoundedProjection::witness`]. Otherwise rows can repeat
    ///   across runs, nothing short of the expansion counts them, and the
    ///   result is `None` (as it is for a projection that keeps no column).
    /// * **Head.** Canonical order leads with the first kept column. Every
    ///   value of that column is paired with the number of distinct rows
    ///   carrying it, the pairs go through the sort kernel, and the prefix
    ///   sums give the smallest value `t` whose rows, with everything below
    ///   it, cover `k`. Only the rows with a leading value `≤ t` are
    ///   expanded, sorted and cut to `k`. There is one level only: a single
    ///   leading value carrying most of the rows expands them all — the
    ///   cost of [`project_expand`](Self::project_expand), not a wrong
    ///   answer.
    pub fn project_bounded(&self, variables: &[Variable], k: usize) -> Option<BoundedProjection> {
        let projection = self.projection(variables);
        if projection.kept.is_empty() {
            return None;
        }
        // Decline before anything is copied: a projection that cannot be
        // counted costs a scan that stops at the first repeat.
        let keys_kept = (0..self.key_cols.len())
            .all(|slot| projection.key_writes.iter().any(|&(k, _)| k == slot));
        let witness = if keys_kept || self.runs == 0 {
            None
        } else {
            Some(self.witness(&projection, 0)?)
        };
        let inputs = (self.inputs.iter().zip(&projection.writes))
            .map(|(input, writes)| input.project_distinct(writes, self.runs))
            .collect();
        let distinct = self.derived(self.keys.clone(), inputs);
        let count = distinct.expanded_rows;
        let head_runs = if count > k {
            distinct.head_runs(&projection, k)
        } else {
            distinct
        };
        let mut head = head_runs.project_expand(variables);
        head.canonicalize();
        debug_assert_eq!(head.distinct_len(), head.len(), "the head repeats a row");
        head.truncate(k);
        Some(BoundedProjection {
            head,
            count,
            runs_expanded: head_runs.runs,
            witness,
        })
    }

    /// Runs derived from these — some of their keys, with inputs reduced
    /// to some of their columns and rows: same schema and key columns (of
    /// which only what the inputs still provide can be projected), no
    /// delivered order to re-establish, `expanded_rows` from the groups.
    fn derived(&self, keys: Vec<TermId>, inputs: Vec<RunInput>) -> RunsRelation {
        let runs = inputs[0].offsets.len() - 1;
        let expanded_rows = (0..runs)
            .map(|run| {
                let groups = inputs.iter().map(|input| input.group(run).len());
                groups.product::<usize>()
            })
            .sum();
        RunsRelation {
            schema: self.schema.clone(),
            key_cols: self.key_cols.clone(),
            delivered: Vec::new(),
            keys,
            inputs,
            runs,
            expanded_rows,
        }
    }

    /// The first projected column onto `variables` from column `from` on
    /// that vouches for these runs, as [`BoundedProjection::witness`]
    /// names one; `None` when no such column does.
    pub fn witness_from(&self, variables: &[Variable], from: usize) -> Option<(usize, Relation)> {
        self.witness(&self.projection(variables), from)
    }

    /// The first kept payload column from projected column `from` on, in
    /// column order — the same order in every part — none of whose values
    /// occurs in two runs, as `(projected column, its distinct values in
    /// ascending order)`. Rows of different runs then differ in that column.
    fn witness(&self, projection: &Projection, from: usize) -> Option<(usize, Relation)> {
        let mut candidates: Vec<(usize, usize, usize)> = (projection.writes.iter().enumerate())
            .flat_map(|(i, writes)| writes.iter().map(move |&(src, dst)| (i, src, dst)))
            .filter(|&(.., dst)| dst >= from)
            .collect();
        candidates.sort_unstable_by_key(|&(.., dst)| dst);
        candidates.into_iter().find_map(|(i, src, dst)| {
            let values = self.inputs[i].column_unless_repeated(src, self.runs)?;
            let rows = values.len();
            let schema = vec![projection.kept[dst].clone()];
            let values = Relation::from_raw(schema, values, rows, SortOrder::none());
            // What is left to drop are repeats within a run.
            Some((dst, values.distinct()))
        })
    }

    /// On a distinct projection whose rows are disjoint across runs: the
    /// runs restricted to the rows whose leading projected column is at
    /// most the threshold that covers `k` rows.
    fn head_runs(&self, projection: &Projection, k: usize) -> RunsRelation {
        let key_arity = self.key_cols.len();
        let key_of = |run: usize| &self.keys[run * key_arity..(run + 1) * key_arity];
        let lead = match projection.key_writes.iter().find(|&&(_, dst)| dst == 0) {
            Some(&(slot, _)) => Lead::Key(slot),
            None => (projection.writes.iter().enumerate())
                .find_map(|(i, writes)| {
                    let col = writes.iter().position(|&(_, dst)| dst == 0)?;
                    Some(Lead::Payload(i, col))
                })
                .expect("the leading column has a source"),
        };
        // The leading value of row `row` of input `i`, if that is where the
        // leading column comes from.
        let lead_of = |i: usize, row: usize| match lead {
            Lead::Payload(input, col) if input == i => {
                Some(self.inputs[i].payload[row * self.inputs[i].dst_cols.len() + col])
            }
            _ => None,
        };

        // Every leading value beside the distinct rows that carry it.
        let mut values: Vec<TermId> = Vec::new();
        let mut weights: Vec<usize> = Vec::new();
        for run in 0..self.runs {
            let groups = self.inputs.iter().map(|input| input.group(run).len());
            let rows: usize = groups.product();
            match lead {
                Lead::Key(slot) => {
                    values.push(key_of(run)[slot]);
                    weights.push(rows);
                }
                Lead::Payload(i, _) => {
                    let group = self.inputs[i].group(run);
                    weights.extend(group.clone().map(|_| rows / group.len()));
                    values.extend(group.filter_map(|row| lead_of(i, row)));
                }
            }
        }
        let ascending = KeyChunk::gather(&values, 1, &[0], values.len()).sorted_permutation();
        let mut covered = 0usize;
        let mut threshold = TermId(u32::MAX);
        for position in ascending {
            covered += weights[position as usize];
            if covered >= k {
                threshold = values[position as usize];
                break;
            }
        }

        let within = |i: usize, row: usize| lead_of(i, row).is_none_or(|value| value <= threshold);
        let mut keys: Vec<TermId> = Vec::new();
        let mut inputs: Vec<RunInput> = (self.inputs.iter())
            .map(|input| RunInput {
                dst_cols: input.dst_cols.clone(),
                payload: Vec::new(),
                offsets: vec![0],
            })
            .collect();
        for run in 0..self.runs {
            let run_within = match lead {
                Lead::Key(slot) => key_of(run)[slot] <= threshold,
                Lead::Payload(i, _) => self.inputs[i].group(run).any(|row| within(i, row)),
            };
            if !run_within {
                continue;
            }
            keys.extend_from_slice(key_of(run));
            for (i, (from, to)) in self.inputs.iter().zip(&mut inputs).enumerate() {
                let width = from.dst_cols.len();
                let mut rows = *to.offsets.last().expect("seeded offsets");
                for row in from.group(run).filter(|&row| within(i, row)) {
                    to.payload
                        .extend_from_slice(&from.payload[row * width..(row + 1) * width]);
                    rows += 1;
                }
                to.offsets.push(rows);
            }
        }
        self.derived(keys, inputs)
    }

    /// Shared expansion loop: writes `key_writes` once per run and the cross
    /// product of the per-input payload rows through `writes`, claiming
    /// `order` on the raw buffer and then re-establishing the delivered
    /// order (restricted to the surviving columns).
    fn expand_with(
        &self,
        schema: Vec<Variable>,
        key_writes: &[(usize, usize)],
        writes: &[Vec<(usize, usize)>],
        order: SortOrder,
    ) -> Relation {
        let arity = schema.len();
        let mut data: Vec<TermId> = Vec::with_capacity(self.expanded_rows * arity);
        let mut scratch: Vec<TermId> = vec![TermId(0); arity];
        let mut rows = 0usize;
        let key_arity = self.key_cols.len();
        for run in 0..self.runs {
            for &(k, dst) in key_writes {
                scratch[dst] = self.keys[run * key_arity + k];
            }
            self.emit_run(run, 0, writes, &mut scratch, &mut data, &mut rows);
        }
        let mut out = Relation::from_raw(schema, data, rows, order);
        // Re-establish the order the plan asked the join to deliver, by the
        // columns [`Relation::join`] sorts by (elided when the emission
        // order already satisfies them, as the eager join elides it).
        let delivered_cols: Vec<usize> = self
            .delivered
            .iter()
            .filter_map(|v| out.column(v))
            .collect();
        if !delivered_cols.is_empty() {
            out.sort_by_columns(&delivered_cols);
        }
        stats::count_expanded(rows as u64);
        stats::note_intermediate(rows as u64, (out.data().len() * TERM_BYTES) as u64);
        out
    }

    /// Recursive cross-product emitter over the per-input payload ranges of
    /// one run, writing into the single reused scratch row.
    fn emit_run(
        &self,
        run: usize,
        depth: usize,
        writes: &[Vec<(usize, usize)>],
        scratch: &mut Vec<TermId>,
        data: &mut Vec<TermId>,
        rows: &mut usize,
    ) {
        if depth == self.inputs.len() {
            data.extend_from_slice(scratch);
            *rows += 1;
            return;
        }
        let input = &self.inputs[depth];
        let pay = input.dst_cols.len();
        let start = input.offsets[run] as usize;
        let end = input.offsets[run + 1] as usize;
        for pos in start..end {
            for &(src, dst) in &writes[depth] {
                scratch[dst] = input.payload[pos * pay + src];
            }
            self.emit_run(run, depth + 1, writes, scratch, data, rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Variable {
        Variable::new(name)
    }

    fn rel(names: &[&str], rows: &[&[u32]]) -> Relation {
        let schema: Vec<Variable> = names.iter().map(|n| var(n)).collect();
        let mut r = Relation::empty(schema);
        for row in rows {
            let ids: Vec<TermId> = row.iter().map(|&v| TermId(v)).collect();
            r.push_row(&ids);
        }
        r.canonicalize();
        r
    }

    #[test]
    fn star_join_runs_stay_sublinear_in_the_output() {
        // 3 spokes of 4 rows each on 2 keys: 2 runs, 2 * 4^3 / 4 … the point
        // is runs << expanded rows.
        let mk = |payload: &str| {
            let rows: Vec<Vec<u32>> = (0..8u32).map(|i| vec![i % 2, 100 + i]).collect();
            let slices: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
            rel(&["x", payload], &slices)
        };
        let (a, b, c) = (mk("a"), mk("b"), mk("c"));
        let attrs = [var("x")];
        stats::reset();
        let runs = join_runs(&[&a, &b, &c], &attrs, &[]);
        assert_eq!(runs.runs(), 2);
        assert_eq!(runs.expanded_len(), 2 * 4 * 4 * 4);
        let after = stats::snapshot();
        assert_eq!(after.runs_emitted, 2);
        assert_eq!(after.join_rows_out, 128);
        assert!(after.runs_emitted < runs.expanded_len() as u64);
    }

    #[test]
    fn project_expand_matches_expand_then_project() {
        let a = rel(&["x", "a"], &[&[1, 10], &[1, 11], &[2, 12]]);
        let b = rel(&["x", "b"], &[&[1, 20], &[1, 21], &[2, 22]]);
        let attrs = [var("x")];
        let runs = join_runs(&[&a, &b], &attrs, &[var("x"), var("a")]);
        for projection in [
            vec![var("x"), var("a"), var("b")],
            vec![var("a"), var("b")],
            vec![var("b")],
            vec![var("x")],
        ] {
            let direct = runs.project_expand(&projection).sorted();
            let via_full = runs.expand().project(&projection).sorted();
            assert_eq!(direct, via_full, "projection {projection:?}");
        }
    }

    #[test]
    fn rows_expanded_counts_materialized_rows() {
        let a = rel(&["x", "a"], &[&[1, 10], &[1, 11]]);
        let b = rel(&["x", "b"], &[&[1, 20], &[1, 21]]);
        let runs = join_runs(&[&a, &b], &[var("x")], &[]);
        stats::reset();
        let expanded = runs.project_expand(&[var("a"), var("b")]);
        assert_eq!(expanded.len(), 4);
        assert_eq!(stats::snapshot().rows_expanded, 4);
    }

    #[test]
    #[should_panic(expected = "share only join attributes")]
    fn shared_non_join_attributes_are_rejected() {
        let a = rel(&["x", "s"], &[&[1, 10]]);
        let b = rel(&["x", "s"], &[&[1, 10]]);
        join_runs(&[&a, &b], &[var("x")], &[]);
    }
}
