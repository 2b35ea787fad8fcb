//! Step 3 — abundance estimation support (§4.4), as cost-aware partition →
//! map → incremental reduce over the candidate species.
//!
//! For applications that need relative abundances, MegIS prepares the data a
//! read mapper needs: a *unified* reference index over the candidate species
//! identified in Step 2, generated inside the SSD by sequentially merging the
//! candidates' sorted per-species indexes (Fig. 9), then handed — together
//! with the reads — to a mapping accelerator. Every index here is flat
//! (sorted seed column, `u32` offsets, one location arena) and every merge
//! is the one forward k-way merge of [`megis_genomics::database`], so the
//! stage consumes its inputs at streaming cost and a finished
//! [`Step3Output`] owns a fixed handful of allocations, not one per seed.
//!
//! On a device array the stage shards: the candidate list is split into
//! contiguous ranges of near-equal *modeled work* ([`partition_candidates`],
//! cutting the ascending-taxid candidate order at the crossings of a
//! per-candidate cost prefix sum — [`candidate_cost`]: index stream bytes
//! plus expected mapping work — rather than at equal candidate counts,
//! because candidate index sizes are skewed and an equal-count split lets
//! one oversized range gate the whole array), each device merges its range
//! into a [`PartialUnifiedIndex`] and maps every read against it
//! ([`run_partial`]), and a reduce step recombines the partial indexes
//! byte-identically, resolves reads that hit candidates on several devices
//! by the best-hit rule of [`UnifiedReferenceIndex::map_read`], and
//! accumulates the abundance profile. The reduce is *incremental*
//! ([`IncrementalReduce`]): partials fold in as they arrive — consecutive
//! partial indexes through [`PartialUnifiedIndex::absorb`], best hits
//! through a commutative maximum into a dense per-read table — so a
//! completer never barriers on the full partial set; the batch-shaped
//! [`reduce`] is the same fold driven in one call.
//!
//! The decomposition is *exact*, not approximate:
//!
//! * the folded unified index equals the one-pass merge (`absorb`,
//!   `merge_partials` and `merge_range` are the same k-way merge; offsets
//!   and location orders survive because the ranges are consecutive),
//! * a candidate lives on exactly one device, so per-device vote counts are
//!   global vote counts and the max-of-maxes under `(votes,
//!   smallest-taxid)` — an order-insensitive fold — is the global best hit,
//!   with the [`MIN_MAPPING_VOTES`] threshold applied to the winner when the
//!   reduce finishes,
//! * abundance counts group by a deterministic sort + run-length pass
//!   ([`AbundanceAccumulator`]), fed in read order.
//!
//! [`run`] is the sequential oracle (one merge, one mapper): the seeded
//! property suites assert that partition → [`run_partial`] → [`reduce`] at
//! any shard count reproduces it byte for byte, and that the cost-aware cuts
//! bound every part's modeled cost by `total/parts` plus one candidate.
//! Lightweight statistical estimators ([`statistical_abundance`]) can
//! instead run directly on Step 2's output.

use std::collections::HashMap;
use std::ops::Range;

use megis_genomics::database::{
    PartialUnifiedIndex, ReferenceIndex, UnifiedReferenceIndex, MIN_MAPPING_VOTES,
};
use megis_genomics::profile::{AbundanceAccumulator, AbundanceProfile, PresenceResult};
use megis_genomics::read::ReadSet;
use megis_genomics::reference::ReferenceCollection;
use megis_genomics::taxonomy::TaxId;

/// Output of Step 3.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Step3Output {
    /// The unified index generated for the candidate species.
    pub unified_index: UnifiedReferenceIndex,
    /// Mapping-based abundance estimate.
    pub abundance: AbundanceProfile,
    /// Number of reads that mapped to some candidate species.
    pub mapped_reads: u64,
}

/// One contiguous range of the candidate list assigned to a device for
/// partitioned Step 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidatePart {
    /// The range of candidate positions (indices into the candidate list).
    pub range: Range<usize>,
    /// Concatenated-reference-space offset where the range begins: the sum
    /// of the genome lengths of every earlier candidate.
    pub base_offset: u64,
    /// Modeled work of the range: the sum of [`candidate_cost`] over its
    /// candidates. The scheduler uses it to make simulated device service
    /// time proportional to assigned work, and tests bound the spread
    /// across parts.
    pub cost: u64,
}

impl CandidatePart {
    /// Returns `true` if the part covers no candidates (a padding part for
    /// devices beyond the candidate count).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// One read's best-supported hit within one candidate partition, before the
/// mapping-vote threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialReadHit {
    /// Index of the read within the sample's read set.
    pub read: usize,
    /// The partition's best-supported candidate for the read.
    pub taxid: TaxId,
    /// Seed votes supporting it (equal to the *global* vote count, since a
    /// candidate lives in exactly one partition).
    pub votes: u32,
}

/// Per-device output of partitioned Step 3: the partial unified index over
/// the device's candidate range plus the best hit of every read that hit
/// the range at all.
#[derive(Debug, Clone, Default)]
pub struct Step3Partial {
    /// The partial unified index merged on this device.
    pub index: PartialUnifiedIndex,
    /// Per-read best hits against this device's candidates, in read order.
    pub hits: Vec<PartialReadHit>,
}

/// Modeled Step 3 work of one candidate: the bytes its per-species index
/// streams off the device ([`ReferenceIndex::encoded_bytes`] — the dominant
/// in-SSD term of Fig. 9's sequential merge) plus the expected mapping work
/// it adds (proportional to its genome length: seed hits, and therefore
/// vote-counting work, scale with the indexed bases). Clamped to at least 1
/// so even a degenerate empty index advances the partition cuts.
pub fn candidate_cost(index: &ReferenceIndex) -> u64 {
    (index.encoded_bytes() + index.genome_len() as u64).max(1)
}

/// Splits a candidate list into `parts` contiguous ranges of near-equal
/// *modeled work* — the deterministic device assignment of partitioned
/// Step 3. Cut `i` (for `i = 1..parts`) falls on the candidate boundary
/// whose [`candidate_cost`] prefix sum is nearest `i·total/parts`, so every
/// part's cost is at most `total/parts` plus one candidate's cost — unlike
/// an equal-count split, which lets a run of oversized candidate indexes
/// pile onto one device and gate the reduce. The candidate list must be in
/// the order the unified index is merged in (ascending taxid for candidates
/// filtered from a reference collection), so each part is a contiguous
/// taxid range; parts beyond what the work supports come back empty (a
/// single dominant candidate can leave empty parts mid-sequence too —
/// consecutive cuts land on the same boundary).
///
/// Each part carries the `base_offset` its partial index starts at, so the
/// parts compose: `base_offset` of part `i + 1` equals part `i`'s base plus
/// its candidates' total genome length, and the recombined index is
/// byte-identical to the one-pass merge.
///
/// # Panics
///
/// Panics if `parts` is zero.
pub fn partition_candidates(candidates: &[&ReferenceIndex], parts: usize) -> Vec<CandidatePart> {
    assert!(parts > 0, "parts must be positive");
    let mut prefix = Vec::with_capacity(candidates.len() + 1);
    prefix.push(0u64);
    for c in candidates {
        prefix.push(prefix.last().unwrap() + candidate_cost(c));
    }
    let total = *prefix.last().unwrap();
    // Cut points into the candidate list: cuts[0] = 0, cuts[parts] = len,
    // and cut k is the boundary nearest the k-th equal-work target. The
    // targets ascend, so nearest-boundary cuts are monotone and the ranges
    // tile the list exactly once (the clamp is a belt-and-braces guard).
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0usize);
    for k in 1..parts {
        let target = (total as u128 * k as u128 / parts as u128) as u64;
        let mut cut = prefix.partition_point(|&p| p < target);
        if cut > 0 && cut < prefix.len() && target - prefix[cut - 1] < prefix[cut] - target {
            cut -= 1;
        }
        cuts.push(cut.clamp(*cuts.last().unwrap(), candidates.len()));
    }
    cuts.push(candidates.len());
    let mut out = Vec::with_capacity(parts);
    let mut base = 0u64;
    for w in cuts.windows(2) {
        let (start, end) = (w[0], w[1]);
        out.push(CandidatePart {
            range: start..end,
            base_offset: base,
            cost: prefix[end] - prefix[start],
        });
        base += candidates[start..end]
            .iter()
            .map(|c| c.genome_len() as u64)
            .sum::<u64>();
    }
    out
}

/// Builds per-species reference indexes for the given candidates.
///
/// Index construction for individual species is a one-time offline task
/// (§4.4); this helper exists so tests and examples can produce them from a
/// synthetic reference collection. The analyzer builds its indexes once at
/// construction and borrows them per sample (see
/// [`crate::MegisAnalyzer::candidate_indexes`]).
pub fn build_candidate_indexes(
    references: &ReferenceCollection,
    candidates: &PresenceResult,
    seed_k: usize,
) -> Vec<ReferenceIndex> {
    references
        .genomes()
        .iter()
        .filter(|g| candidates.contains(g.taxid()))
        .map(|g| ReferenceIndex::build(g, seed_k))
        .collect()
}

/// Runs one device's share of partitioned Step 3: merge the candidate range
/// (starting at `base_offset` in the concatenated reference space) into a
/// partial unified index, then map every read against it, recording each
/// read's best pre-threshold hit.
pub fn run_partial(
    reads: &ReadSet,
    candidates: &[&ReferenceIndex],
    base_offset: u64,
    mapping_k: usize,
) -> Step3Partial {
    let index = PartialUnifiedIndex::merge_range(candidates, base_offset);
    let mut hits = Vec::new();
    for (read_index, read) in reads.iter().enumerate() {
        if let Some(hit) = index.index().map_read_hit(read, mapping_k) {
            hits.push(PartialReadHit {
                read: read_index,
                taxid: hit.taxid,
                votes: hit.votes,
            });
        }
    }
    Step3Partial { index, hits }
}

/// Incremental Step 3 reduce: folds per-device partials in *as they
/// arrive*, in any arrival order, instead of barriering on the full set.
///
/// A completer reaping out-of-order device completions calls
/// [`IncrementalReduce::offer`] with each partial's *part position* (its
/// index in the [`partition_candidates`] output). Two folds run eagerly:
///
/// * **index fold** — partial indexes must recombine in part order, so the
///   reducer holds out-of-order arrivals and absorbs the contiguous ready
///   prefix through [`PartialUnifiedIndex::absorb`] (byte-identical to
///   [`UnifiedReferenceIndex::merge_partials`] by the genomics parity suite);
/// * **hit fold** — per-read best hits reduce by a commutative maximum
///   under `(votes, smallest-taxid)` into a table indexed by read: arrival
///   order cannot matter and the completer hashes nothing per hit.
///
/// Positions whose part was empty (never dispatched as a command) are
/// declared up front via the `expected` mask; the reducer skips over them.
/// [`IncrementalReduce::finish`] applies the [`MIN_MAPPING_VOTES`]
/// threshold to each read's winner and accumulates the abundance profile —
/// the only work left after the last partial arrives, which is what pulls
/// the traced `reduce_barrier` segment toward zero.
#[derive(Debug, Default)]
pub struct IncrementalReduce {
    expected: Vec<bool>,
    held: Vec<Option<PartialUnifiedIndex>>,
    cursor: usize,
    folded: Option<PartialUnifiedIndex>,
    /// Best `(votes, taxid)` so far per read index; zero votes: no hit yet.
    best: Vec<(u32, TaxId)>,
}

impl IncrementalReduce {
    /// Creates a reducer over `expected.len()` part positions; position `i`
    /// is awaited iff `expected[i]` (empty parts are never dispatched, so a
    /// completer marks them unexpected).
    pub fn new(expected: Vec<bool>) -> IncrementalReduce {
        let mut reducer = IncrementalReduce {
            held: vec![None; expected.len()],
            expected,
            cursor: 0,
            folded: None,
            best: Vec::new(),
        };
        reducer.drain_ready();
        reducer
    }

    /// Offers the partial produced by part `position`. Hits fold
    /// immediately; the partial index folds as soon as every earlier
    /// expected position has arrived.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range, was not expected, or was
    /// already offered.
    pub fn offer(&mut self, position: usize, partial: Step3Partial) {
        assert!(
            self.expected.get(position).copied().unwrap_or(false),
            "position {position} was not expected"
        );
        for hit in &partial.hits {
            if hit.read >= self.best.len() {
                self.best.resize(hit.read + 1, (0, TaxId(u32::MAX)));
            }
            let best = &mut self.best[hit.read];
            if hit.votes > best.0 || (hit.votes == best.0 && hit.taxid < best.1) {
                *best = (hit.votes, hit.taxid);
            }
        }
        assert!(
            self.held[position].replace(partial.index).is_none(),
            "position {position} offered twice"
        );
        self.drain_ready();
    }

    /// Absorbs the contiguous ready prefix of held partial indexes.
    fn drain_ready(&mut self) {
        while self.cursor < self.expected.len() {
            if !self.expected[self.cursor] {
                self.cursor += 1;
                continue;
            }
            let Some(partial) = self.held[self.cursor].take() else {
                break;
            };
            match self.folded.as_mut() {
                Some(folded) => folded.absorb(partial),
                None => self.folded = Some(partial),
            }
            self.cursor += 1;
        }
    }

    /// `true` once every expected partial has arrived and folded.
    pub fn is_complete(&self) -> bool {
        self.cursor == self.expected.len()
    }

    /// Number of part positions whose index has folded in so far.
    pub fn folded_parts(&self) -> usize {
        self.cursor
    }

    /// Finishes the reduce: threshold each read's winner, accumulate the
    /// abundance profile, and hand out the recombined unified index.
    ///
    /// # Panics
    ///
    /// Panics if an expected partial has not been offered.
    pub fn finish(self) -> Step3Output {
        assert!(
            self.is_complete(),
            "finish called with partials outstanding"
        );
        let unified_index = self
            .folded
            .map(PartialUnifiedIndex::into_index)
            .unwrap_or_default();
        let mut counts = AbundanceAccumulator::new();
        let mut mapped_reads = 0u64;
        for (votes, taxid) in &self.best {
            if *votes >= MIN_MAPPING_VOTES {
                counts.record(*taxid);
                mapped_reads += 1;
            }
        }
        Step3Output {
            unified_index,
            abundance: counts.finish(),
            mapped_reads,
        }
    }
}

/// Recombines per-device partials (in candidate-range order) into the full
/// Step 3 output: merge the partial indexes byte-identically, resolve each
/// read's winner across devices by the same `(votes, smallest-taxid)`
/// best-hit rule as [`UnifiedReferenceIndex::map_read`], apply the
/// mapping-vote threshold to the winner, and accumulate the abundance
/// profile with a deterministic sort + run-length group.
///
/// This is the batch-shaped entry point: it drives the same
/// [`IncrementalReduce`] fold the streaming completer uses, so the two
/// paths cannot drift apart.
pub fn reduce(partials: Vec<Step3Partial>) -> Step3Output {
    let mut reducer = IncrementalReduce::new(vec![true; partials.len()]);
    for (position, partial) in partials.into_iter().enumerate() {
        reducer.offer(position, partial);
    }
    reducer.finish()
}

/// Runs partitioned Step 3 end to end: [`partition_candidates`] →
/// [`run_partial`] per part → [`reduce`]. With `parts == 1` this is the
/// composition the analyzer's sequential path uses; the output is
/// byte-identical to [`run`] for every `parts` (asserted by the seeded
/// property suite).
///
/// # Panics
///
/// Panics if `parts` is zero.
pub fn run_partitioned(
    reads: &ReadSet,
    candidates: &[&ReferenceIndex],
    parts: usize,
    mapping_k: usize,
) -> Step3Output {
    let partials = partition_candidates(candidates, parts)
        .into_iter()
        .map(|part| run_partial(reads, &candidates[part.range], part.base_offset, mapping_k))
        .collect();
    reduce(partials)
}

/// Runs Step 3 sequentially: one unified-index merge followed by one
/// mapping pass. This is the *oracle* the partitioned path is verified
/// against — it never goes through partition/reduce, so a regression in
/// either shows up as a divergence.
pub fn run(reads: &ReadSet, candidate_indexes: &[ReferenceIndex], mapping_k: usize) -> Step3Output {
    let unified_index = UnifiedReferenceIndex::merge(candidate_indexes);
    let mut counts = AbundanceAccumulator::new();
    let mut mapped_reads = 0;
    for read in reads.iter() {
        if let Some(taxid) = unified_index.map_read(read, mapping_k) {
            counts.record(taxid);
            mapped_reads += 1;
        }
    }
    Step3Output {
        unified_index,
        abundance: counts.finish(),
        mapped_reads,
    }
}

/// Lightweight statistical abundance estimation directly from sketch-match
/// support counts (the alternative integration path of §4.4 for tools that do
/// not require read mapping).
pub fn statistical_abundance(support: &HashMap<TaxId, u32>) -> AbundanceProfile {
    AbundanceProfile::from_counts(support.iter().map(|(t, c)| (*t, *c as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::metrics::AbundanceError;
    use megis_genomics::sample::{CommunityConfig, Diversity};

    fn community() -> megis_genomics::sample::Community {
        CommunityConfig::preset(Diversity::Medium)
            .with_reads(400)
            .with_species(4)
            .with_database_species(16)
            .build(55)
    }

    #[test]
    fn unified_index_covers_all_candidates() {
        let c = community();
        let truth = c.truth_presence();
        let indexes = build_candidate_indexes(c.references(), &truth, 15);
        assert_eq!(indexes.len(), truth.len());
        let unified = UnifiedReferenceIndex::merge(&indexes);
        assert_eq!(unified.offsets().len(), truth.len());
    }

    #[test]
    fn mapping_based_abundance_tracks_truth() {
        let c = community();
        let truth = c.truth_presence();
        let indexes = build_candidate_indexes(c.references(), &truth, 15);
        let out = run(c.sample().reads(), &indexes, 15);
        assert!(out.mapped_reads > (c.sample().len() as u64) / 2);
        let err = AbundanceError::score(&out.abundance, c.truth_profile());
        assert!(err.l1_norm < 0.6, "L1 error {}", err.l1_norm);
    }

    #[test]
    fn statistical_abundance_normalizes_support() {
        let mut support = HashMap::new();
        support.insert(TaxId(1), 30u32);
        support.insert(TaxId(2), 10u32);
        let profile = statistical_abundance(&support);
        assert!((profile.abundance(TaxId(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_candidates_give_empty_output() {
        let c = community();
        let out = run(c.sample().reads(), &[], 15);
        assert!(out.abundance.is_empty());
        assert_eq!(out.mapped_reads, 0);
        // The partitioned path degrades identically: padding-only parts.
        for parts in [1usize, 3, 8] {
            assert_eq!(run_partitioned(c.sample().reads(), &[], parts, 15), out);
        }
    }

    /// Deterministic skewed candidate fixture: per-genome lengths differ by
    /// up to ~40×, so index stream bytes and mapping work are heavily
    /// skewed — the regime where an equal-count split cliffs. Returns the
    /// per-species indexes plus reads sampled *from* the genomes, so
    /// mapping exercises every candidate (including the oversized ones).
    fn skewed_fixture(
        lens: &[usize],
        seed: u64,
    ) -> (Vec<ReferenceIndex>, megis_genomics::read::ReadSet) {
        use megis_genomics::dna::{Base, PackedSequence};
        use megis_genomics::read::{Read, ReadSet};
        use megis_genomics::reference::ReferenceGenome;
        let mut state = seed | 1;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut indexes = Vec::with_capacity(lens.len());
        let mut reads = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let bases: Vec<Base> = (0..len)
                .map(|_| Base::from_code((step() & 3) as u8))
                .collect();
            for r in 0..8 {
                let start = step() % (len - 60).max(1);
                reads.push(Read::new(
                    format!("r{i}-{r}"),
                    PackedSequence::from_bases(bases[start..start + 60].iter().copied()),
                ));
            }
            let genome = ReferenceGenome::new(
                TaxId(100 + i as u32),
                format!("skew-{i}"),
                PackedSequence::from_bases(bases),
            );
            indexes.push(ReferenceIndex::build(&genome, 15));
        }
        (indexes, ReadSet::from_reads(reads))
    }

    fn assert_partition_invariants(partition: &[CandidatePart], refs: &[&ReferenceIndex]) {
        let parts = partition.len();
        // Contiguous cover: ranges abut, start at 0, end at the count — so
        // every candidate lands in exactly one part.
        assert_eq!(partition[0].range.start, 0);
        assert_eq!(partition[parts - 1].range.end, refs.len());
        assert_eq!(partition[0].base_offset, 0);
        for w in partition.windows(2) {
            assert_eq!(w[0].range.end, w[1].range.start);
            let span: u64 = refs[w[0].range.clone()]
                .iter()
                .map(|r| r.genome_len() as u64)
                .sum();
            assert_eq!(w[1].base_offset, w[0].base_offset + span);
        }
        // Part costs are the modeled per-candidate costs of the range, and
        // no part exceeds the equal-work share by more than one candidate.
        let costs: Vec<u64> = refs.iter().map(|r| candidate_cost(r)).collect();
        let total: u64 = costs.iter().sum();
        let max_single = costs.iter().copied().max().unwrap_or(0);
        for part in partition {
            assert_eq!(
                part.cost,
                costs[part.range.clone()].iter().sum::<u64>(),
                "part cost must sum its candidates' modeled costs"
            );
            assert!(
                part.cost <= total / parts as u64 + max_single,
                "part {:?} cost {} exceeds equal share {} + max candidate {}",
                part.range,
                part.cost,
                total / parts as u64,
                max_single
            );
        }
    }

    #[test]
    fn partition_covers_candidates_and_offsets_compose() {
        let c = community();
        let truth = c.truth_presence();
        let indexes = build_candidate_indexes(c.references(), &truth, 15);
        let refs: Vec<&ReferenceIndex> = indexes.iter().collect();
        for parts in 1..=9usize {
            let partition = partition_candidates(&refs, parts);
            assert_eq!(partition.len(), parts);
            assert_partition_invariants(&partition, &refs);
            // More parts than candidates: at least the excess is empty
            // padding (the cost-aware cuts may also leave gaps elsewhere).
            if parts > refs.len() {
                let empty = partition.iter().filter(|p| p.is_empty()).count();
                assert!(empty >= parts - refs.len());
            }
        }
    }

    #[test]
    fn cost_aware_partition_balances_skewed_candidates() {
        // Seeded property sweep over adversarially skewed candidate sizes:
        // the equal-count split would put the two giant candidates on one
        // device; the cost-aware cuts must keep every part within one
        // candidate of the equal-work share (asserted by the shared
        // invariant helper) and give the giant candidates parts of their
        // own when the device count allows.
        for (seed, lens) in [
            (11u64, vec![4000usize, 100, 120, 90, 110, 80, 100, 3600]),
            (23, vec![150, 150, 5000, 130, 140, 120, 110, 100]),
            (37, vec![2000, 2000, 2000, 60, 60, 60, 60, 60, 60, 60]),
        ] {
            let (indexes, _) = skewed_fixture(&lens, seed);
            let refs: Vec<&ReferenceIndex> = indexes.iter().collect();
            let costs: Vec<u64> = refs.iter().map(|r| candidate_cost(r)).collect();
            let total: u64 = costs.iter().sum();
            for parts in 1..=9usize {
                let partition = partition_candidates(&refs, parts);
                assert_eq!(partition.len(), parts);
                assert_partition_invariants(&partition, &refs);
                assert_eq!(partition.iter().map(|p| p.cost).sum::<u64>(), total);
            }
            // The concrete cliff case: at 4+ devices the equal-count split
            // would pair a giant with neighbors; cost-aware cuts must beat
            // its bottleneck (or match it when a single candidate is the
            // floor).
            let count_split_max: u64 = {
                let per = refs.len().div_ceil(4).max(1);
                costs
                    .chunks(per)
                    .map(|chunk| chunk.iter().sum::<u64>())
                    .max()
                    .unwrap()
            };
            let cost_split_max = partition_candidates(&refs, 4)
                .iter()
                .map(|p| p.cost)
                .max()
                .unwrap();
            assert!(
                cost_split_max <= count_split_max,
                "seed {seed}: cost-aware bottleneck {cost_split_max} worse than count split {count_split_max}"
            );
        }
    }

    #[test]
    fn partitioned_step3_equals_sequential_oracle_on_skewed_candidates() {
        // Byte-parity with the sequential oracle across 1–9 parts on the
        // skewed candidate sizes the cost-aware cuts were built for.
        for (seed, lens) in [
            (5u64, vec![3000usize, 90, 110, 100, 2800, 120, 80, 100]),
            (17, vec![100, 4000, 90, 80, 120, 110]),
        ] {
            let (indexes, reads) = skewed_fixture(&lens, seed);
            let refs: Vec<&ReferenceIndex> = indexes.iter().collect();
            let oracle = run(&reads, &indexes, 15);
            assert!(oracle.mapped_reads > 0, "seed {seed}: fixture maps nothing");
            for parts in 1..=9usize {
                let sharded = run_partitioned(&reads, &refs, parts, 15);
                assert_eq!(sharded, oracle, "seed {seed}, {parts} parts diverged");
                assert!(sharded
                    .unified_index
                    .entries()
                    .eq(oracle.unified_index.entries()));
                assert_eq!(
                    sharded.unified_index.offsets(),
                    oracle.unified_index.offsets()
                );
            }
        }
    }

    #[test]
    fn incremental_reduce_is_arrival_order_insensitive() {
        // The streaming completer folds partials as devices complete, in
        // whatever order stealing and queue depth produce. Every arrival
        // permutation must finish byte-identical to the batch reduce and
        // the sequential oracle, including when empty parts were never
        // dispatched (the `expected` mask skips them).
        let c = community();
        let truth = c.truth_presence();
        let indexes = build_candidate_indexes(c.references(), &truth, 15);
        let refs: Vec<&ReferenceIndex> = indexes.iter().collect();
        let oracle = run(c.sample().reads(), &indexes, 15);
        for parts in [2usize, 3, 5, 8] {
            let partition = partition_candidates(&refs, parts);
            let partials: Vec<(usize, Step3Partial)> = partition
                .iter()
                .enumerate()
                .filter(|(_, part)| !part.is_empty())
                .map(|(position, part)| {
                    (
                        position,
                        run_partial(
                            c.sample().reads(),
                            &refs[part.range.clone()],
                            part.base_offset,
                            15,
                        ),
                    )
                })
                .collect();
            let expected: Vec<bool> = partition.iter().map(|p| !p.is_empty()).collect();
            // Forward, reverse, and a rotated arrival order.
            for rotation in 0..partials.len().max(1) {
                let mut reducer = IncrementalReduce::new(expected.clone());
                let n = partials.len();
                for i in 0..n {
                    let (position, partial) = partials[(i + rotation) % n].clone();
                    assert!(!reducer.is_complete());
                    reducer.offer(position, partial);
                }
                assert!(reducer.is_complete());
                assert_eq!(reducer.folded_parts(), parts);
                assert_eq!(
                    reducer.finish(),
                    oracle,
                    "{parts} parts, rotation {rotation}"
                );
            }
            let mut reversed = IncrementalReduce::new(expected);
            for (position, partial) in partials.iter().rev() {
                reversed.offer(*position, partial.clone());
            }
            assert_eq!(reversed.finish(), oracle, "{parts} parts reversed");
        }
    }

    #[test]
    #[should_panic(expected = "offered twice")]
    fn incremental_reduce_rejects_duplicate_positions() {
        let mut reducer = IncrementalReduce::new(vec![true, true]);
        reducer.offer(1, Step3Partial::default());
        reducer.offer(1, Step3Partial::default());
    }

    #[test]
    fn partitioned_step3_equals_sequential_oracle() {
        // Seeded property sweep: random communities (varying candidate
        // counts and read mixtures) × shard counts 1–9, including counts
        // beyond the candidates so empty partitions are exercised. The
        // partitioned output must be byte-identical to the sequential
        // oracle: same unified index (entries and offsets), same abundance
        // profile, same mapped-read count.
        for (seed, species, reads) in [(55u64, 4usize, 200usize), (7, 6, 150), (91, 8, 250)] {
            let c = CommunityConfig::preset(Diversity::Medium)
                .with_reads(reads)
                .with_species(species)
                .with_database_species(16)
                .build(seed);
            let truth = c.truth_presence();
            let indexes = build_candidate_indexes(c.references(), &truth, 15);
            let refs: Vec<&ReferenceIndex> = indexes.iter().collect();
            let oracle = run(c.sample().reads(), &indexes, 15);
            assert!(oracle.mapped_reads > 0, "seed {seed}: fixture maps nothing");
            for parts in 1..=9usize {
                let sharded = run_partitioned(c.sample().reads(), &refs, parts, 15);
                assert_eq!(
                    sharded, oracle,
                    "seed {seed}, {parts} parts diverged from the oracle"
                );
                assert!(sharded
                    .unified_index
                    .entries()
                    .eq(oracle.unified_index.entries()));
                assert_eq!(
                    sharded.unified_index.offsets(),
                    oracle.unified_index.offsets()
                );
            }
        }
    }

    #[test]
    fn reduce_resolves_multi_shard_hits_like_map_read() {
        // A read hitting candidates in several partitions must resolve to
        // the global best hit; ties on votes go to the smallest taxid.
        let hits = vec![
            Step3Partial {
                index: PartialUnifiedIndex::default(),
                hits: vec![
                    PartialReadHit {
                        read: 0,
                        taxid: TaxId(5),
                        votes: 3,
                    },
                    PartialReadHit {
                        read: 1,
                        taxid: TaxId(5),
                        votes: 1,
                    },
                ],
            },
            Step3Partial {
                index: PartialUnifiedIndex::default(),
                hits: vec![
                    PartialReadHit {
                        read: 0,
                        taxid: TaxId(2),
                        votes: 3,
                    },
                    PartialReadHit {
                        read: 1,
                        taxid: TaxId(9),
                        votes: 1,
                    },
                ],
            },
        ];
        let out = reduce(hits);
        // Read 0: tie at 3 votes, smallest taxid (2) wins. Read 1: winner
        // has 1 vote, below the threshold — unmapped.
        assert_eq!(out.mapped_reads, 1);
        assert!((out.abundance.abundance(TaxId(2)) - 1.0).abs() < 1e-12);
        assert_eq!(out.abundance.abundance(TaxId(5)), 0.0);
    }

    #[test]
    #[should_panic(expected = "parts must be positive")]
    fn zero_parts_rejected() {
        partition_candidates(&[], 0);
    }
}
