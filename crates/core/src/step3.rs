//! Step 3 — abundance estimation support (§4.4): one unified-index merge,
//! then one mapping pass over the reads.
//!
//! For applications that need relative abundances, MegIS prepares the data a
//! read mapper needs: a *unified* reference index over the candidate species
//! identified in Step 2, generated inside the SSD by sequentially merging the
//! candidates' sorted per-species indexes (Fig. 9), then handed — together
//! with the reads — to a mapping accelerator. Every index here is flat: a
//! per-species index is two columns in `(seed, position)` order, the unified
//! index a sorted seed column with `u32` offsets into one location arena,
//! and the merge is the one forward k-way merge of
//! [`megis_genomics::database`], so the stage consumes its inputs at
//! streaming cost. What is left per read is the seed lookups, and the
//! mapper skips most of them: once a seed resolves to a genome position,
//! the read's next seed is checked at the neighbouring position before any
//! directory lookup. The oracle and [`map_range`] go through that one
//! mapper.
//!
//! [`crate::MegisAnalyzer::run_step3`] is the stage as both the sequential
//! `analyze` and the scheduler's device command run it: the index merged
//! **once** per sample over *all* candidates
//! ([`crate::MegisAnalyzer::unified_index`]) and every read mapped against
//! it ([`map_range`]) into [`MappedCounts`] — how many reads each candidate
//! won — normalized into an abundance profile by a deterministic sort +
//! run-length pass ([`AbundanceAccumulator`]).
//!
//! The mapper is *additive* over reads: a read's winner under the
//! `(votes, smallest-taxid)` rule with the [`MIN_MAPPING_VOTES`] threshold
//! depends on that read and the index alone, so the reads cut into
//! disjoint ranges ([`read_ranges`]), each mapped against the one index and
//! the counts added ([`MappedCounts::merge`]: commutative and associative,
//! not idempotent), give the same result as one pass. The property suites
//! and the `hotpath` bench check that property; no engine path cuts the
//! reads.
//!
//! [`run`] is the sequential oracle (one merge, one per-read mapper):
//! the seeded property suites assert that [`map_range`] over any cut of
//! the reads, merged in any order, reproduces it byte for byte.
//! Lightweight statistical estimators ([`statistical_abundance`]) can
//! instead run directly on Step 2's output.
//!
//! **Kept only for the frozen benchmark replay** (`benchmark/src/replay.rs`
//! still walks the retired composition that cut Step 3 by *candidates* and
//! mapped every read once per part): [`partition_candidates`] with
//! [`CandidatePart`] and [`candidate_cost`], [`Step3Partial`] with
//! [`PartialReadHit`], and the batch [`reduce`] that recombines partial
//! indexes and resolves each read's winner across parts. Outside tests,
//! nothing in the workspace maps against a partial index any more; these
//! go when the benchmark is re-walked.

use std::collections::HashMap;
use std::ops::Range;

use megis_genomics::database::{
    PartialUnifiedIndex, ReferenceIndex, UnifiedReferenceIndex, MIN_MAPPING_VOTES,
};
use megis_genomics::profile::{AbundanceAccumulator, AbundanceProfile};
use megis_genomics::read::ReadSet;
use megis_genomics::taxonomy::TaxId;

/// Output of Step 3.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Step3Output {
    /// The unified index generated for the candidate species (left empty in
    /// the scheduler's Step 3 completions: the index stays on the device
    /// that merged it, and only the counts cross back).
    pub unified_index: UnifiedReferenceIndex,
    /// Mapping-based abundance estimate.
    pub abundance: AbundanceProfile,
    /// Number of reads that mapped to some candidate species.
    pub mapped_reads: u64,
}

/// Step 3's result over a range of a sample's reads: how many reads each
/// candidate species won. Results over disjoint ranges [`merge`] into the
/// result over their union — the mapper's additivity.
///
/// [`merge`]: MappedCounts::merge
#[derive(Debug, Clone, Default)]
pub struct MappedCounts {
    counts: AbundanceAccumulator,
    mapped_reads: u64,
}

impl MappedCounts {
    /// Adds the counts of a *disjoint* read range. Commutative and
    /// associative, not idempotent.
    pub fn merge(&mut self, other: MappedCounts) {
        self.counts.merge(other.counts);
        self.mapped_reads += other.mapped_reads;
    }

    /// Number of reads that mapped to some candidate species.
    pub fn mapped_reads(&self) -> u64 {
        self.mapped_reads
    }

    /// Normalizes the counts into the stage's output, next to the index
    /// they were mapped against.
    pub fn into_output(self, unified_index: UnifiedReferenceIndex) -> Step3Output {
        Step3Output {
            unified_index,
            abundance: self.counts.finish(),
            mapped_reads: self.mapped_reads,
        }
    }
}

/// Cuts `reads` reads into `parts` contiguous ranges of near-equal length,
/// in order: disjoint, covering `0..reads`, empty ones when `parts > reads`.
/// The cut over which the mapper's additivity is checked.
pub fn read_ranges(reads: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    (0..parts).map(move |part| part * reads / parts..(part + 1) * reads / parts)
}

/// Maps `reads[range]` against the sample's unified index, each read
/// walking the genome its seeds anchor in
/// ([`UnifiedReferenceIndex::count_mapped_reads`]).
///
/// # Panics
///
/// Panics if `range` reaches past the read set.
pub fn map_range(
    index: &UnifiedReferenceIndex,
    reads: &ReadSet,
    range: Range<usize>,
    mapping_k: usize,
) -> MappedCounts {
    let mut out = MappedCounts::default();
    let won = index.count_mapped_reads(&reads.reads()[range], mapping_k);
    for (&(taxid, _), count) in index.offsets().iter().zip(won) {
        out.counts.add(taxid, count);
        out.mapped_reads += count;
    }
    out
}

/// One contiguous range of the candidate list, as the retired candidate cut
/// of Step 3 assigned it to a device (kept for the benchmark replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidatePart {
    /// The range of candidate positions (indices into the candidate list).
    pub range: Range<usize>,
    /// Concatenated-reference-space offset where the range begins: the sum
    /// of the genome lengths of every earlier candidate.
    pub base_offset: u64,
    /// Modeled work of the range: the sum of [`candidate_cost`] over its
    /// candidates; tests bound the spread across parts.
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

/// One part's output under the candidate cut: the partial unified index over
/// the part's candidate range plus the best hit of every read that hit the
/// range at all.
#[derive(Debug, Clone, Default)]
pub struct Step3Partial {
    /// The partial unified index merged for this part.
    pub index: PartialUnifiedIndex,
    /// Per-read best hits against this part's candidates, in read order.
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
/// *modeled work* — the device assignment of the retired candidate cut of
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

/// Recombines the parts of a candidate cut (in candidate-range order) into
/// the full Step 3 output: merge the partial indexes byte-identically,
/// resolve each read's winner across parts by the same `(votes,
/// smallest-taxid)` best-hit rule as [`UnifiedReferenceIndex::map_read`],
/// apply the mapping-vote threshold to the winner, and accumulate the
/// abundance profile. Kept for the benchmark replay.
pub fn reduce(partials: Vec<Step3Partial>) -> Step3Output {
    // Best `(votes, taxid)` so far per read index; zero votes: no hit yet.
    let mut best: Vec<(u32, TaxId)> = Vec::new();
    let mut indexes = Vec::with_capacity(partials.len());
    for partial in partials {
        for hit in &partial.hits {
            if hit.read >= best.len() {
                best.resize(hit.read + 1, (0, TaxId(u32::MAX)));
            }
            let best = &mut best[hit.read];
            if hit.votes > best.0 || (hit.votes == best.0 && hit.taxid < best.1) {
                *best = (hit.votes, hit.taxid);
            }
        }
        indexes.push(partial.index);
    }
    let mut out = MappedCounts::default();
    for (votes, taxid) in best {
        if votes >= MIN_MAPPING_VOTES {
            out.counts.record(taxid);
            out.mapped_reads += 1;
        }
    }
    out.into_output(UnifiedReferenceIndex::merge_partials(indexes))
}

/// Runs Step 3 sequentially: one unified-index merge followed by one
/// per-read mapping pass. This is the *oracle* every cut of the reads is
/// verified against — it never goes through [`map_range`] or a merge of
/// counts, so a regression in either shows up as a divergence.
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

    /// The per-species index of every candidate `truth` names, at seed
    /// length 15, in reference order.
    fn candidate_indexes(c: &megis_genomics::sample::Community) -> Vec<ReferenceIndex> {
        let truth = c.truth_presence();
        let genomes = c.references().genomes().iter();
        let candidates = genomes.filter(|g| truth.contains(g.taxid()));
        candidates.map(|g| ReferenceIndex::build(g, 15)).collect()
    }

    fn community() -> megis_genomics::sample::Community {
        CommunityConfig::preset(Diversity::Medium)
            .with_reads(400)
            .with_species(4)
            .with_database_species(16)
            .build(55)
    }

    /// The retired candidate cut, composed the way the benchmark replay
    /// still walks it: partition → merge + map every read per non-empty
    /// part → [`reduce`].
    fn candidate_cut(reads: &ReadSet, candidates: &[&ReferenceIndex], parts: usize) -> Step3Output {
        let partials = partition_candidates(candidates, parts)
            .into_iter()
            .filter(|part| !part.is_empty())
            .map(|part| {
                let index =
                    PartialUnifiedIndex::merge_range(&candidates[part.range], part.base_offset);
                let hits = reads.iter().enumerate().filter_map(|(read, r)| {
                    let hit = index.index().map_read_hit(r, 15)?;
                    Some(PartialReadHit {
                        read,
                        taxid: hit.taxid,
                        votes: hit.votes,
                    })
                });
                let hits = hits.collect();
                Step3Partial { index, hits }
            })
            .collect();
        reduce(partials)
    }

    #[test]
    fn unified_index_covers_all_candidates() {
        let c = community();
        let truth = c.truth_presence();
        let indexes = candidate_indexes(&c);
        assert_eq!(indexes.len(), truth.len());
        let unified = UnifiedReferenceIndex::merge(&indexes);
        assert_eq!(unified.offsets().len(), truth.len());
    }

    #[test]
    fn mapping_based_abundance_tracks_truth() {
        let c = community();
        let indexes = candidate_indexes(&c);
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
        // Both cuts degrade identically: nothing to map against.
        let reads = c.sample().reads();
        let empty = UnifiedReferenceIndex::default();
        for parts in [1usize, 3, 8] {
            assert_eq!(candidate_cut(reads, &[], parts), out);
            let mut merged = MappedCounts::default();
            for range in read_ranges(reads.len(), parts) {
                merged.merge(map_range(&empty, reads, range, 15));
            }
            assert_eq!(merged.into_output(empty.clone()), out);
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
        let indexes = candidate_indexes(&c);
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
                let sharded = candidate_cut(&reads, &refs, parts);
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
        // Read ranges' counts merge in any arrival order. Every arrival
        // rotation, and the reverse order, must finish byte-identical to
        // the sequential oracle — on the skewed candidates too, since every
        // range maps against all of them.
        let c = community();
        let (skewed, skewed_reads) = skewed_fixture(&[3000, 90, 110, 100, 2800, 120], 5);
        for (indexes, reads) in [
            (candidate_indexes(&c), c.sample().reads()),
            (skewed, &skewed_reads),
        ] {
            let oracle = run(reads, &indexes, 15);
            assert!(oracle.mapped_reads > 0, "fixture maps nothing");
            let index = UnifiedReferenceIndex::merge(&indexes);
            assert_eq!(index, oracle.unified_index);
            for parts in [1usize, 2, 3, 5, 8] {
                let ranges: Vec<MappedCounts> = read_ranges(reads.len(), parts)
                    .map(|range| map_range(&index, reads, range, 15))
                    .collect();
                let mapped: u64 = ranges.iter().map(MappedCounts::mapped_reads).sum();
                assert_eq!(mapped, oracle.mapped_reads);
                for rotation in 0..parts {
                    let mut merged = MappedCounts::default();
                    for i in 0..parts {
                        merged.merge(ranges[(i + rotation) % parts].clone());
                    }
                    assert_eq!(
                        merged.into_output(index.clone()),
                        oracle,
                        "{parts} parts, rotation {rotation}"
                    );
                }
                let mut reversed = MappedCounts::default();
                for range in ranges.into_iter().rev() {
                    reversed.merge(range);
                }
                assert_eq!(
                    reversed.into_output(index.clone()),
                    oracle,
                    "{parts} parts reversed"
                );
            }
        }
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
            let indexes = candidate_indexes(&c);
            let refs: Vec<&ReferenceIndex> = indexes.iter().collect();
            let oracle = run(c.sample().reads(), &indexes, 15);
            assert!(oracle.mapped_reads > 0, "seed {seed}: fixture maps nothing");
            for parts in 1..=9usize {
                let sharded = candidate_cut(c.sample().reads(), &refs, parts);
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
