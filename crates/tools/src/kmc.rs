//! KMC-style k-mer counting, sorting, and frequency-based exclusion.
//!
//! The S-Qry baseline (Metalign) prepares its queries with KMC: extract all
//! k-mers from the sample, sort them, count duplicates, and optionally exclude
//! overly common and extremely rare k-mers (§2.1.1, §4.2.3). MegIS's Step 1
//! reuses the same logic on the host (with bucketing added on top, which lives
//! in the `megis` core crate).

use megis_genomics::kmer::{CanonicalKmerExtractor, Kmer};
use megis_genomics::read::ReadSet;

/// Frequency-based exclusion thresholds (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExclusionPolicy {
    /// Exclude k-mers occurring fewer than this many times (sequencing-error
    /// suppression). `1` keeps everything.
    pub min_count: u32,
    /// Exclude k-mers occurring more than this many times (indiscriminative
    /// k-mers). `None` keeps everything.
    pub max_count: Option<u32>,
}

impl Default for ExclusionPolicy {
    fn default() -> Self {
        ExclusionPolicy {
            min_count: 1,
            max_count: None,
        }
    }
}

impl ExclusionPolicy {
    /// Returns `true` if a k-mer with `count` occurrences should be kept.
    pub fn keeps(&self, count: u32) -> bool {
        count >= self.min_count && self.max_count.is_none_or(|max| count <= max)
    }
}

/// The outcome of counting, as two columns: the sorted distinct k-mers (the
/// occurrence arena, compacted in place) and their multiplicities.
#[derive(Debug, Clone, Default)]
pub struct KmerCounts {
    kmers: Vec<Kmer>,
    /// `counts[i]` is the length of `kmers[i]`'s run in the sorted arena.
    counts: Vec<u32>,
    /// The arena's length before compaction.
    occurrences: u64,
}

impl KmerCounts {
    /// Counts the canonical k-mers of every read in `reads`.
    ///
    /// Counting is flat, like KMC itself: collect every occurrence into one
    /// dense array sized up front, `sort_unstable` it — a [`Kmer`] is one
    /// word, so this is an integer sort — and compact each run of equal
    /// k-mers in place to its first element, recording the run's length. The
    /// result is identical to inserting each occurrence into an ordered map.
    pub fn count(reads: &ReadSet, k: usize) -> KmerCounts {
        let mut kmers: Vec<Kmer> = Vec::with_capacity(reads.total_kmers(k));
        for read in reads.iter() {
            kmers.extend(CanonicalKmerExtractor::new(read.sequence(), k));
        }
        kmers.sort_unstable();
        let occurrences = kmers.len() as u64;
        let mut counts = Vec::with_capacity(kmers.len());
        counts.extend(kmers.first().map(|_| 1u32));
        kmers.dedup_by(|later, kept| {
            if later != kept {
                counts.push(0);
            }
            *counts.last_mut().expect("the first run is open") += 1;
            later == kept
        });
        KmerCounts {
            kmers,
            counts,
            occurrences,
        }
    }

    /// The sorted `(kmer, count)` pairs, read off the two columns; its length
    /// is the number of distinct k-mers.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (Kmer, u32)> + '_ {
        std::iter::zip(self.kmers.iter().copied(), self.counts.iter().copied())
    }

    /// Total k-mer occurrences (sum of counts).
    pub fn total_occurrences(&self) -> u64 {
        self.occurrences
    }

    /// Applies an exclusion policy to the k-mer column in place and returns
    /// it: the sorted distinct k-mers that survive (all of them under the
    /// default policy), in the arena they were counted in.
    pub fn apply_exclusion(self, policy: ExclusionPolicy) -> Vec<Kmer> {
        let (mut kmers, mut counts) = (self.kmers, self.counts.into_iter());
        kmers.retain(|_| policy.keeps(counts.next().expect("one count per k-mer")));
        // Step 2 holds this arena for the life of the job: give the slack of
        // the repeated and the excluded occurrences back now.
        kmers.shrink_to_fit();
        kmers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::dna::PackedSequence;
    use megis_genomics::read::Read;

    fn reads() -> ReadSet {
        ReadSet::from_reads(vec![
            Read::new("a", PackedSequence::from_ascii(b"ACGTACGTAC").unwrap()),
            Read::new("b", PackedSequence::from_ascii(b"ACGTACGTAC").unwrap()),
            Read::new("c", PackedSequence::from_ascii(b"ACGGCTAAGT").unwrap()),
        ])
    }

    #[test]
    fn counts_are_sorted_and_complete() {
        let counts = KmerCounts::count(&reads(), 5);
        let kmers: Vec<Kmer> = counts.entries().map(|(kmer, _)| kmer).collect();
        assert!(!kmers.is_empty());
        assert!(kmers.windows(2).all(|w| w[0] < w[1]));
        // 3 reads × 6 k-mers each: the arena's length is the sum of counts.
        assert_eq!(counts.total_occurrences(), 18);
        assert_eq!(counts.entries().map(|(_, c)| u64::from(c)).sum::<u64>(), 18);
    }

    #[test]
    fn duplicate_reads_double_counts() {
        let counts = KmerCounts::count(&reads(), 5);
        // k-mers from the duplicated read appear at least twice.
        let dup = counts.entries().filter(|(_, c)| *c >= 2).count();
        assert!(dup > 0);
    }

    #[test]
    fn exclusion_policy_filters_both_ends() {
        let counts = KmerCounts::count(&reads(), 5);
        let all = counts.entries().len();
        // The in-place selection keeps exactly the k-mers whose count the
        // policy keeps, in order.
        let select = |policy: ExclusionPolicy| {
            let kept = counts.clone().apply_exclusion(policy);
            let expected = counts.entries().filter(|(_, c)| policy.keeps(*c));
            assert_eq!(kept, expected.map(|(kmer, _)| kmer).collect::<Vec<_>>());
            assert_eq!(kept.capacity(), kept.len(), "slack handed on to Step 2");
            kept.len()
        };
        let no_rare = select(ExclusionPolicy {
            min_count: 2,
            max_count: None,
        });
        let no_common = select(ExclusionPolicy {
            min_count: 1,
            max_count: Some(1),
        });
        assert!(0 < no_rare && no_rare < all);
        assert!(0 < no_common && no_common < all);
        assert_eq!(no_rare + no_common, all);
    }

    #[test]
    fn default_policy_keeps_everything() {
        let counts = KmerCounts::count(&reads(), 5);
        let all: Vec<Kmer> = counts.entries().map(|(kmer, _)| kmer).collect();
        assert_eq!(counts.apply_exclusion(ExclusionPolicy::default()), all);
    }

    #[test]
    fn keeps_logic() {
        let p = ExclusionPolicy {
            min_count: 2,
            max_count: Some(10),
        };
        assert!(!p.keeps(1));
        assert!(p.keeps(2));
        assert!(p.keeps(10));
        assert!(!p.keeps(11));
    }
}
