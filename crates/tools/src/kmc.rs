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

/// The outcome of counting: sorted distinct k-mers with their multiplicities.
#[derive(Debug, Clone, Default)]
pub struct KmerCounts {
    counts: Vec<(Kmer, u32)>,
}

impl KmerCounts {
    /// Counts the canonical k-mers of every read in `reads`.
    ///
    /// Counting is flat, like KMC itself: collect every occurrence into one
    /// dense array sized up front, `sort_unstable` it — a [`Kmer`] is one
    /// word, so this is an integer sort — and run-length group equal runs
    /// into `(kmer, count)` pairs. The result is identical to inserting each
    /// occurrence into an ordered map.
    pub fn count(reads: &ReadSet, k: usize) -> KmerCounts {
        let mut occurrences: Vec<Kmer> = Vec::with_capacity(reads.total_kmers(k));
        for read in reads.iter() {
            occurrences.extend(CanonicalKmerExtractor::new(read.sequence(), k));
        }
        occurrences.sort_unstable();
        let mut counts: Vec<(Kmer, u32)> = Vec::new();
        for kmer in occurrences {
            match counts.last_mut() {
                Some((last, count)) if *last == kmer => *count += 1,
                _ => counts.push((kmer, 1)),
            }
        }
        KmerCounts { counts }
    }

    /// Number of distinct k-mers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if no k-mers were counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The sorted `(kmer, count)` pairs.
    pub fn entries(&self) -> &[(Kmer, u32)] {
        &self.counts
    }

    /// Total k-mer occurrences (sum of counts).
    pub fn total_occurrences(&self) -> u64 {
        self.counts.iter().map(|(_, c)| *c as u64).sum()
    }

    /// Applies an exclusion policy, returning the sorted distinct k-mers that
    /// survive.
    pub fn apply_exclusion(&self, policy: ExclusionPolicy) -> Vec<Kmer> {
        self.counts
            .iter()
            .filter(|(_, c)| policy.keeps(*c))
            .map(|(k, _)| *k)
            .collect()
    }

    /// All sorted distinct k-mers (no exclusion).
    pub fn distinct_kmers(&self) -> Vec<Kmer> {
        self.counts.iter().map(|(k, _)| *k).collect()
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
        assert!(!counts.is_empty());
        assert!(counts.entries().windows(2).all(|w| w[0].0 < w[1].0));
        // 3 reads × 6 k-mers each.
        assert_eq!(counts.total_occurrences(), 18);
    }

    #[test]
    fn duplicate_reads_double_counts() {
        let counts = KmerCounts::count(&reads(), 5);
        // k-mers from the duplicated read appear at least twice.
        let dup = counts.entries().iter().filter(|(_, c)| *c >= 2).count();
        assert!(dup > 0);
    }

    #[test]
    fn exclusion_policy_filters_both_ends() {
        let counts = KmerCounts::count(&reads(), 5);
        let all = counts.distinct_kmers().len();
        let no_rare = counts
            .apply_exclusion(ExclusionPolicy {
                min_count: 2,
                max_count: None,
            })
            .len();
        let no_common = counts
            .apply_exclusion(ExclusionPolicy {
                min_count: 1,
                max_count: Some(2),
            })
            .len();
        assert!(no_rare < all);
        assert!(no_common <= all);
        assert!(no_rare > 0);
    }

    #[test]
    fn default_policy_keeps_everything() {
        let counts = KmerCounts::count(&reads(), 5);
        assert_eq!(
            counts.apply_exclusion(ExclusionPolicy::default()).len(),
            counts.len()
        );
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
