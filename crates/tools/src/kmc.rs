//! KMC-style k-mer counting, sorting, and frequency-based exclusion.
//!
//! The S-Qry baseline (Metalign) prepares its queries with KMC: extract all
//! k-mers from the sample, sort them, count duplicates, and optionally exclude
//! overly common and extremely rare k-mers (§2.1.1, §4.2.3). MegIS's Step 1
//! reuses the same logic on the host, and sorts the way §4.2.1 describes:
//! the k-mers are partitioned into buckets that each cover a lexicographic
//! range, and each bucket is sorted on its own.

use megis_genomics::kmer::{fits_half_word, CanonicalWords, Kmer, KmerWord};
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

/// Occurrences a lexicographic-range bucket of [`KmerCounts::count`] holds
/// at most, on evenly spread k-mers (at least half as many): few enough
/// that a bucket sorts inside the L1 cache, many enough that the histogram
/// stays a small fraction of the occurrences.
const BUCKET_OCCURRENCES: usize = 64;

/// Most leading bits [`KmerCounts::count`] buckets by: a 256 KiB histogram,
/// the largest that stays cache-resident while the scatter strides it.
const MAX_RADIX_BITS: u32 = 16;

/// The outcome of counting, as two columns: the sorted distinct k-mers and
/// their multiplicities, each allocated at its final size.
#[derive(Debug, Clone, Default)]
pub struct KmerCounts {
    kmers: Vec<Kmer>,
    /// `counts[i]` is the number of occurrences of `kmers[i]`.
    counts: Vec<u32>,
    /// Occurrences counted: the sum of `counts`.
    occurrences: u64,
}

impl KmerCounts {
    /// Counts the canonical k-mers of every read in `reads`.
    ///
    /// Counting is flat, like KMC itself, and bucketed, like §4.2.1: extract
    /// every occurrence as a bare payload word sized to `k` (8 bytes when
    /// `2k <= 64`, 16 otherwise — the width is a function of `k`, nothing
    /// else), histogram the words' leading bits, scatter them into buckets
    /// that each cover a lexicographic range, `sort_unstable` each bucket
    /// while it is cache-resident, and run-length group the concatenation.
    /// Only the distinct words are widened into [`Kmer`]s. The result is
    /// identical to inserting each occurrence into an ordered map.
    pub fn count(reads: &ReadSet, k: usize) -> KmerCounts {
        if fits_half_word(k) {
            count_words::<u64>(reads, k)
        } else {
            count_words::<u128>(reads, k)
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
    /// default policy, which leaves the allocation as counted).
    pub fn apply_exclusion(self, policy: ExclusionPolicy) -> Vec<Kmer> {
        let (mut kmers, mut counts) = (self.kmers, self.counts.into_iter());
        kmers.retain(|_| policy.keeps(counts.next().expect("one count per k-mer")));
        // Step 2 holds this arena for the life of the job: give the slack of
        // the excluded k-mers back now (none, when nothing was excluded).
        kmers.shrink_to_fit();
        kmers
    }
}

/// [`KmerCounts::count`] over payload words of type `W`, which `2 * k` bits
/// fit: the one counting routine, instantiated at the two word widths.
fn count_words<W: KmerWord>(reads: &ReadSet, k: usize) -> KmerCounts {
    let total = reads.total_kmers(k);
    // About BUCKET_OCCURRENCES / 2 .. BUCKET_OCCURRENCES per bucket; a
    // sample that fits one bucket is sorted whole (zero radix bits).
    let radix_bits = (usize::BITS - (total.saturating_sub(1) / BUCKET_OCCURRENCES).leading_zeros())
        .min(MAX_RADIX_BITS);

    // Extract, counting each bucket's population on the way.
    let mut words: Vec<W> = Vec::with_capacity(total);
    let mut ends = vec![0usize; 1 << radix_bits];
    for read in reads.iter() {
        for word in CanonicalWords::<W>::new(read.sequence(), k) {
            ends[word.top_bits(radix_bits)] += 1;
            words.push(word);
        }
    }
    debug_assert_eq!(words.len(), total);

    // Scatter: `ends[b]` runs from bucket `b`'s start to its end.
    let mut start = 0;
    for end in &mut ends {
        start += std::mem::replace(end, start);
    }
    let mut sorted = vec![W::default(); words.len()];
    for &word in &words {
        let at = &mut ends[word.top_bits(radix_bits)];
        sorted[*at] = word;
        *at += 1;
    }
    drop(words);

    // Sort each bucket; buckets are ascending ranges, so the whole is sorted.
    let (mut start, mut distinct) = (0, 0);
    for &end in &ends {
        let bucket = &mut sorted[start..end];
        bucket.sort_unstable();
        let steps = bucket.windows(2).filter(|w| w[0] != w[1]).count();
        distinct += steps + usize::from(!bucket.is_empty());
        start = end;
    }

    // Run-length group into columns of exactly the distinct count.
    let mut kmers = Vec::with_capacity(distinct);
    let mut counts = Vec::with_capacity(distinct);
    for run in sorted.chunk_by(|a, b| a == b) {
        kmers.push(Kmer::from_word(run[0], k));
        counts.push(u32::try_from(run.len()).expect("a multiplicity fits u32"));
    }
    KmerCounts {
        kmers,
        counts,
        occurrences: sorted.len() as u64,
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
    fn columns_are_counted_at_their_final_size_and_handed_on_as_they_are() {
        for k in [5, 33] {
            let long = b"ACGGCTAAGTCCGATTACAGGCATTTGACCAGTACGGATCCATGCA";
            let mut set = reads();
            set.push(Read::new("d", PackedSequence::from_ascii(long).unwrap()));
            let counts = KmerCounts::count(&set, k);
            let distinct = counts.entries().len();
            assert!(distinct > 0, "k = {k}");
            assert_eq!(counts.kmers.capacity(), distinct, "k = {k}");
            assert_eq!(counts.counts.capacity(), distinct, "k = {k}");
            // Nothing excluded: the same allocation, not a shrunk copy.
            let arena = counts.kmers.as_ptr();
            let kept = counts.apply_exclusion(ExclusionPolicy::default());
            assert_eq!((kept.as_ptr(), kept.capacity()), (arena, distinct));
        }
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
