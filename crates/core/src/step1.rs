//! Step 1 — preparing the input queries on the host (§4.2).
//!
//! MegIS extracts k-mers from the sample, partitions them into buckets that
//! each cover a lexicographic range, sorts each bucket, and (optionally)
//! excludes k-mers by frequency. In the paper bucketing is what enables the
//! cooperative pipeline: bucket *i* is intersected in the SSD (Step 2) while
//! bucket *i + 1* is still being sorted.
//!
//! The bucketing is what [`run`] does: [`KmerCounts::count`] scatters the
//! sample's k-mers — bare payload words sized to `k`, 8 bytes for every
//! `k <= 32` — into lexicographic-range buckets by their leading bits and
//! sorts each while it is cache-resident, so no sort ever spans the sample.
//! The overlap is what it does not do: the sorted buckets are concatenated
//! into **one arena** of selected k-mers before anything is handed on.
//! Step 2 sweeps the whole arena; the scheduler moves the arena itself
//! ([`Step1Output::take_kmers`]) into the allocation its shard commands
//! share. Issuing each sorted bucket to the devices as it is produced is
//! ROADMAP "Step 1" item (c).

use megis_genomics::kmer::Kmer;
use megis_genomics::read::ReadSet;
use megis_tools::kmc::{ExclusionPolicy, KmerCounts};

use crate::config::MegisConfig;

/// Output of Step 1: the sorted selected k-mers.
#[derive(Debug, Clone, Default)]
pub struct Step1Output {
    /// Every selected k-mer, strictly ascending.
    kmers: Vec<Kmer>,
    /// Number of k-mer occurrences extracted from the sample (before
    /// deduplication/exclusion).
    pub extracted_occurrences: u64,
    /// Number of distinct k-mers that survived exclusion.
    pub selected_kmers: u64,
}

impl Step1Output {
    /// All selected k-mers, in sorted order.
    pub fn kmers(&self) -> &[Kmer] {
        &self.kmers
    }

    /// A copy of [`Step1Output::kmers`].
    pub fn sorted_kmers(&self) -> Vec<Kmer> {
        self.kmers.clone()
    }

    /// Moves the k-mer arena out (same allocation, no copy); the counters
    /// keep describing the sample.
    pub fn take_kmers(&mut self) -> Vec<Kmer> {
        std::mem::take(&mut self.kmers)
    }
}

/// Runs Step 1 on a sample read set.
///
/// Extraction and sorting reuse the same KMC-style counting as the S-Qry
/// baseline, so MegIS's query k-mer set is identical to the baseline's — the
/// bucketing only changes how the sorted list is produced, not *what* is
/// produced.
pub fn run(reads: &ReadSet, config: &MegisConfig, exclusion: ExclusionPolicy) -> Step1Output {
    let counts = KmerCounts::count(reads, config.k());
    let extracted_occurrences = counts.total_occurrences();
    let kmers = counts.apply_exclusion(exclusion);
    Step1Output {
        selected_kmers: kmers.len() as u64,
        kmers,
        extracted_occurrences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::sample::{CommunityConfig, Diversity};

    fn sample() -> megis_genomics::sample::Community {
        CommunityConfig::preset(Diversity::Low)
            .with_reads(150)
            .with_database_species(8)
            .build(3)
    }

    #[test]
    fn buckets_cover_all_selected_kmers_in_order() {
        let c = sample();
        let cfg = MegisConfig::small();
        let out = run(c.sample().reads(), &cfg, ExclusionPolicy::default());
        assert!(
            out.kmers().windows(2).all(|w| w[0] < w[1]),
            "strictly ascending"
        );
        assert_eq!(out.sorted_kmers(), out.kmers());
        assert_eq!(out.kmers().len() as u64, out.selected_kmers);
    }

    #[test]
    fn extraction_counts_occurrences() {
        let c = sample();
        let out = run(
            c.sample().reads(),
            &MegisConfig::small(),
            ExclusionPolicy::default(),
        );
        assert!(out.extracted_occurrences >= out.selected_kmers);
        assert!(out.extracted_occurrences > 0);
    }

    #[test]
    fn exclusion_reduces_selected_kmers() {
        let c = sample();
        let cfg = MegisConfig::small();
        let all = run(c.sample().reads(), &cfg, ExclusionPolicy::default());
        let filtered = run(
            c.sample().reads(),
            &cfg,
            ExclusionPolicy {
                min_count: 2,
                max_count: None,
            },
        );
        assert!(filtered.selected_kmers < all.selected_kmers);
    }

    #[test]
    fn take_kmers_moves_the_arena_and_leaves_empty_buckets() {
        let c = sample();
        let cfg = MegisConfig::small();
        let mut out = run(c.sample().reads(), &cfg, ExclusionPolicy::default());
        let (expected, arena) = (out.sorted_kmers(), out.kmers().as_ptr());
        let taken = out.take_kmers();
        assert_eq!(taken, expected);
        assert_eq!(taken.as_ptr(), arena, "moved, not copied");
        assert!(out.kmers().is_empty());
        assert_eq!(out.selected_kmers, expected.len() as u64);
    }
}
