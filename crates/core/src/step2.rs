//! Step 2 — finding candidate species inside the SSD (§4.3).
//!
//! For every query bucket arriving from the host, the per-channel Intersect
//! units compare the sorted query k-mers against the sorted database k-mers
//! streaming out of the flash channels, recording the intersection in the
//! internal DRAM (§4.3.1). The intersecting k-mers are then matched against
//! the K-mer Sketch Streaming tables to retrieve their taxIDs (§4.3.2), and
//! the taxIDs of the candidate species are sent to the host. Retrieval is
//! one forward merge pass over the intersection and the flat KSS tables —
//! O(|intersection| + |KSS|), no search per k-mer — and presence calling
//! reads each supported taxon's sketch size, counted when the sketch was
//! built: O(supported taxa).
//!
//! This module is the functional implementation; its results are identical to
//! the S-Qry baseline's by construction (same database, same sketch content,
//! same presence-calling thresholds). The performance model for this step
//! lives in [`crate::pipeline`].

use std::collections::HashMap;

use megis_genomics::database::SortedKmerDatabase;
use megis_genomics::kmer::Kmer;
use megis_genomics::profile::PresenceResult;
use megis_genomics::sketch::SketchDatabase;
use megis_genomics::taxonomy::TaxId;

use crate::config::MegisConfig;
use crate::kss::KssTables;
use crate::step1::Step1Output;

/// Output of Step 2.
#[derive(Debug, Clone, Default)]
pub struct Step2Output {
    /// The intersecting k-mers, in sorted order.
    pub intersecting_kmers: Vec<Kmer>,
    /// Per-taxon sketch-match support counts.
    pub support: HashMap<TaxId, u32>,
    /// The candidate species reported present.
    pub presence: PresenceResult,
}

impl Step2Output {
    /// Number of intersecting k-mers.
    pub fn intersection_size(&self) -> usize {
        self.intersecting_kmers.len()
    }
}

/// Runs Step 2 over the buckets produced by Step 1.
///
/// Buckets are processed in order; because both the queries and the database
/// are sorted, each bucket's intersection is independent and the final result
/// equals a single global intersection.
pub fn run(
    step1: &Step1Output,
    database: &SortedKmerDatabase,
    kss: &KssTables,
    sketches: &SketchDatabase,
    config: &MegisConfig,
) -> Step2Output {
    let mut intersecting = Vec::new();
    for bucket in step1.buckets().filter(|bucket| !bucket.is_empty()) {
        // Intersection finding on this bucket's lexicographic range.
        intersecting.extend(database.intersect_sorted(bucket));
    }
    from_intersection(intersecting, kss, sketches, config)
}

/// Completes Step 2 from a precomputed (sorted, deduplicated) intersection:
/// taxID retrieval through the KSS tables followed by presence calling.
///
/// This is the entry point used when intersection finding ran out-of-band —
/// e.g. per database shard across several SSDs, as the batch scheduler in
/// `megis-sched` does. Because retrieval support counts are additive over
/// disjoint sorted query subsets, the result is identical to [`run`] on the
/// unsharded database.
///
/// # Panics
///
/// Panics (in debug builds) if `intersecting_kmers` is not strictly sorted.
pub fn from_intersection(
    intersecting_kmers: Vec<Kmer>,
    kss: &KssTables,
    sketches: &SketchDatabase,
    config: &MegisConfig,
) -> Step2Output {
    debug_assert!(intersecting_kmers.windows(2).all(|w| w[0] < w[1]));
    let support: HashMap<TaxId, u32> = kss.stream_retrieve(&intersecting_kmers);
    let presence =
        sketches.presence_from_support(&support, config.min_containment, config.min_support);
    Step2Output {
        intersecting_kmers,
        support,
        presence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::reference::ReferenceCollection;
    use megis_genomics::sample::{CommunityConfig, Diversity};
    use megis_tools::kmc::ExclusionPolicy;

    struct Fixture {
        community: megis_genomics::sample::Community,
        database: SortedKmerDatabase,
        sketches: SketchDatabase,
        kss: KssTables,
        config: MegisConfig,
    }

    fn fixture() -> Fixture {
        let community = CommunityConfig::preset(Diversity::Medium)
            .with_reads(200)
            .with_database_species(16)
            .build(29);
        let config = MegisConfig::small();
        let database = SortedKmerDatabase::build(community.references(), config.k());
        let sketches = SketchDatabase::build(community.references(), config.sketch);
        let kss = KssTables::build(&sketches);
        Fixture {
            community,
            database,
            sketches,
            kss,
            config,
        }
    }

    #[test]
    fn step2_finds_true_species() {
        let f = fixture();
        let step1 = crate::step1::run(
            f.community.sample().reads(),
            &f.config,
            ExclusionPolicy::default(),
        );
        let out = run(&step1, &f.database, &f.kss, &f.sketches, &f.config);
        assert!(!out.intersecting_kmers.is_empty());
        for t in f.community.truth_presence().taxa() {
            assert!(out.presence.contains(*t), "true species {t} not recovered");
        }
    }

    #[test]
    fn bucketed_intersection_equals_global_intersection() {
        let f = fixture();
        for bucket_count in [1usize, 8, 512] {
            let step1 = crate::step1::run(
                f.community.sample().reads(),
                &f.config.with_bucket_count(bucket_count),
                ExclusionPolicy::default(),
            );
            let out = run(&step1, &f.database, &f.kss, &f.sketches, &f.config);
            let global = f.database.intersect_sorted(step1.kmers());
            assert!(!global.is_empty());
            assert_eq!(out.intersecting_kmers, global, "{bucket_count} buckets");
        }
    }

    #[test]
    fn bucket_count_does_not_change_results() {
        let f = fixture();
        let reads = f.community.sample().reads();
        let few = crate::step1::run(
            reads,
            &f.config.with_bucket_count(2),
            ExclusionPolicy::default(),
        );
        let many = crate::step1::run(
            reads,
            &f.config.with_bucket_count(64),
            ExclusionPolicy::default(),
        );
        let out_few = run(&few, &f.database, &f.kss, &f.sketches, &f.config);
        let out_many = run(&many, &f.database, &f.kss, &f.sketches, &f.config);
        assert_eq!(out_few.presence, out_many.presence);
        assert_eq!(out_few.support, out_many.support);
    }

    #[test]
    fn foreign_sample_finds_nothing() {
        let f = fixture();
        // A sample from organisms that are not in the database at all.
        let foreign_refs = ReferenceCollection::synthetic(4, 1500, 909_090);
        let foreign = CommunityConfig::preset(Diversity::Low)
            .with_reads(100)
            .with_database_species(4)
            .build(909_090);
        // Reuse the foreign community's reads against the fixture database.
        let step1 = crate::step1::run(
            foreign.sample().reads(),
            &f.config,
            ExclusionPolicy::default(),
        );
        let out = run(&step1, &f.database, &f.kss, &f.sketches, &f.config);
        // The foreign genomes share no backbone with the fixture references,
        // so no species should be confidently reported.
        assert!(
            out.presence.is_empty(),
            "unexpected species: {:?}",
            out.presence
        );
        let _ = foreign_refs;
    }
}
