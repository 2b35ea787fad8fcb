//! Step 2 — finding candidate species inside the SSD (§4.3).
//!
//! For every query bucket arriving from the host, the per-channel Intersect
//! units compare the sorted query k-mers against the sorted database k-mers
//! streaming out of the flash channels (§4.3.1). The intersecting k-mers are
//! then matched against the K-mer Sketch Streaming tables to retrieve their
//! taxIDs (§4.3.2), and only the taxIDs of the candidate species are sent to
//! the host: the step is in-SSD from end to end.
//!
//! [`sweep`] is that device pass, and the only Step 2 path: one sweep of a
//! database range — the sorted queries probed a batch at a time through
//! the database's bucket directory ([`SortedKmerDatabase::hit_positions`])
//! — that, per hit, counts the taxa the hit supports
//! through the database-joined KSS ([`crate::kss::KssJoin`]: a bit test and
//! a rank per table, no search) and returns per-taxon [`Support`] — never
//! the intersecting k-mers. Supports over disjoint query slices add, so the
//! sharded scheduler in `megis-sched` runs [`sweep`] per shard and sums,
//! and [`run`] is the one-shard case. Presence calling then reads each
//! supported taxon's sketch size, counted when the sketch was built:
//! O(supported taxa).
//!
//! This module is the functional implementation; its results are identical to
//! the S-Qry baseline's by construction (same database, same sketch content,
//! same presence-calling thresholds). The performance model for this step
//! lives in [`crate::pipeline`].

use std::collections::HashMap;

use megis_genomics::database::SortedKmerDatabase;
use megis_genomics::kmer::Kmer;
use megis_genomics::profile::PresenceResult;
use megis_genomics::sketch::SketchSizes;
use megis_genomics::taxonomy::TaxId;

use crate::config::MegisConfig;
use crate::kss::{KssJoin, Support};
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

/// The device pass of Step 2 over one database range: intersects the
/// sorted query slice with `view` in a single sweep — one directory probe
/// per batch of queries, each hit reported once, in ascending position
/// ([`SortedKmerDatabase::hit_positions`]) — and counts the support
/// its hits lend each taxon — intersection finding and taxID retrieval
/// fused, so nothing per hit outlives the pass. `on_hit(position in view)`
/// additionally sees each hit, for a caller that wants the k-mers
/// themselves.
///
/// The returned [`Support`] equals `join`'s map of
/// `KssTables::stream_retrieve(view.intersect_sorted(queries))` (the
/// property suite asserts it).
///
/// # Panics
///
/// Panics if `view` is not a range of the database `join` was built over,
/// and (in debug builds) if `queries` is not sorted.
pub fn sweep(
    view: &SortedKmerDatabase,
    join: &KssJoin,
    queries: &[Kmer],
    mut on_hit: impl FnMut(usize),
) -> Support {
    let mut counter = join.counter(view);
    view.hit_positions(queries, |position| {
        counter.count(position);
        on_hit(position);
    });
    counter.finish()
}

/// Runs Step 2 over the buckets produced by Step 1: the one-shard case of
/// [`sweep`], over the whole database.
///
/// Step 1's buckets are consecutive ranges of one sorted arena, so sweeping
/// the arena once equals intersecting bucket after bucket and concatenating.
pub fn run(
    step1: &Step1Output,
    database: &SortedKmerDatabase,
    join: &KssJoin,
    sizes: &SketchSizes,
    config: &MegisConfig,
) -> Step2Output {
    let entries = database.kmer_slice();
    let mut intersecting_kmers = Vec::new();
    let swept = sweep(database, join, step1.kmers(), |position| {
        intersecting_kmers.push(entries[position]);
    });
    let support = join.support_map(&swept);
    let presence =
        sizes.presence_from_support(&support, config.min_containment, config.min_support);
    Step2Output {
        intersecting_kmers,
        support,
        presence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kss::KssTables;
    use megis_genomics::reference::ReferenceCollection;
    use megis_genomics::sample::{CommunityConfig, Diversity};
    use megis_genomics::sketch::SketchDatabase;
    use megis_tools::kmc::ExclusionPolicy;

    struct Fixture {
        community: megis_genomics::sample::Community,
        database: SortedKmerDatabase,
        sizes: SketchSizes,
        kss: KssTables,
        join: KssJoin,
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
        let join = KssJoin::build(&sketches, &database);
        Fixture {
            community,
            database,
            sizes: sketches.sizes().clone(),
            kss: KssTables::build(&sketches),
            join,
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
        let out = run(&step1, &f.database, &f.join, &f.sizes, &f.config);
        assert!(!out.intersecting_kmers.is_empty());
        for t in f.community.truth_presence().taxa() {
            assert!(out.presence.contains(*t), "true species {t} not recovered");
        }
    }

    #[test]
    fn bucketed_intersection_equals_global_intersection() {
        let f = fixture();
        let step1 = crate::step1::run(
            f.community.sample().reads(),
            &f.config,
            ExclusionPolicy::default(),
        );
        let out = run(&step1, &f.database, &f.join, &f.sizes, &f.config);
        // The one sweep of Step 1's arena — its radix buckets concatenated —
        // is the intersection of the whole query list.
        let global = f.database.intersect_sorted(step1.kmers());
        assert!(!global.is_empty());
        assert_eq!(out.intersecting_kmers, global);
        // And the fused support is the streaming oracle's over those hits.
        assert_eq!(out.support, f.kss.stream_retrieve(&global));
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
        let out = run(&step1, &f.database, &f.join, &f.sizes, &f.config);
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
