//! The functional end-to-end MegIS analyzer.
//!
//! [`MegisAnalyzer`] wires Steps 1–3 together over in-memory synthetic data
//! and analyzes samples with exactly the same results as the
//! accuracy-optimized baseline (same databases, same thresholds) — the
//! property the paper's accuracy claim rests on. The performance side (what
//! runs where, and how long it takes on paper-scale workloads) is modeled
//! separately in [`crate::pipeline`].
//!
//! What stays resident is only what Steps 1–3 read: the sorted k-mer
//! database, the sketch's KSS joined against it, each taxon's sketch size
//! (presence calling), and the per-species mapping indexes. The sketch's
//! flat tables are dropped once joined, and the KSS tables are never built
//! on the analysis path; [`MegisAnalyzer::sketches`] and
//! [`MegisAnalyzer::kss`] rebuild them on first call from a kept copy of the
//! (small) reference collection, for callers that want the oracles.
//!
//! The databases are built once and never change, so they sit behind one
//! [`Arc`]: cloning an analyzer — which is how an engine takes its own
//! copy — shares them, the on-demand ones included, and copies only the
//! configuration and the exclusion policy.

use std::sync::{Arc, OnceLock};

use megis_genomics::database::{
    PartialUnifiedIndex, ReferenceIndex, SortedKmerDatabase, UnifiedReferenceIndex,
};
use megis_genomics::profile::{AbundanceProfile, PresenceResult};
use megis_genomics::reference::ReferenceCollection;
use megis_genomics::sample::Sample;
use megis_genomics::sketch::{SketchDatabase, SketchSizes};
use megis_tools::kmc::ExclusionPolicy;

use crate::config::MegisConfig;
use crate::kss::{KssJoin, KssTables, Support};
use crate::{step1, step2, step3};

/// Result of one end-to-end functional analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MegisOutput {
    /// Species reported present (Step 2).
    pub presence: PresenceResult,
    /// Mapping-based abundance estimate (Step 3).
    pub abundance: AbundanceProfile,
    /// Number of query k-mers that intersected the database.
    pub intersecting_kmers: u64,
    /// Number of distinct query k-mers sent to Step 2.
    pub selected_kmers: u64,
    /// Number of reads that mapped during abundance estimation.
    pub mapped_reads: u64,
}

/// The functional MegIS analyzer.
#[derive(Debug, Clone)]
pub struct MegisAnalyzer {
    config: MegisConfig,
    databases: Arc<Databases>,
    exclusion: ExclusionPolicy,
}

/// The analyzer's immutable databases, shared by every clone.
#[derive(Debug)]
struct Databases {
    database: SortedKmerDatabase,
    /// The sketch's KSS joined against `database`: what Step 2 retrieves
    /// taxIDs through.
    join: KssJoin,
    /// What presence calling reads of the sketch.
    sizes: SketchSizes,
    reference_indexes: Vec<ReferenceIndex>,
    /// What `sketches` and `kss` are built from, on first call.
    references: ReferenceCollection,
    sketches: OnceLock<SketchDatabase>,
    kss: OnceLock<KssTables>,
}

impl MegisAnalyzer {
    /// Builds the databases Steps 1–3 read from a reference collection:
    /// the sorted k-mer database, the sketch's KSS joined against it (the
    /// sketch itself is dropped once joined, keeping each taxon's sketch
    /// size), and the per-species mapping indexes.
    pub fn build(references: &ReferenceCollection, config: MegisConfig) -> MegisAnalyzer {
        let database = SortedKmerDatabase::build(references, config.k());
        let sketches = SketchDatabase::build(references, config.sketch);
        let join = KssJoin::build(&sketches, &database);
        let sizes = sketches.sizes().clone();
        drop(sketches);
        let reference_indexes = references
            .genomes()
            .iter()
            .map(|g| ReferenceIndex::build(g, config.mapping_k))
            .collect();
        MegisAnalyzer {
            config,
            databases: Arc::new(Databases {
                database,
                join,
                sizes,
                reference_indexes,
                references: references.clone(),
                sketches: OnceLock::new(),
                kss: OnceLock::new(),
            }),
            exclusion: ExclusionPolicy::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MegisConfig {
        &self.config
    }

    /// The sorted k-mer database.
    pub fn database(&self) -> &SortedKmerDatabase {
        &self.databases.database
    }

    /// The KSS tables: the on-storage format and the retrieval oracle. Built
    /// from [`MegisAnalyzer::sketches`] on first call and shared by every
    /// clone; no analysis path calls this.
    pub fn kss(&self) -> &KssTables {
        self.databases
            .kss
            .get_or_init(|| KssTables::build(self.sketches()))
    }

    /// The sketch's KSS joined against the database: Step 2's retrieval
    /// structure, indexed by database position.
    pub fn join(&self) -> &KssJoin {
        &self.databases.join
    }

    /// The logical sketch content. Rebuilt from the reference collection on
    /// first call and shared by every clone; no analysis path calls this.
    pub fn sketches(&self) -> &SketchDatabase {
        self.databases
            .sketches
            .get_or_init(|| SketchDatabase::build(&self.databases.references, self.config.sketch))
    }

    /// Whether [`MegisAnalyzer::sketches`] or [`MegisAnalyzer::kss`] has
    /// been built on this analyzer or a clone — a resident-set probe:
    /// building and analyzing never do.
    pub fn oracle_tables_built(&self) -> bool {
        self.databases.sketches.get().is_some() || self.databases.kss.get().is_some()
    }

    /// The per-species read-mapping indexes (one per reference genome, in
    /// reference-collection order).
    pub fn reference_indexes(&self) -> &[ReferenceIndex] {
        &self.databases.reference_indexes
    }

    /// The k-mer exclusion policy applied in Step 1.
    pub fn exclusion(&self) -> ExclusionPolicy {
        self.exclusion
    }

    /// Sets the k-mer exclusion policy applied in Step 1.
    pub fn set_exclusion(&mut self, exclusion: ExclusionPolicy) {
        self.exclusion = exclusion;
    }

    // ----- step-level entry points -------------------------------------------
    //
    // The batch scheduler (`megis-sched`) runs the pipeline steps out of band:
    // Step 1 of one sample on a host thread while Steps 2–3 of another
    // sample execute on the (simulated) SSDs, with intersection finding
    // sharded across devices. These entry points expose each step with
    // exactly the semantics `analyze` composes, so any such schedule produces
    // byte-identical results.

    /// Runs Step 1 (host-side query preparation) for one sample.
    pub fn run_step1(&self, sample: &Sample) -> step1::Step1Output {
        step1::run(sample.reads(), &self.config, self.exclusion)
    }

    /// Runs Step 2 (in-SSD candidate finding) over a Step 1 output, against
    /// the analyzer's own (unsharded) database: the one-shard case of the
    /// device pass [`step2::sweep`] the sharded scheduler runs per shard.
    pub fn run_step2(&self, step1: &step1::Step1Output) -> step2::Step2Output {
        step2::run(
            step1,
            self.database(),
            self.join(),
            &self.databases.sizes,
            &self.config,
        )
    }

    /// Calls presence from a sample's Step 2 support, folded over every
    /// shard's [`step2::sweep`] — what is left of Step 2 once the devices
    /// have reported.
    pub fn call_presence(&self, support: &Support) -> PresenceResult {
        self.databases.sizes.presence_from_support(
            &self.join().support_map(support),
            self.config.min_containment,
            self.config.min_support,
        )
    }

    /// Positions (within [`MegisAnalyzer::reference_indexes`]) of the
    /// candidate species reported present, in index order — which is
    /// reference-collection order, i.e. ascending taxid. This is the shared
    /// definition of "the candidate list" for Step 3, which merges the
    /// candidates in this order.
    pub fn candidate_positions(&self, presence: &PresenceResult) -> Vec<usize> {
        self.reference_indexes()
            .iter()
            .enumerate()
            .filter(|(_, idx)| presence.contains(idx.taxid()))
            .map(|(position, _)| position)
            .collect()
    }

    /// The candidate species' read-mapping indexes, *borrowed* from the
    /// analyzer's memoized per-species indexes. Index construction is
    /// one-time offline work (§4.4): the analyzer builds every species'
    /// index once in [`MegisAnalyzer::build`] and every sample's Step 3
    /// borrows the relevant subset — no per-sample rebuild, no per-sample
    /// copy (a regression test asserts the build count stays flat across
    /// analyses).
    pub fn candidate_indexes(&self, presence: &PresenceResult) -> Vec<&ReferenceIndex> {
        self.candidate_positions(presence)
            .into_iter()
            .map(|position| &self.reference_indexes()[position])
            .collect()
    }

    /// Generates the unified index over the candidates at `positions`
    /// (as [`MegisAnalyzer::candidate_positions`] lists them): Fig. 9's one
    /// sequential merge of their memoized per-species indexes.
    pub fn unified_index(&self, positions: &[usize]) -> UnifiedReferenceIndex {
        let candidates: Vec<&ReferenceIndex> = positions
            .iter()
            .map(|&position| &self.reference_indexes()[position])
            .collect();
        PartialUnifiedIndex::merge_range(&candidates, 0).into_index()
    }

    /// Runs Step 3 (unified index generation + read mapping) for the
    /// candidate species reported present: one merge over every candidate,
    /// then one [`step3::map_range`] over all the reads. `analyze` runs it,
    /// and so does the scheduler's Step 3 device command; the sequential
    /// [`step3::run`] is the oracle it is verified against.
    pub fn run_step3(&self, sample: &Sample, presence: &PresenceResult) -> step3::Step3Output {
        let index = self.unified_index(&self.candidate_positions(presence));
        let reads = sample.reads();
        step3::map_range(&index, reads, 0..reads.len(), self.config.mapping_k).into_output(index)
    }

    /// Assembles the end-to-end output from per-step results.
    pub fn assemble_output(
        step1: &step1::Step1Output,
        step2: &step2::Step2Output,
        step3: step3::Step3Output,
    ) -> MegisOutput {
        MegisOutput {
            presence: step2.presence.clone(),
            abundance: step3.abundance,
            intersecting_kmers: step2.intersection_size() as u64,
            selected_kmers: step1.selected_kmers,
            mapped_reads: step3.mapped_reads,
        }
    }

    /// Runs presence/absence identification only (Steps 1–2).
    pub fn identify_presence(&self, sample: &Sample) -> MegisOutput {
        let step1 = self.run_step1(sample);
        let step2 = self.run_step2(&step1);
        MegisOutput {
            presence: step2.presence.clone(),
            abundance: AbundanceProfile::new(),
            intersecting_kmers: step2.intersection_size() as u64,
            selected_kmers: step1.selected_kmers,
            mapped_reads: 0,
        }
    }

    /// Runs the full pipeline: presence identification followed by
    /// mapping-based abundance estimation (Steps 1–3).
    pub fn analyze(&self, sample: &Sample) -> MegisOutput {
        let step1 = self.run_step1(sample);
        let step2 = self.run_step2(&step1);
        let step3 = self.run_step3(sample, &step2.presence);
        MegisAnalyzer::assemble_output(&step1, &step2, step3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::metrics::{AbundanceError, ClassificationMetrics};
    use megis_genomics::sample::{CommunityConfig, Diversity};

    fn community() -> megis_genomics::sample::Community {
        CommunityConfig::preset(Diversity::Medium)
            .with_reads(300)
            .with_database_species(16)
            .build(63)
    }

    #[test]
    fn presence_has_high_f1_against_truth() {
        let c = community();
        let analyzer = MegisAnalyzer::build(c.references(), MegisConfig::small());
        let out = analyzer.identify_presence(c.sample());
        let m = ClassificationMetrics::score(&out.presence, &c.truth_presence());
        assert!(m.recall() > 0.9, "recall {}", m.recall());
        assert!(m.f1() > 0.7, "f1 {}", m.f1());
        assert!(out.intersecting_kmers > 0);
        assert!(out.selected_kmers >= out.intersecting_kmers);
    }

    #[test]
    fn full_analysis_estimates_abundance() {
        let c = community();
        let analyzer = MegisAnalyzer::build(c.references(), MegisConfig::small());
        let out = analyzer.analyze(c.sample());
        assert!(!out.abundance.is_empty());
        assert!(out.mapped_reads > 0);
        let err = AbundanceError::score(&out.abundance, c.truth_profile());
        assert!(err.l1_norm < 0.8, "L1 error {}", err.l1_norm);
    }

    #[test]
    fn candidate_indexes_are_memoized_not_rebuilt_per_sample() {
        // Regression: index construction is one-time offline work (§4.4).
        // The analyzer builds one index per reference genome at
        // construction; analyzing samples afterwards must neither rebuild
        // nor clone them — the thread-local build counter stays flat across
        // repeated analyses and Step 3 runs.
        let c = community();
        let before = ReferenceIndex::builds_on_this_thread();
        let analyzer = MegisAnalyzer::build(c.references(), MegisConfig::small());
        let after_build = ReferenceIndex::builds_on_this_thread();
        assert_eq!(
            after_build - before,
            c.references().len() as u64,
            "build constructs one index per genome"
        );
        let out = analyzer.analyze(c.sample());
        assert!(out.mapped_reads > 0);
        let _ = analyzer.run_step3(c.sample(), &out.presence);
        let _ = analyzer.analyze(c.sample());
        // A clone (an engine's copy) shares every database instead of
        // copying it, and analyzes through them just the same.
        let clone = analyzer.clone();
        assert!(std::ptr::eq(
            analyzer.reference_indexes(),
            clone.reference_indexes()
        ));
        assert!(std::ptr::eq(analyzer.join(), clone.join()));
        // The on-demand tables too: whichever copy builds them first, the
        // other reads the same ones.
        assert!(!clone.oracle_tables_built());
        let kss: *const KssTables = clone.kss();
        assert!(analyzer.oracle_tables_built());
        assert!(std::ptr::eq(analyzer.kss(), kss));
        assert!(std::ptr::eq(analyzer.sketches(), clone.sketches()));
        assert!(analyzer.database().shares_storage_with(clone.database()));
        assert_eq!(clone.analyze(c.sample()), out);
        assert_eq!(
            ReferenceIndex::builds_on_this_thread(),
            after_build,
            "analyses must borrow the memoized indexes, never rebuild them"
        );
        // The borrowed candidate list is the presence-filtered subset, in
        // ascending-taxid (collection) order.
        let candidates = analyzer.candidate_indexes(&out.presence);
        assert_eq!(candidates.len(), out.presence.len());
        assert!(candidates.windows(2).all(|w| w[0].taxid() < w[1].taxid()));
    }

    #[test]
    fn analysis_never_builds_the_oracle_tables_and_they_equal_fresh_builds() {
        // The resident set: building and analyzing keep neither the sketch
        // tables nor the KSS tables; asked for, they equal fresh builds.
        let c = community();
        let config = MegisConfig::small();
        let analyzer = MegisAnalyzer::build(c.references(), config);
        assert!(!analyzer.oracle_tables_built());
        let out = analyzer.analyze(c.sample());
        assert!(out.mapped_reads > 0 && !out.presence.is_empty());
        let step1 = analyzer.run_step1(c.sample());
        let support = step2::sweep(analyzer.database(), analyzer.join(), step1.kmers(), |_| {});
        assert_eq!(analyzer.call_presence(&support), out.presence);
        assert!(
            !analyzer.oracle_tables_built(),
            "the analysis path built an oracle table"
        );

        let fresh = SketchDatabase::build(c.references(), config.sketch);
        let fresh_kss = KssTables::build(&fresh);
        let (sketches, kss) = (analyzer.sketches(), analyzer.kss());
        assert_eq!(sketches.taxa(), fresh.taxa());
        for taxid in fresh.taxa() {
            let size = fresh.sizes().sketch_size_of(taxid);
            assert!(size > 0);
            assert_eq!(sketches.sizes().sketch_size_of(taxid), size, "{taxid}");
        }
        assert_eq!(sketches.flat_table_bytes(), fresh.flat_table_bytes());
        assert_eq!(kss.size_bytes(), fresh_kss.size_bytes());
        assert_eq!(kss.kmax_entries(), fresh_kss.kmax_entries());
        let mut matched = 0;
        for (position, kmer) in analyzer.database().kmers().enumerate().step_by(3) {
            let taxa = kss.lookup(kmer);
            assert_eq!(taxa, fresh_kss.lookup(kmer), "{kmer}");
            assert_eq!(taxa, analyzer.join().taxa_at(position), "{kmer}");
            matched += usize::from(!taxa.is_empty());
        }
        assert!(matched > 100, "{matched} database k-mers reach the sketch");
    }

    #[test]
    fn partitioned_step3_matches_sequential_for_any_part_count() {
        // Step 3 cut by reads: any number of read ranges mapped against the
        // one merged index and summed equals the sequential oracle.
        let c = community();
        let analyzer = MegisAnalyzer::build(c.references(), MegisConfig::small());
        let step1 = analyzer.run_step1(c.sample());
        let step2 = analyzer.run_step2(&step1);
        let candidates = analyzer.candidate_indexes(&step2.presence);
        let owned: Vec<ReferenceIndex> = candidates.iter().map(|c| (*c).clone()).collect();
        let (reads, k) = (c.sample().reads(), analyzer.config().mapping_k);
        let oracle = crate::step3::run(reads, &owned, k);
        assert!(oracle.mapped_reads > 0);
        let whole = analyzer.run_step3(c.sample(), &step2.presence);
        assert_eq!(whole, oracle);
        for parts in 1..=9usize {
            let mut merged = step3::MappedCounts::default();
            for range in step3::read_ranges(reads.len(), parts) {
                merged.merge(step3::map_range(&whole.unified_index, reads, range, k));
            }
            let sharded = merged.into_output(whole.unified_index.clone());
            assert_eq!(sharded, oracle, "{parts} parts diverged");
        }
    }

    #[test]
    fn exclusion_policy_is_respected() {
        let c = community();
        let mut analyzer = MegisAnalyzer::build(c.references(), MegisConfig::small());
        let baseline = analyzer.identify_presence(c.sample());
        analyzer.set_exclusion(ExclusionPolicy {
            min_count: 2,
            max_count: None,
        });
        let filtered = analyzer.identify_presence(c.sample());
        assert!(filtered.selected_kmers < baseline.selected_kmers);
    }
}
