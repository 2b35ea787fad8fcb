//! Accuracy parity and ordering tests (§5 of the paper).
//!
//! * MegIS must report exactly the same species as the accuracy-optimized
//!   S-Qry baseline — its databases encode the same k-mers and sketches, so
//!   the analysis outcome is unchanged by moving the work into the SSD.
//! * Both must be substantially more accurate than the performance-optimized
//!   R-Qry baseline when the latter is built from a sampled (poorer) genome
//!   collection — the reason the paper evaluates against both baselines.

use megis::config::MegisConfig;
use megis::MegisAnalyzer;
use megis_genomics::metrics::{AbundanceError, ClassificationMetrics};
use megis_genomics::sample::{CommunityConfig, Diversity};
use megis_genomics::sketch::SketchConfig;
use megis_tools::kraken::KrakenClassifier;
use megis_tools::metalign::MetalignClassifier;

#[test]
fn megis_presence_matches_accuracy_optimized_baseline_exactly() {
    for (diversity, seed) in [
        (Diversity::Low, 31),
        (Diversity::Medium, 32),
        (Diversity::High, 33),
    ] {
        let community = CommunityConfig::preset(diversity)
            .with_reads(300)
            .with_database_species(24)
            .build(seed);
        let config = MegisConfig::small();
        let megis = MegisAnalyzer::build(community.references(), config);
        let metalign = MetalignClassifier::build(community.references(), config.sketch);

        let megis_out = megis.identify_presence(community.sample());
        let metalign_out = metalign.identify_presence(community.sample().reads());

        assert_eq!(
            megis_out.presence, metalign_out.presence,
            "{diversity:?}: MegIS and the A-Opt baseline disagree on presence"
        );
        assert_eq!(
            megis_out.intersecting_kmers as usize,
            metalign_out.intersecting_kmers.len(),
            "{diversity:?}: intersection sizes differ"
        );
    }
}

#[test]
fn megis_presence_matches_the_baseline_at_full_width_sketch_shapes() {
    // k_max = 45 is the shape whose k-mers need the full-width word; 33 and
    // 32 are the first k that does and the last that does not. The baseline
    // retrieves taxIDs through the ternary sketch tree, not the KSS join.
    for (k_max, seed) in [(45usize, 61u64), (33, 62), (32, 63)] {
        let community = CommunityConfig::preset(Diversity::Medium)
            .with_reads(300)
            .with_database_species(16)
            .build(seed);
        let sketch = SketchConfig {
            k_max,
            k_min: k_max - 10,
            k_step: 5,
            fraction: 0.2,
        };
        let config = MegisConfig {
            sketch,
            ..MegisConfig::small()
        };
        let megis = MegisAnalyzer::build(community.references(), config);
        let metalign = MetalignClassifier::build(community.references(), config.sketch);

        let megis_out = megis.identify_presence(community.sample());
        let metalign_out = metalign.identify_presence(community.sample().reads());
        assert!(!megis_out.presence.is_empty(), "k_max {k_max}: no species");
        assert_eq!(
            megis_out.presence, metalign_out.presence,
            "k_max {k_max}: MegIS and the A-Opt baseline disagree on presence"
        );
        assert_eq!(
            megis_out.intersecting_kmers as usize,
            metalign_out.intersecting_kmers.len(),
            "k_max {k_max}: intersection sizes differ"
        );
        assert_eq!(
            megis.analyze(community.sample()).abundance,
            metalign.analyze(community.sample().reads()).abundance,
            "k_max {k_max}: abundance"
        );
    }
}

#[test]
fn megis_abundance_matches_accuracy_optimized_baseline_exactly() {
    let community = CommunityConfig::preset(Diversity::Medium)
        .with_reads(300)
        .with_database_species(16)
        .build(41);
    let config = MegisConfig::small();
    let megis = MegisAnalyzer::build(community.references(), config);
    let metalign = MetalignClassifier::build(community.references(), config.sketch);

    let megis_out = megis.analyze(community.sample());
    let metalign_out = metalign.analyze(community.sample().reads());
    assert_eq!(megis_out.abundance, metalign_out.abundance);
}

#[test]
fn accuracy_optimized_flow_beats_sampled_performance_optimized_flow() {
    // The P-Opt baseline's default database encodes a poorer genome collection
    // (sampling for speed); model that by building the R-Qry classifier from
    // a subsampled reference collection. A-Opt/MegIS use the full collection.
    let community = CommunityConfig::preset(Diversity::High)
        .with_reads(500)
        .with_database_species(32)
        .build(47);
    let config = MegisConfig::small();

    let megis = MegisAnalyzer::build(community.references(), config);
    let sampled_refs = community.references().subsample(2);
    let kraken = KrakenClassifier::build(&sampled_refs, 21);

    let truth = community.truth_presence();
    let megis_metrics = ClassificationMetrics::score(
        &megis.identify_presence(community.sample()).presence,
        &truth,
    );
    let kraken_metrics = ClassificationMetrics::score(
        &kraken.classify(community.sample().reads()).presence,
        &truth,
    );

    assert!(
        megis_metrics.f1() > kraken_metrics.f1(),
        "MegIS F1 {} must exceed sampled P-Opt F1 {}",
        megis_metrics.f1(),
        kraken_metrics.f1()
    );
}

#[test]
fn accuracy_optimized_abundance_has_lower_l1_error() {
    let community = CommunityConfig::preset(Diversity::Medium)
        .with_reads(600)
        .with_database_species(24)
        .build(53);
    let config = MegisConfig::small();

    let megis = MegisAnalyzer::build(community.references(), config);
    let sampled_refs = community.references().subsample(2);
    let kraken = KrakenClassifier::build(&sampled_refs, 21);

    let truth = community.truth_profile();
    let megis_err = AbundanceError::score(&megis.analyze(community.sample()).abundance, truth);
    let kraken_err = AbundanceError::score(
        &kraken.classify(community.sample().reads()).abundance,
        truth,
    );
    assert!(
        megis_err.l1_norm < kraken_err.l1_norm,
        "MegIS L1 {} must be below sampled P-Opt L1 {}",
        megis_err.l1_norm,
        kraken_err.l1_norm
    );
}
