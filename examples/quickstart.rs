//! Quickstart: analyze a synthetic metagenomic sample with MegIS.
//!
//! Builds a small synthetic community (references + reads), runs the
//! functional MegIS pipeline (Steps 1–3) on it, scores the result against the
//! known ground truth, and then asks the performance model what the same
//! analysis would cost at paper scale (100 M reads, 701 GB database) on the
//! two evaluated SSDs.
//!
//! Run with: `cargo run -p megis-examples --bin quickstart`

use megis::config::MegisConfig;
use megis::pipeline::MegisTimingModel;
use megis::MegisAnalyzer;
use megis_examples::{format_breakdown, format_profile};
use megis_genomics::metrics::{AbundanceError, ClassificationMetrics};
use megis_genomics::sample::{CommunityConfig, Diversity};
use megis_host::system::SystemConfig;
use megis_ssd::config::SsdConfig;
use megis_tools::workload::WorkloadSpec;

fn main() {
    println!("MegIS quickstart");
    println!("================\n");

    // 1. Create a synthetic community: 6 species drawn from a 24-species
    //    reference collection, 500 short reads.
    let community = CommunityConfig::preset(Diversity::Medium)
        .with_species(6)
        .with_reads(500)
        .with_database_species(24)
        .build(42);
    println!(
        "sample: {} reads, {} true species, database of {} species",
        community.sample().len(),
        community.truth_presence().len(),
        community.references().species().len()
    );

    // 2. Build MegIS's databases (sorted k-mer database, sketches, KSS tables,
    //    per-species mapping indexes) and analyze the sample.
    let analyzer = MegisAnalyzer::build(community.references(), MegisConfig::small());
    let result = analyzer.analyze(community.sample());

    println!("\nspecies reported present: {}", result.presence.len());
    println!(
        "query k-mers: {} selected, {} intersected the database",
        result.selected_kmers, result.intersecting_kmers
    );
    println!("\nestimated abundance profile:");
    println!(
        "{}",
        format_profile(&result.abundance, community.references().taxonomy())
    );

    // 3. Score against the ground truth carried by the synthetic reads.
    let metrics = ClassificationMetrics::score(&result.presence, &community.truth_presence());
    let l1 = AbundanceError::score(&result.abundance, community.truth_profile());
    println!(
        "\naccuracy vs ground truth: F1 {:.3} (precision {:.3}, recall {:.3}), L1 error {:.3}",
        metrics.f1(),
        metrics.precision(),
        metrics.recall(),
        l1.l1_norm
    );

    // 4. What would this analysis cost at paper scale?
    println!("\npaper-scale performance estimate (CAMI-M, 100 M reads, 701 GB database):\n");
    let workload = WorkloadSpec::cami(Diversity::Medium);
    for ssd in [SsdConfig::ssd_c(), SsdConfig::ssd_p()] {
        let system = SystemConfig::reference(ssd);
        let breakdown = MegisTimingModel::full().presence_breakdown(&system, &workload);
        println!("{}", format_breakdown(&breakdown));
    }
    println!(
        "Compare with the baselines via `cargo run -p megis-bench -- fig12_presence_speedup`."
    );
}
