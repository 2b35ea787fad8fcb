//! Shared helpers for the MegIS example applications.
//!
//! The runnable examples live next to this file:
//!
//! * `quickstart` — build a synthetic community, analyze it with MegIS, and
//!   print presence/abundance plus the paper-scale performance estimate,
//! * `clinical_pathogen_id` — a time-critical clinical scenario comparing the
//!   tools' turnaround times and accuracy for pathogen detection,
//! * `multi_sample_study` — a multi-sample cohort study sharing one database
//!   (the use case of §4.7 / Fig. 21),
//! * `cost_efficiency_sweep` — system-design exploration across SSD types,
//!   DRAM sizes, and SSD counts (Figs. 15–18),
//! * `batch_service` — a many-client closed batch on the `megis-sched`
//!   engine (`submit_all` + `shutdown`): priority admission, sharded
//!   multi-SSD execution, the §4.7 inter-sample pipeline, and a parity check
//!   of every result against the sequential analyzer,
//! * `streaming_service` — the same engine fed live: clients submit from
//!   several threads while it runs, clinical cases overtake queued
//!   work mid-stream, results stream back incrementally, and the service
//!   drains gracefully.

// The whole workspace is safe Rust ([workspace.lints] forbids it too);
// this attribute keeps the guarantee visible at the crate root.
#![forbid(unsafe_code)]
use megis_genomics::profile::AbundanceProfile;
use megis_genomics::taxonomy::Taxonomy;
use megis_tools::timing::Breakdown;

/// Formats an abundance profile with species names for display.
pub fn format_profile(profile: &AbundanceProfile, taxonomy: &Taxonomy) -> String {
    let mut rows: Vec<(f64, String)> = profile
        .iter()
        .map(|(taxid, abundance)| {
            let name = taxonomy.name(taxid).unwrap_or("<unknown>").to_string();
            (
                abundance,
                format!("  {:>7.2}%  {name} ({taxid})", abundance * 100.0),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    rows.into_iter()
        .map(|(_, line)| line)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Formats a timing breakdown as a short indented table.
pub fn format_breakdown(breakdown: &Breakdown) -> String {
    let mut out = format!(
        "{} — total {:.1} s\n",
        breakdown.label,
        breakdown.total().as_secs()
    );
    for phase in &breakdown.phases {
        out.push_str(&format!(
            "    {:<48} {:>8.1} s\n",
            phase.name,
            phase.duration.as_secs()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::taxonomy::{Rank, TaxId};

    #[test]
    fn profile_formatting_sorts_by_abundance() {
        let mut taxonomy = Taxonomy::new();
        taxonomy.add_node(TaxId(1), TaxId::ROOT, Rank::Species, "Minor species");
        taxonomy.add_node(TaxId(2), TaxId::ROOT, Rank::Species, "Major species");
        let profile = AbundanceProfile::from_counts([(TaxId(1), 10), (TaxId(2), 90)]);
        let text = format_profile(&profile, &taxonomy);
        let major = text.find("Major species").unwrap();
        let minor = text.find("Minor species").unwrap();
        assert!(major < minor, "dominant species must be listed first");
    }

    #[test]
    fn breakdown_formatting_contains_phases() {
        let mut b = Breakdown::new("demo");
        b.push_phase("phase one", megis_ssd::timing::SimDuration::from_secs(1.5));
        let text = format_breakdown(&b);
        assert!(text.contains("demo"));
        assert!(text.contains("phase one"));
    }
}
