//! One function per figure/table of the paper's evaluation.
//!
//! Every function evaluates the workspace's models at paper scale and returns
//! a plain-text report with the same rows/series as the corresponding figure
//! or table. [`EXPERIMENTS`] is the one list of them: the `megis-bench`
//! binary looks names up in it, [`all`] concatenates it (what
//! `cargo run -p megis-bench -- all` prints), and the suite's smoke test
//! iterates it.

mod accuracy;
mod comparison;
mod energy;
mod engine;
mod hardware;
mod motivation;
mod presence;
mod scaling;

pub use accuracy::accuracy_analysis;
pub use comparison::{
    fig18_cost_efficiency, fig19_pim_comparison, fig20_abundance, fig21_multi_sample,
};
pub use energy::energy_analysis;
pub use engine::{fig15_sharded_engine, fig21_batch_engine, streaming_load_analysis};
pub use hardware::{kss_size_analysis, table1_ssd_configs, table2_area_power};
pub use motivation::fig03_io_overhead;
pub use presence::{fig12_presence_speedup, fig13_time_breakdown, fig14_database_size};
pub use scaling::{fig15_multi_ssd, fig16_dram_capacity, fig17_internal_bandwidth};

/// One experiment: the name `megis-bench <name>` runs it under, and the
/// function that renders its report.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig03_io_overhead", fig03_io_overhead),
    ("table1_ssd_configs", table1_ssd_configs),
    ("fig12_presence_speedup", fig12_presence_speedup),
    ("fig13_time_breakdown", fig13_time_breakdown),
    ("fig14_database_size", fig14_database_size),
    ("fig15_multi_ssd", fig15_multi_ssd),
    ("fig15_engine_sharded", fig15_sharded_engine),
    ("fig16_dram_capacity", fig16_dram_capacity),
    ("fig17_internal_bandwidth", fig17_internal_bandwidth),
    ("fig18_cost_efficiency", fig18_cost_efficiency),
    ("fig19_pim_comparison", fig19_pim_comparison),
    ("fig20_abundance", fig20_abundance),
    ("fig21_multi_sample", fig21_multi_sample),
    ("fig21_engine_batch", fig21_batch_engine),
    ("streaming_load_analysis", streaming_load_analysis),
    ("table2_area_power", table2_area_power),
    ("kss_size_analysis", kss_size_analysis),
    ("energy_analysis", energy_analysis),
    ("accuracy_analysis", accuracy_analysis),
];

/// Runs every experiment and concatenates the reports in paper order.
pub fn all() -> String {
    EXPERIMENTS.iter().map(|(_, run)| run()).collect()
}

/// The two reference single-SSD systems of the evaluation (§5).
pub(crate) fn reference_systems() -> Vec<megis_host::system::SystemConfig> {
    vec![
        megis_host::system::SystemConfig::reference(megis_ssd::config::SsdConfig::ssd_c()),
        megis_host::system::SystemConfig::reference(megis_ssd::config::SsdConfig::ssd_p()),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_experiment_produces_output() {
        for (name, run) in super::EXPERIMENTS {
            let text = run();
            assert!(text.len() > 200, "{name} report looks empty");
            assert!(
                text.contains("Figure") || text.contains("Table") || text.contains("analysis"),
                "{name} report misses expected content"
            );
        }
    }
}
