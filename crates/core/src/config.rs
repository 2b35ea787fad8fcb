//! MegIS configuration.

use megis_genomics::sketch::SketchConfig;
use megis_ssd::timing::ByteSize;

/// Configuration of the MegIS pipeline (both the functional analyzer and the
/// performance model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MegisConfig {
    /// Sketch construction parameters (k_max is also the database k).
    pub sketch: SketchConfig,
    /// Batch size used when moving query k-mers from the host into the SSD's
    /// internal DRAM (two batches are double-buffered; 1 MiB each for the
    /// 8-channel configuration of §4.3.1).
    pub dram_batch: ByteSize,
    /// Minimum containment index for a species to be reported present
    /// (identical to the A-Opt baseline so accuracy matches).
    pub min_containment: f64,
    /// Minimum sketch-match support for a species to be reported present.
    pub min_support: u32,
    /// Seed length used for read mapping in abundance estimation.
    pub mapping_k: usize,
}

impl Default for MegisConfig {
    fn default() -> Self {
        MegisConfig {
            sketch: SketchConfig::default(),
            dram_batch: ByteSize::from_mib(1),
            min_containment: 0.4,
            min_support: 3,
            mapping_k: 15,
        }
    }
}

impl MegisConfig {
    /// A small configuration for unit tests and examples on synthetic data
    /// (short genomes, small sketch k-mers).
    pub fn small() -> MegisConfig {
        MegisConfig {
            sketch: SketchConfig::small(),
            ..MegisConfig::default()
        }
    }

    /// The database/query k-mer size (the sketch's k_max).
    pub fn k(&self) -> usize {
        self.sketch.k_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = MegisConfig::default();
        assert_eq!(cfg.dram_batch.as_bytes(), 1024 * 1024);
    }

    #[test]
    fn small_config_is_test_friendly() {
        let cfg = MegisConfig::small();
        assert!(cfg.k() <= 31);
    }

    #[test]
    fn presence_thresholds_match_metalign_defaults() {
        // Accuracy parity with the A-Opt baseline requires identical
        // presence-calling parameters.
        let cfg = MegisConfig::default();
        assert_eq!(cfg.min_support, 3);
        assert!((cfg.min_containment - 0.4).abs() < 1e-12);
    }
}
