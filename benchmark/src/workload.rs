//! The four workloads and their seeded input generator.
//!
//! Every workload keeps the engine's simulated-latency knobs
//! (`device_latency`, `step3_item_latency`, `submission_latency`,
//! `completion_latency`, `coalescing_window`, `fault_plan`) at their
//! zero/`None` defaults, so everything the benchmark times is host CPU work.
//! The generator runs on the calling thread and spawns nothing.

use megis::config::MegisConfig;
use megis_genomics::reference::ReferenceCollection;
use megis_genomics::sample::{CommunityConfig, Diversity, Sample};
use megis_sched::EngineConfig;

/// Where a workload's reads are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// The database's own reference genomes: reads hit, Step 2 finds
    /// candidates and Step 3 maps.
    Database,
    /// References generated from a different seed: nothing intersects, so
    /// taxID retrieval, Step 3 and the reduce are bypassed.
    Foreign,
}

/// One benchmark workload: database shape, cohort shape, engine shape and
/// load shape. The load generator is always the single calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Species in the database.
    pub species: usize,
    /// Bases per reference genome.
    pub genome_len: usize,
    /// Samples submitted per pass.
    pub samples: usize,
    /// Reads per sample.
    pub reads: usize,
    pub source: ReadSource,
    pub workers: usize,
    pub shards: usize,
    pub queue_depth: usize,
    /// Jobs the generator keeps outstanding: `samples` for a closed batch
    /// (submit everything, then wait in order), fewer for a closed loop
    /// (wait for the oldest before submitting the next).
    pub outstanding: usize,
}

/// The benchmark's workloads, in reporting order. `BENCHMARK.json` carries
/// the one-line reason for each; `README.md` the long form.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "cohort_mapped",
        species: 32,
        genome_len: 10_000,
        samples: 24,
        reads: 1000,
        source: ReadSource::Database,
        workers: 2,
        shards: 2,
        queue_depth: 4,
        outstanding: 24,
    },
    WorkloadSpec {
        name: "cohort_foreign",
        species: 32,
        genome_len: 10_000,
        samples: 80,
        reads: 1000,
        source: ReadSource::Foreign,
        workers: 2,
        shards: 2,
        queue_depth: 4,
        outstanding: 80,
    },
    WorkloadSpec {
        name: "cohort_tiny_wide",
        species: 12,
        genome_len: 2_000,
        samples: 160,
        reads: 80,
        source: ReadSource::Database,
        workers: 2,
        shards: 8,
        queue_depth: 4,
        outstanding: 160,
    },
    WorkloadSpec {
        name: "stream_closed2",
        species: 32,
        genome_len: 10_000,
        samples: 16,
        reads: 500,
        source: ReadSource::Database,
        workers: 2,
        shards: 2,
        queue_depth: 4,
        outstanding: 2,
    },
];

/// Seed offset of the foreign reference collection (any value that is not a
/// seed the driver passes; the generator only needs it to differ).
const FOREIGN_SEED_OFFSET: u64 = 0x0f0e_1e16_0000_0001;

impl WorkloadSpec {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<WorkloadSpec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at smoke-test size: same layers exercised, counts
    /// small enough for a debug build to finish in about a second.
    pub fn quick(mut self) -> WorkloadSpec {
        self.species = self.species.min(8);
        self.genome_len = self.genome_len.min(1_000);
        self.samples = self.samples.min(4);
        self.reads = self.reads.min(40);
        self.outstanding = self.outstanding.min(self.samples);
        self
    }

    /// The pipeline configuration every workload analyzes with.
    pub fn megis_config(&self) -> MegisConfig {
        MegisConfig::small()
    }

    /// The engine configuration: only the shape knobs differ from the
    /// defaults; every simulated-latency knob stays off.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::new()
            .with_workers(self.workers)
            .with_shards(self.shards)
            .with_queue_depth(self.queue_depth)
    }

    fn community(&self) -> CommunityConfig {
        CommunityConfig::preset(Diversity::Medium)
            .with_database_species(self.species)
            .with_genome_len(self.genome_len)
            .with_reads(self.reads)
    }

    /// The reference collection the database is built from.
    pub fn references(&self, seed: u64) -> ReferenceCollection {
        ReferenceCollection::synthetic(self.species, self.genome_len, seed)
    }

    /// The cohort for `seed`: `samples` samples of `reads` reads, each drawn
    /// with its own read seed from the database's references or from the
    /// foreign collection.
    pub fn samples(&self, seed: u64) -> Vec<Sample> {
        let reference_seed = match self.source {
            ReadSource::Database => seed,
            ReadSource::Foreign => seed.wrapping_add(FOREIGN_SEED_OFFSET),
        };
        let community = self.community();
        (0..self.samples as u64)
            .map(|i| {
                let read_seed = seed.wrapping_mul(1_000_003).wrapping_add(i);
                community
                    .build_cohort_sample(reference_seed, read_seed)
                    .sample()
                    .clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis::MegisAnalyzer;

    fn sequences(samples: &[Sample]) -> Vec<Vec<u8>> {
        samples
            .iter()
            .flat_map(|s| s.reads().iter().map(|r| r.sequence().to_ascii()))
            .collect()
    }

    #[test]
    fn same_seed_same_reads_and_another_seed_other_reads() {
        for spec in WORKLOADS.map(WorkloadSpec::quick) {
            let a = sequences(&spec.samples(11));
            assert_eq!(a.len(), spec.samples * spec.reads);
            assert_eq!(a, sequences(&spec.samples(11)), "{}", spec.name);
            assert_ne!(a, sequences(&spec.samples(12)), "{}", spec.name);
        }
    }

    #[test]
    fn foreign_samples_intersect_nothing_and_database_samples_do() {
        for spec in WORKLOADS.map(WorkloadSpec::quick) {
            let analyzer = MegisAnalyzer::build(&spec.references(5), spec.megis_config());
            for sample in spec.samples(5) {
                let hits = analyzer.identify_presence(&sample).intersecting_kmers;
                match spec.source {
                    ReadSource::Foreign => assert_eq!(hits, 0, "{}", spec.name),
                    ReadSource::Database => assert!(hits > 0, "{}", spec.name),
                }
            }
        }
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::report::is_valid_name(w.name), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(WorkloadSpec::named(w.name), Some(*w));
        }
        assert_eq!(WorkloadSpec::named("no_such_workload"), None);
    }
}
