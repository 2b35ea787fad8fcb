//! Genomics substrate for the MegIS reproduction.
//!
//! This crate provides every genomics-domain building block that the MegIS
//! in-storage-processing system (ISCA 2024) and its baselines depend on:
//!
//! * 2-bit packed DNA sequences ([`dna`]) — the encoding MegIS uses for both
//!   its databases and its in-flight query k-mers (§4.2 of the paper),
//! * k-mer extraction and canonicalization ([`kmer`]),
//! * sequencing reads and read sets ([`read`]),
//! * a taxonomy tree with lowest-common-ancestor queries ([`taxonomy`]),
//! * reference genomes and reference collections ([`mod@reference`]),
//! * synthetic metagenomic communities and read simulation, with presets that
//!   mirror the CAMI low/medium/high-diversity query sets used in the paper
//!   ([`sample`]),
//! * sorted k-mer databases and per-species reference k-mer indexes
//!   ([`database`]),
//! * sketch databases (small representative k-mer subsets per taxon, in the
//!   style of CMash/Metalign) ([`sketch`]),
//! * presence/absence and abundance result types ([`profile`]), and
//! * accuracy metrics (precision/recall/F1 and L1 abundance error)
//!   ([`metrics`]).
//!
//! # Example
//!
//! ```
//! use megis_genomics::sample::{CommunityConfig, Diversity};
//! use megis_genomics::kmer::KmerExtractor;
//!
//! let community = CommunityConfig::preset(Diversity::Low)
//!     .with_species(8)
//!     .with_reads(200)
//!     .build(42);
//! let sample = community.sample();
//! let k = 31;
//! let kmers: usize = sample
//!     .reads()
//!     .iter()
//!     .map(|r| KmerExtractor::new(r.sequence(), k).count())
//!     .sum();
//! assert!(kmers > 0);
//! ```

// The whole workspace is safe Rust ([workspace.lints] forbids it too);
// this attribute keeps the guarantee visible at the crate root.
#![forbid(unsafe_code)]
pub mod database;
pub mod dna;
pub mod kmer;
pub mod metrics;
pub mod profile;
pub mod read;
pub mod reference;
pub mod sample;
pub mod sketch;
pub mod taxonomy;

pub use database::{
    DatabaseStorage, PartialUnifiedIndex, ReadMapHit, ReferenceIndex, SortedKmerDatabase,
    UnifiedReferenceIndex, MIN_MAPPING_VOTES,
};
pub use dna::{Base, PackedSequence};
pub use kmer::{CanonicalKmerExtractor, Kmer, KmerExtractor};
pub use metrics::{AbundanceError, ClassificationMetrics};
pub use profile::{AbundanceAccumulator, AbundanceProfile, PresenceResult};
pub use read::{Read, ReadSet};
pub use reference::{ReferenceCollection, ReferenceGenome};
pub use sample::{Community, CommunityConfig, Diversity, Sample};
pub use sketch::{KmerEntry, KmerEntryRef, SketchConfig, SketchDatabase, SketchSizes, SketchTable};
pub use taxonomy::{TaxId, Taxonomy};
