//! MegIS: in-storage processing for end-to-end metagenomic analysis.
//!
//! This crate is the core of the reproduction of *MegIS: High-Performance,
//! Energy-Efficient, and Low-Cost Metagenomic Analysis with In-Storage
//! Processing* (ISCA 2024). MegIS is a cooperative in-storage-processing (ISP)
//! system: it partitions the accuracy-optimized metagenomic analysis pipeline
//! between the host and lightweight accelerators inside the SSD controller so
//! that the terabyte-scale, low-reuse database is streamed and filtered where
//! it lives, and only small results cross the host interface.
//!
//! The three steps of the pipeline (§4 of the paper):
//!
//! 1. **Step 1 — query preparation (host)** ([`step1`]): k-mer extraction from
//!    the sample, partitioning into lexicographic buckets, per-bucket sorting,
//!    and frequency-based exclusion. Bucketing lets Step 1 overlap with Step 2.
//! 2. **Step 2 — finding candidate species (in-SSD)** ([`step2`]): streaming
//!    intersection of the sorted query k-mers with the sorted k-mer database
//!    read from all flash channels, followed by taxID retrieval through
//!    *K-mer Sketch Streaming* ([`kss`]), MegIS's pointer-chase-free sketch
//!    representation, joined against the database once so that retrieval is
//!    a bit test and a rank per hit inside the same sweep; then presence
//!    calling in O(supported taxa).
//! 3. **Step 3 — abundance estimation support (in-SSD + accelerator/host)**
//!    ([`step3`]): in-SSD generation of a unified reference index over the
//!    candidate species, handed to a read mapper.
//!
//! Supporting pieces: the specialized block-level [`ftl`] (MegIS FTL) and its
//! channel-balanced data placement, the in-storage accelerator area/power
//! model ([`accel`], Table 2), the NVMe command extensions ([`commands`]),
//! the end-to-end performance model with all of the paper's configurations
//! ([`pipeline`], [`variants`]), and the system-level energy model
//! ([`energy`]).
//!
//! # Quick start
//!
//! ```
//! use megis::MegisAnalyzer;
//! use megis::config::MegisConfig;
//! use megis_genomics::sample::{CommunityConfig, Diversity};
//!
//! // Build a small synthetic community and analyze it functionally.
//! let community = CommunityConfig::preset(Diversity::Low)
//!     .with_reads(200)
//!     .with_database_species(16)
//!     .build(7);
//! let analyzer = MegisAnalyzer::build(community.references(), MegisConfig::small());
//! let result = analyzer.analyze(community.sample());
//! assert!(!result.presence.is_empty());
//! ```
//!
//! For the paper-scale performance results, see [`pipeline::MegisTimingModel`]
//! and the `megis-bench` crate, which regenerates every figure and table of
//! the paper's evaluation.
//!
//! # Batch analysis
//!
//! Analyzing one sample at a time leaves the system idle in alternation: the
//! SSDs wait while the host prepares queries, and the host waits while the
//! SSDs stream the database. For cohorts of samples sharing one database,
//! the paper's multi-sample use case (§4.7, Fig. 21) overlaps host-side
//! Step 1 of the next sample with the in-SSD Steps 2–3 of the current one,
//! and Fig. 15 partitions the sorted k-mer database disjointly across
//! several SSDs for near-linear in-SSD speedup.
//!
//! The `megis-sched` crate turns both ideas into a running engine: its
//! `StreamingEngine` accepts many samples — one at a time while it runs, or
//! a closed batch at once (FIFO or priority admission) — executes
//! Step 1 on a pool of host threads, runs Step 2's device pass
//! ([`step2::sweep`]: intersection finding fused with taxID retrieval) per
//! database shard as per-SSD commands served by the same pool, and maps
//! Step 3's reads on the same
//! devices — the step-level entry points on [`MegisAnalyzer`]
//! ([`MegisAnalyzer::run_step1`], [`MegisAnalyzer::call_presence`],
//! [`MegisAnalyzer::unified_index`]). Results are byte-identical to calling
//! [`MegisAnalyzer::analyze`] per sample — at any worker or shard count —
//! while the engine reports per-job latency percentiles and per-shard
//! utilization, next to a modeled-time account cross-checked against
//! [`pipeline::MegisTimingModel::multi_sample_breakdown`].

// The whole workspace is safe Rust ([workspace.lints] forbids it too);
// this attribute keeps the guarantee visible at the crate root.
#![forbid(unsafe_code)]
pub mod accel;
pub mod analyzer;
pub mod commands;
pub mod config;
pub mod energy;
pub mod ftl;
pub mod kss;
pub mod pipeline;
pub mod step1;
pub mod step2;
pub mod step3;
pub mod variants;

pub use analyzer::{MegisAnalyzer, MegisOutput};
pub use config::MegisConfig;
pub use kss::{KssJoin, KssTables};
pub use pipeline::MegisTimingModel;
pub use variants::MegisVariant;
