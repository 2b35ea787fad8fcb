//! Sketch databases: small representative k-mer subsets per taxon.
//!
//! After intersection finding, the S-Qry flow (and MegIS's Step 2) retrieves
//! the taxIDs of intersecting k-mers by looking them up in a pre-built *sketch
//! database* — a small, representative subset of k-mers per taxon, in the
//! style of CMash/Metalign (§2.1.1, §4.3.2). Sketches contain **variable-sized
//! k-mers**: long k-mers (k = k_max) are highly specific, and shorter k-mers
//! (looked up as prefixes of the long query k-mers) recover additional matches
//! and raise the true-positive rate.
//!
//! This module provides the logical sketch content ([`SketchDatabase`]) in the
//! "flat table" representation of Fig. 7(a): one sorted table per k-mer size,
//! each k-mer stored explicitly and followed by its taxID list — the layout
//! of the k-mer database itself. So each table *is* a
//! [`SortedKmerDatabase`]: the database's CSR columns, built by the same
//! sort-and-group builder with a hash selection in place of "every k-mer".
//! The baselines' ternary-search-tree representation (Fig. 7(b)) lives in
//! `megis-tools`, and MegIS's K-mer Sketch Streaming representation
//! (Fig. 7(c)) lives in the `megis` core crate; both are built from these
//! tables, which is what makes the paper's size comparison (KSS ≈ 7.5×
//! smaller than flat tables, ≈ 2.1× larger than the tree) reproducible.
//!
//! Of the whole sketch, presence calling reads only each taxon's sketch
//! size ([`SketchSizes`]): once the tables have been joined into the
//! retrieval structure, an analyzer keeps the sizes and drops the tables.

use crate::database::SortedKmerDatabase;
use crate::kmer::Kmer;
use crate::reference::ReferenceCollection;
use crate::taxonomy::TaxId;

/// Configuration of sketch construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Largest (most specific) k-mer size stored in the sketch (60 in the
    /// paper's Metalign/CMash configuration).
    pub k_max: usize,
    /// Smallest k-mer size stored (prefix lookups go down to this size).
    pub k_min: usize,
    /// Step between consecutive k-mer sizes.
    pub k_step: usize,
    /// Fraction of a taxon's k-mers selected into its sketch (MinHash-style
    /// bottom-fraction selection).
    pub fraction: f64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            k_max: 45,
            k_min: 25,
            k_step: 10,
            fraction: 0.05,
        }
    }
}

impl SketchConfig {
    /// A small configuration suitable for unit tests (short genomes).
    pub fn small() -> SketchConfig {
        SketchConfig {
            k_max: 31,
            k_min: 21,
            k_step: 5,
            fraction: 0.2,
        }
    }

    /// The k-mer sizes stored in the sketch, largest first: `k_max`, then
    /// every `k_step` below it down to `k_min`. Total over the public fields:
    /// a size below 1 is never emitted, a zero step yields `k_max` alone, and
    /// `k_min > k_max` yields nothing.
    pub fn k_sizes(&self) -> Vec<usize> {
        let floor = self.k_min.max(1);
        if self.k_max < floor {
            return Vec::new();
        }
        if self.k_step == 0 {
            return vec![self.k_max];
        }
        (floor..=self.k_max).rev().step_by(self.k_step).collect()
    }
}

/// Deterministic 64-bit mix used for MinHash-style sketch selection.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Hash of a k-mer used for sketch selection.
pub fn sketch_hash(kmer: Kmer) -> u64 {
    let bits = kmer.bits();
    mix64((bits as u64) ^ mix64((bits >> 64) as u64) ^ (kmer.k() as u64).wrapping_mul(0x9e37_79b9))
}

/// Every taxon of a sketch, ascending, with the number of sketch k-mers
/// (across all k sizes) it appears on — all that presence calling reads of
/// the sketch, so it outlives the tables it was counted from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchSizes {
    sizes: Vec<(TaxId, usize)>,
}

impl SketchSizes {
    /// Counts each taxon's sketch k-mers over `tables`.
    fn count(tables: &[SortedKmerDatabase]) -> SketchSizes {
        let mut associations: Vec<TaxId> = tables
            .iter()
            .flat_map(|table| table.taxa_slice())
            .copied()
            .collect();
        associations.sort_unstable();
        let sizes = associations
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
            .collect();
        SketchSizes { sizes }
    }

    /// Number of sketch k-mers (across all k sizes) associated with a taxon —
    /// the denominator of the containment index used for presence calling.
    /// Fixed at build, so this is a lookup; 0 for a taxon not in the sketch.
    pub fn sketch_size_of(&self, taxid: TaxId) -> usize {
        self.sizes
            .binary_search_by_key(&taxid, |(t, _)| *t)
            .map_or(0, |i| self.sizes[i].1)
    }

    /// All taxa that appear anywhere in the sketch, ascending.
    pub fn taxa(&self) -> Vec<TaxId> {
        self.sizes.iter().map(|(taxid, _)| *taxid).collect()
    }

    /// Calls presence from per-taxon sketch-match support counts using a
    /// containment-index threshold: a taxon is reported present when at least
    /// `min_containment` of its sketch k-mers were matched (and at least
    /// `min_support` matches were seen).
    ///
    /// Both the S-Qry baseline (ternary-tree retrieval) and MegIS (KSS
    /// retrieval) produce the same support counts for the same sample, so
    /// sharing this final step is what makes their accuracy identical — the
    /// property the paper relies on (§5, "MegIS's end-to-end accuracy matches
    /// the accuracy of A-Opt"). Costs one [`SketchSizes::sketch_size_of`]
    /// lookup per supported taxon.
    pub fn presence_from_support(
        &self,
        support: &std::collections::HashMap<TaxId, u32>,
        min_containment: f64,
        min_support: u32,
    ) -> crate::profile::PresenceResult {
        crate::profile::PresenceResult::from_taxa(support.iter().filter_map(|(taxid, count)| {
            let sketch_size = self.sketch_size_of(*taxid);
            if sketch_size == 0 {
                return None;
            }
            let containment = *count as f64 / sketch_size as f64;
            (containment >= min_containment && *count >= min_support).then_some(*taxid)
        }))
    }
}

/// The sketch database in its flat-table (Fig. 7(a)) representation: one
/// columnar [`SortedKmerDatabase`] per k size.
#[derive(Debug, Clone, Default)]
pub struct SketchDatabase {
    config: Option<SketchConfig>,
    /// One sorted table per k size (largest k first).
    tables: Vec<SortedKmerDatabase>,
    /// Each taxon's sketch size, counted once at build.
    sizes: SketchSizes,
}

impl SketchDatabase {
    /// Builds the sketch database from a reference collection.
    ///
    /// For every taxon and every configured k size, the k-mers whose
    /// [`sketch_hash`] falls in the bottom `fraction` of the hash space are
    /// selected as that taxon's sketch: each table is
    /// [`SortedKmerDatabase::build_selected`] with that selection.
    pub fn build(references: &ReferenceCollection, config: SketchConfig) -> SketchDatabase {
        let threshold = (config.fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        let tables: Vec<SortedKmerDatabase> = config
            .k_sizes()
            .into_iter()
            .map(|k| {
                SortedKmerDatabase::build_selected(references, k, |kmer| {
                    sketch_hash(kmer) <= threshold
                })
            })
            .collect();
        SketchDatabase {
            config: Some(config),
            sizes: SketchSizes::count(&tables),
            tables,
        }
    }

    /// The configuration this database was built with, if built via
    /// [`SketchDatabase::build`].
    pub fn config(&self) -> Option<SketchConfig> {
        self.config
    }

    /// The k sizes present, largest first.
    pub fn k_sizes(&self) -> Vec<usize> {
        self.tables.iter().map(SortedKmerDatabase::k).collect()
    }

    /// The largest k size in the database.
    pub fn k_max(&self) -> Option<usize> {
        self.tables.first().map(SortedKmerDatabase::k)
    }

    /// The sorted table for a given k size.
    pub fn table(&self, k: usize) -> Option<&SortedKmerDatabase> {
        self.tables.iter().find(|table| table.k() == k)
    }

    /// Total number of (k-mer, taxon) associations across all tables.
    pub fn total_associations(&self) -> usize {
        self.tables.iter().map(|t| t.taxa_slice().len()).sum()
    }

    /// Total number of sketch k-mers across all tables.
    pub fn total_kmers(&self) -> usize {
        self.tables.iter().map(SortedKmerDatabase::len).sum()
    }

    /// Returns `true` if no sketch k-mers were selected.
    pub fn is_empty(&self) -> bool {
        self.total_kmers() == 0
    }

    /// Retrieves the taxa matched by a query k-mer of size `k_max`:
    /// the exact match plus matches of its prefixes at every smaller sketch
    /// k size (the variable-size lookup of §4.3.2). Returns a sorted,
    /// deduplicated list; empty if nothing matches.
    pub fn lookup_with_prefixes(&self, query: Kmer) -> Vec<TaxId> {
        let mut taxa = Vec::new();
        for table in &self.tables {
            if table.k() > query.k() {
                continue;
            }
            if let Some(entry) = table.lookup(query.prefix(table.k())) {
                taxa.extend_from_slice(entry.taxa);
            }
        }
        taxa.sort();
        taxa.dedup();
        taxa
    }

    /// Size of the flat-table representation in bytes (Fig. 7(a)): every
    /// k-mer stored explicitly in 2-bit encoding plus 4 bytes per taxID
    /// association. This is the baseline KSS is compared against.
    pub fn flat_table_bytes(&self) -> u64 {
        self.tables
            .iter()
            .map(SortedKmerDatabase::encoded_bytes)
            .sum()
    }

    /// Each taxon's sketch size: what presence calling keeps of the sketch
    /// once its tables are no longer needed.
    pub fn sizes(&self) -> &SketchSizes {
        &self.sizes
    }

    /// Calls presence from per-taxon support counts:
    /// [`SketchSizes::presence_from_support`] over this sketch's sizes.
    pub fn presence_from_support(
        &self,
        support: &std::collections::HashMap<TaxId, u32>,
        min_containment: f64,
        min_support: u32,
    ) -> crate::profile::PresenceResult {
        self.sizes
            .presence_from_support(support, min_containment, min_support)
    }

    /// All taxa that appear anywhere in the sketch database, ascending.
    pub fn taxa(&self) -> Vec<TaxId> {
        self.sizes.taxa()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs() -> ReferenceCollection {
        ReferenceCollection::synthetic(8, 800, 3)
    }

    #[test]
    fn k_sizes_descend_from_kmax() {
        let cfg = SketchConfig {
            k_max: 45,
            k_min: 25,
            k_step: 10,
            fraction: 0.1,
        };
        assert_eq!(cfg.k_sizes(), vec![45, 35, 25]);
    }

    #[test]
    fn k_sizes_is_total_over_the_public_fields() {
        let cfg = |k_max, k_min, k_step| SketchConfig {
            k_max,
            k_min,
            k_step,
            fraction: 0.1,
        };
        // A zero step cannot descend: k_max alone (it used to loop forever).
        assert_eq!(cfg(31, 21, 0).k_sizes(), vec![31]);
        // k = 0 is not a k-mer size (it used to reach KmerExtractor::new).
        assert_eq!(cfg(4, 0, 2).k_sizes(), vec![4, 2]);
        assert_eq!(cfg(3, 0, 1).k_sizes(), vec![3, 2, 1]);
        assert!(cfg(0, 0, 1).k_sizes().is_empty());
        assert!(cfg(21, 31, 5).k_sizes().is_empty());
        assert_eq!(cfg(31, 31, 5).k_sizes(), vec![31]);
        assert_eq!(cfg(31, 22, 5).k_sizes(), vec![31, 26]);
        // Both degenerate shapes build instead of hanging or panicking.
        let db = SketchDatabase::build(&refs(), cfg(8, 0, 4));
        assert_eq!(db.k_sizes(), vec![8, 4]);
        assert_eq!(
            SketchDatabase::build(&refs(), cfg(21, 21, 0)).k_sizes(),
            vec![21]
        );
    }

    #[test]
    fn sketch_sizes_counted_at_build_equal_a_recount() {
        let db = SketchDatabase::build(&refs(), SketchConfig::small());
        let taxa = db.taxa();
        assert!(!taxa.is_empty());
        for t in &taxa {
            let recount: usize = db
                .k_sizes()
                .into_iter()
                .map(|k| db.table(k).unwrap())
                .map(|table| table.entries().filter(|e| e.taxa.contains(t)).count())
                .sum();
            assert!(recount > 0);
            assert_eq!(db.sizes().sketch_size_of(*t), recount, "{t}");
        }
        assert_eq!(db.sizes().sketch_size_of(TaxId(u32::MAX)), 0);
        let empty = SketchDatabase::default();
        assert_eq!(empty.sizes().sketch_size_of(taxa[0]), 0);
        assert!(empty.taxa().is_empty());
        // The sizes alone call presence exactly as the whole sketch does:
        // every other taxon fully contained, the rest matched once.
        let sizes = db.sizes().clone();
        let support: std::collections::HashMap<TaxId, u32> = taxa
            .iter()
            .enumerate()
            .map(|(i, t)| (*t, [sizes.sketch_size_of(*t) as u32, 1][i % 2]))
            .collect();
        let presence = sizes.presence_from_support(&support, 0.1, 3);
        assert_eq!(presence, db.presence_from_support(&support, 0.1, 3));
        assert_eq!(presence.len(), taxa.len().div_ceil(2));
    }

    #[test]
    fn sketch_selects_a_fraction() {
        let r = refs();
        let db = SketchDatabase::build(&r, SketchConfig::small());
        assert!(!db.is_empty());
        // The sketch must be far smaller than the full k-mer content.
        let full_kmers: usize = r
            .genomes()
            .iter()
            .map(|g| g.len().saturating_sub(31 - 1))
            .sum();
        assert!(db.total_kmers() < full_kmers / 2);
    }

    #[test]
    fn every_taxon_is_represented() {
        let r = refs();
        let db = SketchDatabase::build(&r, SketchConfig::small());
        let sketch_taxa = db.taxa();
        for taxid in r.species() {
            assert!(
                sketch_taxa.contains(&taxid),
                "taxon {taxid} has no sketch k-mers"
            );
        }
    }

    #[test]
    fn exact_lookup_finds_selected_kmers() {
        let r = refs();
        let db = SketchDatabase::build(&r, SketchConfig::small());
        let table = &db.tables[0];
        let entry = table.entry(table.len() / 2);
        assert_eq!(entry.kmer.k(), table.k());
        assert_eq!(table.lookup(entry.kmer), Some(entry));
    }

    #[test]
    fn prefix_lookup_unions_smaller_k_matches() {
        let r = refs();
        let db = SketchDatabase::build(&r, SketchConfig::small());
        // Take a genome k_max-mer that is in the sketch, look it up with
        // prefixes, and check the exact-match taxa are included.
        let kmax = db.k_max().unwrap();
        let table = db.table(kmax).unwrap();
        let entry = table.entry(0);
        let with_prefixes = db.lookup_with_prefixes(entry.kmer);
        for t in entry.taxa {
            assert!(with_prefixes.contains(t));
        }
    }

    #[test]
    fn flat_table_bytes_counts_all_entries() {
        let db = SketchDatabase::build(&refs(), SketchConfig::small());
        let bytes = db.flat_table_bytes();
        assert!(bytes as usize >= db.total_kmers() * 6);
    }

    #[test]
    fn sketch_hash_is_deterministic_and_spread() {
        let a = Kmer::from_ascii(b"ACGTACGTACGTACGTACGTA").unwrap();
        let b = Kmer::from_ascii(b"ACGTACGTACGTACGTACGTC").unwrap();
        assert_eq!(sketch_hash(a), sketch_hash(a));
        assert_ne!(sketch_hash(a), sketch_hash(b));
    }
}
