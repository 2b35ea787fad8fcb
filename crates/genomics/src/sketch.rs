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
//! each k-mer stored explicitly and followed by its taxID list. Each table
//! is a [`SketchTable`]: its keys are a [`SortedKmerDatabase`] (the k-mer
//! database's column and directory, so a key lookup is the database's
//! probe), and beside them a CSR of taxa — the only taxa of the whole
//! pipeline's databases, since the k-mer database holds bare k-mers. The
//! table is built by one `(payload word, taxid)` sort-and-group over the
//! k-mers a hash selects ([`SketchTable::build_selected`]).
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
use crate::kmer::{fits_half_word, CanonicalWords, Kmer, KmerWord};
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

/// One owned entry of a [`SketchTable`]: a k-mer and the taxa it occurs in.
/// Used as builder input ([`SketchTable::from_sorted_entries`]) and for
/// detached copies ([`KmerEntryRef::to_owned`]); the table itself stores
/// entries columnarly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerEntry {
    /// The indexed k-mer.
    pub kmer: Kmer,
    /// Sorted, deduplicated taxa whose genomes contain the k-mer.
    pub taxa: Vec<TaxId>,
}

/// A borrowed view of one [`SketchTable`] entry: the k-mer plus its taxa
/// slice inside the table's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmerEntryRef<'a> {
    /// The indexed k-mer.
    pub kmer: Kmer,
    /// Sorted, deduplicated taxa whose genomes contain the k-mer.
    pub taxa: &'a [TaxId],
}

impl KmerEntryRef<'_> {
    /// Detaches the entry from the table it borrows.
    pub fn to_owned(&self) -> KmerEntry {
        KmerEntry {
            kmer: self.kmer,
            taxa: self.taxa.to_vec(),
        }
    }
}

/// One k size's flat sketch table (Fig. 7(a)): its sorted keys as a
/// [`SortedKmerDatabase`] (the column and directory the k-mer database
/// holds) plus their taxa in CSR form — entry `i`'s taxa are
/// `taxa[taxa_offsets[i]..taxa_offsets[i + 1]]`. The taxa are what the KSS
/// join, the KSS tables and the ternary tree are built from; the k-mer
/// database itself holds none.
#[derive(Debug, Clone)]
pub struct SketchTable {
    keys: SortedKmerDatabase,
    /// `keys.len() + 1` boundaries into `taxa`.
    taxa_offsets: Vec<u32>,
    taxa: Vec<TaxId>,
}

impl SketchTable {
    /// The table of the canonical k-mers of length `k` that `keep` selects,
    /// each with the taxa of the genomes holding it. The build is flat end to
    /// end: collect every selected `(payload word, taxid)` association on
    /// words sized to `k` (8 bytes when `2k <= 64`, 16 otherwise —
    /// [`fits_half_word`]), `sort_unstable` + `dedup` the pair list (word
    /// order is k-mer order within one k), and run-length group it into the
    /// columns — no per-entry map nodes, no `O(t)` membership scans per
    /// occurrence. The result is identical to inserting each association
    /// into an ordered map.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds [`crate::kmer::MAX_K`].
    pub fn build_selected(
        references: &ReferenceCollection,
        k: usize,
        keep: impl Fn(Kmer) -> bool,
    ) -> SketchTable {
        if fits_half_word(k) {
            SketchTable::build::<u64>(references, k, keep)
        } else {
            SketchTable::build::<u128>(references, k, keep)
        }
    }

    /// [`SketchTable::build_selected`] over payload words of type `W`.
    fn build<W: KmerWord>(
        references: &ReferenceCollection,
        k: usize,
        keep: impl Fn(Kmer) -> bool,
    ) -> SketchTable {
        let mut pairs: Vec<(W, TaxId)> = Vec::new();
        for genome in references.genomes() {
            let taxid = genome.taxid();
            pairs.extend(
                CanonicalWords::<W>::new(genome.sequence(), k)
                    .filter(|word| keep(Kmer::from_word(*word, k)))
                    .map(|word| (word, taxid)),
            );
        }
        pairs.sort_unstable();
        pairs.dedup();
        assert!(
            pairs.len() < u32::MAX as usize,
            "taxa column exceeds u32 offsets"
        );
        let runs = pairs.chunk_by(|a, b| a.0 == b.0);
        let mut kmers: Vec<Kmer> = Vec::with_capacity(runs.clone().count());
        let mut taxa_offsets: Vec<u32> = Vec::with_capacity(kmers.capacity() + 1);
        taxa_offsets.push(0);
        let mut taxa: Vec<TaxId> = Vec::with_capacity(pairs.len());
        for run in runs {
            kmers.push(Kmer::from_word(run[0].0, k));
            taxa.extend(run.iter().map(|(_, taxid)| *taxid));
            taxa_offsets.push(taxa.len() as u32);
        }
        SketchTable {
            keys: SortedKmerDatabase::from_sorted_kmers(k, kmers),
            taxa_offsets,
            taxa,
        }
    }

    /// Creates a table from pre-sorted entries.
    ///
    /// # Panics
    ///
    /// Panics if entries are not strictly sorted by k-mer, or if any entry's
    /// k-mer is not of length `k`.
    pub fn from_sorted_entries(k: usize, entries: Vec<KmerEntry>) -> SketchTable {
        let associations: usize = entries.iter().map(|e| e.taxa.len()).sum();
        assert!(
            associations < u32::MAX as usize,
            "taxa column exceeds u32 offsets"
        );
        let mut kmers = Vec::with_capacity(entries.len());
        let mut taxa_offsets = Vec::with_capacity(entries.len() + 1);
        taxa_offsets.push(0u32);
        let mut taxa = Vec::with_capacity(associations);
        for entry in entries {
            kmers.push(entry.kmer);
            taxa.extend(entry.taxa);
            taxa_offsets.push(taxa.len() as u32);
        }
        SketchTable {
            keys: SortedKmerDatabase::from_sorted_kmers(k, kmers),
            taxa_offsets,
            taxa,
        }
    }

    /// The k-mer length of the table.
    pub fn k(&self) -> usize {
        self.keys.k()
    }

    /// Number of entries (distinct k-mers).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted key column.
    pub fn kmer_slice(&self) -> &[Kmer] {
        self.keys.kmer_slice()
    }

    /// Iterates over the sorted keys.
    pub fn kmers(&self) -> impl Iterator<Item = Kmer> + '_ {
        self.keys.kmers()
    }

    /// Borrowed view of entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn entry(&self, index: usize) -> KmerEntryRef<'_> {
        let start = self.taxa_offsets[index] as usize;
        let end = self.taxa_offsets[index + 1] as usize;
        KmerEntryRef {
            kmer: self.kmer_slice()[index],
            taxa: &self.taxa[start..end],
        }
    }

    /// Iterates over the sorted entries as borrowed views.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = KmerEntryRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.entry(i))
    }

    /// The entry of `kmer`, if it is a key: [`SortedKmerDatabase::lookup`]
    /// of the keys.
    pub fn lookup(&self, kmer: Kmer) -> Option<KmerEntryRef<'_>> {
        self.keys.lookup(kmer).map(|position| self.entry(position))
    }

    /// Every k-mer→taxon association, concatenated in key order.
    pub fn associations(&self) -> &[TaxId] {
        &self.taxa
    }

    /// Size in the 2-bit flat-table encoding, in bytes: the key payloads
    /// plus one 4-byte taxID per association.
    pub fn encoded_bytes(&self) -> u64 {
        self.keys.encoded_bytes() + 4 * self.taxa.len() as u64
    }
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
    fn count(tables: &[SketchTable]) -> SketchSizes {
        let mut associations: Vec<TaxId> = tables
            .iter()
            .flat_map(SketchTable::associations)
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
/// [`SketchTable`] per k size.
#[derive(Debug, Clone, Default)]
pub struct SketchDatabase {
    config: Option<SketchConfig>,
    /// One sorted table per k size (largest k first).
    tables: Vec<SketchTable>,
    /// Each taxon's sketch size, counted once at build.
    sizes: SketchSizes,
}

impl SketchDatabase {
    /// Builds the sketch database from a reference collection.
    ///
    /// For every taxon and every configured k size, the k-mers whose
    /// [`sketch_hash`] falls in the bottom `fraction` of the hash space are
    /// selected as that taxon's sketch: each table is
    /// [`SketchTable::build_selected`] with that selection.
    pub fn build(references: &ReferenceCollection, config: SketchConfig) -> SketchDatabase {
        let threshold = (config.fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        let tables: Vec<SketchTable> = config
            .k_sizes()
            .into_iter()
            .map(|k| {
                SketchTable::build_selected(references, k, |kmer| sketch_hash(kmer) <= threshold)
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
        self.tables.iter().map(SketchTable::k).collect()
    }

    /// The largest k size in the database.
    pub fn k_max(&self) -> Option<usize> {
        self.tables.first().map(SketchTable::k)
    }

    /// The sorted table for a given k size.
    pub fn table(&self, k: usize) -> Option<&SketchTable> {
        self.tables.iter().find(|table| table.k() == k)
    }

    /// Total number of (k-mer, taxon) associations across all tables.
    pub fn total_associations(&self) -> usize {
        self.tables.iter().map(|t| t.associations().len()).sum()
    }

    /// Total number of sketch k-mers across all tables.
    pub fn total_kmers(&self) -> usize {
        self.tables.iter().map(SketchTable::len).sum()
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
        self.tables.iter().map(SketchTable::encoded_bytes).sum()
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
    fn entry_taxa_are_sorted_and_deduplicated() {
        let table = SketchTable::build_selected(&refs(), 21, |_| true);
        assert!(!table.is_empty());
        for entry in table.entries() {
            assert!(!entry.taxa.is_empty());
            assert!(entry.taxa.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn shared_kmers_carry_multiple_taxa() {
        let table = SketchTable::build_selected(&refs(), 21, |_| true);
        let multi = table.entries().filter(|e| e.taxa.len() > 1).count();
        assert!(multi > 0, "same-genus species should share k-mers");
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
