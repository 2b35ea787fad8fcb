//! K-mer Sketch Streaming (KSS) — MegIS's taxID-retrieval data structure.
//!
//! Retrieving taxIDs for variable-sized k-mers with a ternary search tree
//! requires up to `k_max` pointer-chasing operations per lookup on a structure
//! that may not fit in the SSD's internal DRAM — a poor fit for in-storage
//! processing. KSS (§4.3.2, Fig. 7(c)) trades space for streamability:
//!
//! * for k = k_max, a lexicographically sorted table of sketch k-mers and
//!   their taxIDs (like the flat representation),
//! * for each smaller k, only the taxID lists are stored, *without* the k-mer
//!   itself: the prefixes of the sorted k_max-mers regenerate the smaller
//!   k-mers on the fly (MegIS's Index Generator emits a new entry whenever the
//!   prefix of consecutive k_max-mers changes), and a taxID already recorded
//!   on a k_max-mer sharing the prefix is not stored again.
//!
//! The result is larger than the ternary tree but strictly streaming: taxID
//! retrieval is a single sorted-merge pass over the intersecting k-mers and
//! the KSS tables, which is exactly what the per-channel Intersect units can
//! do at flash bandwidth.
//!
//! # Layout
//!
//! Every table, k_max included, is held flat (`Table`): one sorted column
//! of k-mer payloads — plain integers, since k is fixed per table and integer
//! order of equal-length payloads is lexicographic order — plus a CSR
//! `offsets`/`taxa` arena of taxon indexes into one shared sorted taxID list.
//! Two things of the tables exist in memory only and are not charged by
//! [`KssTables::size_bytes`], which prices the on-storage format above:
//!
//! * the k-mer column of every smaller-k table (on storage it is implied by
//!   the k_max table), and
//! * the k_max-attributed taxa of each smaller-k entry, which
//!   [`KssTables::build`] merges back into the entry's arena slice by one
//!   forward walk of the k_max table per smaller table (the Index Generator's
//!   walk, done once instead of per query). Only the count of taxIDs that
//!   remain on storage is kept beside them.
//!
//! [`KssTables::stream_retrieve`] is then one forward pass: a cursor per
//! table that only advances, O(|queries| + |KSS|) worst case and
//! O(|queries| · log gap) when the queries are sparse.
//!
//! # The database join
//!
//! Step 2 only ever retrieves taxIDs for *intersecting* k-mers, and those
//! are database entries: which table keys their prefixes match is a
//! property of the database, not of the sample. [`KssJoin::build`] settles
//! it once, straight from the sketch's flat tables and the database (per
//! table two bits per database position with a rank directory, plus the
//! taxa of the keys some database entry reaches), after which retrieval for
//! a hit is a bit test and a rank per table inside the very sweep that
//! found the hit ([`crate::step2::sweep`]) — no cursor, no search, no hit
//! list.
//!
//! The join is the one KSS form an analyzer keeps in memory; it is not
//! what storage holds. A device derives the same bits from the two sorted
//! streams it reads anyway: the database and the KSS tables, whose
//! on-storage format is what [`KssTables::size_bytes`] prices. So
//! [`KssTables`] remains as that format and as the independent oracle the
//! join is tested against (`stream_retrieve`, `lookup`, which also serve
//! k-mers that are not database positions), built on demand, never on the
//! analysis path.

use std::collections::HashMap;

use megis_genomics::database::SortedKmerDatabase;
use megis_genomics::kmer::Kmer;
use megis_genomics::sketch::SketchDatabase;
use megis_genomics::taxonomy::TaxId;
use megis_ssd::timing::ByteSize;

/// One flat KSS table for a single k size.
///
/// For k = k_max this is the on-storage table itself. For a smaller k the
/// k-mer column is in-memory only (storage regenerates it from the k_max
/// table's prefixes) and each entry's arena slice is the *resolved* taxon
/// list — the taxa stored for the prefix plus the taxa of every k_max-mer
/// sharing it — so a prefix hit costs one slice read instead of a walk of
/// the k_max run; `stored_taxa` remembers how many taxIDs the on-storage
/// format keeps for the table.
#[derive(Debug, Clone, Default)]
struct Table {
    k: usize,
    /// Sorted, distinct k-mer payloads ([`Kmer::bits`]).
    kmers: Vec<u128>,
    /// CSR boundaries: entry `i` owns `taxa[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Ascending indexes into [`KssTables::taxa`], per entry.
    taxa: Vec<u32>,
    /// TaxIDs the on-storage format holds for this table.
    stored_taxa: u64,
}

impl Table {
    fn with_capacity(k: usize, entries: usize) -> Table {
        let mut offsets = Vec::with_capacity(entries + 1);
        offsets.push(0);
        Table {
            k,
            kmers: Vec::with_capacity(entries),
            offsets,
            ..Table::default()
        }
    }

    fn push(&mut self, kmer: Kmer, taxa: &[u32], stored: usize) {
        self.kmers.push(kmer.bits());
        self.taxa.extend_from_slice(taxa);
        let end = u32::try_from(self.taxa.len()).expect("a KSS table holds under 2^32 taxIDs");
        self.offsets.push(end);
        self.stored_taxa += stored as u64;
    }

    /// The payload of `query`'s prefix of this table's length — what the
    /// table is searched for — or `None` when the query is shorter than that.
    fn prefix_of(&self, query: Kmer) -> Option<u128> {
        (self.k <= query.k()).then(|| query.bits() >> (2 * (query.k() - self.k)))
    }

    /// The resolved taxon indexes of entry `i`.
    fn taxa_of(&self, i: usize) -> &[u32] {
        &self.taxa[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// First entry at or after `from` whose k-mer is `>= target`: exponential
    /// probing forward from the cursor, then a binary search inside the
    /// bracket — O(log distance), and two comparisons when the cursor
    /// already sits on the answer (consecutive queries sharing a prefix).
    fn seek(&self, from: usize, target: u128) -> usize {
        let n = self.kmers.len();
        let (mut lo, mut hi, mut step) = (from, from, 1);
        while hi < n && self.kmers[hi] < target {
            lo = hi + 1;
            hi += step;
            step <<= 1;
        }
        let hi = hi.min(n);
        lo + self.kmers[lo..hi].partition_point(|&k| k < target)
    }
}

/// The full KSS structure.
#[derive(Debug, Clone, Default)]
pub struct KssTables {
    /// Every taxon of the sketch, ascending; the tables' arenas index it.
    taxa: Vec<TaxId>,
    /// One flat table per k size, largest k (k_max) first.
    tables: Vec<Table>,
}

impl KssTables {
    /// Builds the KSS tables from the logical sketch content.
    pub fn build(sketches: &SketchDatabase) -> KssTables {
        let taxa = sketches.taxa();
        let index_of = |t: &TaxId| {
            taxa.binary_search(t)
                .expect("SketchDatabase::taxa lists every taxon of every table") as u32
        };
        let mut tables: Vec<Table> = Vec::new();
        // Scratch reused across entries: the taxa attributed to k_max-mers
        // sharing the entry's prefix, and their union with the entry's own.
        let (mut attributed, mut resolved) = (Vec::new(), Vec::new());
        for k in sketches.k_sizes() {
            let source = sketches.table(k).expect("k_sizes lists the tables");
            let mut table = Table::with_capacity(k, source.len());
            // The Index Generator: the length-k prefixes of the sorted
            // k_max-mers ascend with this table's k-mers, so one forward
            // cursor over the k_max table finds every entry's run. (The
            // k_max table itself, built first, has nothing above it.)
            let kmax = tables.first();
            let mut cursor = 0;
            for entry in source.entries() {
                let kmer = entry.kmer;
                attributed.clear();
                if let Some(kmax) = kmax {
                    let shift = 2 * (kmax.k - k);
                    while cursor < kmax.kmers.len() && kmax.kmers[cursor] >> shift < kmer.bits() {
                        cursor += 1;
                    }
                    let mut run = cursor;
                    while run < kmax.kmers.len() && kmax.kmers[run] >> shift == kmer.bits() {
                        attributed.extend_from_slice(kmax.taxa_of(run));
                        run += 1;
                    }
                    attributed.sort_unstable();
                    attributed.dedup();
                }
                resolved.clear();
                resolved.extend(entry.taxa.iter().map(index_of));
                resolved.extend_from_slice(&attributed);
                resolved.sort_unstable();
                resolved.dedup();
                // Memory keeps the union; storage keeps only the taxa not
                // already attributed to a k_max-mer sharing the prefix.
                let stored = resolved.len() - attributed.len();
                table.push(kmer, &resolved, stored);
            }
            tables.push(table);
        }
        KssTables { taxa, tables }
    }

    /// The largest k size.
    pub fn k_max(&self) -> usize {
        self.tables.first().map_or(0, |t| t.k)
    }

    /// Number of entries in the k_max table.
    pub fn kmax_entries(&self) -> usize {
        self.tables.first().map_or(0, |t| t.kmers.len())
    }

    /// Returns `true` if the structure holds no sketch k-mers.
    pub fn is_empty(&self) -> bool {
        self.kmax_entries() == 0
    }

    /// On-storage size of the KSS tables: the k_max table stores explicit
    /// 2-bit k-mers plus 4-byte taxIDs; the smaller-k tables store only their
    /// taxID lists plus a 4-byte run-length/offset word per entry.
    pub fn size_bytes(&self) -> ByteSize {
        let bytes: u64 = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let per_entry = if i == 0 { (2 * t.k).div_ceil(8) } else { 4 };
                (per_entry * t.kmers.len()) as u64 + 4 * t.stored_taxa
            })
            .sum();
        ByteSize::from_bytes(bytes)
    }

    /// Retrieves the taxa matched by one query k-mer: the exact k_max
    /// match plus prefix matches at every smaller k (deduplicated), exactly
    /// like the flat-table and ternary-tree lookups — which is what makes
    /// MegIS's accuracy identical to the A-Opt baseline's. Random access
    /// (one binary search per table): the single-k-mer API, and the oracle
    /// [`KssTables::stream_retrieve`] is tested against.
    pub fn lookup(&self, query: Kmer) -> Vec<TaxId> {
        let mut indexes = Vec::new();
        for table in &self.tables {
            let Some(prefix) = table.prefix_of(query) else {
                continue;
            };
            if let Ok(i) = table.kmers.binary_search(&prefix) {
                indexes.extend_from_slice(table.taxa_of(i));
            }
        }
        indexes.sort_unstable();
        indexes.dedup();
        indexes.iter().map(|&i| self.taxa[i as usize]).collect()
    }

    /// Streaming taxID retrieval over the intersecting query k-mers: one
    /// forward merge pass with one cursor per table, mirroring the in-SSD
    /// dataflow. A cursor only advances, by galloping from where the previous
    /// query left it, so consecutive queries sharing a prefix reuse the entry
    /// it already rests on (the Index Generator optimization) and a sorted
    /// input costs O(|queries| + |KSS|) in total. Nothing is allocated per
    /// query: support is counted in a dense per-taxon array and converted to
    /// the returned per-taxon map once at the end.
    ///
    /// Sorted input is the fast path, not a precondition. A query that sorts
    /// before its predecessor rewinds the cursors and the pass carries on, so
    /// for any input order — mixed k sizes included, since lexicographic
    /// order keeps every length-j prefix monotone — the result is the sum of
    /// [`KssTables::lookup`] over the queries.
    pub fn stream_retrieve(&self, sorted_queries: &[Kmer]) -> HashMap<TaxId, u32> {
        let mut counts = vec![0u32; self.taxa.len()];
        // The ordinal (from 1) of the last query that counted each taxon: a
        // taxon matched in several tables counts once per query.
        let mut counted_by = vec![0usize; self.taxa.len()];
        let mut cursors = vec![0usize; self.tables.len()];
        for (i, query) in sorted_queries.iter().enumerate() {
            if i > 0 && *query < sorted_queries[i - 1] {
                cursors.fill(0);
            }
            let ordinal = i + 1;
            for (table, cursor) in self.tables.iter().zip(&mut cursors) {
                let Some(prefix) = table.prefix_of(*query) else {
                    continue;
                };
                *cursor = table.seek(*cursor, prefix);
                if table.kmers.get(*cursor) != Some(&prefix) {
                    continue;
                }
                for &taxon in table.taxa_of(*cursor) {
                    if counted_by[taxon as usize] != ordinal {
                        counted_by[taxon as usize] = ordinal;
                        counts[taxon as usize] += 1;
                    }
                }
            }
        }
        support_map(&self.taxa, &counts)
    }
}

/// Per-taxon support counts as the map Step 2 reports: the taxa with a
/// nonzero count.
fn support_map(taxa: &[TaxId], counts: &[u32]) -> HashMap<TaxId, u32> {
    taxa.iter()
        .zip(counts)
        .filter(|(_, count)| **count > 0)
        .map(|(taxid, count)| (*taxid, *count))
        .collect()
}

/// 64 database positions of one [`JoinedTable`], kept together so a hit
/// touches one cache line per table.
#[derive(Debug, Clone, Copy, Default)]
struct JoinWord {
    /// Bit `i`: the entry's length-k prefix is a key of the table.
    member: u64,
    /// Bit `i`: a member, and the first entry of the run sharing its key.
    first: u64,
    /// `first` bits set in all earlier words (the rank directory).
    rank: u32,
}

/// One KSS table joined against the database.
#[derive(Debug, Clone, Default)]
struct JoinedTable {
    /// One word per 64 database positions.
    words: Vec<JoinWord>,
    /// The table's resolved-taxa CSR compacted to the keys some database
    /// entry reaches, in key order: row `r` is the `r`-th `first` bit's.
    offsets: Vec<u32>,
    taxa: Vec<u32>,
}

impl JoinedTable {
    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The resolved taxon indexes the entry at `position` matches in this
    /// table: one bit test, and for a member one rank into the CSR.
    #[inline]
    fn taxa_at(&self, position: usize) -> &[u32] {
        let word = &self.words[position / 64];
        let bit = 1u64 << (position % 64);
        if word.member & bit == 0 {
            return &[];
        }
        // The run's first entry is at or before `position`, so the rank is
        // at least 1.
        let row = (word.rank + (word.first & (bit | (bit - 1))).count_ones() - 1) as usize;
        &self.taxa[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }
}

/// The sketch's KSS joined against the sorted k-mer database.
///
/// Every intersecting k-mer is by definition a database entry, so which
/// table keys an entry's prefixes match can be settled when the databases
/// are built instead of searched for per hit. Per table the join keeps two
/// bits per database position — *member* (the entry's length-k prefix is a
/// key of the table) and *first* (first entry of the run sharing that key) —
/// with a per-word rank directory, plus the table's resolved taxa compacted
/// to the keys some entry reaches. TaxID retrieval for the hit at position
/// `p` is then, per table, one bit test and, for a member,
/// `rank(first, p) - 1` into that CSR: no key column is searched or loaded.
///
/// The join exists in memory only (about 2 bits plus the rank words per
/// database entry per table) and is not charged by
/// [`KssTables::size_bytes`], which prices the on-storage KSS format: a
/// device derives the same bits from the two sorted streams it already
/// reads. [`KssTables::stream_retrieve`] and [`KssTables::lookup`] stay the
/// independent oracles it is tested against.
#[derive(Debug, Clone)]
pub struct KssJoin {
    /// The view the bit positions index (a handle on its shared storage).
    database: SortedKmerDatabase,
    /// Every taxon of the sketch, ascending; what [`Support::counts`] and
    /// the tables' taxon indexes index.
    taxa: Vec<TaxId>,
    /// One joined table per k size the database's k-mers have a prefix of.
    tables: Vec<JoinedTable>,
}

impl KssJoin {
    /// Joins the sketch's tables against `database`: per table, one forward
    /// walk of the database whose entries' length-k prefixes ascend with the
    /// table's keys, so a cursor that only advances finds every match. Done
    /// once when the databases are built, without materialising
    /// [`KssTables`], so that no retrieval ever searches a key column again.
    ///
    /// A reached key's row is its own taxa. That is its resolved list: the
    /// k_max-mers sharing the key as a prefix add no taxon to it, since a
    /// genome holding a k_max-mer (or its reverse complement) holds the
    /// prefix (or its reverse complement), and a key is a canonical,
    /// selected k-mer, so that genome is already on the key's list. What
    /// [`KssTables::build`] attributes from the k_max table decides only
    /// which taxIDs storage may leave out.
    pub fn build(sketches: &SketchDatabase, database: &SortedKmerDatabase) -> KssJoin {
        let taxa = sketches.taxa();
        let index_of = |t: &TaxId| {
            taxa.binary_search(t)
                .expect("SketchDatabase::taxa lists every taxon of every table") as u32
        };
        let kmers = database.kmer_slice();
        let tables = sketches
            .k_sizes()
            .into_iter()
            // A table of longer k-mers than the database holds has no prefix
            // to match: `lookup` skips it for every entry, so the join does.
            .filter(|&k| k <= database.k())
            .map(|k| {
                let table = sketches.table(k).expect("k_sizes lists the tables");
                let keys = table.kmer_slice();
                let shift = 2 * (database.k() - k);
                let mut joined = JoinedTable {
                    words: vec![JoinWord::default(); kmers.len().div_ceil(64)],
                    offsets: vec![0],
                    taxa: Vec::new(),
                };
                let (mut cursor, mut run_key) = (0, None);
                for (position, kmer) in kmers.iter().enumerate() {
                    let (word, bit) = (position / 64, 1u64 << (position % 64));
                    if position % 64 == 0 {
                        joined.words[word].rank = joined.rows() as u32;
                    }
                    let prefix = kmer.bits() >> shift;
                    while keys.get(cursor).is_some_and(|key| key.bits() < prefix) {
                        cursor += 1;
                    }
                    if keys.get(cursor).map(Kmer::bits) != Some(prefix) {
                        continue;
                    }
                    joined.words[word].member |= bit;
                    if run_key != Some(cursor) {
                        run_key = Some(cursor);
                        joined.words[word].first |= bit;
                        joined
                            .taxa
                            .extend(table.entry(cursor).taxa.iter().map(index_of));
                        let end = u32::try_from(joined.taxa.len())
                            .expect("a KSS table holds under 2^32 taxIDs");
                        joined.offsets.push(end);
                    }
                }
                joined
            })
            .collect();
        KssJoin {
            database: database.clone(),
            taxa,
            tables,
        }
    }

    /// The taxa the database entry at `position` (of the joined database)
    /// retrieves: the union of its matches in every table, ascending —
    /// what [`KssTables::lookup`] returns for the entry's k-mer.
    pub fn taxa_at(&self, position: usize) -> Vec<TaxId> {
        let mut indexes: Vec<u32> = self
            .tables
            .iter()
            .flat_map(|table| table.taxa_at(position))
            .copied()
            .collect();
        indexes.sort_unstable();
        indexes.dedup();
        indexes.iter().map(|&i| self.taxa[i as usize]).collect()
    }

    /// Heap bytes the join holds (bit words, rank directory, compacted taxa).
    pub fn heap_bytes(&self) -> u64 {
        let table_bytes = |t: &JoinedTable| {
            t.words.len() * std::mem::size_of::<JoinWord>() + 4 * (t.offsets.len() + t.taxa.len())
        };
        self.tables.iter().map(table_bytes).sum::<usize>() as u64
    }

    /// A zeroed counter over positions of `view`, which must be a view of
    /// the joined database's storage inside the joined range.
    ///
    /// # Panics
    ///
    /// Panics if `view` is not such a view: positions of another database
    /// would index the join's bits without meaning anything.
    pub(crate) fn counter(&self, view: &SortedKmerDatabase) -> SupportCounter<'_> {
        let joined =
            self.database.storage_offset()..self.database.storage_offset() + self.database.len();
        assert!(
            view.shares_storage_with(&self.database)
                && joined.start <= view.storage_offset()
                && view.storage_offset() + view.len() <= joined.end,
            "the view is not a range of the database the KSS tables were joined against"
        );
        SupportCounter {
            join: self,
            base: view.storage_offset() - joined.start,
            support: Support {
                hits: 0,
                counts: vec![0; self.taxa.len()],
            },
            counted_by: vec![0; self.taxa.len()],
        }
    }

    /// The support as the per-taxon map [`KssTables::stream_retrieve`]
    /// returns for the same hits.
    pub fn support_map(&self, support: &Support) -> HashMap<TaxId, u32> {
        support_map(&self.taxa, &support.counts)
    }
}

/// What Step 2 reports for one query slice against one database range: how
/// many of the queries intersected, and the sketch-match support they lend
/// each taxon. Supports over disjoint query slices add.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Support {
    /// Intersecting k-mers.
    pub hits: u64,
    /// Support per taxon of the sketch, in ascending taxID order
    /// ([`KssJoin::support_map`] names them); empty while nothing has been
    /// folded in.
    pub counts: Vec<u32>,
}

impl Support {
    /// Adds the support of a disjoint query slice.
    pub fn fold(&mut self, other: Support) {
        self.hits += other.hits;
        if self.counts.is_empty() {
            self.counts = other.counts;
        } else {
            assert_eq!(
                self.counts.len(),
                other.counts.len(),
                "supports of different sketches"
            );
            for (sum, count) in self.counts.iter_mut().zip(other.counts) {
                *sum += count;
            }
        }
    }
}

/// Counts the support of hits reported by position, one
/// [`SupportCounter::count`] per distinct hit.
#[derive(Debug)]
pub(crate) struct SupportCounter<'a> {
    join: &'a KssJoin,
    /// Offset of the counted view inside the joined database.
    base: usize,
    support: Support,
    /// The ordinal (from 1) of the last hit that counted each taxon: a taxon
    /// matched in several tables counts once per hit.
    counted_by: Vec<u64>,
}

impl SupportCounter<'_> {
    /// Counts the hit at `position` of the counted view.
    #[inline]
    pub(crate) fn count(&mut self, position: usize) {
        self.support.hits += 1;
        let ordinal = self.support.hits;
        for table in &self.join.tables {
            for &taxon in table.taxa_at(self.base + position) {
                if self.counted_by[taxon as usize] != ordinal {
                    self.counted_by[taxon as usize] = ordinal;
                    self.support.counts[taxon as usize] += 1;
                }
            }
        }
    }

    /// The support counted so far.
    pub(crate) fn finish(self) -> Support {
        self.support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::reference::ReferenceCollection;
    use megis_genomics::sketch::SketchConfig;

    fn sketches() -> SketchDatabase {
        let refs = ReferenceCollection::synthetic(6, 700, 21);
        SketchDatabase::build(&refs, SketchConfig::small())
    }

    #[test]
    fn kss_lookup_matches_flat_table_lookup() {
        let db = sketches();
        let kss = KssTables::build(&db);
        assert!(!kss.is_empty());
        let kmax = db.k_max().unwrap();
        for kmer in db.table(kmax).unwrap().kmers().take(60) {
            assert_eq!(
                kss.lookup(kmer),
                db.lookup_with_prefixes(kmer),
                "KSS and flat lookups disagree for {kmer}"
            );
        }
    }

    #[test]
    fn kss_matches_ternary_tree_support() {
        use megis_tools::ternary::TernarySketchTree;
        let db = sketches();
        let kss = KssTables::build(&db);
        let tree = TernarySketchTree::build(&db);
        let kmax = db.k_max().unwrap();
        let queries: Vec<Kmer> = db.table(kmax).unwrap().kmers().collect();
        let kss_support = kss.stream_retrieve(&queries);
        let mut tree_support: HashMap<TaxId, u32> = HashMap::new();
        for q in &queries {
            for t in tree.lookup_with_prefixes(*q) {
                *tree_support.entry(t).or_insert(0) += 1;
            }
        }
        assert_eq!(kss_support, tree_support);
    }

    #[test]
    fn missing_query_yields_prefix_only_matches() {
        let db = sketches();
        let kss = KssTables::build(&db);
        let kmax = db.k_max().unwrap();
        let query = Kmer::from_ascii(&vec![b'A'; kmax]).unwrap();
        assert_eq!(kss.lookup(query), db.lookup_with_prefixes(query));
    }

    #[test]
    fn size_is_larger_than_kmax_payload_only() {
        let db = sketches();
        let kss = KssTables::build(&db);
        assert!(kss.size_bytes().as_bytes() > 0);
        // The k_max table dominates; smaller tables add only taxID payloads.
        assert!(kss.size_bytes().as_bytes() < db.flat_table_bytes() * 2);
    }

    #[test]
    fn on_storage_size_is_the_kss_format_not_the_memory_layout() {
        // The format: k_max entries hold a 2-bit k-mer and their taxIDs; a
        // smaller-k entry holds an offset word and only the taxIDs no
        // k_max-mer sharing its prefix already carries.
        let db = sketches();
        let kss = KssTables::build(&db);
        let kmax = db.k_max().unwrap();
        let kmax_table = db.table(kmax).unwrap();
        let mut expected: u64 = kmax_table
            .entries()
            .map(|e| (e.kmer.encoded_bytes() + 4 * e.taxa.len()) as u64)
            .sum();
        for k in db.k_sizes().into_iter().filter(|k| *k != kmax) {
            for entry in db.table(k).unwrap().entries() {
                let remaining = entry.taxa.iter().filter(|t| {
                    !kmax_table.entries().any(|attributed| {
                        attributed.kmer.prefix(k) == entry.kmer && attributed.taxa.contains(t)
                    })
                });
                expected += 4 + 4 * remaining.count() as u64;
            }
        }
        assert_eq!(kss.size_bytes(), ByteSize::from_bytes(expected));
        assert_eq!(kss.kmax_entries(), kmax_table.len());
        assert_eq!(kss.k_max(), kmax);
    }

    #[test]
    fn fig7_sizes_are_pinned() {
        // Fig. 7's size comparison on fixed collections: the benchmark's
        // 32 x 10 kbp database and the `megis-bench` size experiment's
        // fixture. Any change to how the sketch, the KSS or the tree is built
        // must leave every number here as it is.
        use megis_tools::ternary::TernarySketchTree;
        // (species, genome length, seed) -> (flat table bytes, KSS bytes,
        // tree bytes, tree nodes, sketch k-mers, associations, k_max entries)
        let pins = [
            (
                (32, 10_000, 2024),
                [
                    1_777_642, 1_479_804, 72_413_677, 2_171_189, 143_473, 191_110, 52_088,
                ],
            ),
            (
                (16, 1_500, 7),
                [130_810, 108_820, 5_693_066, 170_806, 10_515, 14_117, 3_865],
            ),
        ];
        for ((species, len, seed), expected) in pins {
            let refs = ReferenceCollection::synthetic(species, len, seed);
            let db = SketchDatabase::build(&refs, SketchConfig::small());
            let kss = KssTables::build(&db);
            let tree = TernarySketchTree::build(&db);
            let measured = [
                db.flat_table_bytes(),
                kss.size_bytes().as_bytes(),
                tree.size_bytes(),
                tree.node_count() as u64,
                db.total_kmers() as u64,
                db.total_associations() as u64,
                kss.kmax_entries() as u64,
            ];
            assert_eq!(measured, expected, "synthetic({species}, {len}, {seed})");
        }
    }

    #[test]
    fn fig7_join_bytes_are_pinned() {
        // The join of the same two sketches against their k = 31 databases,
        // measured when it was still built from the KSS tables: building it
        // straight from the sketch must not move a byte.
        let pins = [((32, 10_000, 2024), 1_350_512), ((16, 1_500, 7), 99_616)];
        for ((species, len, seed), expected) in pins {
            let refs = ReferenceCollection::synthetic(species, len, seed);
            let sketches = SketchDatabase::build(&refs, SketchConfig::small());
            let database = SortedKmerDatabase::build(&refs, 31);
            let join = KssJoin::build(&sketches, &database);
            assert_eq!(
                join.heap_bytes(),
                expected,
                "synthetic({species}, {len}, {seed})"
            );
        }
    }

    #[test]
    fn stream_retrieve_counts_duplicates() {
        let db = sketches();
        let kss = KssTables::build(&db);
        let kmax = db.k_max().unwrap();
        let entry = db.table(kmax).unwrap().entry(0);
        let support = kss.stream_retrieve(&[entry.kmer, entry.kmer, entry.kmer]);
        for t in entry.taxa {
            assert_eq!(support.get(t), Some(&3));
        }
    }

    #[test]
    fn empty_sketch_builds_empty_kss() {
        let kss = KssTables::build(&SketchDatabase::default());
        assert!(kss.is_empty());
        assert_eq!(kss.size_bytes(), ByteSize::ZERO);
        let q = Kmer::from_ascii(b"ACGTACGTACGTACGTACGTACGTACGTACG").unwrap();
        assert!(kss.lookup(q).is_empty());
    }
}
