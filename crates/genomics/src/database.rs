//! k-mer databases and reference indexes, in flat columnar layouts.
//!
//! The streaming-access (S-Qry) analysis flow that MegIS builds on keeps its
//! database as a *lexicographically sorted* list of k-mers (§2.1.1, §4.2).
//! MegIS stores this database sequentially across SSD channels and streams
//! through it once per sample, intersecting it with the (also sorted) query
//! k-mers; the taxIDs of the intersecting k-mers come from the sketch's KSS
//! tables (§4.3.2), not from the database.
//!
//! # Columnar storage and zero-copy views
//!
//! The host-side reproduction mirrors that flat on-flash layout in memory.
//! [`DatabaseStorage`] holds the sorted k-mer column and the bucket
//! directory it is probed through — nothing else: the innermost
//! intersection loop walks a plain `&[Kmer]` exactly like MegIS's
//! per-channel Intersect units walk the flash stream (§4.3.1). The
//! k-mer→taxon associations of a flat sketch table live beside its own key
//! column, in [`crate::sketch::SketchTable`].
//!
//! [`SortedKmerDatabase::build`] collects the canonical payload words of
//! every k-mer of the references (8 bytes a word when `2k <= 64`, 16
//! otherwise), sorts and deduplicates them, and widens only the distinct
//! words into the [`Kmer`] column, allocated at exactly their count.
//! [`SortedKmerDatabase::from_sorted_kmers`] takes a finished column.
//!
//! A [`SortedKmerDatabase`] is a *view*: an [`Arc`]-shared handle on one
//! [`DatabaseStorage`] plus a contiguous entry range. Cloning a database or
//! [partitioning](SortedKmerDatabase::partition) it across simulated SSDs
//! produces more views over the *same* storage — an N-shard deployment holds
//! one copy of the database, not two.
//!
//! # Intersection
//!
//! [`SortedKmerDatabase::intersect_sorted`] does not merge: it *probes*.
//! Every storage carries a bucket directory over the top bits of its k-mers
//! (about two entries to a bucket, built with the column), and the sorted
//! queries are looked up a batch at a time — directory bracket, halving
//! while a bracket is wide, a fixed-window count — each pass a loop of
//! independent loads. In the realistic regime one shard's database slice is
//! far longer than the query slice that overlaps it, so a query costs a
//! few cache misses that overlap with its batch's, instead of a chain of
//! data-dependent branches through the gap to the next hit. The
//! element-at-a-time two-pointer merge is kept as
//! [`SortedKmerDatabase::intersect_sorted_two_pointer`], the reference
//! oracle for the property tests and the literal access pattern of the
//! paper's Intersect units.
//!
//! # Read-mapping indexes
//!
//! For read-mapping-based abundance estimation, each species additionally has
//! a [`ReferenceIndex`] mapping canonical seeds to their genome locations;
//! MegIS's Step 3 generates a [`UnifiedReferenceIndex`] over the candidate
//! species inside the SSD *by sequentially merging the sorted per-species
//! indexes* (§4.4, Fig. 9). Seeds are raw `u64` words — eight bytes a seed,
//! which caps a seed at [`MAX_SEED_K`] bases (one seed length per index, so
//! integer order is lexicographic order). A per-species index is read only
//! by that merge, front to back, so it is two flat columns in `(seed,
//! position)` order — a seed word and a `u32` position per location — with
//! no offsets and no directory. The unified index, which the mapper
//! searches, is a sorted column of distinct seeds, `u32` offsets into one
//! location arena, and a bucket directory over the seeds' leading bits.
//! One routine backs [`UnifiedReferenceIndex::merge`],
//! [`PartialUnifiedIndex::merge_range`] (per-species streams) and
//! [`UnifiedReferenceIndex::merge_partials`] (per-range streams): a
//! linear-min k-way merge that holds each stream's head seed in a flat
//! array, takes the smallest by a scan, and breaks seed ties by stream
//! position. Merging consecutive candidate ranges separately and
//! recombining them is therefore byte-identical to one pass over every
//! candidate. Mapping is cut the other way: the index is merged once and
//! [`UnifiedReferenceIndex::count_mapped_reads`] maps any slice of the
//! sample's reads against it.
//!
//! The mapper *walks* the anchored genome. Besides its seed column, the
//! unified index holds one entry number per position of the concatenated
//! candidate space: the entry whose seed starts there. Once a read's seed
//! has resolved to position `p` of a candidate, its next seed almost always
//! starts at `p + 1` (or `p − 1` on the reverse strand), so the mapper first
//! compares the seed stored there with the read's; only when neither
//! neighbour inside the candidate matches does it look the seed up through
//! the directory. Seeds are unique per entry, so the walk resolves exactly
//! the entry a lookup would. Lookups go through the directory one key at a
//! time here; only the k-mer database's sweep resolves them a batch at a
//! time ([`SortedKmerDatabase::hit_positions`], Step 2), and one directory
//! type and one lower-bound routine serve both sorted columns.

use std::cell::Cell;
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::Arc;

use crate::dna::PackedSequence;
use crate::kmer::{fits_half_word, CanonicalWords, Kmer, KmerWord};
use crate::read::Read;
use crate::reference::{ReferenceCollection, ReferenceGenome};
use crate::taxonomy::TaxId;

/// The shared columnar backing store of a [`SortedKmerDatabase`]: the
/// sorted k-mer column and the bucket directory it is probed through. All
/// views produced by [`SortedKmerDatabase::partition`] /
/// [`SortedKmerDatabase::view`] share one `Arc<DatabaseStorage>`;
/// [`DatabaseStorage::heap_bytes`] is the resident cost that sharing
/// amortizes.
#[derive(Debug, Default)]
pub struct DatabaseStorage {
    kmers: Vec<Kmer>,
    directory: Directory,
}

impl DatabaseStorage {
    /// The storage over a finished column; builds the directory, so no
    /// storage exists without one.
    fn new(kmers: Vec<Kmer>) -> DatabaseStorage {
        DatabaseStorage {
            directory: Directory::build(&kmers),
            kmers,
        }
    }

    /// [`SortedKmerDatabase::build`] over payload words of type `W`, which
    /// `2 * k` bits fit: collect every canonical word into a vector sized to
    /// the occurrence count, `sort_unstable` + `dedup` it (word order is
    /// k-mer order within one k), and widen the distinct words into a
    /// [`Kmer`] column of exactly their count.
    fn build<W: KmerWord>(references: &ReferenceCollection, k: usize) -> DatabaseStorage {
        let genomes = || {
            let genomes = references.genomes().iter();
            genomes.map(|genome| CanonicalWords::<W>::new(genome.sequence(), k))
        };
        let mut column: Vec<W> = Vec::with_capacity(genomes().map(|words| words.len()).sum());
        for words in genomes() {
            column.extend(words);
        }
        column.sort_unstable();
        column.dedup();
        DatabaseStorage::new(
            column
                .iter()
                .map(|word| Kmer::from_word(*word, k))
                .collect(),
        )
    }

    /// Number of entries (distinct k-mers) in the storage.
    pub fn entry_count(&self) -> usize {
        self.kmers.len()
    }

    /// Host-resident heap footprint of the k-mer column and the bucket
    /// directory, in bytes. This is the quantity
    /// [`SortedKmerDatabase::partition`] shares rather than copies. Charged
    /// on *capacity*, not length, so growth slack (were any to survive
    /// construction) cannot hide from the resident accounting that
    /// `megis`'s `analyzer::tests::resident_bytes_are_pinned_per_component`
    /// pins.
    pub fn heap_bytes(&self) -> u64 {
        (self.kmers.capacity() * std::mem::size_of::<Kmer>()
            + self.directory.bounds.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// A lexicographically sorted k-mer database (the S-Qry / MegIS database):
/// a zero-copy range view over [`Arc`]-shared columnar storage.
///
/// # Example
///
/// ```
/// use megis_genomics::reference::ReferenceCollection;
/// use megis_genomics::database::SortedKmerDatabase;
///
/// let refs = ReferenceCollection::synthetic(4, 400, 1);
/// let db = SortedKmerDatabase::build(&refs, 21);
/// assert!(db.len() > 0);
/// assert!(db.is_sorted());
/// ```
#[derive(Debug, Clone)]
pub struct SortedKmerDatabase {
    k: usize,
    storage: Arc<DatabaseStorage>,
    /// Global entry range of this view within `storage`.
    range: Range<usize>,
}

impl Default for SortedKmerDatabase {
    fn default() -> SortedKmerDatabase {
        SortedKmerDatabase::from_storage(0, DatabaseStorage::default())
    }
}

impl SortedKmerDatabase {
    /// Builds the database of every canonical k-mer of length `k` in a
    /// reference collection: a sort of bare payload words sized to `k` (8
    /// bytes when `2k <= 64`, 16 otherwise — [`fits_half_word`]) and one
    /// deduplication, no per-entry map nodes. The result is identical to
    /// inserting every k-mer into an ordered set.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds [`crate::kmer::MAX_K`].
    pub fn build(references: &ReferenceCollection, k: usize) -> SortedKmerDatabase {
        let storage = if fits_half_word(k) {
            DatabaseStorage::build::<u64>(references, k)
        } else {
            DatabaseStorage::build::<u128>(references, k)
        };
        SortedKmerDatabase::from_storage(k, storage)
    }

    /// Creates a database from a pre-sorted k-mer column.
    ///
    /// # Panics
    ///
    /// Panics if the k-mers are not strictly sorted, or if any of them is
    /// not of length `k`.
    pub fn from_sorted_kmers(k: usize, kmers: Vec<Kmer>) -> SortedKmerDatabase {
        assert!(
            kmers.windows(2).all(|w| w[0] < w[1]),
            "entries must be strictly sorted"
        );
        assert!(
            kmers.iter().all(|kmer| kmer.k() == k),
            "every entry's k-mer must have length k = {k}"
        );
        SortedKmerDatabase::from_storage(k, DatabaseStorage::new(kmers))
    }

    fn from_storage(k: usize, storage: DatabaseStorage) -> SortedKmerDatabase {
        SortedKmerDatabase {
            k,
            range: 0..storage.entry_count(),
            storage: Arc::new(storage),
        }
    }

    /// The k-mer length of this database.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct k-mers in this view.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Returns `true` if the view has no entries.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The shared columnar storage this view borrows from. Views produced by
    /// [`SortedKmerDatabase::partition`] and [`SortedKmerDatabase::view`]
    /// return the *same* `Arc`, which is what makes sharding zero-copy.
    pub fn storage(&self) -> &Arc<DatabaseStorage> {
        &self.storage
    }

    /// Returns `true` if `other` is a view over the same storage allocation
    /// (no matter which entry range each covers).
    pub fn shares_storage_with(&self, other: &SortedKmerDatabase) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Position of this view's first entry within the shared storage: what
    /// turns a view-relative position into one that means the same entry in
    /// every view of the storage.
    pub fn storage_offset(&self) -> usize {
        self.range.start
    }

    /// The sorted k-mer column of this view, as a contiguous slice — the
    /// stream the intersection units walk.
    pub fn kmer_slice(&self) -> &[Kmer] {
        &self.storage.kmers[self.range.clone()]
    }

    /// Iterates over the sorted k-mers.
    pub fn kmers(&self) -> impl Iterator<Item = Kmer> + '_ {
        self.kmer_slice().iter().copied()
    }

    /// Returns `true` if the entries are strictly sorted (always true for
    /// databases built by this crate; exposed for tests and debug checks).
    pub fn is_sorted(&self) -> bool {
        self.kmer_slice().windows(2).all(|w| w[0] < w[1])
    }

    /// The smallest indexed k-mer (the view's lower key bound), if any.
    pub fn first_kmer(&self) -> Option<Kmer> {
        self.kmer_slice().first().copied()
    }

    /// The largest indexed k-mer (the view's upper key bound), if any.
    pub fn last_kmer(&self) -> Option<Kmer> {
        self.kmer_slice().last().copied()
    }

    /// The sub-range of a sorted query list that can possibly intersect this
    /// database: queries below [`SortedKmerDatabase::first_kmer`] or above
    /// [`SortedKmerDatabase::last_kmer`] cannot match any entry, so a caller
    /// holding a disjoint key-range partition (one contiguous slice of a
    /// larger sorted database per device) only needs to ship this sub-slice
    /// to the device — the binary search that makes per-device query-side
    /// work proportional to the overlapping slice instead of the whole list.
    ///
    /// `intersect_sorted(&queries[range])` equals
    /// `intersect_sorted(queries)` for the returned `range` (asserted by the
    /// unit tests).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `sorted_queries` is not sorted.
    pub fn overlapping_query_range(&self, sorted_queries: &[Kmer]) -> Range<usize> {
        debug_assert!(sorted_queries.windows(2).all(|w| w[0] <= w[1]));
        let (Some(lo), Some(hi)) = (self.first_kmer(), self.last_kmer()) else {
            return 0..0;
        };
        let start = sorted_queries.partition_point(|q| *q < lo);
        let end = start + sorted_queries[start..].partition_point(|q| *q <= hi);
        start..end
    }

    /// Looks up a single k-mer and reports its position in this view:
    /// [`SortedKmerDatabase::hit_positions`] over the batch of one. There is
    /// no per-k-mer routine beside the probe.
    pub fn lookup(&self, kmer: Kmer) -> Option<usize> {
        let mut found = None;
        self.hit_positions(&[kmer], |position| found = Some(position));
        found
    }

    /// Intersection with a sorted list of query k-mers: the k-mers of the
    /// view that some query equals, in sorted order, each once.
    ///
    /// The queries are probed through the storage's bucket directory a
    /// batch at a time ([`SortedKmerDatabase::hit_positions`]) rather than
    /// merged: a query costs a directory load and a few column loads that
    /// overlap with the rest of its batch, whatever the gap to the next hit,
    /// so the realistic regime — a database slice far longer than the query
    /// slice overlapping it — never walks the gap. Byte-identical to
    /// [`SortedKmerDatabase::intersect_sorted_two_pointer`] (the property
    /// suite asserts the equivalence).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `sorted_queries` is not sorted.
    pub fn intersect_sorted(&self, sorted_queries: &[Kmer]) -> Vec<Kmer> {
        let db = self.kmer_slice();
        let mut out = Vec::new();
        self.hit_positions(sorted_queries, |position| out.push(db[position]));
        out
    }

    /// The probe behind [`SortedKmerDatabase::intersect_sorted`], reporting
    /// each intersecting k-mer's *position* in this view (ascending, once
    /// per distinct k-mer however often the queries repeat it) instead of
    /// collecting the k-mers: what a caller holding per-position side data —
    /// the KSS join of the `megis` crate — consumes without ever
    /// materializing the hit list. Add
    /// [`SortedKmerDatabase::storage_offset`] for the position in the shared
    /// storage.
    ///
    /// Each batch of 16 queries takes its lower bounds in the whole storage
    /// column through the storage's directory (the seed tables' routine); a
    /// bound counts only if it lies inside this view and its entry equals
    /// the query. Queries outside the view's key range are
    /// allowed and never hit, so a caller need not cut the list first
    /// ([`SortedKmerDatabase::overlapping_query_range`] only saves work).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `sorted_queries` is not sorted.
    pub fn hit_positions(&self, sorted_queries: &[Kmer], mut on_hit: impl FnMut(usize)) {
        debug_assert!(sorted_queries.windows(2).all(|w| w[0] <= w[1]));
        let storage = &*self.storage;
        // The last position reported: a repeated query hits it again.
        let mut reported = usize::MAX;
        for batch in sorted_queries.chunks(PROBE_BATCH) {
            let bounds = storage.directory.lower_bounds(&storage.kmers, batch);
            for (&at, query) in bounds.iter().zip(batch) {
                if self.range.contains(&at) && storage.kmers[at] == *query && at != reported {
                    reported = at;
                    on_hit(at - self.range.start);
                }
            }
        }
    }

    /// Several sorted query lists against this database: one
    /// [`SortedKmerDatabase::intersect_sorted`] per member, in member order.
    /// No pipeline path runs it — the engine issues one intersect command
    /// per sample and shard — it is kept only for the
    /// `genomics.intersect_multi` row of the repository benchmark.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any member slice is not sorted.
    pub fn intersect_sorted_multi(&self, members: &[&[Kmer]]) -> Vec<Vec<Kmer>> {
        members.iter().map(|m| self.intersect_sorted(m)).collect()
    }

    /// The element-at-a-time two-pointer merge — exactly the access pattern
    /// MegIS's per-channel Intersect units perform on data arriving from the
    /// flash channels and the internal DRAM (§4.3.1). Kept as the reference
    /// oracle for [`SortedKmerDatabase::intersect_sorted`] in the property
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `sorted_queries` is not sorted.
    pub fn intersect_sorted_two_pointer(&self, sorted_queries: &[Kmer]) -> Vec<Kmer> {
        debug_assert!(sorted_queries.windows(2).all(|w| w[0] <= w[1]));
        let db = self.kmer_slice();
        let mut out = Vec::new();
        let mut qi = 0;
        let mut di = 0;
        while qi < sorted_queries.len() && di < db.len() {
            let q = sorted_queries[qi];
            let d = db[di];
            match q.cmp(&d) {
                std::cmp::Ordering::Equal => {
                    if out.last() != Some(&q) {
                        out.push(q);
                    }
                    qi += 1;
                }
                std::cmp::Ordering::Less => qi += 1,
                std::cmp::Ordering::Greater => di += 1,
            }
        }
        out
    }

    /// Size of the view in its 2-bit on-storage encoding, in bytes: the
    /// k-mer payloads, which is all the store holds.
    pub fn encoded_bytes(&self) -> u64 {
        (self.len() * (2 * self.k).div_ceil(8)) as u64
    }

    /// A zero-copy sub-view of this view (indices relative to `self`): the
    /// returned database shares the same storage `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn view(&self, sub: Range<usize>) -> SortedKmerDatabase {
        assert!(
            sub.start <= sub.end && sub.end <= self.len(),
            "view range {sub:?} out of bounds for {} entries",
            self.len()
        );
        SortedKmerDatabase {
            k: self.k,
            storage: Arc::clone(&self.storage),
            range: self.range.start + sub.start..self.range.start + sub.end,
        }
    }

    /// Splits the database into `parts` contiguous sorted shards of
    /// near-equal entry counts (used to distribute a database disjointly
    /// across multiple SSDs, §6.1 "Effect of the Number of SSDs").
    ///
    /// Every shard is a zero-copy [view](SortedKmerDatabase::view) over this
    /// database's shared storage: partitioning allocates nothing beyond the
    /// view handles, so N shards hold one copy of the columns, not N (and
    /// not even two). Trailing padding shards (when `parts > len`) are empty
    /// views over the same storage.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn partition(&self, parts: usize) -> Vec<SortedKmerDatabase> {
        assert!(parts > 0, "parts must be positive");
        let per = self.len().div_ceil(parts).max(1);
        let mut shards = Vec::with_capacity(parts);
        let mut start = 0;
        while start < self.len() {
            let end = (start + per).min(self.len());
            shards.push(self.view(start..end));
            start = end;
        }
        while shards.len() < parts {
            shards.push(self.view(self.len()..self.len()));
        }
        shards
    }
}

/// Width at which [`Directory::lower_bounds`] stops halving and counts —
/// the fixed window of its position pass: two buckets' worth of evenly
/// spread entries: four 8-byte seeds (half a cache line) or four 16-byte
/// k-mers (one).
const SEED_TAIL: usize = 4;

/// Longest seed a read-mapping index holds: the seed column stores one
/// `u64` per seed, 2 bits a base.
pub const MAX_SEED_K: usize = 32;

/// The canonical length-`k` seeds of `seq` as the raw (right-aligned) words
/// a [`SeedTable`] stores, in sequence order; `k` is in `1..=MAX_SEED_K`.
fn seed_words(seq: &PackedSequence, k: usize) -> impl ExactSizeIterator<Item = u64> + '_ {
    let low = u64::BITS - 2 * k as u32;
    CanonicalWords::<u64>::new(seq, k).map(move |word| word >> low)
}

/// Keys one [`Directory::lower_bounds`] call resolves together at most: the
/// sorted queries of one [`SortedKmerDatabase::hit_positions`] batch.
const PROBE_BATCH: usize = 16;

/// A key of a sorted column a [`Directory`] indexes: its `u64` directory
/// word must be monotone in the key's order (`a <= b` implies
/// `word(a) <= word(b)`), so a bucket of words is a range of keys.
trait DirectoryKey: Ord + Copy {
    fn directory_word(self) -> u64;
}

/// A seed is its own word.
impl DirectoryKey for u64 {
    #[inline]
    fn directory_word(self) -> u64 {
        self
    }
}

/// A k-mer's word is its top 64 payload bits: the whole left-aligned payload
/// up to 32 bases, the first 32 bases beyond.
impl DirectoryKey for Kmer {
    #[inline]
    fn directory_word(self) -> u64 {
        (self.word::<u128>() >> 64) as u64
    }
}

/// Bucket bounds over the top bits of a sorted column's directory words —
/// the index both sorted columns of this module are probed through (the
/// k-mer database's and each seed table's). Built in one counting pass and
/// one prefix sum; 4 bytes a bucket.
#[derive(Debug, Clone, Default, PartialEq)]
struct Directory {
    /// `column[bounds[b]..bounds[b + 1]]` are the keys whose directory word
    /// shifted right by `shift` is `b`; empty for an empty column.
    bounds: Vec<u32>,
    shift: u32,
}

impl Directory {
    /// The directory of a sorted column: buckets are the top `⌊log₂ n⌋`
    /// bits of the *largest* word's width (capped at that width), about two
    /// evenly spread keys to a bucket.
    fn build<K: DirectoryKey>(column: &[K]) -> Directory {
        let Some(max) = column.last() else {
            return Directory::default();
        };
        assert!(
            u32::try_from(column.len()).is_ok(),
            "column exceeds u32 directory bounds"
        );
        let width = u64::BITS - max.directory_word().leading_zeros();
        let bits = (usize::BITS - column.len().leading_zeros())
            .saturating_sub(1)
            .min(width);
        let mut directory = Directory {
            bounds: vec![0u32; (1usize << bits) + 1],
            shift: width - bits,
        };
        for key in column {
            let bucket = directory.bucket(*key);
            directory.bounds[bucket + 1] += 1;
        }
        for b in 1..directory.bounds.len() {
            directory.bounds[b] += directory.bounds[b - 1];
        }
        directory
    }

    /// The slot of `key` (past the directory for a key wider than the
    /// largest indexed one). A lone full-width key has a directory of one
    /// bucket and a shift of the whole word, which a plain `>>` would
    /// reject.
    #[inline]
    fn bucket<K: DirectoryKey>(&self, key: K) -> usize {
        let word = key.directory_word().checked_shr(self.shift).unwrap_or(0);
        usize::try_from(word).unwrap_or(usize::MAX)
    }

    /// The lower bound in `column` (the column this directory was built
    /// over) of each of up to [`PROBE_BATCH`] keys, slot for slot: the first
    /// position whose key is `>= key`, `column.len()` when there is none.
    /// Each pass is a loop of independent loads with no exit the data
    /// decides, so a key's dependent loads (directory, then column window)
    /// never wait behind a branch the previous key mispredicted: the
    /// safe-code stand-in for prefetching.
    fn lower_bounds<K: DirectoryKey>(&self, column: &[K], keys: &[K]) -> [usize; PROBE_BATCH] {
        assert!(keys.len() <= PROBE_BATCH, "one batch per probe");
        debug_assert!(column.is_empty() || !self.bounds.is_empty());
        let len = column.len();
        // Pass 1, directory: both bounds of each key's bucket. A key past
        // the directory keeps the empty range at the column's end.
        let mut spans = [(len, len); PROBE_BATCH];
        for (span, &key) in spans.iter_mut().zip(keys) {
            let bucket = self.bucket(key);
            if let Some(&[lo, hi]) = self.bounds.get(bucket..bucket.saturating_add(2)) {
                *span = (lo as usize, hi as usize);
            }
        }
        // Pass 2, position. Invariant: the first key `>= key` lies in
        // `lo..=hi`. Halve while the bucket is wide (`O(log n)` under any
        // skew, rarely taken), then count the smaller keys of a *fixed*
        // window: exact although it reads past `hi`, because the column is
        // sorted and every key from `hi` on is `>= key`.
        let mut at = [len; PROBE_BATCH];
        for ((at, &(mut lo, mut hi)), &key) in at.iter_mut().zip(&spans).zip(keys) {
            while hi - lo > SEED_TAIL {
                let mid = lo + (hi - lo) / 2;
                if column[mid] < key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let smaller = |window: &[K]| window.iter().filter(|k| **k < key).count();
            *at = match column[lo..].first_chunk::<SEED_TAIL>() {
                Some(window) => lo + smaller(window),
                // The column ends inside the window.
                None => lo + smaller(&column[lo..hi]),
            };
        }
        at
    }
}

/// A sorted seed column with a CSR payload — the flat layout of the unified
/// index. `seeds` holds the raw `u64` words of length-`k` canonical seeds
/// (`k <= MAX_SEED_K`; a cache line holds eight), so integer order is
/// lexicographic order. Four allocations however many seeds: a drop frees
/// nothing per seed.
#[derive(Debug, Clone, PartialEq)]
struct SeedTable<T> {
    k: usize,
    seeds: Vec<u64>,
    /// `seeds.len() + 1` boundaries into `payload`.
    offsets: Vec<u32>,
    payload: Vec<T>,
    /// The seed column's directory; empty until [`SeedTable::seal`].
    directory: Directory,
}

impl<T> Default for SeedTable<T> {
    fn default() -> SeedTable<T> {
        SeedTable::with_capacity(0, 0, 0)
    }
}

impl<T> SeedTable<T> {
    fn with_capacity(k: usize, seeds: usize, items: usize) -> SeedTable<T> {
        let mut offsets = Vec::with_capacity(seeds + 1);
        offsets.push(0);
        SeedTable {
            k,
            seeds: Vec::with_capacity(seeds),
            offsets,
            payload: Vec::with_capacity(items),
            directory: Directory::default(),
        }
    }

    /// Appends `items` under `seed`, which must not sort before any seed
    /// appended so far; a repeat of the last seed extends its entry.
    fn append(&mut self, seed: u64, items: impl Iterator<Item = T>) {
        debug_assert!(self.seeds.last().is_none_or(|last| *last <= seed));
        if self.seeds.last() != Some(&seed) {
            self.seeds.push(seed);
            self.offsets.push(0);
        }
        self.payload.extend(items);
        *self.offsets.last_mut().expect("offsets hold a sentinel") =
            u32::try_from(self.payload.len()).expect("payload column exceeds u32 offsets");
    }

    /// Builds the seed column's directory once every seed is appended.
    fn seal(&mut self) {
        self.directory = Directory::build(&self.seeds);
    }

    fn items(&self, index: usize) -> &[T] {
        &self.payload[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }

    /// The entry holding the raw word of a length-`k` seed, if any — the
    /// table's one lookup: the directory's lower bound of a batch of one,
    /// then an equality check.
    fn find(&self, seed: u64) -> Option<usize> {
        let at = self.directory.lower_bounds(&self.seeds, &[seed])[0];
        (self.seeds.get(at) == Some(&seed)).then_some(at)
    }

    /// Items under `kmer`; no k-mer of another length is a seed here,
    /// whatever its raw word.
    fn locations(&self, kmer: Kmer) -> Option<&[T]> {
        if kmer.k() != self.k {
            return None;
        }
        // A seed of this table's length: its payload fits the seed word.
        self.find(kmer.bits() as u64).map(|entry| self.items(entry))
    }

    fn entries(&self) -> impl ExactSizeIterator<Item = (Kmer, &[T])> + '_ {
        let kmer = |seed: u64| Kmer::from_bits(u128::from(seed), self.k);
        (0..self.seeds.len()).map(move |i| (kmer(self.seeds[i]), self.items(i)))
    }

    /// On-storage size: 2-bit seeds plus `item_bytes` per item.
    fn encoded_bytes(&self, item_bytes: usize) -> u64 {
        (self.seeds.len() * (2 * self.k).div_ceil(8) + item_bytes * self.payload.len()) as u64
    }
}

/// A sorted stream of seeds with items, as [`merge_tables`] reads it: a
/// seed column that never descends, with the items of each row. A seed may
/// repeat over consecutive rows (a per-species index has one row per
/// location); the merge joins such rows into one entry.
trait SeedStream {
    type Item;
    /// The seed length.
    fn seed_k(&self) -> usize;
    /// One seed word per row, ascending.
    fn seed_column(&self) -> &[u64];
    /// The items of row `row`.
    fn row(&self, row: usize) -> &[Self::Item];
    /// Distinct seeds and items in all: what a merge's output holds.
    fn counts(&self) -> (usize, usize);
}

/// A row is an entry.
impl<T> SeedStream for SeedTable<T> {
    type Item = T;

    fn seed_k(&self) -> usize {
        self.k
    }

    fn seed_column(&self) -> &[u64] {
        &self.seeds
    }

    fn row(&self, row: usize) -> &[T] {
        self.items(row)
    }

    fn counts(&self) -> (usize, usize) {
        (self.seeds.len(), self.payload.len())
    }
}

/// The head of an exhausted stream in [`merge_tables`]. No seed word is all
/// ones: a seed shorter than [`MAX_SEED_K`] leaves the word's top bits
/// clear, and the 32-base all-`T` seed is the reverse complement of all-`A`,
/// whose word (zero) is the canonical one.
const EXHAUSTED: u64 = u64::MAX;

/// The one merge routine of this module: a forward k-way merge of sorted
/// seed streams, appended straight into the output columns. Each stream's
/// head seed sits in a flat array, and the next row out is the minimum head,
/// found by a linear scan that keeps the lowest stream on a tie; stream `s`
/// contributes `adjust(context_s, item)` per item. A stream that wins a seed
/// stays the lowest one holding it until its run of that seed ends, so on a
/// shared seed the contributions concatenate in stream order — for streams
/// in candidate order, the order Fig. 9's sequential merge emits. Panics on
/// mixed seed lengths.
fn merge_tables<S: SeedStream, C: Copy, U>(
    streams: &[(&S, C)],
    adjust: impl Fn(C, &S::Item) -> U,
) -> SeedTable<U> {
    let k = streams.first().map_or(0, |(stream, _)| stream.seed_k());
    assert!(
        streams.iter().all(|(stream, _)| stream.seed_k() == k),
        "all merged indexes must share the same seed length"
    );
    debug_assert!(
        streams
            .iter()
            .all(|(s, _)| s.seed_column().last() != Some(&EXHAUSTED)),
        "a seed word collides with the exhausted-stream mark"
    );
    let (seeds, items) = streams.iter().fold((0, 0), |(seeds, items), (s, _)| {
        let (more_seeds, more_items) = s.counts();
        (seeds + more_seeds, items + more_items)
    });
    let mut out = SeedTable::with_capacity(k, seeds, items);
    let head = |stream: &S, row: usize| stream.seed_column().get(row).copied().unwrap_or(EXHAUSTED);
    let mut heads: Vec<u64> = streams.iter().map(|(stream, _)| head(stream, 0)).collect();
    // The row of each stream that its head seed belongs to.
    let mut rows = vec![0usize; streams.len()];
    loop {
        let (mut s, mut seed) = (0, EXHAUSTED);
        for (stream, &word) in heads.iter().enumerate() {
            if word < seed {
                (s, seed) = (stream, word);
            }
        }
        if seed == EXHAUSTED {
            break;
        }
        let (stream, context) = streams[s];
        let items = stream.row(rows[s]).iter();
        out.append(seed, items.map(|item| adjust(context, item)));
        rows[s] += 1;
        heads[s] = head(stream, rows[s]);
    }
    out.seal();
    out
}

thread_local! {
    /// See [`ReferenceIndex::builds_on_this_thread`].
    static REFERENCE_INDEX_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// A per-species read-mapping index: every `(canonical seed, location)` pair
/// of one genome, in ascending order, as two flat columns. Only Step 3's
/// merge reads it, front to back, so it keeps no offsets and no directory;
/// a seed's locations are the run of rows holding it.
#[derive(Debug, Clone, Default)]
pub struct ReferenceIndex {
    taxid: TaxId,
    genome_len: usize,
    k: usize,
    /// One seed word per location, ascending.
    seeds: Vec<u64>,
    /// The location of each row, ascending within a seed's run.
    positions: Vec<u32>,
    /// Number of distinct seeds.
    distinct: usize,
}

/// A row is one location.
impl SeedStream for ReferenceIndex {
    type Item = u32;

    fn seed_k(&self) -> usize {
        self.k
    }

    fn seed_column(&self) -> &[u64] {
        &self.seeds
    }

    fn row(&self, row: usize) -> &[u32] {
        std::slice::from_ref(&self.positions[row])
    }

    fn counts(&self) -> (usize, usize) {
        (self.distinct, self.positions.len())
    }
}

impl ReferenceIndex {
    /// Builds the index of one reference genome with seeds of length `k`:
    /// collect `(seed, position)` pairs, `sort_unstable`, split the pairs
    /// into the two columns.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > MAX_SEED_K`.
    pub fn build(genome: &ReferenceGenome, k: usize) -> ReferenceIndex {
        REFERENCE_INDEX_BUILDS.with(|c| c.set(c.get() + 1));
        assert!(
            k <= MAX_SEED_K,
            "seed length {k} exceeds MAX_SEED_K ({MAX_SEED_K}): the seed column holds one u64 per seed"
        );
        assert!(u32::try_from(genome.len()).is_ok(), "locations are u32");
        let mut pairs: Vec<(u64, u32)> = seed_words(genome.sequence(), k).zip(0u32..).collect();
        pairs.sort_unstable();
        let (seeds, positions): (Vec<u64>, Vec<u32>) = pairs.into_iter().unzip();
        let distinct = seeds.chunk_by(|a, b| a == b).count();
        ReferenceIndex {
            taxid: genome.taxid(),
            genome_len: genome.len(),
            k,
            seeds,
            positions,
            distinct,
        }
    }

    /// [`ReferenceIndex::build`] calls the *current thread* has performed.
    /// Building is one-time offline work (§4.4): regression tests assert on
    /// this that no per-sample rebuild sneaks back in (thread-local, so
    /// concurrent tests cannot perturb it).
    pub fn builds_on_this_thread() -> u64 {
        REFERENCE_INDEX_BUILDS.with(Cell::get)
    }

    /// The species this index belongs to.
    pub fn taxid(&self) -> TaxId {
        self.taxid
    }

    /// The seed length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Length of the indexed genome in bases.
    pub fn genome_len(&self) -> usize {
        self.genome_len
    }

    /// Number of distinct seeds.
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// Returns `true` if the index has no seeds.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The sorted `(seed, locations)` entries, borrowed from the columns.
    pub fn entries(&self) -> impl Iterator<Item = (Kmer, &[u32])> + '_ {
        let mut start = 0;
        self.seeds.chunk_by(|a, b| a == b).map(move |run| {
            let locations = &self.positions[start..start + run.len()];
            start += run.len();
            (Kmer::from_bits(u128::from(run[0]), self.k), locations)
        })
    }

    /// Locations of a seed, if indexed (`None` for a k-mer of any length
    /// other than [`ReferenceIndex::k`]): a binary search of the seed column
    /// for the seed's run.
    pub fn locations(&self, kmer: Kmer) -> Option<&[u32]> {
        if kmer.k() != self.k {
            return None;
        }
        // A seed of this index's length: its payload fits the seed word.
        let seed = kmer.bits() as u64;
        let start = self.seeds.partition_point(|s| *s < seed);
        let len = self.seeds[start..].partition_point(|s| *s == seed);
        (len > 0).then(|| &self.positions[start..start + len])
    }

    /// On-storage size in bytes (2-bit k-mers + 4-byte locations).
    pub fn encoded_bytes(&self) -> u64 {
        (self.distinct * (2 * self.k).div_ceil(8) + 4 * self.positions.len()) as u64
    }

    /// Host-resident heap bytes of the two columns, charged on capacity.
    pub fn heap_bytes(&self) -> u64 {
        (self.seeds.capacity() * std::mem::size_of::<u64>()
            + self.positions.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// A location in the unified index: a species and an offset-adjusted position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnifiedLocation {
    /// Position of the species in [`UnifiedReferenceIndex::offsets`].
    pub candidate: u32,
    /// The species the location belongs to.
    pub taxid: TaxId,
    /// Position within the concatenated (offset-adjusted) reference space.
    pub position: u64,
}

/// Minimum seed votes for a read to be considered mapped by
/// [`UnifiedReferenceIndex::map_read`]. A reduce over candidate ranges
/// applies the same threshold after resolving per-range best hits.
pub const MIN_MAPPING_VOTES: u32 = 2;

/// The best-supported candidate for one read, *before* the
/// [`MIN_MAPPING_VOTES`] threshold: what a mapper over one candidate range
/// reports so a reduce step can resolve reads that hit several ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadMapHit {
    /// The candidate with the most seed votes (ties go to the smallest
    /// taxid).
    pub taxid: TaxId,
    /// Number of supporting seed votes.
    pub votes: u32,
}

/// A unified read-mapping index over several candidate species, stored flat
/// like its inputs. MegIS generates it inside the SSD by sequentially
/// merging the per-species indexes of Step 2's candidates, adjusting
/// locations by per-species offsets (Fig. 9), so read mapping searches one
/// index instead of one per species.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnifiedReferenceIndex {
    table: SeedTable<UnifiedLocation>,
    offsets: Vec<(TaxId, u64)>,
    /// One slot per position of the candidates' concatenated space, from
    /// `offsets[0].1` on: the entry whose seed starts there, tagged with
    /// [`SINGLE_LOCATION`] when that is the entry's only location, or
    /// [`NO_ENTRY`] where no seed starts (a genome's last `k − 1` bases).
    entry_at: Vec<u32>,
}

/// An [`UnifiedReferenceIndex::entry_at`] slot where no seed starts.
const NO_ENTRY: u32 = u32::MAX;

/// The tag bit of an [`UnifiedReferenceIndex::entry_at`] slot whose entry
/// has exactly one location (this one), so it votes for the walk's own
/// candidate without reading the payload.
const SINGLE_LOCATION: u32 = 1 << 31;

/// Where a read's walk stands: its last seed starts at `at` (relative to
/// the index's first offset), inside the positions `span` of `candidate`.
struct Anchor {
    candidate: usize,
    span: Range<usize>,
    at: usize,
}

/// One vote per location, for its candidate.
fn vote(locations: &[UnifiedLocation], votes: &mut [u32]) {
    for location in locations {
        votes[location.candidate as usize] += 1;
    }
}

impl UnifiedReferenceIndex {
    /// The index over a sealed merged table and its candidates' offsets,
    /// whose concatenated space is `span` bases long from the first offset
    /// on: builds the entry-at-position column in one pass over the
    /// payload. Every unified index is built here, so two merges of the same
    /// candidates agree on the column as they do on the table.
    fn new(
        table: SeedTable<UnifiedLocation>,
        offsets: Vec<(TaxId, u64)>,
        span: u64,
    ) -> UnifiedReferenceIndex {
        assert!(
            table.seeds.len() < SINGLE_LOCATION as usize,
            "seed column exceeds the entry-at-position tag"
        );
        let origin = offsets.first().map_or(0, |(_, offset)| *offset);
        let span = usize::try_from(span).expect("candidate space exceeds the address space");
        let mut entry_at = vec![NO_ENTRY; span];
        for entry in 0..table.seeds.len() {
            let locations = table.items(entry);
            let single = if locations.len() == 1 {
                SINGLE_LOCATION
            } else {
                0
            };
            let tag = entry as u32 | single;
            for location in locations {
                entry_at[(location.position - origin) as usize] = tag;
            }
        }
        UnifiedReferenceIndex {
            table,
            offsets,
            entry_at,
        }
    }

    /// Merges per-species indexes (each species once) into a unified index:
    /// [`PartialUnifiedIndex::merge_range`] over the whole list at base 0.
    /// Panics if the indexes do not all share the same `k`.
    pub fn merge(indexes: &[ReferenceIndex]) -> UnifiedReferenceIndex {
        let refs: Vec<&ReferenceIndex> = indexes.iter().collect();
        PartialUnifiedIndex::merge_range(&refs, 0).index
    }

    /// Recombines partials — [`PartialUnifiedIndex::merge_range`]
    /// over *consecutive* ranges of one candidate list, each at its range's
    /// base offset — into the unified index, byte-identical to
    /// [`UnifiedReferenceIndex::merge`] over the whole list. Panics if the
    /// non-empty partials disagree on the seed length or leave a gap.
    pub fn merge_partials(partials: Vec<PartialUnifiedIndex>) -> UnifiedReferenceIndex {
        PartialUnifiedIndex::concat(partials).index
    }

    /// The seed length.
    pub fn k(&self) -> usize {
        self.table.k
    }

    /// Number of distinct seeds in the unified index.
    pub fn len(&self) -> usize {
        self.table.seeds.len()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.table.seeds.is_empty()
    }

    /// Per-species offsets in the concatenated reference space.
    pub fn offsets(&self) -> &[(TaxId, u64)] {
        &self.offsets
    }

    /// The sorted `(seed, locations)` entries, borrowed from the columns.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (Kmer, &[UnifiedLocation])> + '_ {
        self.table.entries()
    }

    /// Locations of a seed across all merged species (`None` for a k-mer of
    /// any length other than [`UnifiedReferenceIndex::k`]).
    pub fn locations(&self, kmer: Kmer) -> Option<&[UnifiedLocation]> {
        self.table.locations(kmer)
    }

    /// Maps one read against the unified index and returns the species with
    /// the most seed hits (requiring at least [`MIN_MAPPING_VOTES`]
    /// supporting seeds), or `None` if the read does not map. The S-Qry
    /// baseline and MegIS share this seed-voting mapper, which keeps their
    /// abundance outputs identical, as the paper requires.
    pub fn map_read(&self, read: &Read, seed_k: usize) -> Option<TaxId> {
        self.map_read_hit(read, seed_k)
            .filter(|hit| hit.votes >= MIN_MAPPING_VOTES)
            .map(|hit| hit.taxid)
    }

    /// The best-supported candidate for one read, *without* the
    /// [`MIN_MAPPING_VOTES`] threshold; ties on votes go to the smallest
    /// taxid. `None` when no seed hits at all, which covers reads shorter
    /// than a seed and any `seed_k` other than [`UnifiedReferenceIndex::k`].
    /// The read's seeds are canonicalized word-parallel and resolved by the
    /// walk (see [`UnifiedReferenceIndex::count_mapped_reads`]); each
    /// location bumps a dense counter array.
    /// Against a [`PartialUnifiedIndex`] this is the range's best hit: a
    /// candidate lives in one range, so per-range votes are global votes,
    /// and the maximum of the per-range hits under the same order,
    /// thresholded, reproduces [`UnifiedReferenceIndex::map_read`].
    pub fn map_read_hit(&self, read: &Read, seed_k: usize) -> Option<ReadMapHit> {
        let (candidate, votes) = self.best_hit(read, seed_k, &mut vec![0; self.offsets.len()])?;
        let taxid = self.offsets[candidate].0;
        Some(ReadMapHit { taxid, votes })
    }

    /// Maps every read of `reads` and returns, per candidate (in
    /// [`UnifiedReferenceIndex::offsets`] order), how many of them it wins
    /// under [`UnifiedReferenceIndex::map_read`]'s rule. This is Step 3's
    /// mapping unit: counts over disjoint slices of a sample's reads add up
    /// to the counts over the whole sample, and one vote scratch serves the
    /// whole slice.
    ///
    /// Each read walks the genome its seeds resolve to: once a seed is
    /// anchored at a position of a candidate, the next seed is compared
    /// with the seeds starting one position ahead and one behind (in the
    /// direction the walk last moved first) inside that candidate, and only
    /// a seed that matches neither is looked up through the directory. A
    /// lookup that hits re-anchors the walk at the entry's first location;
    /// one that misses leaves the next seed unanchored.
    pub fn count_mapped_reads(&self, reads: &[crate::read::Read], seed_k: usize) -> Vec<u64> {
        let mut votes = vec![0u32; self.offsets.len()];
        let mut mapped = vec![0u64; self.offsets.len()];
        for read in reads {
            match self.best_hit(read, seed_k, &mut votes) {
                Some((candidate, n)) if n >= MIN_MAPPING_VOTES => mapped[candidate] += 1,
                _ => {}
            }
        }
        mapped
    }

    /// One read's seed votes per candidate ([`UnifiedReferenceIndex::offsets`]
    /// order): [`UnifiedReferenceIndex::map_read_hit`] reports their maximum.
    pub fn read_votes(&self, read: &Read, seed_k: usize) -> Vec<u32> {
        let mut votes = vec![0; self.offsets.len()];
        self.tally(read, seed_k, &mut votes);
        votes
    }

    /// Adds one read's seed votes to `votes` (one slot per candidate),
    /// walking the anchored genome seed by seed (see
    /// [`UnifiedReferenceIndex::count_mapped_reads`]). Exact: seeds are
    /// unique per entry, so an entry whose seed equals the read's is the
    /// entry a lookup would return, and the walk never leaves its
    /// candidate's span, so a single-location entry it meets votes for the
    /// anchored candidate.
    fn tally(&self, read: &Read, seed_k: usize, votes: &mut [u32]) {
        if seed_k != self.table.k || self.is_empty() {
            return;
        }
        let mut anchor: Option<Anchor> = None;
        // The direction the walk last moved: +1 on the forward strand, −1
        // on the reverse.
        let mut step = 1isize;
        for seed in seed_words(read.sequence(), seed_k) {
            if let Some(walk) = &mut anchor {
                let ahead = walk.at.wrapping_add_signed(step);
                let behind = walk.at.wrapping_add_signed(-step);
                let tag = match self.tag_at(&walk.span, ahead, seed) {
                    Some(tag) => Some((tag, ahead)),
                    None => self.tag_at(&walk.span, behind, seed).map(|tag| {
                        step = -step;
                        (tag, behind)
                    }),
                };
                if let Some((tag, at)) = tag {
                    walk.at = at;
                    match tag & SINGLE_LOCATION {
                        0 => vote(self.table.items(tag as usize), votes),
                        _ => votes[walk.candidate] += 1,
                    }
                    continue;
                }
            }
            anchor = self.table.find(seed).map(|entry| {
                let locations = self.table.items(entry);
                vote(locations, votes);
                let candidate = locations[0].candidate as usize;
                Anchor {
                    candidate,
                    span: self.span_of(candidate),
                    at: self.relative(locations[0].position),
                }
            });
        }
    }

    /// The [`UnifiedReferenceIndex::entry_at`] slot at relative position
    /// `at`, if `at` lies in `span` and the entry starting there holds
    /// `seed`.
    #[inline]
    fn tag_at(&self, span: &Range<usize>, at: usize, seed: u64) -> Option<u32> {
        if !span.contains(&at) {
            return None;
        }
        let tag = self.entry_at[at];
        let entry = (tag & !SINGLE_LOCATION) as usize;
        (tag != NO_ENTRY && self.table.seeds[entry] == seed).then_some(tag)
    }

    /// A concatenated-space position relative to the first offset: its
    /// slot in [`UnifiedReferenceIndex::entry_at`].
    fn relative(&self, position: u64) -> usize {
        (position - self.offsets[0].1) as usize
    }

    /// The relative positions of `candidate`'s genome (the last one's run
    /// to the end of the column).
    fn span_of(&self, candidate: usize) -> Range<usize> {
        let end = self
            .offsets
            .get(candidate + 1)
            .map_or(self.entry_at.len(), |(_, offset)| self.relative(*offset));
        self.relative(self.offsets[candidate].1)..end
    }

    /// The winning candidate's position and votes for one read. `votes`
    /// holds one zero per candidate and is handed back zeroed.
    fn best_hit(&self, read: &Read, seed_k: usize, votes: &mut [u32]) -> Option<(usize, u32)> {
        self.tally(read, seed_k, votes);
        let hits = votes.iter().zip(&self.offsets).enumerate();
        let best = hits
            .filter(|(_, (votes, _))| **votes > 0)
            .max_by_key(|(_, (votes, (taxid, _)))| (**votes, Reverse(*taxid)))
            .map(|(candidate, (votes, _))| (candidate, *votes));
        votes.fill(0);
        best
    }

    /// Maps a concatenated-space position back to its species: the last
    /// one whose (ascending) offset is `<= position`.
    pub fn taxon_of_position(&self, position: u64) -> Option<TaxId> {
        let idx = self
            .offsets
            .partition_point(|(_, offset)| *offset <= position);
        idx.checked_sub(1).map(|i| self.offsets[i].0)
    }

    /// On-storage size in bytes (2-bit seeds + 12 bytes of taxid and position per location).
    pub fn encoded_bytes(&self) -> u64 {
        self.table.encoded_bytes(12)
    }
}

/// A unified index over one *contiguous range* of a candidate list (the
/// whole list, for the index Step 3 maps against). It records the
/// range's `base` offset in the concatenated reference space (the sum of
/// all earlier candidates' genome lengths) and its `span`, so its positions
/// are *global* and it maps reads directly; only
/// [`UnifiedLocation::candidate`] is range-local until partials recombine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialUnifiedIndex {
    base: u64,
    span: u64,
    index: UnifiedReferenceIndex,
}

impl PartialUnifiedIndex {
    /// Merges a contiguous candidate range into a partial unified index
    /// whose positions start at `base` (one k-way merge, candidate order on
    /// shared seeds). Panics if the candidates disagree on the seed length.
    pub fn merge_range(candidates: &[&ReferenceIndex], base: u64) -> PartialUnifiedIndex {
        let mut streams = Vec::with_capacity(candidates.len());
        let mut running = base;
        for (candidate, idx) in candidates.iter().enumerate() {
            // A stream's context is the location of its genome's base 0.
            let origin = UnifiedLocation {
                candidate: candidate as u32,
                taxid: idx.taxid(),
                position: running,
            };
            streams.push((*idx, origin));
            running += idx.genome_len() as u64;
        }
        let offsets = streams.iter().map(|(_, o)| (o.taxid, o.position)).collect();
        let table = merge_tables(&streams, |origin: UnifiedLocation, pos| UnifiedLocation {
            position: origin.position + u64::from(*pos),
            ..origin
        });
        let span = running - base;
        let index = UnifiedReferenceIndex::new(table, offsets, span);
        PartialUnifiedIndex { base, span, index }
    }

    /// Recombines *consecutive* partials: spans add, offsets concatenate, the
    /// seed tables k-way merge with each part's candidate positions shifted
    /// past the earlier parts'. A lone non-empty part is moved, not copied.
    fn concat(parts: Vec<PartialUnifiedIndex>) -> PartialUnifiedIndex {
        let base = parts.first().map_or(0, |p| p.base);
        let mut end = base;
        for part in &parts {
            assert_eq!(part.base, end, "not the next consecutive candidate range");
            end += part.span;
        }
        let mut live: Vec<_> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        let index = if live.len() <= 1 {
            live.pop().map(|p| p.index).unwrap_or_default()
        } else {
            let mut offsets = Vec::new();
            let mut streams = Vec::with_capacity(live.len());
            for part in &live {
                streams.push((&part.index.table, offsets.len() as u32));
                offsets.extend_from_slice(&part.index.offsets);
            }
            let table = merge_tables(&streams, |shift, loc: &UnifiedLocation| UnifiedLocation {
                candidate: loc.candidate + shift,
                ..*loc
            });
            // Parts without candidates span nothing, so the first live part
            // starts at `base`.
            UnifiedReferenceIndex::new(table, offsets, end - base)
        };
        let span = end - base;
        PartialUnifiedIndex { base, span, index }
    }

    /// Consumes the partial and returns the merged index.
    pub fn into_index(self) -> UnifiedReferenceIndex {
        self.index
    }

    /// Concatenated-reference-space offset where the range begins.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total genome length of the range's candidates, in bases.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// The merged index over the range (positions globally offset).
    pub fn index(&self) -> &UnifiedReferenceIndex {
        &self.index
    }

    /// Returns `true` if the partial covers no candidates.
    pub fn is_empty(&self) -> bool {
        self.index.offsets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer::KmerExtractor;
    use crate::sketch::{KmerEntry, SketchTable};

    fn refs() -> ReferenceCollection {
        ReferenceCollection::synthetic(6, 600, 42)
    }

    #[test]
    fn database_is_sorted_and_nonempty() {
        let db = SortedKmerDatabase::build(&refs(), 21);
        assert!(db.len() > 100);
        assert!(db.is_sorted());
        assert_eq!(db.k(), 21);
        assert_eq!(db.storage().entry_count(), db.len());
        assert_eq!(db.kmer_slice().len(), db.len());
        assert!(db.storage().heap_bytes() > 0);
    }

    #[test]
    fn build_matches_from_sorted_entries_roundtrip() {
        // The database's column rebuilt from its k-mers, and a sketch table
        // over every k-mer rebuilt from its owned entries, reproduce the
        // builds: the table's keys are the database's column.
        let db = SortedKmerDatabase::build(&refs(), 21);
        let rebuilt = SortedKmerDatabase::from_sorted_kmers(db.k(), db.kmers().collect());
        assert_eq!(rebuilt.kmer_slice(), db.kmer_slice());
        assert_eq!(rebuilt.encoded_bytes(), db.encoded_bytes());
        assert_eq!(rebuilt.storage().heap_bytes(), db.storage().heap_bytes());
        let table = SketchTable::build_selected(&refs(), 21, |_| true);
        assert_eq!(table.kmer_slice(), db.kmer_slice());
        let owned: Vec<KmerEntry> = table.entries().map(|e| e.to_owned()).collect();
        let from_entries = SketchTable::from_sorted_entries(table.k(), owned);
        assert!(from_entries.entries().eq(table.entries()));
        assert_eq!(from_entries.encoded_bytes(), table.encoded_bytes());
    }

    #[test]
    #[should_panic(expected = "must have length k = 21")]
    fn from_sorted_entries_rejects_a_kmer_of_another_length() {
        let table = SketchTable::build_selected(&refs(), 21, |_| true);
        let mut owned: Vec<KmerEntry> = table.entries().take(3).map(|e| e.to_owned()).collect();
        // Still strictly sorted (a proper prefix sorts first), wrong length.
        owned[0].kmer = owned[0].kmer.prefix(20);
        SketchTable::from_sorted_entries(21, owned);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn from_sorted_kmers_rejects_an_unsorted_column() {
        let db = SortedKmerDatabase::build(&refs(), 21);
        let mut kmers: Vec<Kmer> = db.kmers().take(3).collect();
        kmers.swap(0, 2);
        SortedKmerDatabase::from_sorted_kmers(21, kmers);
    }

    #[test]
    fn lookup_finds_genome_kmers() {
        let r = refs();
        let db = SortedKmerDatabase::build(&r, 21);
        let genome = &r.genomes()[0];
        let kmer = KmerExtractor::new(genome.sequence(), 21)
            .next()
            .unwrap()
            .canonical();
        let position = db.lookup(kmer).expect("genome k-mer must be indexed");
        assert_eq!(db.kmer_slice()[position], kmer);
        let view = db.view(position - 5..db.len());
        assert_eq!(view.lookup(kmer), Some(5));
        assert_eq!(db.view(0..position).lookup(kmer), None);
    }

    #[test]
    fn intersect_sorted_matches_lookup() {
        let r = refs();
        let db = SortedKmerDatabase::build(&r, 21);
        let genome = &r.genomes()[2];
        let mut queries: Vec<Kmer> = KmerExtractor::new(genome.sequence(), 21)
            .map(|k| k.canonical())
            .collect();
        queries.sort();
        queries.dedup();
        let inter = db.intersect_sorted(&queries);
        assert_eq!(
            inter.len(),
            queries.iter().filter(|q| db.lookup(**q).is_some()).count()
        );
        assert!(inter.windows(2).all(|w| w[0] < w[1]));
        // All of this genome's k-mers are in the database, so the intersection
        // must cover every query.
        assert_eq!(inter.len(), queries.len());
    }

    #[test]
    fn intersect_with_foreign_kmers_is_partial() {
        let r = refs();
        let db = SortedKmerDatabase::build(&r, 21);
        let foreign = ReferenceCollection::synthetic(2, 600, 999);
        let mut queries: Vec<Kmer> = KmerExtractor::new(foreign.genomes()[0].sequence(), 21)
            .map(|k| k.canonical())
            .collect();
        queries.sort();
        queries.dedup();
        let inter = db.intersect_sorted(&queries);
        assert!(inter.len() < queries.len());
    }

    #[test]
    fn directory_probe_equals_two_pointer_on_edge_shapes() {
        let r = refs();
        let db = SortedKmerDatabase::build(&r, 21);
        let all: Vec<Kmer> = db.kmers().collect();

        // Empty queries; empty database.
        assert!(db.intersect_sorted(&[]).is_empty());
        assert!(SortedKmerDatabase::default()
            .intersect_sorted(&all)
            .is_empty());

        // Full subset (every query hits).
        assert_eq!(
            db.intersect_sorted(&all),
            db.intersect_sorted_two_pointer(&all)
        );
        assert_eq!(db.intersect_sorted(&all), all);

        // Disjoint: foreign queries, mostly misses.
        let foreign = ReferenceCollection::synthetic(2, 400, 4321);
        let mut misses: Vec<Kmer> = KmerExtractor::new(foreign.genomes()[0].sequence(), 21)
            .map(|k| k.canonical())
            .collect();
        misses.sort();
        misses.dedup();
        assert_eq!(
            db.intersect_sorted(&misses),
            db.intersect_sorted_two_pointer(&misses)
        );

        // Duplicate queries: the output must stay deduplicated either way.
        let mut dups: Vec<Kmer> = all.iter().step_by(11).copied().collect();
        dups.extend(all.iter().step_by(11).copied());
        dups.sort();
        let probed = db.intersect_sorted(&dups);
        assert_eq!(probed, db.intersect_sorted_two_pointer(&dups));
        assert!(probed.windows(2).all(|w| w[0] < w[1]));

        // Sparse skewed queries (|DB| >> |Q|) — the per-shard regime.
        let sparse: Vec<Kmer> = all.iter().step_by(64).copied().collect();
        assert_eq!(
            db.intersect_sorted(&sparse),
            db.intersect_sorted_two_pointer(&sparse)
        );
    }

    #[test]
    fn overlapping_query_range_bounds_the_merge() {
        let r = refs();
        let db = SortedKmerDatabase::build(&r, 21);
        // Queries drawn from the whole key space, including values outside
        // the database's bounds on both sides.
        let mut queries: Vec<Kmer> = db.kmers().step_by(5).collect();
        let foreign = ReferenceCollection::synthetic(2, 400, 777);
        queries
            .extend(KmerExtractor::new(foreign.genomes()[0].sequence(), 21).map(|k| k.canonical()));
        queries.sort();
        queries.dedup();

        // Splitting the database and querying each part through its
        // overlapping range must reproduce the whole-list intersection.
        for parts in [1usize, 3, 4] {
            let shards = db.partition(parts);
            let mut merged = Vec::new();
            let mut scanned = 0usize;
            for shard in &shards {
                let range = shard.overlapping_query_range(&queries);
                scanned += range.len();
                merged.extend(shard.intersect_sorted(&queries[range]));
            }
            assert_eq!(merged, db.intersect_sorted(&queries), "{parts} parts");
            assert!(
                scanned <= queries.len(),
                "disjoint shard ranges must not re-scan queries: {scanned} > {}",
                queries.len()
            );
        }
        // An empty database overlaps nothing.
        assert_eq!(
            SortedKmerDatabase::default().overlapping_query_range(&queries),
            0..0
        );
        // Bounds are inclusive: a single-entry database overlaps exactly the
        // run of queries equal to that entry.
        let single = SortedKmerDatabase::from_sorted_kmers(21, vec![db.kmer_slice()[3]]);
        let range = single.overlapping_query_range(&queries);
        for q in &queries[range] {
            assert_eq!(*q, db.kmer_slice()[3]);
        }
    }

    #[test]
    fn first_and_last_kmer_are_the_key_bounds() {
        let db = SortedKmerDatabase::build(&refs(), 21);
        assert_eq!(db.first_kmer(), db.kmers().next());
        assert_eq!(db.last_kmer(), db.kmers().last());
        assert!(db.first_kmer() < db.last_kmer());
        assert_eq!(SortedKmerDatabase::default().first_kmer(), None);
        assert_eq!(SortedKmerDatabase::default().last_kmer(), None);
    }

    #[test]
    fn partition_preserves_entries_and_order() {
        let db = SortedKmerDatabase::build(&refs(), 21);
        let shards = db.partition(4);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(SortedKmerDatabase::len).sum();
        assert_eq!(total, db.len());
        for s in &shards {
            assert!(s.is_sorted());
        }
    }

    #[test]
    fn partition_and_view_are_zero_copy() {
        let db = SortedKmerDatabase::build(&refs(), 21);
        for parts in [1usize, 3, 8, db.len() + 5] {
            for shard in db.partition(parts) {
                assert!(
                    shard.shares_storage_with(&db),
                    "{parts}-way partition must share the storage allocation"
                );
            }
        }
        // Clones share too — a database copy is a view handle, not a data
        // copy.
        assert!(db.clone().shares_storage_with(&db));
        // Sub-views compose: a view of a view addresses the right entries.
        let mid = db.view(10..40);
        assert!(mid.shares_storage_with(&db));
        let inner = mid.view(5..10);
        assert_eq!(inner.len(), 5);
        assert_eq!(inner.kmer_slice(), &db.kmer_slice()[15..20]);
        // Independent builds do not share.
        let other = SortedKmerDatabase::build(&refs(), 21);
        assert!(!other.shares_storage_with(&db));
    }

    #[test]
    fn view_intersections_match_slice_semantics() {
        let db = SortedKmerDatabase::build(&refs(), 21);
        let queries: Vec<Kmer> = db.kmers().step_by(3).collect();
        let v = db.view(7..db.len() - 7);
        // A view behaves exactly like a standalone database over its range.
        let standalone = SortedKmerDatabase::from_sorted_kmers(db.k(), v.kmers().collect());
        assert_eq!(
            v.intersect_sorted(&queries),
            standalone.intersect_sorted(&queries)
        );
        assert_eq!(v.encoded_bytes(), standalone.encoded_bytes());
    }

    #[test]
    fn encoded_bytes_scales_with_entries() {
        let db = SortedKmerDatabase::build(&refs(), 21);
        assert!(db.encoded_bytes() as usize >= db.len() * 6);
    }

    #[test]
    fn reference_index_locations_roundtrip() {
        let r = refs();
        let genome = &r.genomes()[0];
        let idx = ReferenceIndex::build(genome, 15);
        let kmer = KmerExtractor::new(genome.sequence(), 15)
            .nth(10)
            .unwrap()
            .canonical();
        let locs = idx.locations(kmer).expect("indexed seed");
        assert!(!locs.is_empty());
        assert_eq!(idx.taxid(), genome.taxid());
    }

    #[test]
    fn reference_index_is_two_exact_columns_in_seed_position_order() {
        let r = refs();
        for genome in r.genomes() {
            let idx = ReferenceIndex::build(genome, 15);
            let mut pairs: Vec<(u64, u32)> =
                seed_words(genome.sequence(), 15).zip(0u32..).collect();
            pairs.sort_unstable();
            let rows = idx.seeds.iter().copied().zip(idx.positions.iter().copied());
            assert!(rows.eq(pairs.iter().copied()));
            // No slack, no offsets, no directory: 8 + 4 bytes a location.
            assert_eq!(idx.heap_bytes(), 12 * pairs.len() as u64);
            // A seed's locations are its run, whether walked or searched.
            let mut located = 0;
            for (seed, locations) in idx.entries() {
                assert_eq!(idx.locations(seed), Some(locations));
                located += locations.len();
            }
            assert_eq!(located, pairs.len());
            assert_eq!(idx.entries().count(), idx.len());
            assert_eq!(
                idx.encoded_bytes(),
                (4 * idx.len() + 4 * pairs.len()) as u64
            );
            let missing = pairs.iter().map(|(seed, _)| seed + 1);
            for seed in missing.filter(|s| pairs.binary_search_by_key(s, |p| p.0).is_err()) {
                assert_eq!(idx.locations(Kmer::from_bits(u128::from(seed), 15)), None);
            }
        }
    }

    #[test]
    fn unified_index_merges_and_offsets() {
        let r = refs();
        let indexes: Vec<ReferenceIndex> = r
            .genomes()
            .iter()
            .take(3)
            .map(|g| ReferenceIndex::build(g, 15))
            .collect();
        let unified = UnifiedReferenceIndex::merge(&indexes);
        assert_eq!(unified.offsets().len(), 3);
        assert_eq!(unified.offsets()[0].1, 0);
        assert_eq!(unified.offsets()[1].1, 600);
        assert_eq!(unified.offsets()[2].1, 1200);
        // Every seed of every merged index must be resolvable.
        for idx in &indexes {
            for (kmer, _) in idx.entries().take(20) {
                let locs = unified.locations(kmer).expect("merged seed present");
                assert!(locs.iter().any(|l| l.taxid == idx.taxid()));
            }
        }
        // Position→taxon mapping respects offsets.
        assert_eq!(unified.taxon_of_position(0), Some(indexes[0].taxid()));
        assert_eq!(unified.taxon_of_position(650), Some(indexes[1].taxid()));
        assert_eq!(unified.taxon_of_position(1800), Some(indexes[2].taxid()));
        // Boundary positions belong to the species that starts there.
        assert_eq!(unified.taxon_of_position(599), Some(indexes[0].taxid()));
        assert_eq!(unified.taxon_of_position(600), Some(indexes[1].taxid()));
        assert_eq!(unified.taxon_of_position(1200), Some(indexes[2].taxid()));
        assert_eq!(
            unified.taxon_of_position(u64::MAX),
            Some(indexes[2].taxid())
        );
    }

    #[test]
    fn unified_index_of_empty_input_is_empty() {
        let unified = UnifiedReferenceIndex::merge(&[]);
        assert!(unified.is_empty());
        assert!(unified.offsets().is_empty());
        assert_eq!(unified.taxon_of_position(17), None);
    }

    #[test]
    fn merge_partials_recombines_byte_identically() {
        // Candidates from one genus share seeds, so the same k-mer appears
        // in several partials and the location-concatenation order matters.
        let r = refs();
        let indexes: Vec<ReferenceIndex> = r
            .genomes()
            .iter()
            .map(|g| ReferenceIndex::build(g, 15))
            .collect();
        let whole = UnifiedReferenceIndex::merge(&indexes);
        let index_refs: Vec<&ReferenceIndex> = indexes.iter().collect();

        for cuts in [
            vec![6],
            vec![2, 4, 6],
            vec![1, 2, 3, 4, 5, 6],
            vec![3, 3, 6, 6],
            vec![0, 6],
        ] {
            let mut partials = Vec::new();
            let mut start = 0usize;
            let mut base = 0u64;
            for end in cuts.clone() {
                let range = &index_refs[start..end];
                let partial = PartialUnifiedIndex::merge_range(range, base);
                assert_eq!(partial.base(), base);
                assert_eq!(partial.is_empty(), range.is_empty());
                base += partial.span();
                start = end;
                partials.push(partial);
            }
            let recombined = UnifiedReferenceIndex::merge_partials(partials);
            assert_eq!(recombined, whole, "cuts {cuts:?} diverged");
            assert!(recombined.entries().eq(whole.entries()));
            assert_eq!(recombined.offsets(), whole.offsets());
        }
        // No partials at all recombine to the empty index.
        assert!(UnifiedReferenceIndex::merge_partials(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "consecutive candidate range")]
    fn merge_partials_rejects_non_consecutive_partials() {
        let r = refs();
        let indexes: Vec<ReferenceIndex> = r
            .genomes()
            .iter()
            .map(|g| ReferenceIndex::build(g, 15))
            .collect();
        let index_refs: Vec<&ReferenceIndex> = indexes.iter().collect();
        let first = PartialUnifiedIndex::merge_range(&index_refs[..2], 0);
        let gap = first.span() + 7;
        let second = PartialUnifiedIndex::merge_range(&index_refs[2..4], gap);
        UnifiedReferenceIndex::merge_partials(vec![first, second]);
    }

    #[test]
    fn map_read_hit_backs_map_read() {
        let r = refs();
        let indexes: Vec<ReferenceIndex> = r
            .genomes()
            .iter()
            .map(|g| ReferenceIndex::build(g, 15))
            .collect();
        let unified = UnifiedReferenceIndex::merge(&indexes);
        // A read drawn straight from a genome maps to it with many votes.
        let genome = &r.genomes()[1];
        let bases: Vec<crate::dna::Base> = genome.sequence().iter().take(80).collect();
        let read = crate::read::Read::new("r0", crate::dna::PackedSequence::from_bases(bases));
        let hit = unified.map_read_hit(&read, 15).expect("read has seed hits");
        assert!(hit.votes >= MIN_MAPPING_VOTES);
        assert_eq!(unified.map_read(&read, 15), Some(hit.taxid));
        // The per-partition maximum of hits resolves to the global hit.
        let index_refs: Vec<&ReferenceIndex> = indexes.iter().collect();
        let mut base = 0u64;
        let mut best: Option<ReadMapHit> = None;
        for chunk in index_refs.chunks(2) {
            let partial = PartialUnifiedIndex::merge_range(chunk, base);
            base += partial.span();
            if let Some(h) = partial.index().map_read_hit(&read, 15) {
                let key = |h: &ReadMapHit| (h.votes, std::cmp::Reverse(h.taxid));
                if best.as_ref().map(|b| key(&h) > key(b)).unwrap_or(true) {
                    best = Some(h);
                }
            }
        }
        assert_eq!(best, Some(hit));
    }

    #[test]
    fn entry_at_names_the_seed_starting_at_each_position() {
        let r = refs();
        let indexes: Vec<ReferenceIndex> = r
            .genomes()
            .iter()
            .map(|g| ReferenceIndex::build(g, 15))
            .collect();
        let unified = UnifiedReferenceIndex::merge(&indexes);
        let total: usize = indexes.iter().map(ReferenceIndex::genome_len).sum();
        assert_eq!(unified.entry_at.len(), total);
        let mut tagged = 0;
        for (position, &tag) in unified.entry_at.iter().enumerate() {
            if tag == NO_ENTRY {
                continue;
            }
            let locations = unified.table.items((tag & !SINGLE_LOCATION) as usize);
            assert!(locations.iter().any(|l| l.position == position as u64));
            assert_eq!(tag & SINGLE_LOCATION != 0, locations.len() == 1);
            tagged += 1;
        }
        // Every location has its slot, and a genome's last k - 1 bases
        // start no seed.
        assert_eq!(tagged, unified.table.payload.len());
        assert_eq!(tagged, total - indexes.len() * 14);
    }

    #[test]
    fn multi_sweep_edge_shapes_match_independent_calls() {
        let db = SortedKmerDatabase::build(&refs(), 21);
        let all: Vec<Kmer> = db.kmers().collect();

        // No members at all: an empty sweep.
        assert!(db.intersect_sorted_multi(&[]).is_empty());
        // A single member reproduces the single-sample merge exactly.
        assert_eq!(db.intersect_sorted_multi(&[&all]), vec![all.clone()]);
        // Empty member slices produce empty hit lists without disturbing
        // their neighbours.
        let sparse: Vec<Kmer> = all.iter().step_by(7).copied().collect();
        let got = db.intersect_sorted_multi(&[&[], &sparse, &[]]);
        assert_eq!(got, vec![Vec::new(), sparse.clone(), Vec::new()]);
        // An empty database yields empty hit lists for every member.
        let empty = SortedKmerDatabase::default();
        assert_eq!(
            empty.intersect_sorted_multi(&[&all, &sparse]),
            vec![Vec::new(), Vec::new()]
        );
    }

    #[test]
    fn seeded_multi_sweep_property_suite() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let r = refs();
        let db = SortedKmerDatabase::build(&r, 21);
        let all: Vec<Kmer> = db.kmers().collect();
        // Foreign k-mers: drawn from an unrelated collection, so member
        // slices built from them are (mostly) disjoint from the database.
        let outsiders = ReferenceCollection::synthetic(2, 500, 2024);
        let mut foreign: Vec<Kmer> = KmerExtractor::new(outsiders.genomes()[0].sequence(), 21)
            .map(|k| k.canonical())
            .collect();
        foreign.sort();
        foreign.dedup();

        let mut rng = StdRng::seed_from_u64(0xc0a1_e5ce);
        for trial in 0..60 {
            let member_count: usize = rng.gen_range(1..=8);
            let members: Vec<Vec<Kmer>> = (0..member_count)
                .map(|_| {
                    let mut q: Vec<Kmer> = match rng.gen_range(0..5u32) {
                        // Empty member slice.
                        0 => Vec::new(),
                        // Disjoint: queries the database does not hold.
                        1 => {
                            let step = rng.gen_range(1..7usize);
                            foreign.iter().step_by(step).copied().collect()
                        }
                        // Subset: every query hits.
                        2 => {
                            let step = rng.gen_range(1..17usize);
                            all.iter().step_by(step).copied().collect()
                        }
                        // Duplicates: a subset with every element doubled —
                        // outputs must stay deduplicated.
                        3 => {
                            let step = rng.gen_range(2..9usize);
                            let base: Vec<Kmer> = all.iter().step_by(step).copied().collect();
                            let mut dup = base.clone();
                            dup.extend(base);
                            dup
                        }
                        // Mixed hits and misses.
                        _ => {
                            let mut mix: Vec<Kmer> = all
                                .iter()
                                .step_by(rng.gen_range(3..11usize))
                                .copied()
                                .collect();
                            mix.extend(foreign.iter().step_by(rng.gen_range(2..9usize)).copied());
                            mix
                        }
                    };
                    q.sort();
                    q
                })
                .collect();
            let slices: Vec<&[Kmer]> = members.iter().map(Vec::as_slice).collect();
            let multi = db.intersect_sorted_multi(&slices);
            assert_eq!(multi.len(), members.len());
            for (i, (member, got)) in members.iter().zip(&multi).enumerate() {
                assert_eq!(
                    got,
                    &db.intersect_sorted(member),
                    "trial {trial} member {i}: multi sweep diverged from \
                     the independent probe"
                );
                assert_eq!(
                    got,
                    &db.intersect_sorted_two_pointer(member),
                    "trial {trial} member {i}: shared sweep diverged from \
                     the two-pointer oracle"
                );
            }

            // The same members pushed through a sharded layout with
            // per-member overlap pre-filtering (exactly the worker's access
            // pattern) must demux identically.
            let parts = rng.gen_range(2..5usize);
            for shard in db.partition(parts) {
                let overlaps: Vec<&[Kmer]> = members
                    .iter()
                    .map(|m| &m[shard.overlapping_query_range(m)])
                    .collect();
                let shard_multi = shard.intersect_sorted_multi(&overlaps);
                for (i, (member, got)) in members.iter().zip(&shard_multi).enumerate() {
                    assert_eq!(
                        got,
                        &shard.intersect_sorted(member),
                        "trial {trial} member {i}: sharded sweep diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn seed_table_lookup_equals_an_ordered_map_under_any_skew() {
        use std::collections::BTreeMap;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Evenly spread seeds; seeds that all share their leading bits (one
        // far outlier sets the directory's width, so bucket 0 holds every
        // other seed and the lookup has to halve); dense runs, where a
        // probe's neighbours are seeds too; fewer seeds than the fixed
        // window is wide; one seed; none. The outlier and the seeds of the
        // full-width shapes use all 64 bits of the word, as a 32-base seed
        // starting with `T` does.
        let spread: Vec<u64> = (0..3000).map(|_| next() >> 34).collect();
        let mut one_bucket: Vec<u64> = (0..1500).map(|_| 10 + (next() >> 40)).collect();
        one_bucket.push(u64::MAX - 3);
        let dense: Vec<u64> = (0..700u64).map(|i| 1000 + i + i / 9).collect();
        let few: Vec<u64> = (1..SEED_TAIL as u64).map(|i| 77 * i * i).collect();
        let full_width: Vec<u64> = (0..900).map(|_| next()).collect();
        for (label, mut seeds) in [
            ("spread", spread),
            ("one bucket", one_bucket),
            ("dense", dense),
            ("few", few),
            ("single", vec![5]),
            ("empty", Vec::new()),
            ("full width", full_width),
            ("single full width", vec![1 << 63]),
        ] {
            seeds.sort_unstable();
            seeds.dedup();
            let mut table = SeedTable::with_capacity(15, seeds.len(), 2 * seeds.len());
            let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for (i, &seed) in seeds.iter().enumerate() {
                let items: Vec<u32> = (0..1 + i as u32 % 3).map(|j| 7 * i as u32 + j).collect();
                table.append(seed, items.iter().copied());
                map.insert(seed, items);
            }
            table.seal();
            if label == "one bucket" {
                let widest = table.directory.bounds.windows(2).map(|w| w[1] - w[0]).max();
                assert_eq!(widest, Some(seeds.len() as u32 - 1), "fixture skew");
            }
            // All-hit, all-miss (both neighbours of every seed, unless they
            // are seeds themselves), below the first seed, above the last.
            let mut probes = seeds.clone();
            probes.extend(seeds.iter().filter_map(|s| s.checked_add(1)));
            probes.extend(seeds.iter().filter_map(|s| s.checked_sub(1)));
            let (first, last) = (seeds.first().copied(), seeds.last().copied());
            probes.extend([0, first.unwrap_or(9) / 2, u64::MAX, u64::MAX >> 1]);
            probes.extend(last.and_then(|l| l.checked_add(2)));
            let (mut hits, mut misses) = (0, 0);
            for &probe in &probes {
                let expected = map.get(&probe).map(Vec::as_slice);
                let found = table.find(probe).map(|entry| table.items(entry));
                assert_eq!(found, expected, "{label}: probe {probe:#x}");
                match expected {
                    Some(_) => hits += 1,
                    None => misses += 1,
                }
            }
            assert!(hits >= seeds.len() && misses >= 4, "{label}");
            // The directory's batched lower bounds, on the same probes in
            // batches of every length: shuffled, so a batch mixes hits with
            // misses, runs unsorted and (a tenth of the list drawn twice)
            // repeats itself; the seeds that sort last — where the fixed
            // window would run off the column — fall into every slot. Each
            // slot answers as a binary search of the column would, and the
            // slots past a short batch hold the column's end.
            probes.extend_from_within(..probes.len() / 10);
            for i in (1..probes.len()).rev() {
                probes.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let end = seeds.len();
            let lower_bounds = |batch: &[u64]| table.directory.lower_bounds(&table.seeds, batch);
            assert_eq!(lower_bounds(&[]), [end; PROBE_BATCH], "{label}");
            for len in 1..=PROBE_BATCH {
                for batch in probes.chunks(len) {
                    let found = lower_bounds(batch);
                    for (slot, at) in found.iter().enumerate() {
                        let expected = batch
                            .get(slot)
                            .map_or(end, |probe| seeds.partition_point(|s| s < probe));
                        assert_eq!(*at, expected, "{label}: {len}/{slot}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one batch per probe")]
    fn probe_rejects_more_than_one_batch() {
        Directory::default().lower_bounds::<u64>(&[], &[0; PROBE_BATCH + 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_SEED_K (32)")]
    fn reference_index_rejects_a_seed_wider_than_the_seed_word() {
        let _ = ReferenceIndex::build(&refs().genomes()[0], MAX_SEED_K + 1);
    }

    #[test]
    fn reference_index_holds_full_width_seeds() {
        // 32-base seeds use every bit of the seed word; a genome of exactly
        // one such seed starting with `T` on both strands has a one-bucket
        // directory shifted by the whole word.
        let lone = PackedSequence::from_ascii(b"TGCATGCATGCATGCATGCATGCATGCATGCA").unwrap();
        let genome = ReferenceGenome::new(TaxId(3), "lone", lone.clone());
        let index = ReferenceIndex::build(&genome, MAX_SEED_K);
        let (seed, positions) = index.entries().next().expect("one seed");
        assert_eq!((index.len(), positions), (1, &[0u32][..]));
        assert_eq!(
            seed,
            Kmer::from_bases(&lone.iter().collect::<Vec<_>>()).canonical()
        );
        assert!(seed.bits() >> 63 == 1, "fixture: top bit of the word set");
        assert_eq!(index.locations(seed), Some(&[0u32][..]));
        assert_eq!(index.locations(seed.prefix(31)), None);
        let r = refs();
        for genome in r.genomes() {
            let index = ReferenceIndex::build(genome, MAX_SEED_K);
            for (pos, kmer) in KmerExtractor::new(genome.sequence(), MAX_SEED_K).enumerate() {
                let at = index
                    .locations(kmer.canonical())
                    .expect("every seed indexed");
                assert!(at.contains(&(pos as u32)));
            }
        }
    }

    #[test]
    fn reference_index_builds_are_counted_per_thread() {
        let r = refs();
        let before = ReferenceIndex::builds_on_this_thread();
        let _ = ReferenceIndex::build(&r.genomes()[0], 15);
        let _ = ReferenceIndex::build(&r.genomes()[1], 15);
        assert_eq!(ReferenceIndex::builds_on_this_thread(), before + 2);
    }
}
