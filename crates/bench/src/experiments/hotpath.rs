//! Hot-path microbenchmarks: the flattened data path of the functional
//! reproduction, measured against its pre-refactor pointer-chasing
//! baselines.
//!
//! MegIS's premise is that Steps 2–3 run at flash-streaming bandwidth on
//! sorted flat data (§4.3.1); the host-side reproduction must not give that
//! back in its innermost loops. This experiment measures the hot kernels
//! after the columnar refactor:
//!
//! * **intersection** — the directory probe of
//!   [`SortedKmerDatabase::intersect_sorted`] (sorted queries looked up a
//!   batch at a time through the storage's bucket directory) against the
//!   retained two-pointer reference, on a skewed workload
//!   (`|DB| = 64 · |Q|`, the realistic per-shard regime), and the probe cut
//!   per shard — each shard's `hit_positions` over its overlapping query
//!   range, shifted to storage positions — against the whole database's,
//!   for 1–8 shards,
//! * **KMC counting** — `extract payload words → lexicographic-range
//!   buckets → sort each → run-length group` against the old per-occurrence
//!   `BTreeMap` insertion, at k = 31 (half-width words) and k = 45
//!   (full-width words),
//! * **database build** — the columnar pair-sort build against the old
//!   `BTreeMap<Kmer, Vec<TaxId>>` + `contains` build,
//! * **sketch build** — [`SketchDatabase::build`], the same pair-sort build
//!   per k size over the hash-selected k-mers, against the old per-k
//!   `BTreeMap` + `contains` build with its per-taxon size count,
//! * **taxID retrieval** — the one-pass cursor merge of
//!   [`KssTables::stream_retrieve`] against the fold of one random-access
//!   [`KssTables::lookup`] per intersecting k-mer,
//! * **Step 2** — the device pass the engine runs, [`step2::sweep`] (one
//!   directory-probe sweep counting each hit's taxa through the
//!   database-joined KSS, a bit test and a rank per table), against the two passes it
//!   fuses, `stream_retrieve ∘ intersect_sorted`, on the intersection
//!   fixture; the join is [`KssJoin::build`] straight from the sketch, and
//!   every database position must retrieve through it what
//!   [`KssTables::lookup`] retrieves for the position's k-mer,
//! * **Step 3** — the flat unified index (one linear-min k-way merge of
//!   sorted seed columns, walk-along dense-counter seed voting) against the
//!   old ordered map of per-seed location lists with an ordered-map vote
//!   table per read; the reads mapped as 1, 2 and 8 ranges over the one
//!   merged index, counts added (the mapper's additivity over reads),
//!   against the sequential `step3::run`; and
//!   the mapper's walk-along votes ([`UnifiedReferenceIndex::read_votes`])
//!   against the same seeds resolved one by one through
//!   [`UnifiedReferenceIndex::locations`],
//!
//! plus **shard residency**: [`ShardSet::resident_bytes`] across 1–8 shards
//! must stay exactly one copy of the columnar storage (zero-copy views),
//! where the old deep-copy partition held a second full copy.
//!
//! `megis-bench hotpath` prints this report and writes the numbers to
//! `BENCH_hotpath.json`. CI runs it in release mode, greps the exact
//! verdict lines (kernel parity, sharded-sweep parity, counting parity,
//! sketch-build parity, KSS stream parity, fused Step 2 parity, join
//! parity, unified-index parity, read-range parity, walk-along votes parity,
//! zero-copy shards) and uploads the JSON, so a PR that breaks a kernel's
//! equivalence or reintroduces a database copy fails the smoke test. The
//! directory probe speedup line is wall clock from one run: printed, not
//! gated.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use megis::kss::{KssJoin, KssTables};
use megis::{step2, step3};
use megis_genomics::database::{
    ReadMapHit, ReferenceIndex, SortedKmerDatabase, UnifiedReferenceIndex,
};
use megis_genomics::kmer::{fits_half_word, CanonicalKmerExtractor, Kmer, KmerExtractor};
use megis_genomics::read::{Read, ReadSet};
use megis_genomics::reference::ReferenceCollection;
use megis_genomics::sample::{CommunityConfig, Diversity};
use megis_genomics::sketch::{sketch_hash, SketchConfig, SketchDatabase};
use megis_genomics::taxonomy::TaxId;
use megis_sched::ShardSet;
use megis_tools::kmc::KmerCounts;

use crate::report::Report;

/// Reference genomes in the intersection-fixture database. The database
/// must be far larger than the last-level cache for the measurement to be
/// honest: a cache-resident k-mer column makes the two-pointer scan nearly
/// free and hides the probe's win that exists at paper scale, where the
/// database always streams from memory (or flash).
const INTERSECT_GENOMES: usize = 64;
/// Bases per intersection-fixture genome (~2M database entries, ~64 MB of
/// k-mer column).
const INTERSECT_GENOME_LEN: usize = 32_000;
/// Reference genomes in the (smaller) build-throughput fixture.
const BUILD_GENOMES: usize = 16;
/// Bases per build-fixture genome.
const BUILD_GENOME_LEN: usize = 8_000;
/// k-mer length of the database and queries.
const K: usize = 31;
/// k-mer lengths of the counting rows: the benchmark's (half-width payload
/// words) and the default sketch shape's `k_max` (full-width words).
const COUNT_KS: [usize; 2] = [K, 45];
/// Query skew: one query per this many database entries (`|DB| = SKEW·|Q|`).
const SKEW: usize = 64;
/// Reads in the counting fixture.
const READS: usize = 400;
/// Seed length of the Step 3 fixture (the pipeline's default `mapping_k`).
const SEED_K: usize = 15;
/// Trials per kernel; the best trial is reported (suppresses scheduler
/// noise, keeps the structural effect).
const TRIALS: usize = 3;
/// Minimum measured span per trial; kernels faster than this are iterated.
const MIN_MEASURE: Duration = Duration::from_millis(10);
/// The printed verdict's threshold: the directory probe beats two-pointer
/// by at least this factor on the skewed workload.
const PROBE_THRESHOLD: f64 = 2.0;

/// Best-of-[`TRIALS`] seconds per invocation of `f`, each trial iterating
/// until at least [`MIN_MEASURE`] has elapsed.
fn best_seconds<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let mut iters = 0u32;
        let start = Instant::now();
        loop {
            std::hint::black_box(f());
            iters += 1;
            if start.elapsed() >= MIN_MEASURE {
                break;
            }
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// The pre-refactor database build (per-entry `BTreeMap` nodes plus an
/// `O(t)` `contains` scan per occurrence), kept as the measured baseline.
fn build_btreemap(references: &ReferenceCollection, k: usize) -> Vec<(Kmer, Vec<TaxId>)> {
    let mut map: BTreeMap<Kmer, Vec<TaxId>> = BTreeMap::new();
    for genome in references.genomes() {
        for kmer in KmerExtractor::new(genome.sequence(), k) {
            let taxa = map.entry(kmer.canonical()).or_default();
            if !taxa.contains(&genome.taxid()) {
                taxa.push(genome.taxid());
            }
        }
    }
    map.into_iter()
        .map(|(kmer, mut taxa)| {
            taxa.sort();
            (kmer, taxa)
        })
        .collect()
}

/// One sketch table of the ordered-map build: `(k, sorted entries)`.
type MapSketchTable = (usize, Vec<(Kmer, Vec<TaxId>)>);

/// The pre-refactor sketch build (per k size, a `BTreeMap` insert plus an
/// `O(t)` `contains` scan per selected occurrence, each taxon's sketch size
/// counted as its associations are inserted), kept as the measured baseline.
fn sketch_btreemap(
    references: &ReferenceCollection,
    config: SketchConfig,
) -> (Vec<MapSketchTable>, BTreeMap<TaxId, usize>) {
    let threshold = (config.fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    let mut tables = Vec::new();
    let mut sizes: BTreeMap<TaxId, usize> = BTreeMap::new();
    for k in config.k_sizes() {
        let mut map: BTreeMap<Kmer, Vec<TaxId>> = BTreeMap::new();
        for genome in references.genomes() {
            for kmer in CanonicalKmerExtractor::new(genome.sequence(), k) {
                if sketch_hash(kmer) <= threshold {
                    let taxa = map.entry(kmer).or_default();
                    if !taxa.contains(&genome.taxid()) {
                        taxa.push(genome.taxid());
                        *sizes.entry(genome.taxid()).or_default() += 1;
                    }
                }
            }
        }
        let table = map
            .into_iter()
            .map(|(kmer, mut taxa)| {
                taxa.sort();
                (kmer, taxa)
            })
            .collect();
        tables.push((k, table));
    }
    (tables, sizes)
}

/// The pre-refactor KMC counting (per-occurrence ordered-map insertion),
/// kept as the measured baseline.
fn count_btreemap(reads: &ReadSet, k: usize) -> Vec<(Kmer, u32)> {
    let mut map: BTreeMap<Kmer, u32> = BTreeMap::new();
    for read in reads.iter() {
        for kmer in read.kmers(k) {
            *map.entry(kmer.canonical()).or_insert(0) += 1;
        }
    }
    map.into_iter().collect()
}

/// The per-query reference for taxID retrieval: one random-access
/// [`KssTables::lookup`] per intersecting k-mer, folded into support counts.
fn retrieve_by_lookup(kss: &KssTables, intersecting: &[Kmer]) -> HashMap<TaxId, u32> {
    let mut support = HashMap::new();
    for kmer in intersecting {
        for taxid in kss.lookup(*kmer) {
            *support.entry(taxid).or_insert(0) += 1;
        }
    }
    support
}

/// The pre-refactor unified index: an ordered map from seed to its
/// `(taxid, concatenated-space position)` list, filled per seed in candidate
/// order. Kept as the measured baseline and parity reference.
type MapUnifiedIndex = BTreeMap<Kmer, Vec<(TaxId, u64)>>;

fn merge_btreemap(candidates: &[ReferenceIndex]) -> MapUnifiedIndex {
    let mut merged = MapUnifiedIndex::new();
    let mut offset = 0u64;
    for idx in candidates {
        for (seed, positions) in idx.entries() {
            let out = merged.entry(seed).or_default();
            out.extend(positions.iter().map(|p| (idx.taxid(), offset + *p as u64)));
        }
        offset += idx.genome_len() as u64;
    }
    merged
}

/// The pre-refactor mapper: an ordered-map vote table per read, winner by
/// `(votes, smallest taxid)`.
fn map_btreemap(index: &MapUnifiedIndex, read: &Read) -> Option<ReadMapHit> {
    let mut votes: BTreeMap<TaxId, u32> = BTreeMap::new();
    for kmer in read.kmers(SEED_K) {
        for (taxid, _) in index.get(&kmer.canonical()).into_iter().flatten() {
            *votes.entry(*taxid).or_insert(0) += 1;
        }
    }
    votes
        .into_iter()
        .max_by_key(|(taxid, votes)| (*votes, Reverse(*taxid)))
        .map(|(taxid, votes)| ReadMapHit { taxid, votes })
}

/// One KMC counting row: the read set counted at one k-mer length.
#[derive(Debug, Clone, Copy)]
pub struct CountRow {
    /// k-mer length.
    pub k: usize,
    /// k-mer occurrences counted per pass.
    pub occurrences: u64,
    /// Seconds per `BTreeMap` counting pass (best trial).
    pub btreemap_s: f64,
    /// Seconds per bucketed counting pass (best trial).
    pub bucketed_s: f64,
}

impl CountRow {
    /// Bucketed counting speedup over the `BTreeMap` baseline.
    pub fn speedup(&self) -> f64 {
        self.btreemap_s / self.bucketed_s
    }
}

/// Everything the hot-path experiment measured; [`hotpath_measure`] fills
/// it, [`HotpathMeasurement::report`] renders the text report, and
/// [`HotpathMeasurement::to_json`] serializes the `BENCH_hotpath.json`
/// trajectory record.
#[derive(Debug, Clone)]
pub struct HotpathMeasurement {
    /// Distinct k-mers in the database fixture.
    pub db_entries: usize,
    /// k-mer→taxon associations in the database fixture.
    pub db_associations: usize,
    /// Query k-mers in the skewed intersection workload.
    pub queries: usize,
    /// The counting workload at k = 31 and at k = 45.
    pub count_rows: Vec<CountRow>,
    /// Whether `KmerCounts::count` equalled the ordered-map count (k-mers,
    /// multiplicities, occurrence total) at every counted k.
    pub count_parity: bool,
    /// k-mer occurrences the build consumes.
    pub build_inputs: u64,
    /// Seconds per two-pointer intersection pass (best trial).
    pub two_pointer_s: f64,
    /// Seconds per directory-probe intersection pass (best trial).
    pub probe_s: f64,
    /// Seconds per `BTreeMap` database build (best trial).
    pub build_btreemap_s: f64,
    /// Seconds per columnar database build (best trial).
    pub build_columnar_s: f64,
    /// Sketch k-mers (across all k sizes) of the build fixture's sketch.
    pub sketch_kmers: usize,
    /// Seconds per ordered-map sketch build (best trial).
    pub sketch_btreemap_s: f64,
    /// Seconds per sort-built [`SketchDatabase::build`] (best trial).
    pub sketch_sorted_s: f64,
    /// Whether the sort-built sketch equalled the ordered-map build: every
    /// table's entries and every taxon's sketch size.
    pub sketch_parity: bool,
    /// Intersecting k-mers in the taxID-retrieval workload (the build
    /// fixture's whole database against its own sketches).
    pub kss_queries: usize,
    /// Seconds per fold-of-`lookup` retrieval pass (best trial).
    pub kss_lookup_s: f64,
    /// Seconds per `stream_retrieve` pass (best trial).
    pub kss_stream_s: f64,
    /// Whether the streamed support counts equalled the per-query fold.
    pub kss_parity: bool,
    /// Heap bytes of the KSS join over the intersection fixture's database.
    pub step2_join_bytes: u64,
    /// Seconds per `stream_retrieve(intersect_sorted(queries))` (best trial).
    pub step2_two_pass_s: f64,
    /// Seconds per fused `step2::sweep` over the same queries (best trial).
    pub step2_fused_s: f64,
    /// Whether the fused sweep's hit count and per-taxon support equalled
    /// `stream_retrieve` over `intersect_sorted`, on the skewed and the
    /// mixed query list.
    pub step2_parity: bool,
    /// Whether the join built straight from the sketch retrieved, at every
    /// database position, what `KssTables::lookup` retrieves for the
    /// position's k-mer.
    pub join_parity: bool,
    /// Candidate species merged in the Step 3 fixture.
    pub step3_candidates: usize,
    /// Distinct seeds of the merged unified index.
    pub step3_seeds: usize,
    /// Reads mapped per pass in the Step 3 fixture.
    pub step3_reads: usize,
    /// Host bytes of the merged index's seed column (one word per seed).
    pub step3_seed_column_bytes: u64,
    /// Seconds per ordered-map unified-index merge (best trial).
    pub merge_btreemap_s: f64,
    /// Seconds per flat k-way unified-index merge (best trial).
    pub merge_flat_s: f64,
    /// Seconds per mapping pass with the ordered-map voter (best trial).
    pub map_btreemap_s: f64,
    /// Seconds per mapping pass with `map_read_hit` (best trial).
    pub map_flat_s: f64,
    /// Whether the flat index and mapper equalled the map-based reference
    /// (entries, locations, and every read's best hit).
    pub step3_parity: bool,
    /// Whether the reads mapped as 1, 2 and 8 ranges over the one merged
    /// index, counts added up, equalled the sequential `step3::run`.
    pub read_range_parity: bool,
    /// Whether the per-candidate vote totals of the reads' seeds resolved
    /// one by one (`locations`) equalled those of the mapper's walk
    /// (`read_votes`).
    pub walk_parity: bool,
    /// Heap bytes of one columnar database copy.
    pub db_heap_bytes: u64,
    /// `(shard count, ShardSet::resident_bytes)` for each swept count.
    pub resident_by_shards: Vec<(usize, u64)>,
    /// Whether the probed intersect and the columnar build reproduced
    /// their baselines exactly (two-pointer merge, map build).
    pub parity: bool,
    /// Whether per-shard `hit_positions` over each shard's overlapping
    /// query range, shifted by its storage offset, reproduced the whole
    /// database's positions at 1–8 shards on both query lists.
    pub shard_sweep_parity: bool,
}

impl HotpathMeasurement {
    /// Directory probe speedup over the two-pointer reference.
    pub fn probe_speedup(&self) -> f64 {
        self.two_pointer_s / self.probe_s
    }

    /// Columnar build speedup over the `BTreeMap` baseline.
    pub fn build_speedup(&self) -> f64 {
        self.build_btreemap_s / self.build_columnar_s
    }

    /// Sort-built sketch speedup over the ordered-map build.
    pub fn sketch_speedup(&self) -> f64 {
        self.sketch_btreemap_s / self.sketch_sorted_s
    }

    /// Streaming retrieval speedup over the fold of per-query lookups.
    pub fn kss_speedup(&self) -> f64 {
        self.kss_lookup_s / self.kss_stream_s
    }

    /// Fused Step 2 speedup over intersecting, then retrieving.
    pub fn step2_speedup(&self) -> f64 {
        self.step2_two_pass_s / self.step2_fused_s
    }

    /// Flat k-way merge speedup over the ordered-map merge.
    pub fn merge_speedup(&self) -> f64 {
        self.merge_btreemap_s / self.merge_flat_s
    }

    /// Flat mapper speedup over the ordered-map voter.
    pub fn map_speedup(&self) -> f64 {
        self.map_btreemap_s / self.map_flat_s
    }

    /// Shard-set resident bytes relative to one database copy, at the
    /// largest swept shard count. Exactly 1.0 for zero-copy views; ~2.0 was
    /// the deep-copy number this refactor removes.
    pub fn resident_ratio(&self) -> f64 {
        let (_, resident) = self.resident_by_shards.last().copied().unwrap_or((0, 0));
        resident as f64 / self.db_heap_bytes as f64
    }

    /// The printed (ungated) verdict: the probe beats two-pointer by at
    /// least the 2x threshold on the skewed workload.
    pub fn probe_confirmed(&self) -> bool {
        self.probe_speedup() >= PROBE_THRESHOLD
    }

    /// The CI verdict: sharding kept one resident database copy.
    pub fn zero_copy_confirmed(&self) -> bool {
        self.resident_by_shards
            .iter()
            .all(|(_, resident)| *resident == self.db_heap_bytes)
    }

    /// Renders the plain-text report with the greppable verdict lines.
    pub fn report(&self) -> String {
        let mut report = Report::new();
        report.title(
            "Hot-path analysis: columnar k-mer database, directory-probe intersection, zero-copy shards",
        );
        report.line(&format!(
            "database: {} entries, {} associations (k = {K}); queries: {} \
             (skew |DB|/|Q| = {SKEW}); best of {TRIALS} trials per kernel",
            self.db_entries, self.db_associations, self.queries,
        ));

        let melems = (self.db_entries + self.queries) as f64 / 1e6;
        report.section(&format!("intersection finding (|DB| = {SKEW} * |Q|)"));
        report.table_header(&["kernel", "ms/pass", "Melem/s"]);
        report.table_row(
            "two-pointer",
            &[self.two_pointer_s * 1e3, melems / self.two_pointer_s],
        );
        report.table_row(
            "directory probe",
            &[self.probe_s * 1e3, melems / self.probe_s],
        );
        report.line(&format!("speedup: {:.2}x", self.probe_speedup()));

        for row in &self.count_rows {
            let mkmers = row.occurrences as f64 / 1e6;
            report.section(&format!(
                "KMC counting, k = {} ({} k-mer occurrences, {}-byte words)",
                row.k,
                row.occurrences,
                if fits_half_word(row.k) { 8 } else { 16 }
            ));
            report.table_header(&["kernel", "ms/pass", "Mkmer/s"]);
            report.table_row("btreemap", &[row.btreemap_s * 1e3, mkmers / row.btreemap_s]);
            report.table_row("bucketed", &[row.bucketed_s * 1e3, mkmers / row.bucketed_s]);
            report.line(&format!("speedup: {:.2}x", row.speedup()));
        }

        let minputs = self.build_inputs as f64 / 1e6;
        report.section(&format!(
            "database build ({} k-mer occurrences)",
            self.build_inputs
        ));
        report.table_header(&["kernel", "ms/pass", "Mkmer/s"]);
        report.table_row(
            "btreemap",
            &[self.build_btreemap_s * 1e3, minputs / self.build_btreemap_s],
        );
        report.table_row(
            "columnar",
            &[self.build_columnar_s * 1e3, minputs / self.build_columnar_s],
        );
        report.line(&format!("speedup: {:.2}x", self.build_speedup()));

        report.section(&format!(
            "sketch build ({} sketch k-mers, k = {:?}, same references)",
            self.sketch_kmers,
            SketchConfig::small().k_sizes()
        ));
        report.table_header(&["kernel", "ms/pass"]);
        report.table_row("btreemap", &[self.sketch_btreemap_s * 1e3]);
        report.table_row("sort-built", &[self.sketch_sorted_s * 1e3]);
        report.line(&format!("speedup: {:.2}x", self.sketch_speedup()));

        let per_kmer_ns = 1e9 / self.kss_queries as f64;
        report.section(&format!(
            "taxID retrieval through the KSS tables ({} intersecting k-mers)",
            self.kss_queries
        ));
        report.table_header(&["kernel", "ms/pass", "ns/k-mer"]);
        report.table_row(
            "fold of lookup",
            &[self.kss_lookup_s * 1e3, self.kss_lookup_s * per_kmer_ns],
        );
        report.table_row(
            "stream_retrieve",
            &[self.kss_stream_s * 1e3, self.kss_stream_s * per_kmer_ns],
        );
        report.line(&format!("speedup: {:.2}x", self.kss_speedup()));

        let per_query_ns = 1e9 / self.queries as f64;
        report.section(&format!(
            "Step 2 device pass ({} queries over the {}-entry database, join {:.2} MB)",
            self.queries,
            self.db_entries,
            self.step2_join_bytes as f64 / 1e6
        ));
        report.line("two passes = intersect_sorted, then stream_retrieve over its hit list");
        report.table_header(&["kernel", "ms/pass", "ns/query"]);
        report.table_row(
            "two passes",
            &[
                self.step2_two_pass_s * 1e3,
                self.step2_two_pass_s * per_query_ns,
            ],
        );
        report.table_row(
            "fused sweep",
            &[self.step2_fused_s * 1e3, self.step2_fused_s * per_query_ns],
        );
        report.line(&format!("speedup: {:.2}x", self.step2_speedup()));

        let per_read_ns = 1e9 / self.step3_reads as f64;
        report.section(&format!(
            "Step 3 unified index ({} candidates, {} seeds in a {}-byte seed column, \
             {} reads, seed k = {SEED_K})",
            self.step3_candidates, self.step3_seeds, self.step3_seed_column_bytes, self.step3_reads
        ));
        report.table_header(&["kernel", "merge us/pass", "map ns/read"]);
        report.table_row(
            "btreemap",
            &[
                self.merge_btreemap_s * 1e6,
                self.map_btreemap_s * per_read_ns,
            ],
        );
        report.table_row(
            "flat csr",
            &[self.merge_flat_s * 1e6, self.map_flat_s * per_read_ns],
        );
        report.line(&format!(
            "speedup: merge {:.2}x, map {:.2}x",
            self.merge_speedup(),
            self.map_speedup()
        ));

        report.section("shard residency (host heap, shared storage counted once)");
        report.line(&format!(
            "one database copy: {:.2} MB",
            self.db_heap_bytes as f64 / 1e6
        ));
        report.table_header(&["shards", "resident MB", "x database"]);
        for (shards, resident) in &self.resident_by_shards {
            report.table_row(
                &shards.to_string(),
                &[
                    *resident as f64 / 1e6,
                    *resident as f64 / self.db_heap_bytes as f64,
                ],
            );
        }

        report.line("");
        report.line(&format!(
            "parity with two-pointer reference: {}",
            if self.parity { "identical" } else { "DIVERGED" }
        ));
        report.line(&format!(
            "sharded sweep parity with whole-database sweep: {}",
            if self.shard_sweep_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "kmc counting parity with ordered-map reference: {}",
            if self.count_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "sketch build parity with ordered-map reference: {}",
            if self.sketch_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "kss stream parity with per-query lookup: {}",
            if self.kss_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "step 2 fused sweep parity with retrieval of the intersection: {}",
            if self.step2_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "kss join parity with per-entry lookup: {}",
            if self.join_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "unified index parity with map-based reference: {}",
            if self.step3_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "step 3 read-range parity with sequential run: {}",
            if self.read_range_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "walk-along votes parity with per-seed lookup: {}",
            if self.walk_parity {
                "identical"
            } else {
                "DIVERGED"
            }
        ));
        report.line(&format!(
            "directory probe speedup: {} ({:.2}x vs the {PROBE_THRESHOLD:.1}x threshold)",
            if self.probe_confirmed() {
                "confirmed"
            } else {
                "NOT OBSERVED"
            },
            self.probe_speedup(),
        ));
        report.line(&format!(
            "zero-copy shards: {} ({:.2}x of one database copy at {} shards)",
            if self.zero_copy_confirmed() {
                "confirmed"
            } else {
                "NOT OBSERVED"
            },
            self.resident_ratio(),
            self.resident_by_shards.last().map(|(s, _)| *s).unwrap_or(0),
        ));
        report.line("");
        report.line("The probe looks each query up through a bucket directory over the k-mers'");
        report.line("top bits, a batch of independent loads at a time, so the skewed intersect");
        report.line("costs a few overlapping cache misses per query instead of |DB| + |Q| steps;");
        report.line("the build replaces per-item ordered-map insertion with one sort_unstable +");
        report.line("run-length group over a dense array (each sketch table is that same build");
        report.line("over the hash-selected k-mers), and counting does the same on bare");
        report.line("payload words sized to k, bucketed by their leading bits so each sort is");
        report.line("cache-resident; retrieval walks each flat KSS table once with a forward");
        report.line("cursor instead of searching it per k-mer, and the engine's Step 2 skips even");
        report.line("that: the tables are joined against the database once, so the sweep that");
        report.line("finds a hit counts its taxa with a bit test and a rank per table and returns");
        report.line("support, not k-mers; the unified index is one linear-min k-way merge of");
        report.line("sorted seed columns, and each read walks the genome its seeds anchor in,");
        report.line("comparing the seed stored one position on before any directory lookup and");
        report.line("voting into a dense counter per candidate; and partitioning returns range");
        report.line("views over one Arc-shared columnar storage, so an N-shard deployment keeps");
        report.line("a single resident copy of the database.");
        report.finish()
    }

    /// Serializes the measurement as the `BENCH_hotpath.json` record.
    pub fn to_json(&self) -> String {
        let count_rows: Vec<String> = self
            .count_rows
            .iter()
            .map(|row| {
                format!(
                    "    \"k{}\": {{\n\
                     \x20     \"occurrences\": {},\n\
                     \x20     \"btreemap_us_per_pass\": {:.3},\n\
                     \x20     \"bucketed_us_per_pass\": {:.3},\n\
                     \x20     \"speedup\": {:.3}\n\
                     \x20   }}",
                    row.k,
                    row.occurrences,
                    row.btreemap_s * 1e6,
                    row.bucketed_s * 1e6,
                    row.speedup()
                )
            })
            .collect();
        let residents: Vec<String> = self
            .resident_by_shards
            .iter()
            .map(|(shards, bytes)| format!("    \"{shards}\": {bytes}"))
            .collect();
        format!(
            "{{\n\
             \x20 \"bench\": \"hotpath\",\n\
             \x20 \"kmer_len\": {K},\n\
             \x20 \"db_entries\": {},\n\
             \x20 \"db_associations\": {},\n\
             \x20 \"queries\": {},\n\
             \x20 \"skew\": {SKEW},\n\
             \x20 \"parity\": {},\n\
             \x20 \"intersect\": {{\n\
             \x20   \"two_pointer_us_per_pass\": {:.3},\n\
             \x20   \"probe_us_per_pass\": {:.3},\n\
             \x20   \"speedup\": {:.3},\n\
             \x20   \"threshold\": {PROBE_THRESHOLD:.1},\n\
             \x20   \"confirmed\": {},\n\
             \x20   \"sharded_parity\": {}\n\
             \x20 }},\n\
             \x20 \"count\": {{\n\
             \x20   \"parity\": {},\n{}\n\
             \x20 }},\n\
             \x20 \"build\": {{\n\
             \x20   \"occurrences\": {},\n\
             \x20   \"btreemap_us_per_pass\": {:.3},\n\
             \x20   \"columnar_us_per_pass\": {:.3},\n\
             \x20   \"speedup\": {:.3}\n\
             \x20 }},\n\
             \x20 \"sketch_build\": {{\n\
             \x20   \"sketch_kmers\": {},\n\
             \x20   \"btreemap_us_per_pass\": {:.3},\n\
             \x20   \"sort_built_us_per_pass\": {:.3},\n\
             \x20   \"speedup\": {:.3},\n\
             \x20   \"parity\": {}\n\
             \x20 }},\n\
             \x20 \"kss\": {{\n\
             \x20   \"intersecting_kmers\": {},\n\
             \x20   \"lookup_fold_ns_per_kmer\": {:.3},\n\
             \x20   \"stream_ns_per_kmer\": {:.3},\n\
             \x20   \"speedup\": {:.3},\n\
             \x20   \"parity\": {}\n\
             \x20 }},\n\
             \x20 \"step2\": {{\n\
             \x20   \"join_bytes\": {},\n\
             \x20   \"intersect_then_retrieve_us_per_pass\": {:.3},\n\
             \x20   \"fused_sweep_us_per_pass\": {:.3},\n\
             \x20   \"speedup\": {:.3},\n\
             \x20   \"parity\": {}\n\
             \x20 }},\n\
             \x20 \"step3\": {{\n\
             \x20   \"candidates\": {},\n\
             \x20   \"seeds\": {},\n\
             \x20   \"seed_column_bytes\": {},\n\
             \x20   \"reads\": {},\n\
             \x20   \"btreemap_merge_us_per_pass\": {:.3},\n\
             \x20   \"flat_merge_us_per_pass\": {:.3},\n\
             \x20   \"merge_speedup\": {:.3},\n\
             \x20   \"btreemap_map_ns_per_read\": {:.3},\n\
             \x20   \"flat_map_ns_per_read\": {:.3},\n\
             \x20   \"map_speedup\": {:.3},\n\
             \x20   \"parity\": {},\n\
             \x20   \"read_range_parity\": {},\n\
             \x20   \"walk_parity\": {}\n\
             \x20 }},\n\
             \x20 \"shards\": {{\n\
             \x20   \"db_heap_bytes\": {},\n\
             \x20   \"resident_bytes\": {{\n{}\n\x20   }},\n\
             \x20   \"resident_ratio\": {:.4},\n\
             \x20   \"zero_copy_confirmed\": {}\n\
             \x20 }}\n\
             }}\n",
            self.db_entries,
            self.db_associations,
            self.queries,
            self.parity,
            self.two_pointer_s * 1e6,
            self.probe_s * 1e6,
            self.probe_speedup(),
            self.probe_confirmed(),
            self.shard_sweep_parity,
            self.count_parity,
            count_rows.join(",\n"),
            self.build_inputs,
            self.build_btreemap_s * 1e6,
            self.build_columnar_s * 1e6,
            self.build_speedup(),
            self.sketch_kmers,
            self.sketch_btreemap_s * 1e6,
            self.sketch_sorted_s * 1e6,
            self.sketch_speedup(),
            self.sketch_parity,
            self.kss_queries,
            self.kss_lookup_s * 1e9 / self.kss_queries as f64,
            self.kss_stream_s * 1e9 / self.kss_queries as f64,
            self.kss_speedup(),
            self.kss_parity,
            self.step2_join_bytes,
            self.step2_two_pass_s * 1e6,
            self.step2_fused_s * 1e6,
            self.step2_speedup(),
            self.step2_parity,
            self.step3_candidates,
            self.step3_seeds,
            self.step3_seed_column_bytes,
            self.step3_reads,
            self.merge_btreemap_s * 1e6,
            self.merge_flat_s * 1e6,
            self.merge_speedup(),
            self.map_btreemap_s * 1e9 / self.step3_reads as f64,
            self.map_flat_s * 1e9 / self.step3_reads as f64,
            self.map_speedup(),
            self.step3_parity,
            self.read_range_parity,
            self.walk_parity,
            self.db_heap_bytes,
            residents.join(",\n"),
            self.resident_ratio(),
            self.zero_copy_confirmed(),
        )
    }
}

/// Runs the hot-path microbenchmarks and returns the raw measurement.
pub fn hotpath_measure() -> HotpathMeasurement {
    // Intersection fixture: a database far larger than the per-pass query
    // list (and than the last-level cache), queries drawn from the database
    // so both merges do full matching work (every query is a hit). Entries
    // are kept with probability 1/SKEW by a seeded hash rather than a fixed
    // stride, so the gaps are irregular (geometric-ish around SKEW), as a
    // sample's hits are.
    let references = ReferenceCollection::synthetic(INTERSECT_GENOMES, INTERSECT_GENOME_LEN, 4242);
    let database = SortedKmerDatabase::build(&references, K);
    let queries: Vec<Kmer> = database
        .kmers()
        .enumerate()
        .filter(|(i, _)| (*i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 == 0)
        .map(|(_, kmer)| kmer)
        .collect();

    // A mixed list (hits + foreign misses + duplicates) for the parity
    // check, so equivalence is asserted beyond the skewed shape.
    let foreign = ReferenceCollection::synthetic(2, 2_000, 777);
    let mut mixed: Vec<Kmer> = queries.clone();
    mixed.extend(KmerExtractor::new(foreign.genomes()[0].sequence(), K).map(|k| k.canonical()));
    mixed.extend(queries.iter().step_by(7).copied());
    mixed.sort();

    let parity = database.intersect_sorted(&queries)
        == database.intersect_sorted_two_pointer(&queries)
        && database.intersect_sorted(&mixed) == database.intersect_sorted_two_pointer(&mixed);

    // The probe cut as the engine cuts it: per shard, the overlapping query
    // range only, positions shifted to the storage's.
    let storage_positions = |view: &SortedKmerDatabase, list: &[Kmer]| {
        let mut positions = Vec::new();
        let offset = view.storage_offset();
        view.hit_positions(list, |p| positions.push(offset + p));
        positions
    };
    let shard_sweep_parity = [&queries, &mixed].into_iter().all(|list| {
        let whole = storage_positions(&database, list);
        !whole.is_empty()
            && (1..=8).all(|shards| {
                let mut cut = Vec::new();
                for shard in database.partition(shards) {
                    let overlap = &list[shard.overlapping_query_range(list)];
                    cut.extend(storage_positions(&shard, overlap));
                }
                cut == whole
            })
    });

    let two_pointer_s = best_seconds(|| database.intersect_sorted_two_pointer(&queries).len());
    let probe_s = best_seconds(|| database.intersect_sorted(&queries).len());

    // Counting fixture: a synthetic community's read set.
    let community = CommunityConfig::preset(Diversity::Medium)
        .with_reads(READS)
        .with_database_species(12)
        .build(7);
    let reads = community.sample().reads();
    let mut count_parity = true;
    let count_rows = COUNT_KS
        .iter()
        .map(|&k| {
            let counted = KmerCounts::count(reads, k);
            let reference = count_btreemap(reads, k);
            let total: u64 = reference.iter().map(|(_, n)| u64::from(*n)).sum();
            count_parity &= !reference.is_empty()
                && counted.total_occurrences() == total
                && counted.entries().eq(reference);
            CountRow {
                k,
                occurrences: total,
                btreemap_s: best_seconds(|| count_btreemap(reads, k).len()),
                bucketed_s: best_seconds(|| KmerCounts::count(reads, k).entries().len()),
            }
        })
        .collect();

    // Build fixture: small enough to iterate the whole build per trial
    // (the intersection fixture is deliberately oversized for that).
    let build_refs = ReferenceCollection::synthetic(BUILD_GENOMES, BUILD_GENOME_LEN, 4242);
    let build_inputs: u64 = build_refs
        .genomes()
        .iter()
        .map(|g| KmerExtractor::new(g.sequence(), K).count() as u64)
        .sum();
    let reference_build = build_btreemap(&build_refs, K);
    let columnar_build = SortedKmerDatabase::build(&build_refs, K);
    let parity = parity
        && reference_build.len() == columnar_build.len()
        && columnar_build
            .entries()
            .zip(&reference_build)
            .all(|(entry, (kmer, taxa))| entry.kmer == *kmer && entry.taxa == taxa.as_slice());
    let build_btreemap_s = best_seconds(|| build_btreemap(&build_refs, K).len());
    let build_columnar_s = best_seconds(|| SortedKmerDatabase::build(&build_refs, K).len());

    // Sketch fixture: the build fixture's references, the pipeline's sketch
    // shape.
    let sketch_config = SketchConfig::small();
    let sketches = SketchDatabase::build(&build_refs, sketch_config);
    let (reference_tables, reference_sizes) = sketch_btreemap(&build_refs, sketch_config);
    let sketch_parity = sketches.total_kmers() > 0
        && sketches.k_sizes() == sketch_config.k_sizes()
        && reference_tables.iter().all(|(k, table)| {
            sketches.table(*k).is_some_and(|sorted| {
                sorted.len() == table.len()
                    && sorted.entries().zip(table).all(|(entry, (kmer, taxa))| {
                        entry.kmer == *kmer && entry.taxa == taxa.as_slice()
                    })
            })
        })
        && sketches
            .taxa()
            .into_iter()
            .eq(reference_sizes.keys().copied())
        && reference_sizes
            .iter()
            .all(|(taxid, size)| sketches.sizes().sketch_size_of(*taxid) == *size);
    let sketch_btreemap_s = best_seconds(|| sketch_btreemap(&build_refs, sketch_config).1.len());
    let sketch_sorted_s =
        best_seconds(|| SketchDatabase::build(&build_refs, sketch_config).total_kmers());

    // Retrieval fixture: the build fixture's whole database as the
    // intersecting k-mers (sorted, distinct, all of length k_max) against
    // the sketches of the same references.
    let kss = KssTables::build(&sketches);
    let intersecting: Vec<Kmer> = columnar_build.kmers().collect();
    let kss_parity = kss.stream_retrieve(&intersecting) == retrieve_by_lookup(&kss, &intersecting);
    let kss_lookup_s = best_seconds(|| retrieve_by_lookup(&kss, &intersecting).len());
    let kss_stream_s = best_seconds(|| kss.stream_retrieve(&intersecting).len());

    // Step 2 fixture: the intersection fixture's database and queries
    // against the sketches of its own references — the device pass as the
    // engine runs it, against the two passes it fuses.
    let big_sketches = SketchDatabase::build(&references, SketchConfig::small());
    let join = KssJoin::build(&big_sketches, &database);
    let big_kss = KssTables::build(&big_sketches);
    // The join built straight from the sketch against its oracle: every
    // database position retrieves what a per-entry lookup in the KSS tables
    // retrieves for its k-mer.
    let mut joined_positions = 0usize;
    let join_parity = database.kmers().enumerate().all(|(position, kmer)| {
        let taxa = join.taxa_at(position);
        joined_positions += usize::from(!taxa.is_empty());
        taxa == big_kss.lookup(kmer)
    }) && joined_positions > 0;
    let fused = |list: &[Kmer]| step2::sweep(&database, &join, list, |_| {});
    let step2_parity = [&queries, &mixed].into_iter().all(|list| {
        let hits = database.intersect_sorted(list);
        let support = fused(list);
        let expected = big_kss.stream_retrieve(&hits);
        !expected.is_empty()
            && support.hits == hits.len() as u64
            && join.support_map(&support) == expected
    });
    let step2_two_pass_s = best_seconds(|| {
        big_kss
            .stream_retrieve(&database.intersect_sorted(&queries))
            .len()
    });
    let step2_fused_s = best_seconds(|| fused(&queries).hits);

    // Step 3 fixture: every reference of the counting community as a
    // candidate (same-genus species share seeds), its reads as the mapped
    // sample.
    let candidates: Vec<ReferenceIndex> = community
        .references()
        .genomes()
        .iter()
        .map(|g| ReferenceIndex::build(g, SEED_K))
        .collect();
    let map_index = merge_btreemap(&candidates);
    let flat_index = UnifiedReferenceIndex::merge(&candidates);
    let step3_parity = flat_index.len() == map_index.len()
        && flat_index.entries().zip(&map_index).all(
            |((seed, locations), (map_seed, map_locations))| {
                seed == *map_seed
                    && locations
                        .iter()
                        .map(|l| (l.taxid, l.position))
                        .eq(map_locations.iter().copied())
            },
        )
        && reads
            .iter()
            .all(|r| flat_index.map_read_hit(r, SEED_K) == map_btreemap(&map_index, r));
    let sequential = step3::run(reads, &candidates, SEED_K);
    let read_range_parity = [1usize, 2, 8].iter().all(|&parts| {
        let mut merged = step3::MappedCounts::default();
        for range in step3::read_ranges(reads.len(), parts) {
            merged.merge(step3::map_range(&flat_index, reads, range, SEED_K));
        }
        merged.into_output(flat_index.clone()) == sequential
    });
    // Every seed of every read, once looked up on its own and once through
    // the mapper's walk: per-candidate vote totals.
    let mut per_seed = vec![0u64; candidates.len()];
    let mut walked = vec![0u64; candidates.len()];
    for read in reads.iter() {
        for seed in CanonicalKmerExtractor::new(read.sequence(), SEED_K) {
            for location in flat_index.locations(seed).unwrap_or_default() {
                per_seed[location.candidate as usize] += 1;
            }
        }
        for (total, votes) in walked.iter_mut().zip(flat_index.read_votes(read, SEED_K)) {
            *total += u64::from(votes);
        }
    }
    let walk_parity = per_seed == walked && per_seed.iter().sum::<u64>() > 0;
    let merge_btreemap_s = best_seconds(|| merge_btreemap(&candidates).len());
    let merge_flat_s = best_seconds(|| UnifiedReferenceIndex::merge(&candidates).len());
    let map_btreemap_s = best_seconds(|| {
        reads
            .iter()
            .filter_map(|r| map_btreemap(&map_index, r))
            .count()
    });
    let map_flat_s = best_seconds(|| {
        reads
            .iter()
            .filter_map(|r| flat_index.map_read_hit(r, SEED_K))
            .count()
    });

    // Shard residency: zero-copy views must keep one storage copy at every
    // shard count.
    let db_heap_bytes = database.storage().heap_bytes();
    let resident_by_shards = [1usize, 2, 4, 8]
        .iter()
        .map(|&shards| (shards, ShardSet::build(&database, shards).resident_bytes()))
        .collect();

    HotpathMeasurement {
        db_entries: database.len(),
        db_associations: database.storage().association_count(),
        queries: queries.len(),
        count_rows,
        count_parity,
        build_inputs,
        two_pointer_s,
        probe_s,
        build_btreemap_s,
        build_columnar_s,
        sketch_kmers: sketches.total_kmers(),
        sketch_btreemap_s,
        sketch_sorted_s,
        sketch_parity,
        kss_queries: intersecting.len(),
        kss_lookup_s,
        kss_stream_s,
        kss_parity,
        step2_join_bytes: join.heap_bytes(),
        step2_two_pass_s,
        step2_fused_s,
        step2_parity,
        join_parity,
        step3_candidates: candidates.len(),
        step3_seeds: flat_index.len(),
        step3_reads: reads.len(),
        step3_seed_column_bytes: flat_index.seed_column_bytes(),
        merge_btreemap_s,
        merge_flat_s,
        map_btreemap_s,
        map_flat_s,
        step3_parity,
        read_range_parity,
        walk_parity,
        db_heap_bytes,
        resident_by_shards,
        parity,
        shard_sweep_parity,
    }
}

/// Hot-path analysis: measures the flattened kernels against their
/// pre-refactor baselines and renders the report (what
/// `cargo run -p megis-bench -- hotpath` prints; the binary additionally
/// writes `BENCH_hotpath.json`).
pub fn hotpath() -> String {
    hotpath_measure().report()
}

#[cfg(test)]
mod tests {
    #[test]
    fn hotpath_confirms_parity_and_zero_copy() {
        let m = super::hotpath_measure();
        assert!(m.parity, "refactored kernels must reproduce the baselines");
        assert!(
            m.shard_sweep_parity,
            "per-shard probes must reproduce the whole database's hit positions"
        );
        assert!(
            m.count_parity && m.count_rows.len() == 2,
            "bucketed counting must equal the ordered-map count at both widths"
        );
        assert!(
            m.sketch_parity,
            "the sort-built sketch must equal the ordered-map build"
        );
        assert!(
            m.kss_parity,
            "streamed retrieval must equal the lookup fold"
        );
        assert!(
            m.step2_parity,
            "the fused sweep must equal retrieval of the intersection"
        );
        assert!(
            m.join_parity,
            "the join must retrieve what a per-entry lookup retrieves"
        );
        assert!(
            m.step3_parity,
            "flat unified index and mapper must equal the map-based reference"
        );
        assert!(
            m.read_range_parity,
            "read ranges over one merged index must equal the sequential run"
        );
        assert!(
            m.walk_parity,
            "the mapper's walk must vote like per-seed lookups"
        );
        // 1 652 023 entries × 16 B + their offsets + 2 046 080 taxa × 4 B,
        // plus the directory's (2^20 + 1) × 4 B.
        assert_eq!(m.db_heap_bytes, 45_419_092, "resident bytes of one copy");
        assert!(
            m.zero_copy_confirmed(),
            "sharding must keep one resident database copy: {:?} vs {}",
            m.resident_by_shards,
            m.db_heap_bytes
        );
        let report = m.report();
        assert!(report.contains("parity with two-pointer reference: identical"));
        assert!(report.contains("sharded sweep parity with whole-database sweep: identical"));
        assert!(report.contains("kmc counting parity with ordered-map reference: identical"));
        assert!(report.contains("sketch build parity with ordered-map reference: identical"));
        assert!(report.contains("kss stream parity with per-query lookup: identical"));
        assert!(report
            .contains("step 2 fused sweep parity with retrieval of the intersection: identical"));
        assert!(report.contains("kss join parity with per-entry lookup: identical"));
        assert!(report.contains("unified index parity with map-based reference: identical"));
        assert!(report.contains("step 3 read-range parity with sequential run: identical"));
        assert!(report.contains("walk-along votes parity with per-seed lookup: identical"));
        assert!(report.contains("zero-copy shards: confirmed"));
        let json = m.to_json();
        assert!(json.contains("\"bench\": \"hotpath\""));
        assert!(json.contains("\"zero_copy_confirmed\": true"));
        assert!(json.contains("\"k31\": {") && json.contains("\"k45\": {"));
        assert!(json.contains("\"bucketed_us_per_pass\""));
        assert!(json.contains("\"probe_us_per_pass\""));
        assert!(json.contains("\"seed_column_bytes\""));
        assert!(json.contains("\"stream_ns_per_kmer\""));
        assert!(json.contains("\"sort_built_us_per_pass\""));
        assert!(json.contains("\"fused_sweep_us_per_pass\""));
        assert!(json.contains("\"flat_map_ns_per_read\""));
        // The wall-clock speedup verdict is deliberately not asserted: a
        // timing ratio from one run flakes on loaded machines, here and in
        // CI alike.
        if !m.probe_confirmed() {
            eprintln!(
                "warning: directory probe speedup {:.2}x below the 2x threshold in \
                 this (possibly debug/loaded) run",
                m.probe_speedup()
            );
        }
    }
}
