//! Sharded database layout: one disjoint partition of the sorted k-mer
//! database per simulated SSD, plus the range-partitioned query dispatch
//! that goes with it.
//!
//! Because the database is lexicographically sorted, splitting it into
//! contiguous ranges keeps every shard independently streamable, and the
//! shard-order concatenation of per-shard intersections equals the unsharded
//! intersection (Fig. 15 setup; also validated by the seed's partition
//! tests).
//!
//! **Zero-copy shards.** Each shard is a *view* over the database's shared
//! columnar storage ([`SortedKmerDatabase::partition`] returns range views
//! on one `Arc<DatabaseStorage>`), so building an N-shard [`ShardSet`]
//! allocates nothing beyond N view handles: the analyzer's database and all
//! of its shards together keep **one** resident copy of the k-mer column
//! and its directory, where the old `chunk.to_vec()` partitioning kept two (the
//! analyzer's copy plus a full duplicate spread across the shards).
//! [`ShardSet::resident_bytes`] reports the deduplicated host footprint —
//! counting each distinct storage allocation once — and
//! `shards_are_zero_copy_views_of_one_storage` asserts it stays exactly one
//! database copy at 1–32 shards. The one `ShardWorker`
//! the pool threads serve every device through holds the shards behind
//! [`std::sync::Arc`] handles.
//!
//! The same sortedness cuts the *query* side: a shard holding keys in
//! `[lo, hi]` can only match the sub-slice of a sorted query list that
//! overlaps `[lo, hi]`, so [`ShardSet::slice_queries`] binary-searches the
//! per-shard cut points once per sample and each device sees only its slice.
//! The slices are disjoint and concatenate to the full query list, which
//! keeps total query-side work at O(|Q|) across all shards — broadcasting
//! the whole list instead would make it O(N·|Q|) and flatten the Fig. 15
//! scaling whenever queries dominate the merge.
//!
//! **Two command kinds per device.** Each simulated SSD has one tagged
//! command queue, held by the decision core (`complete.rs`), and one
//! `ShardWorker` serves every device's commands on whichever pool thread
//! picked them. A device serves both
//! pipeline stages of the in-SSD side: Step 2 `IntersectCommand`s — all of
//! Step 2, as in the paper (§4.3): one sweep of the device's database slice
//! against the sample's overlapping query sub-range that counts each hit's
//! taxa through the database-joined KSS as it finds it
//! (`megis::step2::sweep`), so the completion carries a hit count and
//! per-taxon support, never the intersecting k-mers — and Step 3
//! `Step3Command`s: one per job with candidates, which generates the job's
//! unified index by one sequential merge of its candidates' per-species
//! indexes and maps every read of the sample against it (§4.4, Fig. 9),
//! through [`MegisAnalyzer::run_step3`] — the very function the sequential
//! `analyze` runs. The command is self-contained: it waits on no other
//! command and shares nothing mutable with one. Because both kinds flow
//! through the same queue, one sample's Step 3 overlaps the next sample's
//! Step 2 intersection on every device.
//!
//! **Commands stay where they were issued.** A device serves only its own
//! queue, and the completer alone decides which queue a command goes on.
//! An `IntersectCommand` is pinned to its shard — it intersects *that*
//! shard's zero-copy database slice — and a `Step3Command`, though it
//! resolves its candidates against the shared analyzer's memoized
//! per-species reference indexes and could run anywhere, goes to its shard
//! as well: a job's one Step 3 command goes to shard `seq % shards`, so
//! consecutive samples rotate over the array. Only a *dead* shard's
//! commands are put on another device (next paragraph), and the result
//! stays tagged with the shard-of-record so merge accounting is unchanged.
//!
//! **Failover serving.** Because the shards are zero-copy views over one
//! `Arc`-shared columnar storage, the one `ShardWorker` holds the *whole*
//! [`ShardSet`] and an `IntersectCommand` names the shard range it must
//! intersect (its `shard` field). A device that dies permanently (fault
//! injection, see `fault.rs`) rejects every command it pops from then on;
//! the completer re-issues each rejected command, and routes the dead
//! shard's later commands, to a surviving device, which serves the dead
//! shard's pinned intersections against the still-resident range. Commands
//! also carry an `attempt` counter so retried completions are
//! distinguishable from stale ones, and a served command can fail with a
//! `CommandFailure` instead of an output when a fault plan is active.
//!
//! Every command belongs to exactly one sample: an `IntersectCommand`
//! carries one sample's query sub-range for one shard and a `Step3Command`
//! one sample's whole Step 3, so a completion settles one `(seq, shard)` of
//! one job.

use std::ops::Range;
use std::sync::Arc;

use megis::kss::Support;
use megis::step2;
use megis::step3::Step3Output;
use megis::MegisAnalyzer;
use megis_genomics::database::{SortedKmerDatabase, UnifiedReferenceIndex};
use megis_genomics::kmer::Kmer;
use megis_genomics::profile::PresenceResult;
use megis_genomics::sample::Sample;

use crate::trace::TraceStage;

/// A Step 2 command: intersect one sample's query sub-range against the
/// device's database slice in a single sweep, retrieving the hits' taxIDs
/// on the way.
#[derive(Debug, Clone)]
pub(crate) struct IntersectCommand {
    /// The shard-of-record whose database range this command intersects.
    /// Failover never changes it: a survivor serving the command still
    /// intersects the dead shard's (still-resident) range.
    pub shard: usize,
    /// 0-based service attempt; bumped on every retry/failover re-issue so
    /// stale completions of superseded attempts are recognizable.
    pub attempt: u32,
    /// Dense in-SSD dispatch sequence number of the owning sample.
    pub seq: usize,
    /// The sample's full sorted query list (shared, not copied, across
    /// shards).
    pub queries: Arc<Vec<Kmer>>,
    /// The sub-range of `queries` overlapping this shard's key range; its
    /// length is the command's `ShardStats::query_items` contribution.
    pub range: Range<usize>,
}

/// A Step 3 command: one job's whole Step 3 — generate the unified index
/// over the job's candidates, then map every read of the sample against it
/// — carrying exactly what [`MegisAnalyzer::run_step3`] takes.
#[derive(Debug, Clone)]
pub(crate) struct Step3Command {
    /// Dense in-SSD dispatch sequence number the command belongs to.
    pub seq: usize,
    /// The shard-of-record the result is folded under (`seq % shards`;
    /// unchanged when failover puts the command on another device).
    pub record_shard: usize,
    /// 0-based service attempt; bumped on every retry re-issue.
    pub attempt: u32,
    /// The sample whose reads are mapped (shared with the job, not copied).
    pub sample: Arc<Sample>,
    /// Step 2's presence call: the candidate species the index is merged
    /// over.
    pub presence: Arc<PresenceResult>,
}

/// One NVMe-style command on a device's tagged queue.
#[derive(Debug, Clone)]
pub(crate) enum ShardCommand {
    /// Step 2 intersection finding.
    Intersect(IntersectCommand),
    /// Step 3 unified-index generation plus read mapping of one job.
    Step3(Step3Command),
}

impl ShardCommand {
    /// The dispatch sequence number of the sample the command serves.
    pub(crate) fn seq(&self) -> usize {
        match self {
            ShardCommand::Intersect(c) => c.seq,
            ShardCommand::Step3(c) => c.seq,
        }
    }

    /// The shard-of-record: the merge/accounting slot the completion fills,
    /// regardless of which physical device serves the command.
    pub(crate) fn record_shard(&self) -> usize {
        match self {
            ShardCommand::Intersect(c) => c.shard,
            ShardCommand::Step3(c) => c.record_shard,
        }
    }

    /// The 0-based service attempt of this issue.
    pub(crate) fn attempt(&self) -> u32 {
        match self {
            ShardCommand::Intersect(c) => c.attempt,
            ShardCommand::Step3(c) => c.attempt,
        }
    }

    /// Increments the attempt counter for a retry/failover re-issue.
    pub(crate) fn bump_attempt(&mut self) {
        match self {
            ShardCommand::Intersect(c) => c.attempt += 1,
            ShardCommand::Step3(c) => c.attempt += 1,
        }
    }

    /// The pipeline stage the command belongs to (trace/fault keying).
    pub(crate) fn stage(&self) -> TraceStage {
        match self {
            ShardCommand::Intersect(_) => TraceStage::Intersect,
            ShardCommand::Step3(_) => TraceStage::Step3,
        }
    }
}

/// Result payload of one served command.
#[derive(Debug)]
pub(crate) enum CommandOutput {
    /// Step 2's result for an [`IntersectCommand`]: how many of the slice's
    /// queries intersected the shard and the per-taxon support they lend —
    /// never the k-mers. The completer folds it into the job by addition.
    Intersection(Support),
    /// A [`Step3Command`]'s result: the job's abundance estimate and
    /// mapped-read count. Its unified index stays on the device, so the
    /// output's index is empty.
    Step3(Step3Output),
}

/// Why a command's service failed (fault injection, see `fault.rs`): the
/// `Err` side of a completion. The completer decides retry vs failover vs
/// per-job failure from the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommandFailure {
    /// A transient device error: retry against the budget.
    Transient,
    /// The worker panicked serving the command (caught at the seam): fails
    /// the owning job, never retried.
    Panicked,
    /// The serving device died permanently and rejects every command it
    /// pops: the completer marks it dead and re-issues to a survivor.
    ShardDead,
}

/// The serving side of every simulated device: the full shard set's
/// zero-copy database views
/// (Step 2 sweeps the command's shard-of-record range — its own in
/// normal operation, a dead peer's range under failover) plus a handle on
/// the analyzer, whose KSS join (indexed by storage position, so valid for
/// every view) backs Step 2's retrieval and whose memoized per-species
/// reference indexes back Step 3's unified-index merge. A pool thread
/// serves a command of either kind through it, as the command's device.
#[derive(Debug)]
pub(crate) struct ShardWorker {
    shards: ShardSet,
    analyzer: Arc<MegisAnalyzer>,
}

impl ShardWorker {
    pub(crate) fn new(shards: ShardSet, analyzer: Arc<MegisAnalyzer>) -> ShardWorker {
        ShardWorker { shards, analyzer }
    }

    /// Serves one command: a whole Step 2 device pass, or a whole job's
    /// Step 3.
    ///
    /// # Panics
    ///
    /// Panics if the shard set does not view the analyzer's database.
    pub(crate) fn serve(&self, command: &ShardCommand) -> CommandOutput {
        match command {
            ShardCommand::Intersect(c) => {
                let shard = &self.shards.shards()[c.shard];
                // Device-side bound check: `slice_queries`' partition
                // charges gap queries (values between shard key ranges) to
                // the preceding shard, but nothing below this shard's first
                // key or above its last can match, so the sweep runs only
                // over the overlapping sub-range.
                let slice = &c.queries[c.range.clone()];
                let overlap = &slice[shard.overlapping_query_range(slice)];
                // All of Step 2 in one device pass (§4.3): the sweep counts
                // each hit's taxa through the joined KSS as it finds it, so
                // only per-taxon support leaves the device.
                let support = step2::sweep(shard, self.analyzer.join(), overlap, |_| {});
                CommandOutput::Intersection(support)
            }
            ShardCommand::Step3(c) => {
                // Index generation and mapping stay device work (§4.4), on
                // the code path `analyze` runs. The index is dropped here:
                // a finished job may wait behind earlier ones for delivery,
                // and holding its index there would only grow memory.
                let mut output = self.analyzer.run_step3(&c.sample, &c.presence);
                output.unified_index = UnifiedReferenceIndex::default();
                CommandOutput::Step3(output)
            }
        }
    }
}

/// The database partitioned across `N` simulated SSDs.
#[derive(Debug, Clone)]
pub struct ShardSet {
    shards: Vec<Arc<SortedKmerDatabase>>,
}

impl ShardSet {
    /// Partitions `database` into `shards` contiguous ranges of near-equal
    /// entry counts.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build(database: &SortedKmerDatabase, shards: usize) -> ShardSet {
        assert!(shards > 0, "at least one shard is required");
        ShardSet {
            shards: database
                .partition(shards)
                .into_iter()
                .map(Arc::new)
                .collect(),
        }
    }

    /// Number of shards (simulated SSDs).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in lexicographic range order.
    pub fn shards(&self) -> &[Arc<SortedKmerDatabase>] {
        &self.shards
    }

    /// Total number of database entries across shards.
    pub fn total_entries(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Database bytes resident on each shard (the quantity each simulated
    /// SSD streams during Step 2): its k-mer payloads
    /// ([`SortedKmerDatabase::encoded_bytes`]).
    pub fn shard_bytes(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.encoded_bytes()).collect()
    }

    /// Host-resident heap bytes held by this shard set, counting each
    /// distinct columnar storage allocation **once**: the shards are
    /// zero-copy views, so for a set built from one database this equals
    /// that database's [`heap bytes`](megis_genomics::database::DatabaseStorage::heap_bytes)
    /// — ≈ 1× the database, not the 2× a deep-copy partition would hold
    /// alongside the analyzer's copy.
    pub fn resident_bytes(&self) -> u64 {
        let mut seen: Vec<*const megis_genomics::database::DatabaseStorage> = Vec::new();
        let mut total = 0u64;
        for shard in &self.shards {
            let id = Arc::as_ptr(shard.storage());
            if !seen.contains(&id) {
                seen.push(id);
                total += shard.storage().heap_bytes();
            }
        }
        total
    }

    /// Per-shard key-range bounds `(first, last)` in shard order; `None` for
    /// empty shards (the trailing padding [`SortedKmerDatabase::partition`]
    /// emits when there are more shards than entries).
    pub fn bounds(&self) -> Vec<Option<(Kmer, Kmer)>> {
        self.shards
            .iter()
            .map(|s| Some((s.first_kmer()?, s.last_kmer()?)))
            .collect()
    }

    /// Splits a sorted query list into one sub-range per shard: the slice a
    /// device actually needs to see, found by binary search on the shard key
    /// bounds.
    ///
    /// The returned ranges are disjoint, ascending, and concatenate to
    /// `0..sorted_queries.len()` — every query belongs to exactly one shard,
    /// so total query-side work across shards is O(|Q|), not O(N·|Q|). The
    /// cut between shard `i` and shard `i + 1` sits at the first query `>=`
    /// shard `i + 1`'s smallest key; queries falling in the gap between two
    /// shard ranges (or below the first shard's range) match nothing and are
    /// charged to the earlier shard. Empty trailing shards get empty ranges.
    ///
    /// `shard.intersect_sorted(&queries[range])`, concatenated in shard
    /// order, is byte-identical to intersecting the unsharded database with
    /// the full query list (asserted by the seeded property tests below).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `sorted_queries` is not sorted.
    pub fn slice_queries(&self, sorted_queries: &[Kmer]) -> Vec<Range<usize>> {
        debug_assert!(sorted_queries.windows(2).all(|w| w[0] <= w[1]));
        let bounds = self.bounds();
        let n = bounds.len();
        // cuts[i] = first query index belonging to shard i. Walk backward so
        // empty shards inherit the next shard's cut (an empty range).
        let mut cuts = vec![0usize; n + 1];
        cuts[n] = sorted_queries.len();
        for i in (1..n).rev() {
            cuts[i] = match bounds[i] {
                Some((lo, _)) => sorted_queries.partition_point(|q| *q < lo).min(cuts[i + 1]),
                None => cuts[i + 1],
            };
        }
        (0..n).map(|i| cuts[i]..cuts[i + 1]).collect()
    }

    /// Serial reference intersection: every shard against its own query
    /// sub-slice (the same range-partitioned dispatch the engine performs),
    /// merged in shard order. Identical to intersecting the unsharded
    /// database with the full query list.
    pub fn intersect(&self, sorted_queries: &[Kmer]) -> Vec<Kmer> {
        let mut merged = Vec::new();
        for (shard, range) in self.shards.iter().zip(self.slice_queries(sorted_queries)) {
            merged.extend(shard.intersect_sorted(&sorted_queries[range]));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::reference::ReferenceCollection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db() -> SortedKmerDatabase {
        let refs = ReferenceCollection::synthetic(6, 500, 17);
        SortedKmerDatabase::build(&refs, 21)
    }

    #[test]
    fn sharded_intersection_matches_unsharded() {
        let database = db();
        let queries: Vec<Kmer> = database.kmers().step_by(3).collect();
        let whole = database.intersect_sorted(&queries);
        for shards in [1usize, 2, 4, 8] {
            let set = ShardSet::build(&database, shards);
            assert_eq!(set.shard_count(), shards);
            assert_eq!(set.intersect(&queries), whole, "{shards} shards");
        }
    }

    #[test]
    fn query_slices_partition_the_list_and_preserve_the_intersection() {
        // Property-style seeded sweep (the offline stand-in for a proptest
        // suite): for random query mixtures — database hits, foreign misses,
        // neither, both — and shard counts {1, 2, 4, 8}, the per-shard query
        // slices are disjoint, concatenate to the full sorted list, scan
        // each query exactly once in total (O(|Q|), not O(N·|Q|)), and the
        // sliced sharded intersection is byte-identical to the unsharded
        // merge.
        let database = db();
        let db_kmers: Vec<Kmer> = database.kmers().collect();
        let foreign = ReferenceCollection::synthetic(3, 500, 4040);
        let foreign_db = SortedKmerDatabase::build(&foreign, 21);
        let foreign_kmers: Vec<Kmer> = foreign_db.kmers().collect();

        let mut rng = StdRng::seed_from_u64(2718);
        for case in 0..24 {
            let mut queries: Vec<Kmer> = Vec::new();
            let hits = rng.gen_range(0..db_kmers.len());
            let misses = rng.gen_range(0..foreign_kmers.len());
            for _ in 0..hits {
                queries.push(db_kmers[rng.gen_range(0..db_kmers.len())]);
            }
            for _ in 0..misses {
                queries.push(foreign_kmers[rng.gen_range(0..foreign_kmers.len())]);
            }
            queries.sort();
            queries.dedup();
            let whole = database.intersect_sorted(&queries);

            for shards in [1usize, 2, 4, 8] {
                let set = ShardSet::build(&database, shards);
                let slices = set.slice_queries(&queries);
                assert_eq!(slices.len(), shards);
                // Disjoint, ascending, and covering: consecutive ranges abut.
                assert_eq!(slices[0].start, 0, "case {case}, {shards} shards");
                assert_eq!(slices[shards - 1].end, queries.len());
                for w in slices.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "case {case}, {shards} shards");
                }
                // Work accounting: every query is scanned exactly once.
                let scanned: usize = slices.iter().map(|r| r.len()).sum();
                assert_eq!(scanned, queries.len(), "case {case}, {shards} shards");
                // Byte-identical sliced intersection.
                let mut merged = Vec::new();
                for (shard, range) in set.shards().iter().zip(&slices) {
                    merged.extend(shard.intersect_sorted(&queries[range.clone()]));
                }
                assert_eq!(merged, whole, "case {case}, {shards} shards");
            }
        }
    }

    #[test]
    fn slices_assign_every_query_even_outside_all_bounds() {
        // Queries entirely below the first shard's range and above the last
        // shard's range still land in a slice (and match nothing).
        let database = db();
        let set = ShardSet::build(&database, 4);
        let queries: Vec<Kmer> = database.kmers().collect();
        let slices = set.slice_queries(&queries);
        let scanned: usize = slices.iter().map(|r| r.len()).sum();
        assert_eq!(scanned, queries.len());
        // An empty query list yields empty slices for every shard.
        for range in set.slice_queries(&[]) {
            assert!(range.is_empty());
        }
    }

    #[test]
    fn empty_trailing_shards_get_empty_slices() {
        let database = db();
        // Far more shards than entries would be slow to build here; instead
        // partition a tiny sub-database so trailing shards are empty.
        let tiny = database.view(0..3);
        let set = ShardSet::build(&tiny, 8);
        assert_eq!(set.shard_count(), 8);
        let bounds = set.bounds();
        assert!(bounds[..3].iter().all(Option::is_some));
        assert!(bounds[3..].iter().all(Option::is_none));
        let queries: Vec<Kmer> = database.kmers().collect();
        let slices = set.slice_queries(&queries);
        for (i, range) in slices.iter().enumerate().skip(3) {
            assert!(range.is_empty(), "empty shard {i} must see no queries");
        }
        let scanned: usize = slices.iter().map(|r| r.len()).sum();
        assert_eq!(scanned, queries.len());
        assert_eq!(set.intersect(&queries), tiny.intersect_sorted(&queries));
    }

    #[test]
    fn bounds_are_disjoint_and_ascending() {
        let set = ShardSet::build(&db(), 5);
        let bounds: Vec<(Kmer, Kmer)> = set.bounds().into_iter().flatten().collect();
        for (lo, hi) in &bounds {
            assert!(lo <= hi);
        }
        for w in bounds.windows(2) {
            assert!(w[0].1 < w[1].0, "shard ranges must be disjoint and sorted");
        }
    }

    #[test]
    fn shards_cover_all_entries() {
        let database = db();
        let set = ShardSet::build(&database, 5);
        assert_eq!(set.total_entries(), database.len());
        let bytes: u64 = set.shard_bytes().iter().sum();
        assert_eq!(bytes, database.encoded_bytes());
    }

    #[test]
    fn shard_sizes_are_balanced() {
        let database = db();
        let set = ShardSet::build(&database, 4);
        let sizes: Vec<usize> = set.shards().iter().map(|s| s.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        // Ceiling-sized contiguous chunks: only the last shard may run
        // short, by at most parts - 1 entries.
        assert!(max - min < 4, "unbalanced shards: {sizes:?}");
    }

    #[test]
    fn shards_are_zero_copy_views_of_one_storage() {
        let database = db();
        let single_copy = database.storage().heap_bytes();
        assert!(single_copy > 0);
        for shards in [1usize, 2, 4, 8, 32] {
            let set = ShardSet::build(&database, shards);
            for shard in set.shards() {
                assert!(
                    shard.shares_storage_with(&database),
                    "shard must view the database's storage, not copy it"
                );
            }
            // Deduplicated host footprint: one copy of the columns no
            // matter how many shards view them.
            assert_eq!(set.resident_bytes(), single_copy, "{shards} shards");
        }
    }

    #[test]
    fn resident_bytes_counts_distinct_storages_once_each() {
        // A set whose shards come from two different databases must charge
        // both storages (each once) — the dedup is by allocation, not by
        // shard count.
        let a = db();
        let b = SortedKmerDatabase::build(&ReferenceCollection::synthetic(4, 400, 99), 21);
        let mixed = ShardSet {
            shards: a
                .partition(3)
                .into_iter()
                .chain(b.partition(2))
                .map(Arc::new)
                .collect(),
        };
        assert_eq!(
            mixed.resident_bytes(),
            a.storage().heap_bytes() + b.storage().heap_bytes()
        );
    }

    #[test]
    fn a_served_step3_command_equals_the_sequential_step3_over_its_candidates() {
        use megis::config::MegisConfig;
        use megis::step3;
        use megis_genomics::database::ReferenceIndex;
        use megis_genomics::sample::{CommunityConfig, Diversity};
        let c = CommunityConfig::preset(Diversity::Medium)
            .with_reads(120)
            .with_database_species(10)
            .build(23);
        let analyzer = Arc::new(MegisAnalyzer::build(c.references(), MegisConfig::small()));
        let presence = analyzer.analyze(c.sample()).presence;
        let owned: Vec<ReferenceIndex> = analyzer
            .candidate_indexes(&presence)
            .into_iter()
            .cloned()
            .collect();
        let oracle = step3::run(c.sample().reads(), &owned, analyzer.config().mapping_k);
        assert!(oracle.mapped_reads > 0, "fixture must exercise mapping");

        // The job's one command maps every read against every candidate;
        // the index it merged stays on the device.
        let command = ShardCommand::Step3(Step3Command {
            seq: 0,
            record_shard: 1,
            attempt: 0,
            sample: Arc::new(c.sample().clone()),
            presence: Arc::new(presence),
        });
        let worker = ShardWorker::new(ShardSet::build(analyzer.database(), 2), analyzer);
        let CommandOutput::Step3(output) = worker.serve(&command) else {
            panic!("a step 3 command yields a step 3 output");
        };
        assert_eq!(
            output,
            Step3Output {
                unified_index: UnifiedReferenceIndex::default(),
                ..oracle
            }
        );
    }

    /// Seeded sorted query lists over `analyzer`'s database: hits, foreign
    /// misses and repeats in random proportion.
    fn query_mixes(analyzer: &MegisAnalyzer, seed: u64, n: usize) -> Vec<Arc<Vec<Kmer>>> {
        let entries = analyzer.database().kmer_slice();
        let foreign = SortedKmerDatabase::build(&ReferenceCollection::synthetic(3, 500, 4040), 31);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut queries: Vec<Kmer> = Vec::new();
                for _ in 0..rng.gen_range(0..600usize) {
                    queries.push(entries[rng.gen_range(0..entries.len())]);
                }
                for _ in 0..rng.gen_range(0..200usize) {
                    queries.push(foreign.kmer_slice()[rng.gen_range(0..foreign.len())]);
                }
                let repeats: Vec<Kmer> = queries.iter().step_by(7).copied().collect();
                queries.extend(repeats);
                queries.sort();
                Arc::new(queries)
            })
            .collect()
    }

    /// Serves one intersect command for `queries[range]` on `shard` and
    /// returns its support.
    fn serve_intersect(
        worker: &ShardWorker,
        shard: usize,
        queries: &Arc<Vec<Kmer>>,
        range: Range<usize>,
    ) -> Support {
        let command = ShardCommand::Intersect(IntersectCommand {
            shard,
            attempt: 0,
            seq: 0,
            queries: Arc::clone(queries),
            range,
        });
        let CommandOutput::Intersection(support) = worker.serve(&command) else {
            panic!("an intersect command yields a support");
        };
        support
    }

    #[test]
    fn per_shard_supports_add_up_to_the_unsharded_support_at_any_shard_count() {
        // What the completer relies on when it folds by addition: over the
        // query slices `slice_queries` cuts, the supports the devices return sum to
        // Step 2 of the unsharded database — hit count and every taxon —
        // for 1..=9 shards, padding shards (more shards than entries)
        // included.
        use megis::config::MegisConfig;
        let refs = ReferenceCollection::synthetic(10, 600, 77);
        let analyzer = Arc::new(MegisAnalyzer::build(&refs, MegisConfig::small()));
        let whole = analyzer.database();
        let mixes = query_mixes(&analyzer, 3141, 6);
        let mut supported = 0u64;
        for database in [whole.clone(), whole.view(100..105)] {
            for shards in 1..=9usize {
                let set = ShardSet::build(&database, shards);
                assert_eq!(set.shard_count(), shards);
                let worker = ShardWorker::new(set.clone(), Arc::clone(&analyzer));
                for queries in &mixes {
                    let mut folded = Support::default();
                    for (shard, range) in set.slice_queries(queries).into_iter().enumerate() {
                        if range.is_empty() {
                            continue;
                        }
                        folded.fold(serve_intersect(&worker, shard, queries, range));
                    }
                    let hits = database.intersect_sorted(queries);
                    assert_eq!(folded.hits, hits.len() as u64, "{shards} shards");
                    assert_eq!(
                        analyzer.join().support_map(&folded),
                        analyzer.kss().stream_retrieve(&hits),
                        "{shards} shards over {} entries",
                        database.len()
                    );
                    supported += u64::from(folded.counts.iter().sum::<u32>());
                }
            }
        }
        assert!(
            supported > 1000,
            "the mixes must reach the sketch: {supported}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardSet::build(&db(), 0);
    }
}
