//! Property-style tests for MegIS's core invariants: sorted-stream
//! intersection, KSS/ternary-tree/flat-sketch lookup equivalence, bucketing
//! invariance, and FTL placement balance.
//!
//! Each test checks its invariant over many randomized inputs drawn from a
//! seeded generator, so runs are deterministic while still covering a wide
//! slice of the input space (the offline equivalent of the original
//! proptest-based suite).

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use megis::config::MegisConfig;
use megis::ftl::MegisFtl;
use megis::kss::{KssJoin, KssTables};
use megis::step3::{self, MappedCounts, Step3Output};
use megis::MegisAnalyzer;
use megis_genomics::database::{ReferenceIndex, SortedKmerDatabase, MIN_MAPPING_VOTES};
use megis_genomics::dna::PackedSequence;
use megis_genomics::kmer::{Kmer, KmerExtractor};
use megis_genomics::profile::AbundanceProfile;
use megis_genomics::read::{Read, ReadSet};
use megis_genomics::reference::{ReferenceCollection, ReferenceGenome};
use megis_genomics::sample::{CommunityConfig, Diversity};
use megis_genomics::sketch::{SketchConfig, SketchDatabase};
use megis_genomics::taxonomy::TaxId;
use megis_ssd::config::SsdConfig;
use megis_ssd::timing::ByteSize;
use megis_tools::kmc::{ExclusionPolicy, KmerCounts};
use megis_tools::ternary::TernarySketchTree;

fn random_kmer(rng: &mut StdRng, k: usize) -> Kmer {
    let ascii: Vec<u8> = (0..k).map(|_| b"ACGT"[rng.gen_range(0..4usize)]).collect();
    Kmer::from_ascii(&ascii).unwrap()
}

fn random_kmers(rng: &mut StdRng, max_n: usize, k: usize) -> Vec<Kmer> {
    let n = rng.gen_range(0..max_n);
    (0..n).map(|_| random_kmer(rng, k)).collect()
}

#[test]
fn intersection_equals_set_intersection() {
    let mut rng = StdRng::seed_from_u64(201);
    for case in 0..24u64 {
        let refs = ReferenceCollection::synthetic(3, 300, case);
        let db = SortedKmerDatabase::build(&refs, 21);
        let mut sorted = random_kmers(&mut rng, 200, 21);
        // Mix in genuine database k-mers so the intersection is non-trivial.
        sorted.extend(db.kmers().step_by(7));
        sorted.sort();
        sorted.dedup();
        let via_stream = db.intersect_sorted(&sorted);
        let via_lookup: Vec<Kmer> = sorted
            .iter()
            .copied()
            .filter(|q| db.lookup(*q).is_some())
            .collect();
        assert_eq!(via_stream, via_lookup);
    }
}

/// `view`'s hit positions for `queries`, as the k-mers they name, after
/// checking that they ascend strictly (each distinct hit reported once).
fn probed_hits(view: &SortedKmerDatabase, queries: &[Kmer]) -> Vec<Kmer> {
    let mut positions = Vec::new();
    view.hit_positions(queries, |p| positions.push(p));
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "{positions:?}");
    positions.iter().map(|&p| view.kmer_slice()[p]).collect()
}

/// `view.lookup` against a binary search of the view's column.
fn assert_lookup_is_a_binary_search(view: &SortedKmerDatabase, query: Kmer) {
    let expected = view.kmer_slice().binary_search(&query).ok();
    assert_eq!(view.lookup(query), expected, "{query:?}");
}

/// A shard-sized storage (8 genomes x 4 kbp, about 26 000 distinct 31-mers)
/// under a query list skewed the way a shard sees a sample's: at most one
/// hit per 64 entries (|DB| >= 64 · |Q|) at random positions, so the gaps
/// are irregular — about 400 hits, some 25 probe batches. Returned with the
/// same list mixed with random misses and repeated hits.
fn skewed_fixture(rng: &mut StdRng) -> (SortedKmerDatabase, Vec<Kmer>, Vec<Kmer>) {
    let refs = ReferenceCollection::synthetic(8, 4_000, 4242);
    let db = SortedKmerDatabase::build(&refs, 31);
    let mut picks: Vec<usize> = (0..db.len() / 64)
        .map(|_| rng.gen_range(0..db.len()))
        .collect();
    picks.sort();
    picks.dedup();
    let skewed: Vec<Kmer> = picks.iter().map(|&p| db.kmer_slice()[p]).collect();
    let mut mixed = skewed.clone();
    mixed.extend(random_kmers(rng, 400, 31));
    mixed.extend(skewed.iter().step_by(7).copied());
    mixed.sort();
    (db, skewed, mixed)
}

#[test]
fn directory_probe_intersection_equals_two_pointer_reference() {
    // Seeded property sweep: the directory probe must be byte-identical to
    // the retained two-pointer oracle on every input shape — random
    // hit/miss mixtures, duplicate queries, empty inputs, disjoint sets,
    // full subsets, the skewed sparse regime of a shard, views that cut
    // the storage anywhere, a bucket far wider than the probe's window,
    // directories of 0–4 bits, and queries of another k.
    let mut rng = StdRng::seed_from_u64(206);
    for case in 0..24u64 {
        let refs = ReferenceCollection::synthetic(3, 300, case);
        let db = SortedKmerDatabase::build(&refs, 21);
        let mut queries = random_kmers(&mut rng, 200, 21);
        let stride = rng.gen_range(2..40usize);
        queries.extend(db.kmers().step_by(stride));
        // Duplicates: repeat a random prefix so equal runs hit the merge.
        let dups: Vec<Kmer> = queries.iter().take(rng.gen_range(0..30)).copied().collect();
        queries.extend(dups);
        queries.sort();
        assert_eq!(
            db.intersect_sorted(&queries),
            db.intersect_sorted_two_pointer(&queries),
            "case {case}"
        );
        // The intersection of duplicate queries stays deduplicated.
        assert!(db
            .intersect_sorted(&queries)
            .windows(2)
            .all(|w| w[0] < w[1]));

        // Empty queries and empty database.
        assert!(db.intersect_sorted(&[]).is_empty());
        assert!(SortedKmerDatabase::default()
            .intersect_sorted(&queries)
            .is_empty());

        // Disjoint: queries from an unrelated collection only.
        let foreign = ReferenceCollection::synthetic(2, 250, case + 10_000);
        let foreign_db = SortedKmerDatabase::build(&foreign, 21);
        let misses: Vec<Kmer> = foreign_db.kmers().collect();
        assert_eq!(
            db.intersect_sorted(&misses),
            db.intersect_sorted_two_pointer(&misses),
            "disjoint case {case}"
        );

        // Full subset: every database k-mer queried intersects to itself.
        let all: Vec<Kmer> = db.kmers().collect();
        assert_eq!(db.intersect_sorted(&all), all);

        // Skewed sparse subset (|DB| >> |Q|), a shard's regime.
        let sparse: Vec<Kmer> = all.iter().step_by(64).copied().collect();
        assert_eq!(
            db.intersect_sorted(&sparse),
            db.intersect_sorted_two_pointer(&sparse),
            "sparse case {case}"
        );

        // Views: the probe runs on the whole storage column, so a bound
        // outside the view must not count. Every shard of 1..=9 parts and
        // random sub-views (empty, single-entry, the last entry), each
        // handed the *whole* query list — every database k-mer is queried,
        // so the entries just outside each view are too.
        let mut views: Vec<SortedKmerDatabase> = (1..=9).flat_map(|p| db.partition(p)).collect();
        let n = db.len();
        for _ in 0..6 {
            let a = rng.gen_range(0..=n);
            let b = rng.gen_range(a..=n);
            views.extend([db.view(a..b), db.view(a..a), db.view(a..(a + 1).min(n))]);
        }
        views.push(db.view(n - 1..n));
        let mut whole = queries.clone();
        whole.extend(all.iter().copied());
        whole.sort();
        for (i, view) in views.iter().enumerate() {
            assert_eq!(
                probed_hits(view, &whole),
                view.intersect_sorted_two_pointer(&whole),
                "case {case}, view {i} ({} entries at {})",
                view.len(),
                view.storage_offset()
            );
        }

        // `lookup` is the batch of one: a binary search of the column, on
        // every entry and on misses, of the database and of a middle view.
        let middle = db.view(n / 3..2 * n / 3);
        for &q in all.iter().chain(&queries).chain(&misses) {
            assert_lookup_is_a_binary_search(&db, q);
            assert_lookup_is_a_binary_search(&middle, q);
        }

        // Queries of another k never hit, even where their top 64 payload
        // bits (the directory word) equal a database k-mer's: prefixes,
        // extensions by an `A`, and random 22-mers, mixed with hits.
        let mut other_k: Vec<Kmer> = all.iter().map(|kmer| kmer.prefix(20)).collect();
        other_k.extend(all.iter().map(|kmer| Kmer::from_bits(kmer.bits() << 2, 22)));
        other_k.extend(random_kmers(&mut rng, 100, 22));
        other_k.sort();
        assert!(db.intersect_sorted(&other_k).is_empty(), "case {case}");
        for &q in other_k.iter().step_by(5) {
            assert!(db.lookup(q).is_none(), "case {case}: {q:?}");
        }
        other_k.extend(sparse.iter().copied());
        other_k.sort();
        assert_eq!(db.intersect_sorted(&other_k), sparse, "case {case}");
    }

    // A shard-sized storage under a skew-64 query list: many batches, each
    // key's bucket far past the last key's.
    let (db, skewed, mixed) = skewed_fixture(&mut rng);
    for queries in [&skewed, &mixed] {
        let expected = db.intersect_sorted_two_pointer(queries);
        assert_eq!(probed_hits(&db, queries), expected);
        assert_eq!(db.intersect_sorted(queries), expected);
    }
    assert_eq!(db.intersect_sorted(&skewed), skewed);

    // A skewed storage: most k-mers share their first 14 bases, so one
    // directory bucket holds nearly all of them — far wider than the
    // probe's fixed window, so its halving loop runs — while a few outliers
    // spread the directory's width over the whole word.
    for case in 0..4 {
        let prefix = random_kmer(&mut rng, 14);
        let mut kmers: Vec<Kmer> = (0..1500).map(|_| extend(&mut rng, prefix, 17)).collect();
        kmers.extend((0..20).map(|_| random_kmer(&mut rng, 31)));
        kmers.sort();
        kmers.dedup();
        let db = SortedKmerDatabase::from_sorted_kmers(31, kmers.clone());
        let mut queries: Vec<Kmer> = kmers.iter().step_by(3).copied().collect();
        queries.extend((0..1500).map(|_| extend(&mut rng, prefix, 17)));
        queries.extend(kmers.iter().map(|kmer| mutate_tail(&mut rng, *kmer, 1)));
        queries.sort();
        for view in [db.clone(), db.view(100..900), db.view(5..6)] {
            assert_eq!(
                probed_hits(&view, &queries),
                view.intersect_sorted_two_pointer(&queries),
                "skewed case {case}"
            );
        }
        for &q in queries.iter().step_by(7) {
            assert_lookup_is_a_binary_search(&db, q);
        }
    }

    // Storages of 0..=17 entries: directories of 0 to 4 bits, columns
    // shorter than the fixed window, and the last entry's window running
    // off the column.
    let refs = ReferenceCollection::synthetic(3, 300, 4242);
    let source = SortedKmerDatabase::build(&refs, 21);
    let mut queries: Vec<Kmer> = source.kmers().collect();
    queries.extend(random_kmers(&mut rng, 200, 21));
    queries.sort();
    for n in 0..=17 {
        let start = rng.gen_range(0..source.len() - n);
        let picked = source.view(start..start + n);
        let db = SortedKmerDatabase::from_sorted_kmers(21, picked.kmers().collect());
        assert_eq!(
            probed_hits(&db, &queries),
            db.intersect_sorted_two_pointer(&queries),
            "{n} entries"
        );
        assert_eq!(db.intersect_sorted(&queries), picked.kmer_slice(), "{n}");
        for &q in &queries {
            assert_lookup_is_a_binary_search(&db, q);
        }
    }
}

#[test]
fn database_partition_preserves_intersections() {
    let mut rng = StdRng::seed_from_u64(202);
    for case in 0..16u64 {
        let refs = ReferenceCollection::synthetic(4, 250, case);
        let db = SortedKmerDatabase::build(&refs, 21);
        let parts = rng.gen_range(1..7usize);
        let mut sorted = random_kmers(&mut rng, 100, 21);
        sorted.extend(db.kmers().step_by(5));
        sorted.sort();
        sorted.dedup();
        let whole = db.intersect_sorted(&sorted);
        let shards = db.partition(parts);
        for shard in &shards {
            assert!(
                shard.shares_storage_with(&db),
                "{parts}-way partition must be zero-copy views"
            );
        }
        let mut merged: Vec<Kmer> = shards
            .iter()
            .flat_map(|shard| shard.intersect_sorted(&sorted))
            .collect();
        merged.sort();
        merged.dedup();
        assert_eq!(merged, whole, "{parts}-way partition changed the result");
    }

    // The cut the engine makes: per shard, `hit_positions` over the
    // overlapping query range only, shifted by the shard's storage offset,
    // concatenated in shard order — the whole storage's positions, at 1–8
    // shards, on a skew-64 list and on the same list with misses and repeats.
    let storage_positions = |view: &SortedKmerDatabase, queries: &[Kmer]| {
        let mut positions = Vec::new();
        view.hit_positions(queries, |p| positions.push(view.storage_offset() + p));
        positions
    };
    let (db, skewed, mixed) = skewed_fixture(&mut rng);
    for queries in [&skewed, &mixed] {
        let whole = storage_positions(&db, queries);
        assert_eq!(whole.len(), skewed.len());
        for shards in 1..=8 {
            let mut cut = Vec::new();
            for shard in db.partition(shards) {
                let overlap = &queries[shard.overlapping_query_range(queries)];
                cut.extend(storage_positions(&shard, overlap));
            }
            assert_eq!(cut, whole, "{shards} shards");
        }
    }
}

#[test]
fn kss_tree_and_flat_lookups_agree() {
    let mut rng = StdRng::seed_from_u64(203);
    for case in 0..12u64 {
        let refs = ReferenceCollection::synthetic(4, 400, case);
        let sketches = SketchDatabase::build(&refs, SketchConfig::small());
        let kss = KssTables::build(&sketches);
        let tree = TernarySketchTree::build(&sketches);
        for _ in 0..8 {
            let query = random_kmer(&mut rng, 31);
            let flat = sketches.lookup_with_prefixes(query);
            assert_eq!(kss.lookup(query), flat.clone());
            assert_eq!(tree.lookup_with_prefixes(query), flat);
        }
    }
}

/// Sums a per-query lookup into per-taxon support counts — the reference
/// shape every retrieval structure is folded into below.
fn fold_support(queries: &[Kmer], lookup: impl Fn(Kmer) -> Vec<TaxId>) -> HashMap<TaxId, u32> {
    let mut support = HashMap::new();
    for q in queries {
        for t in lookup(*q) {
            *support.entry(t).or_insert(0) += 1;
        }
    }
    support
}

/// `base` extended on the right by `n` random bases.
fn extend(rng: &mut StdRng, base: Kmer, n: usize) -> Kmer {
    let tail = random_kmer(rng, n);
    Kmer::from_bits((base.bits() << (2 * n)) | tail.bits(), base.k() + n)
}

/// `base` with its last `n` bases redrawn (its length-`k - n` prefix kept).
fn mutate_tail(rng: &mut StdRng, base: Kmer, n: usize) -> Kmer {
    extend(rng, base.prefix(base.k() - n), n)
}

#[test]
fn kss_stream_equals_lookup_fold_tree_and_flat_on_any_query_mix() {
    // 12 sketches × 18 query mixes = 216 cases, each also as a shuffled copy.
    // The cursor pass must equal the fold of its own random-access `lookup`,
    // the ternary tree and the flat tables on every shape it can be handed.
    let mut rng = StdRng::seed_from_u64(207);
    let mut cases = 0;
    for fixture in 0..12u64 {
        let refs = ReferenceCollection::synthetic(9, 400, 7000 + fixture);
        let config = SketchConfig::small();
        let sketches = SketchDatabase::build(&refs, config);
        let kss = KssTables::build(&sketches);
        let tree = TernarySketchTree::build(&sketches);
        let (k_max, k_min) = (config.k_max, config.k_min);
        let table = |k: usize| sketches.table(k).unwrap();
        let pick =
            |rng: &mut StdRng, k: usize| table(k).entry(rng.gen_range(0..table(k).len())).kmer;
        for mix in 0..18 {
            let mut queries: Vec<Kmer> = Vec::new();
            // Mix 0 stays empty; the others draw a random amount of each shape.
            if mix > 0 {
                // Exact hits.
                for _ in 0..rng.gen_range(0..40usize) {
                    queries.push(pick(&mut rng, k_max));
                }
                // Prefix-only near-misses: a sketch k_max-mer with its last
                // bases mutated keeps its shorter prefixes.
                for _ in 0..rng.gen_range(0..40usize) {
                    let base = pick(&mut rng, k_max);
                    let n = rng.gen_range(1..=k_max - k_min);
                    queries.push(mutate_tail(&mut rng, base, n));
                }
                // Foreign k-mers.
                queries.extend(random_kmers(&mut rng, 40, k_max));
                // Runs sharing one prefix: a smaller-k entry extended to
                // k_max several ways.
                for k in config.k_sizes().into_iter().skip(1) {
                    let base = pick(&mut rng, k);
                    for _ in 0..rng.gen_range(0..6usize) {
                        queries.push(extend(&mut rng, base, k_max - k));
                    }
                }
                // Duplicates.
                let dups: Vec<Kmer> = queries
                    .iter()
                    .take(rng.gen_range(0..20usize))
                    .copied()
                    .collect();
                queries.extend(dups);
            }
            if mix % 2 == 0 && mix > 0 {
                // Mixed k: sketch entries of every size as they are, k_max
                // entries extended past k_max, and k-mers shorter than k_min.
                for k in config.k_sizes() {
                    for _ in 0..rng.gen_range(0..8usize) {
                        queries.push(pick(&mut rng, k));
                    }
                }
                for _ in 0..rng.gen_range(0..8usize) {
                    let base = pick(&mut rng, k_max);
                    queries.push(extend(&mut rng, base, 6));
                }
                queries.extend(random_kmers(&mut rng, 8, k_min - 4));
            }
            queries.sort();
            let mut shuffled = queries.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }

            let expected = fold_support(&queries, |q| kss.lookup(q));
            assert_eq!(kss.stream_retrieve(&queries), expected, "{fixture}/{mix}");
            assert_eq!(
                kss.stream_retrieve(&shuffled),
                expected,
                "{fixture}/{mix} shuffled"
            );
            assert_eq!(
                fold_support(&queries, |q| tree.lookup_with_prefixes(q)),
                expected,
                "{fixture}/{mix} tree"
            );
            assert_eq!(
                fold_support(&queries, |q| sketches.lookup_with_prefixes(q)),
                expected,
                "{fixture}/{mix} flat"
            );
            cases += 1;
        }
    }
    assert!(cases >= 200);
}

#[test]
fn fused_sweep_equals_stream_retrieve_of_the_intersection_on_any_sketch_shape() {
    // The database-joined KSS against its oracle: for every sketch shape and
    // query mix, the support the fused sweep counts by position equals
    // `stream_retrieve` over the intersecting k-mers, per taxon, and the
    // positions it reports are those k-mers.
    let sketch = |k_max, k_min, k_step, fraction| SketchConfig {
        k_max,
        k_min,
        k_step,
        fraction,
    };
    let shapes = [
        ("small", 31, SketchConfig::small()),
        ("k_max alone (zero step)", 31, sketch(31, 21, 0, 0.3)),
        ("no table (k_min > k_max)", 31, sketch(21, 31, 5, 0.3)),
        ("nothing selected", 31, sketch(31, 21, 5, 0.0)),
        ("everything selected", 31, sketch(31, 21, 5, 1.0)),
        (
            "tables longer than the database's k-mers",
            26,
            sketch(31, 21, 5, 0.5),
        ),
        ("dense steps", 24, sketch(24, 1, 4, 0.4)),
    ];
    let mut rng = StdRng::seed_from_u64(211);
    let (mut supported, mut halved) = (0u64, 0u64);
    for (shape, (label, db_k, config)) in shapes.into_iter().enumerate() {
        // One genome shorter than every k: it contributes to no structure.
        let mut refs = ReferenceCollection::synthetic(9, 400, 7100 + shape as u64);
        let stub = ReferenceGenome::new(
            TaxId(999_999),
            "stub",
            PackedSequence::from_ascii(b"ACGTTGCA").unwrap(),
        );
        refs = ReferenceCollection::new(
            refs.genomes().iter().cloned().chain([stub]).collect(),
            refs.taxonomy().clone(),
        );
        let database = SortedKmerDatabase::build(&refs, db_k);
        let sketches = SketchDatabase::build(&refs, config);
        let kss = KssTables::build(&sketches);
        let join = KssJoin::build(&sketches, &database);
        assert!(
            join.heap_bytes() > 0 || sketches.k_sizes().is_empty(),
            "{label}"
        );
        let entries = database.kmer_slice();
        for mix in 0..10 {
            let mut queries: Vec<Kmer> = Vec::new();
            if mix > 0 {
                // Hits (most of them in no table), misses, and repeats.
                for _ in 0..rng.gen_range(0..300usize) {
                    queries.push(entries[rng.gen_range(0..entries.len())]);
                }
                queries.extend(random_kmers(&mut rng, 120, db_k));
                let repeats: Vec<Kmer> = queries
                    .iter()
                    .take(rng.gen_range(0..40usize))
                    .copied()
                    .collect();
                queries.extend(repeats);
            }
            if mix == 9 {
                queries = entries.to_vec();
            }
            queries.sort();
            let intersection = database.intersect_sorted(&queries);
            let expected = kss.stream_retrieve(&intersection);
            let mut seen = Vec::new();
            let support = megis::step2::sweep(&database, &join, &queries, |p| {
                seen.push(entries[p]);
            });
            assert_eq!(seen, intersection, "{label}/{mix}");
            assert_eq!(support.hits, intersection.len() as u64, "{label}/{mix}");
            assert_eq!(join.support_map(&support), expected, "{label}/{mix}");
            assert_eq!(expected, fold_support(&intersection, |q| kss.lookup(q)));
            supported += expected.values().map(|c| u64::from(*c)).sum::<u64>();

            // Cut anywhere, the slices' supports add up to the whole: as
            // separate sweeps of the two halves, and of sub-views.
            let cut = rng.gen_range(0..=queries.len());
            let mut folded = megis::kss::Support::default();
            for half in [&queries[..cut], &queries[cut..]] {
                let support = megis::step2::sweep(&database, &join, half, |_| {});
                // A repeat straddling the cut hits once on each side.
                let alone = kss.stream_retrieve(&database.intersect_sorted(half));
                assert_eq!(join.support_map(&support), alone, "{label}/{mix} half");
                halved += support.hits;
                folded.fold(support);
            }
            if cut == 0 || cut == queries.len() || queries[cut - 1] != queries[cut] {
                assert_eq!(
                    join.support_map(&folded),
                    expected,
                    "{label}/{mix} cut {cut}"
                );
                assert_eq!(folded.hits, intersection.len() as u64);
            }
            let parts = rng.gen_range(1..=9usize);
            let mut folded = megis::kss::Support::default();
            for view in database.partition(parts) {
                let slice = &queries[view.overlapping_query_range(&queries)];
                folded.fold(megis::step2::sweep(&view, &join, slice, |_| {}));
            }
            assert_eq!(
                join.support_map(&folded),
                expected,
                "{label}/{mix} {parts} views"
            );
            assert_eq!(folded.hits, intersection.len() as u64);
        }
    }
    assert!(supported > 1000 && halved > 1000, "{supported} {halved}");
}

#[test]
fn the_join_built_from_the_sketch_retrieves_what_a_per_entry_lookup_does() {
    // The direct join against its oracle, position by position: for every
    // database entry, the union of the taxa it reaches through the joined
    // tables equals `KssTables::lookup` of its k-mer — on every sketch shape,
    // tables longer than the database's k-mers and empty references
    // included, over seeded random collections.
    let sketch = |k_max, k_min, k_step, fraction| SketchConfig {
        k_max,
        k_min,
        k_step,
        fraction,
    };
    let shapes = [
        ("small", 31, SketchConfig::small()),
        ("default", 45, SketchConfig::default()),
        ("k_max alone (zero step)", 31, sketch(31, 21, 0, 0.3)),
        ("no table (k_min > k_max)", 31, sketch(21, 31, 5, 0.3)),
        ("nothing selected", 31, sketch(31, 21, 5, 0.0)),
        ("everything selected", 31, sketch(31, 21, 5, 1.0)),
        ("k_max above the database's k", 31, SketchConfig::default()),
        (
            "k_max just above the database's k",
            26,
            sketch(31, 21, 5, 0.5),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(212);
    let mut reached = 0usize;
    for (shape, (label, db_k, config)) in shapes.into_iter().enumerate() {
        for case in 0..3u64 {
            let seed = 7200 + 10 * shape as u64 + case;
            let refs = ReferenceCollection::synthetic(
                rng.gen_range(2..10usize),
                rng.gen_range(200..700usize),
                seed,
            );
            // The last case of each shape has no references at all.
            let refs = if case == 2 {
                ReferenceCollection::new(Vec::new(), refs.taxonomy().clone())
            } else {
                refs
            };
            let database = SortedKmerDatabase::build(&refs, db_k);
            let sketches = SketchDatabase::build(&refs, config);
            let join = KssJoin::build(&sketches, &database);
            let kss = KssTables::build(&sketches);
            for (position, kmer) in database.kmers().enumerate() {
                let taxa = join.taxa_at(position);
                assert_eq!(taxa, kss.lookup(kmer), "{label}/{case}: {kmer}");
                reached += usize::from(!taxa.is_empty());
            }
        }
    }
    assert!(reached > 5_000, "{reached} positions reach the sketch");
}

#[test]
#[should_panic(expected = "not a range of the database")]
fn a_view_of_another_database_cannot_be_counted_through_the_join() {
    let refs = ReferenceCollection::synthetic(4, 300, 1);
    let sketches = SketchDatabase::build(&refs, SketchConfig::small());
    let join = KssJoin::build(&sketches, &SortedKmerDatabase::build(&refs, 31));
    // Same content, another allocation: its positions mean nothing here.
    let other = SortedKmerDatabase::build(&refs, 31);
    megis::step2::sweep(&other, &join, other.kmer_slice(), |_| {});
}

#[test]
fn kmer_counts_equal_an_ordered_map_counter() {
    let mut rng = StdRng::seed_from_u64(207);
    for case in 0..40usize {
        let k = rng.gen_range(1..=60usize);
        // Reads are windows of one short genome (either strand), so k-mers
        // repeat across reads; some windows are shorter than k, case 0 has
        // no reads at all.
        let genome = random_dna(&mut rng, 150);
        let reads: Vec<Read> = (0..if case == 0 {
            0
        } else {
            rng.gen_range(1..16usize)
        })
            .map(|i| {
                let start = rng.gen_range(0..genome.len());
                let len = rng.gen_range(0..=(genome.len() - start).min(k + 40));
                either_strand(&mut rng, i, &genome[start..start + len])
            })
            .collect();
        let policy = ExclusionPolicy {
            min_count: rng.gen_range(1..=3u32),
            max_count: [None, Some(rng.gen_range(1..=4u32))][case % 2],
        };
        assert_counts_equal_an_ordered_map(reads, k, policy, &format!("case {case}"));
    }

    // A Step 1 sample's size: 400 reads of 120 k-mers each from a 20 kbp
    // genome, 48 000 occurrences, so `count_words` buckets by 10 radix
    // bits — at k = 31 (8-byte words) and k = 45 (16-byte words).
    let genome = random_dna(&mut rng, 20_000);
    for k in [31, 45] {
        let len = k + 119;
        let reads: Vec<Read> = (0..400)
            .map(|i| {
                let start = rng.gen_range(0..=genome.len() - len);
                either_strand(&mut rng, i, &genome[start..start + len])
            })
            .collect();
        let policy = ExclusionPolicy {
            min_count: 2,
            max_count: Some(3),
        };
        let total = assert_counts_equal_an_ordered_map(reads, k, policy, "400 reads");
        assert_eq!(total, 48_000, "k = {k}");
    }
}

/// A read of `window` on a random strand.
fn either_strand(rng: &mut StdRng, i: usize, window: &[u8]) -> Read {
    let window = PackedSequence::from_ascii(window).unwrap();
    let strand = if rng.gen_range(0..2u32) == 0 {
        window
    } else {
        window.reverse_complement()
    };
    Read::new(format!("r{i}"), strand)
}

/// `KmerCounts::count` of `reads` at `k` against an ordered map of their
/// canonical k-mers — the entries, the occurrence total and what `policy`
/// keeps; returns the total.
fn assert_counts_equal_an_ordered_map(
    reads: Vec<Read>,
    k: usize,
    policy: ExclusionPolicy,
    what: &str,
) -> u64 {
    let mut expected: BTreeMap<Kmer, u32> = BTreeMap::new();
    for read in &reads {
        for kmer in KmerExtractor::new(read.sequence(), k) {
            *expected.entry(kmer.canonical()).or_default() += 1;
        }
    }
    let counts = KmerCounts::count(&ReadSet::from_reads(reads), k);
    let expected: Vec<(Kmer, u32)> = expected.into_iter().collect();
    let entries: Vec<(Kmer, u32)> = counts.entries().collect();
    assert_eq!(entries, expected, "{what}, k = {k}");
    // The occurrence total is the arena's length before compaction, and
    // the in-place selection keeps what the policy keeps.
    let total: u64 = expected.iter().map(|(_, c)| u64::from(*c)).sum();
    assert_eq!(counts.total_occurrences(), total, "{what}, k = {k}");
    let kept = expected.iter().filter(|(_, c)| policy.keeps(*c));
    let kept: Vec<Kmer> = kept.map(|(kmer, _)| *kmer).collect();
    assert_eq!(counts.apply_exclusion(policy), kept, "{what}, k = {k}");
    total
}

#[test]
fn ftl_placement_is_always_balanced() {
    let mut rng = StdRng::seed_from_u64(205);
    let mut sizes = vec![1u64, 2, 13, 64, 512, 1024, 1999];
    sizes.extend((0..8).map(|_| rng.gen_range(1..2000u64)));
    for size_gb in sizes {
        let mut ftl = MegisFtl::new(SsdConfig::ssd_c().geometry);
        let placement = ftl
            .place_database("db", ByteSize::from_gb(size_gb as f64))
            .unwrap()
            .clone();
        assert!(placement.is_balanced(), "unbalanced at {size_gb} GB");
        assert!(placement.total_blocks() > 0);
        // Metadata stays tiny regardless of database size.
        assert!(ftl.total_metadata_bytes().as_bytes() < 4_000_000);
    }
}

fn random_dna(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| b"ACGT"[rng.gen_range(0..4usize)])
        .collect()
}

#[test]
fn incremental_reduce_in_any_arrival_order_equals_the_map_based_step3() {
    // Random candidate sets whose genomes share a core segment (so seeds are
    // shared across species), the reads cut into 1–9 ranges whose counts
    // arrive in a shuffled order: the folded output must equal the
    // sequential oracle and a map-based Step 3 written out here —
    // ordered-map merge, ordered-map votes, `(votes, smallest taxid)` winner,
    // threshold, counts.
    const K: usize = 15;
    let mut rng = StdRng::seed_from_u64(208);
    for case in 0..40usize {
        let core = random_dna(&mut rng, 120);
        let count = if case == 0 { 0 } else { 1 + case % 8 };
        let genomes: Vec<ReferenceGenome> = (0..count)
            .map(|i| {
                let head = rng.gen_range(0..400usize);
                let mut ascii = random_dna(&mut rng, head);
                if rng.gen_range(0..4u32) > 0 {
                    ascii.extend(&core);
                }
                let tail = rng.gen_range(0..200usize);
                ascii.extend(random_dna(&mut rng, tail));
                let sequence = PackedSequence::from_ascii(&ascii).unwrap();
                ReferenceGenome::new(TaxId(100 + 7 * i as u32), format!("g{i}"), sequence)
            })
            .collect();
        let indexes: Vec<ReferenceIndex> = genomes
            .iter()
            .map(|g| ReferenceIndex::build(g, K))
            .collect();

        // Reads: windows of the genomes (both strands), the shared core
        // itself (a tie between every species carrying it), foreign and
        // too-short reads.
        let mut sequences = vec![
            PackedSequence::from_ascii(&core).unwrap(),
            PackedSequence::from_ascii(&random_dna(&mut rng, 100)).unwrap(),
            PackedSequence::from_ascii(&random_dna(&mut rng, K - 1)).unwrap(),
        ];
        for genome in genomes.iter().filter(|g| g.len() >= 60) {
            let start = rng.gen_range(0..=genome.len() - 60);
            let window = genome.sequence().subsequence(start, 60);
            sequences.push(window.reverse_complement());
            sequences.push(window);
        }
        let reads = ReadSet::from_reads(
            sequences
                .into_iter()
                .enumerate()
                .map(|(i, sequence)| Read::new(format!("r{i}"), sequence))
                .collect(),
        );

        // The map-based reference.
        let mut merged: BTreeMap<Kmer, Vec<(TaxId, u64)>> = BTreeMap::new();
        let mut offsets = Vec::new();
        let mut running = 0u64;
        for idx in &indexes {
            offsets.push((idx.taxid(), running));
            for (seed, positions) in idx.entries() {
                let out = merged.entry(seed).or_default();
                out.extend(positions.iter().map(|p| (idx.taxid(), running + *p as u64)));
            }
            running += idx.genome_len() as u64;
        }
        let mut counts: BTreeMap<TaxId, u64> = BTreeMap::new();
        for read in reads.iter() {
            let mut votes: BTreeMap<TaxId, u32> = BTreeMap::new();
            for kmer in read.kmers(K) {
                for (taxid, _) in merged.get(&kmer.canonical()).into_iter().flatten() {
                    *votes.entry(*taxid).or_insert(0) += 1;
                }
            }
            let best = votes.into_iter().max_by_key(|(t, v)| (*v, Reverse(*t)));
            if let Some((taxid, _)) = best.filter(|(_, v)| *v >= MIN_MAPPING_VOTES) {
                *counts.entry(taxid).or_insert(0) += 1;
            }
        }
        let mapped_reads: u64 = counts.values().sum();
        let abundance = AbundanceProfile::from_counts(counts);

        let oracle = step3::run(&reads, &indexes, K);
        assert_eq!(oracle.mapped_reads, mapped_reads, "case {case}");
        assert_eq!(oracle.abundance, abundance, "case {case}");
        assert_eq!(oracle.unified_index.offsets(), offsets.as_slice());
        assert_eq!(oracle.unified_index.len(), merged.len());
        for ((seed, locations), (expected_seed, expected)) in
            oracle.unified_index.entries().zip(&merged)
        {
            assert_eq!(seed, *expected_seed);
            let got: Vec<(TaxId, u64)> = locations.iter().map(|l| (l.taxid, l.position)).collect();
            assert_eq!(&got, expected, "case {case}, seed {seed}");
        }

        assert_every_read_cut_equals(&mut rng, &reads, &oracle, K);
        // One read (more ranges than reads at every cut but the first), and
        // none at all.
        for few in [1usize, 0] {
            let few = ReadSet::from_reads(reads.reads()[..few].to_vec());
            assert_every_read_cut_equals(&mut rng, &few, &step3::run(&few, &indexes, K), K);
        }
    }
}

/// Every cut of `reads` into 1..=9 contiguous ranges at random boundaries
/// (repeated boundaries give empty ranges), each range mapped against the
/// oracle's index, the counts merged in a shuffled order: equal to `oracle`.
fn assert_every_read_cut_equals(rng: &mut StdRng, reads: &ReadSet, oracle: &Step3Output, k: usize) {
    let n = reads.len();
    for parts in 1..=9usize {
        let mut cuts: Vec<usize> = (1..parts).map(|_| rng.gen_range(0..=n)).collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        let mut arrivals: Vec<_> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
        for i in (1..arrivals.len()).rev() {
            arrivals.swap(i, rng.gen_range(0..=i));
        }
        let mut merged = MappedCounts::default();
        for range in arrivals {
            merged.merge(step3::map_range(&oracle.unified_index, reads, range, k));
        }
        assert_eq!(merged.mapped_reads(), oracle.mapped_reads, "{cuts:?}");
        assert_eq!(
            merged.into_output(oracle.unified_index.clone()),
            *oracle,
            "{n} reads cut at {cuts:?}"
        );
    }
}

#[test]
fn analyze_equals_steps_1_and_2_plus_the_sequential_step3() {
    // Random cohorts: the analyzer's own Step 3 (one merge, one range over
    // every read) must agree with the per-read oracle on each of them, and
    // so must every cut of the reads.
    let mut rng = StdRng::seed_from_u64(209);
    let mut mapped = 0;
    for seed in [3u64, 58, 141, 977] {
        let community = CommunityConfig::preset(Diversity::Medium)
            .with_reads(rng.gen_range(40..160))
            .with_species(rng.gen_range(2..7))
            .with_database_species(12)
            .build(seed);
        let analyzer = MegisAnalyzer::build(community.references(), MegisConfig::small());
        let sample = community.sample();
        let step1 = analyzer.run_step1(sample);
        let step2 = analyzer.run_step2(&step1);
        let candidates: Vec<ReferenceIndex> = analyzer
            .candidate_indexes(&step2.presence)
            .into_iter()
            .cloned()
            .collect();
        let k = analyzer.config().mapping_k;
        let oracle = step3::run(sample.reads(), &candidates, k);
        mapped += oracle.mapped_reads;
        assert_every_read_cut_equals(&mut rng, sample.reads(), &oracle, k);
        assert_eq!(analyzer.run_step3(sample, &step2.presence), oracle);
        assert_eq!(
            analyzer.analyze(sample),
            MegisAnalyzer::assemble_output(&step1, &step2, oracle),
            "seed {seed}"
        );
    }
    assert!(mapped > 100, "the cohorts must exercise mapping: {mapped}");
}
