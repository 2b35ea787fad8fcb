//! Criterion micro-benchmarks of the functional kernels MegIS and its
//! baselines are built from: k-mer extraction, KMC-style counting/sorting,
//! sorted-stream intersection, taxID retrieval (KSS vs ternary tree vs flat
//! sketch tables), hash-table classification, and unified-index merging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use megis::kss::KssTables;
use megis_genomics::database::{ReferenceIndex, SortedKmerDatabase, UnifiedReferenceIndex};
use megis_genomics::kmer::Kmer;
use megis_genomics::reference::ReferenceCollection;
use megis_genomics::sample::{CommunityConfig, Diversity};
use megis_genomics::sketch::{SketchConfig, SketchDatabase};
use megis_tools::kmc::{ExclusionPolicy, KmerCounts};
use megis_tools::kraken::KrakenClassifier;
use megis_tools::ternary::TernarySketchTree;

fn fixture() -> (
    megis_genomics::sample::Community,
    SortedKmerDatabase,
    SketchDatabase,
    KssTables,
    TernarySketchTree,
) {
    let community = CommunityConfig::preset(Diversity::Medium)
        .with_reads(300)
        .with_database_species(16)
        .with_genome_len(2000)
        .build(2024);
    let database = SortedKmerDatabase::build(community.references(), 31);
    let sketches = SketchDatabase::build(community.references(), SketchConfig::small());
    let kss = KssTables::build(&sketches);
    let tree = TernarySketchTree::build(&sketches);
    (community, database, sketches, kss, tree)
}

fn bench_kmer_extraction(c: &mut Criterion) {
    let (community, ..) = fixture();
    let reads = community.sample().reads();
    let total_bases = reads.total_bases() as u64;
    let mut group = c.benchmark_group("kmer_extraction");
    group.throughput(Throughput::Elements(total_bases));
    for k in [21usize, 31] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut count = 0usize;
                for read in reads.iter() {
                    count += read.kmers(k).count();
                }
                count
            })
        });
    }
    group.finish();
}

fn bench_kmc_counting(c: &mut Criterion) {
    let (community, ..) = fixture();
    let reads = community.sample().reads();
    c.bench_function("kmc_count_and_exclude", |b| {
        b.iter(|| {
            let counts = KmerCounts::count(reads, 31);
            counts.apply_exclusion(ExclusionPolicy::default()).len()
        })
    });
}

fn bench_intersection(c: &mut Criterion) {
    let (community, database, ..) = fixture();
    let counts = KmerCounts::count(community.sample().reads(), database.k());
    let queries = counts.apply_exclusion(ExclusionPolicy::default());
    let mut group = c.benchmark_group("sorted_stream_intersection");
    group.throughput(Throughput::Elements((queries.len() + database.len()) as u64));
    group.bench_function("directory_probe", |b| {
        b.iter(|| database.intersect_sorted(&queries).len())
    });
    group.bench_function("two_pointer", |b| {
        b.iter(|| database.intersect_sorted_two_pointer(&queries).len())
    });
    // The skewed regime of a shard: one query per 64 database
    // entries.
    let sparse: Vec<Kmer> = database.kmers().step_by(64).collect();
    group.bench_function("directory_probe_skewed", |b| {
        b.iter(|| database.intersect_sorted(&sparse).len())
    });
    group.bench_function("two_pointer_skewed", |b| {
        b.iter(|| database.intersect_sorted_two_pointer(&sparse).len())
    });
    group.finish();
}

fn bench_taxid_retrieval(c: &mut Criterion) {
    let (community, database, sketches, kss, tree) = fixture();
    let counts = KmerCounts::count(community.sample().reads(), database.k());
    let queries = counts.apply_exclusion(ExclusionPolicy::default());
    let intersecting = database.intersect_sorted(&queries);
    let mut group = c.benchmark_group("taxid_retrieval");
    group.throughput(Throughput::Elements(intersecting.len() as u64));
    group.bench_function("kss_stream", |b| {
        b.iter(|| kss.stream_retrieve(&intersecting).len())
    });
    group.bench_function("ternary_tree", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for q in &intersecting {
                hits += tree.lookup_with_prefixes(*q).len();
            }
            hits
        })
    });
    group.bench_function("flat_tables", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for q in &intersecting {
                hits += sketches.lookup_with_prefixes(*q).len();
            }
            hits
        })
    });
    group.finish();
}

fn bench_hash_classification(c: &mut Criterion) {
    let (community, ..) = fixture();
    let classifier = KrakenClassifier::build(community.references(), 21);
    let reads = community.sample().reads();
    let mut group = c.benchmark_group("hash_classification");
    group.throughput(Throughput::Elements(reads.len() as u64));
    group.bench_function("classify_sample", |b| {
        b.iter(|| classifier.classify(reads).presence.len())
    });
    group.finish();
}

fn bench_unified_index_merge(c: &mut Criterion) {
    let refs = ReferenceCollection::synthetic(12, 2000, 9);
    let indexes: Vec<ReferenceIndex> = refs
        .genomes()
        .iter()
        .map(|g| ReferenceIndex::build(g, 15))
        .collect();
    c.bench_function("unified_index_merge", |b| {
        b.iter(|| UnifiedReferenceIndex::merge(&indexes).len())
    });
}

fn bench_kmer_primitives(c: &mut Criterion) {
    let kmer = Kmer::from_ascii(b"ACGTACGTTGCAACGTACGGTACGTACGTAC").unwrap();
    c.bench_function("kmer_canonicalize", |b| b.iter(|| kmer.canonical()));
    c.bench_function("kmer_prefix", |b| b.iter(|| kmer.prefix(21)));
}

criterion_group!(
    benches,
    bench_kmer_extraction,
    bench_kmc_counting,
    bench_intersection,
    bench_taxid_retrieval,
    bench_hash_classification,
    bench_unified_index_merge,
    bench_kmer_primitives
);
criterion_main!(benches);
