//! Seeded property tests for KMC-style counting ([`KmerCounts::count`]), at
//! both payload-word widths: the bucketed count against an ordered-map count
//! that shares no kernel with it, and the metamorphic properties a count of
//! *canonical* k-mers must hold whatever the implementation.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use megis_genomics::dna::PackedSequence;
use megis_genomics::kmer::Kmer;
use megis_genomics::read::{Read, ReadSet};
use megis_tools::kmc::{ExclusionPolicy, KmerCounts};

/// Half-width words up to 32, full-width from 33; 1, 16/32 and 60 are the
/// ends of each range.
const KS: [usize; 9] = [1, 2, 15, 16, 31, 32, 33, 45, 60];

fn dna(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| b"ACGT"[rng.gen_range(0..4usize)])
        .collect()
}

fn read_set(sequences: impl IntoIterator<Item = Vec<u8>>) -> ReadSet {
    sequences
        .into_iter()
        .enumerate()
        .map(|(i, ascii)| Read::new(format!("r{i}"), PackedSequence::from_ascii(&ascii).unwrap()))
        .collect()
}

/// The reference: every forward k-mer canonicalized by the word-parallel
/// reverse complement and inserted into an ordered map — neither the rolling
/// extractor nor a sort.
fn count_by_map(reads: &ReadSet, k: usize) -> BTreeMap<Kmer, u32> {
    let mut map = BTreeMap::new();
    for read in reads.iter() {
        for kmer in read.kmers(k) {
            *map.entry(kmer.canonical()).or_insert(0) += 1;
        }
    }
    map
}

fn assert_counts_equal_the_map(
    reads: &ReadSet,
    k: usize,
    what: &str,
) -> (KmerCounts, BTreeMap<Kmer, u32>) {
    let counts = KmerCounts::count(reads, k);
    let map = count_by_map(reads, k);
    assert!(
        counts.entries().eq(map.iter().map(|(kmer, n)| (*kmer, *n))),
        "{what}, k = {k}: entries"
    );
    let occurrences: u64 = map.values().map(|n| u64::from(*n)).sum();
    assert_eq!(counts.total_occurrences(), occurrences, "{what}, k = {k}");
    assert_eq!(occurrences, reads.total_kmers(k) as u64, "{what}, k = {k}");
    (counts, map)
}

/// The shapes the bucketing has to survive, for one `k`.
fn shapes(rng: &mut StdRng, k: usize) -> Vec<(&'static str, ReadSet)> {
    // Enough occurrences for several radix bits, with repeated reads (counts
    // above one) and reads on either side of `k`.
    let mut mixed: Vec<Vec<u8>> = (0..40)
        .map(|_| {
            let len = rng.gen_range(k..k + 140);
            dna(rng, len)
        })
        .collect();
    mixed.extend_from_within(..12);
    mixed.extend_from_within(..3);
    mixed.push(dna(rng, k - 1));
    mixed.push(Vec::new());
    // At most 64 occurrences: zero radix bits, one bucket, sorted whole.
    let tiny: Vec<Vec<u8>> = (0..4).map(|_| dna(rng, k + 15)).collect();
    // Poly-A and short-period reads: a handful of distinct k-mers, so every
    // occurrence lands in one or two buckets however many bits are taken.
    let unit = dna(rng, 3);
    let mut repeats: Vec<Vec<u8>> = (0..30).map(|_| vec![b'A'; k + 100]).collect();
    repeats.extend((0..30).map(|i| {
        unit.iter()
            .copied()
            .cycle()
            .skip(i % 3)
            .take(k + 90)
            .collect()
    }));
    vec![
        ("empty set", ReadSet::default()),
        (
            "shorter than k",
            read_set([dna(rng, k - 1), dna(rng, k / 2), Vec::new()]),
        ),
        ("one k-mer", read_set([dna(rng, k)])),
        ("tiny", read_set(tiny)),
        ("repeats", read_set(repeats)),
        ("mixed", read_set(mixed)),
    ]
}

#[test]
fn bucketed_count_equals_an_ordered_map_count_at_both_widths() {
    let mut rng = StdRng::seed_from_u64(2301);
    for k in KS {
        for (what, reads) in shapes(&mut rng, k) {
            let (counts, map) = assert_counts_equal_the_map(&reads, k, what);
            match what {
                "empty set" | "shorter than k" => assert_eq!(counts.total_occurrences(), 0),
                "one k-mer" => assert_eq!(counts.total_occurrences(), 1),
                "tiny" => assert_eq!(counts.total_occurrences(), 64),
                "repeats" => assert!(counts.entries().len() <= 1 + 2 * 3, "k = {k}"),
                _ => assert!(counts.total_occurrences() > 2_000, "k = {k}"),
            }
            // Exclusion selects by multiplicity and keeps the order.
            for policy in [
                ExclusionPolicy::default(),
                ExclusionPolicy {
                    min_count: 2,
                    max_count: None,
                },
                ExclusionPolicy {
                    min_count: 1,
                    max_count: Some(1),
                },
                ExclusionPolicy {
                    min_count: 2,
                    max_count: Some(3),
                },
            ] {
                let kept = counts.clone().apply_exclusion(policy);
                let expected: Vec<Kmer> = map
                    .iter()
                    .filter(|(_, n)| policy.keeps(**n))
                    .map(|(kmer, _)| *kmer)
                    .collect();
                assert_eq!(kept, expected, "{what}, k = {k}, {policy:?}");
                assert_eq!(kept.capacity(), kept.len(), "{what}, k = {k}: no slack");
            }
        }
    }
}

#[test]
fn permuting_or_reverse_complementing_reads_changes_nothing() {
    let mut rng = StdRng::seed_from_u64(2303);
    for k in KS {
        for case in 0..6 {
            let reads: Vec<PackedSequence> = (0..25)
                .map(|i| match (case + i) % 5 {
                    0 => dna(&mut rng, k),
                    1 => vec![b"ACGT"[i % 4]; k + 20],
                    _ => {
                        let len = rng.gen_range(k - 1..k + 90);
                        dna(&mut rng, len)
                    }
                })
                .map(|ascii| PackedSequence::from_ascii(&ascii).unwrap())
                .collect();
            let as_set = |sequences: &[PackedSequence]| -> ReadSet {
                sequences
                    .iter()
                    .enumerate()
                    .map(|(i, s)| Read::new(format!("r{i}"), s.clone()))
                    .collect()
            };
            let base = KmerCounts::count(&as_set(&reads), k);
            let same = |other: &KmerCounts, what: &str| {
                assert!(base.entries().eq(other.entries()), "{what}, k = {k}");
                assert_eq!(base.total_occurrences(), other.total_occurrences());
            };

            let mut permuted = reads.clone();
            for i in (1..permuted.len()).rev() {
                permuted.swap(i, rng.gen_range(0..=i));
            }
            same(&KmerCounts::count(&as_set(&permuted), k), "permuted");

            let flipped: Vec<PackedSequence> = reads
                .iter()
                .map(|s| match rng.gen_bool(0.5) {
                    true => s.reverse_complement(),
                    false => s.clone(),
                })
                .collect();
            same(&KmerCounts::count(&as_set(&flipped), k), "subset flipped");
            let all: Vec<PackedSequence> = reads.iter().map(|s| s.reverse_complement()).collect();
            same(&KmerCounts::count(&as_set(&all), k), "all flipped");
        }
    }
}
