//! Property-style tests for the genomics substrate's core invariants.
//!
//! Each test checks an invariant over many randomized inputs drawn from a
//! seeded generator, so runs are deterministic while still covering a wide
//! slice of the input space (the offline equivalent of the original
//! proptest-based suite).

use std::cmp::{Ordering, Reverse};
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use megis_genomics::database::{
    PartialUnifiedIndex, ReadMapHit, ReferenceIndex, SortedKmerDatabase, UnifiedReferenceIndex,
    MIN_MAPPING_VOTES,
};
use megis_genomics::dna::{Base, PackedSequence};
use megis_genomics::kmer::{
    fits_half_word, CanonicalKmerExtractor, CanonicalWords, Kmer, KmerExtractor, KmerWord, MAX_K,
};
use megis_genomics::profile::AbundanceProfile;
use megis_genomics::read::Read;
use megis_genomics::reference::{ReferenceCollection, ReferenceGenome};
use megis_genomics::sketch::{sketch_hash, SketchConfig, SketchDatabase, SketchTable};
use megis_genomics::taxonomy::{Rank, TaxId, Taxonomy};

const CASES: usize = 48;

fn dna_string(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| b"ACGT"[rng.gen_range(0..4usize)])
        .collect()
}

fn random_len_dna(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    dna_string(rng, len)
}

#[test]
fn packed_sequence_roundtrips_ascii() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..CASES {
        let ascii = random_len_dna(&mut rng, 200);
        let seq = PackedSequence::from_ascii(&ascii).unwrap();
        assert_eq!(seq.len(), ascii.len());
        assert_eq!(seq.to_ascii(), ascii);
    }
}

#[test]
fn reverse_complement_is_an_involution() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..CASES {
        let ascii = random_len_dna(&mut rng, 200);
        let seq = PackedSequence::from_ascii(&ascii).unwrap();
        assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }
}

#[test]
fn reverse_complement_preserves_base_complements() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..CASES {
        let ascii = random_len_dna(&mut rng, 100);
        let seq = PackedSequence::from_ascii(&ascii).unwrap();
        let rc = seq.reverse_complement();
        for i in 0..seq.len() {
            assert_eq!(rc.get(seq.len() - 1 - i), seq.get(i).complement());
        }
    }
}

#[test]
fn kmer_extraction_yields_expected_count() {
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..CASES {
        let ascii = random_len_dna(&mut rng, 300);
        let k = rng.gen_range(1..32usize);
        let seq = PackedSequence::from_ascii(&ascii).unwrap();
        let expected = if seq.len() >= k { seq.len() - k + 1 } else { 0 };
        assert_eq!(KmerExtractor::new(&seq, k).count(), expected);
    }
}

#[test]
fn extracted_kmers_match_subsequences() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..CASES {
        let ascii = random_len_dna(&mut rng, 120);
        let k = rng.gen_range(1..24usize);
        let seq = PackedSequence::from_ascii(&ascii).unwrap();
        for (i, kmer) in KmerExtractor::new(&seq, k).enumerate() {
            assert_eq!(kmer.to_sequence(), seq.subsequence(i, k));
        }
    }
}

/// Lexicographic order written out base by base: the first differing base
/// decides; with none, the proper prefix sorts first.
fn cmp_by_base(a: &[u8], b: &[u8]) -> Ordering {
    let rank = |c: u8| b"ACGT".iter().position(|x| *x == c).unwrap();
    for (x, y) in a.iter().zip(b) {
        if x != y {
            return rank(*x).cmp(&rank(*y));
        }
    }
    a.len().cmp(&b.len())
}

#[test]
fn kmer_order_matches_string_order() {
    let mut rng = StdRng::seed_from_u64(106);
    let kmer = |ascii: &[u8]| Kmer::from_ascii(ascii).unwrap();
    let mut pool: Vec<Vec<u8>> = Vec::new();
    for k in 1..=MAX_K {
        pool.push(vec![b'A'; k]);
        pool.push(vec![b'T'; k]);
        for _ in 0..4 {
            // A random k-mer, a proper prefix of it, and extensions of that
            // prefix by `A`s (equal payload words, told apart by length
            // alone) and by another base.
            let ascii = dna_string(&mut rng, k);
            let mut chain = ascii[..rng.gen_range(1..=k)].to_vec();
            pool.push(chain.clone());
            while chain.len() < MAX_K && rng.gen_range(0..3u32) > 0 {
                chain.push(b'A');
                pool.push(chain.clone());
            }
            if chain.len() < MAX_K {
                *chain.last_mut().unwrap() = b"CGT"[rng.gen_range(0..3usize)];
                pool.push(chain);
            }
            pool.push(ascii);
        }
    }
    for a in &pool {
        for _ in 0..8 {
            let b = &pool[rng.gen_range(0..pool.len())];
            assert_eq!(
                kmer(a).cmp(&kmer(b)),
                cmp_by_base(a, b),
                "{} vs {}",
                kmer(a),
                kmer(b)
            );
        }
    }
    let chain: Vec<Kmer> = [&b"ACG"[..], b"ACGA", b"ACGAA", b"ACGC"].map(kmer).to_vec();
    assert!(chain.windows(2).all(|w| w[0] < w[1]), "{chain:?}");
    assert!(kmer(&[b'A'; 59]) < kmer(&[b'A'; 60]) && kmer(&[b'A'; 60]) < kmer(b"C"));
    assert_eq!(format!("{:?}", chain[1]), "Kmer(ACGA, k=4)");
}

#[test]
fn bits_prefix_and_roll_agree_with_reparsing_the_ascii() {
    let mut rng = StdRng::seed_from_u64(112);
    for k in 1..=MAX_K {
        for case in 0..6 {
            let ascii = match case {
                0 => vec![b'A'; k],
                1 => vec![b'T'; k],
                _ => dna_string(&mut rng, k),
            };
            let kmer = Kmer::from_ascii(&ascii).unwrap();
            assert_eq!(kmer.k(), k);
            assert_eq!(kmer.to_string().as_bytes(), ascii);
            let bits = ascii.iter().fold(0u128, |bits, c| {
                (bits << 2) | Base::from_ascii(*c).unwrap().code() as u128
            });
            assert_eq!(kmer.bits(), bits, "k = {k}");
            assert_eq!(Kmer::from_bits(bits, k), kmer, "k = {k}");
            for j in 1..=k {
                let prefix = Kmer::from_ascii(&ascii[..j]).unwrap();
                assert_eq!(kmer.prefix(j), prefix, "k = {k}, j = {j}");
            }
            for base in b"ACGT" {
                let mut rolled = ascii[1..].to_vec();
                rolled.push(*base);
                assert_eq!(
                    kmer.roll(Base::from_ascii(*base).unwrap()),
                    Kmer::from_ascii(&rolled).unwrap(),
                    "k = {k}, {kmer} + {}",
                    *base as char
                );
            }
        }
    }
}

#[test]
fn rolling_canonical_extractor_equals_canonical_of_every_forward_kmer() {
    let mut rng = StdRng::seed_from_u64(113);
    for k in 1..=MAX_K {
        let random = k + 2 + rng.gen_range(0..80usize);
        for len in [0, k - 1, k, k + 1, random] {
            let seq = PackedSequence::from_ascii(&dna_string(&mut rng, len)).unwrap();
            let expected: Vec<Kmer> = KmerExtractor::new(&seq, k)
                .map(|kmer| kmer.canonical())
                .collect();
            assert_eq!(expected.len(), (len + 1).saturating_sub(k));
            let mut rolling = CanonicalKmerExtractor::new(&seq, k);
            for (i, want) in expected.iter().enumerate() {
                let left = expected.len() - i;
                assert_eq!(rolling.size_hint(), (left, Some(left)), "k = {k}");
                assert_eq!(rolling.next(), Some(*want), "k = {k}, len = {len}, at {i}");
            }
            assert_eq!(rolling.size_hint(), (0, Some(0)));
            assert_eq!(rolling.next(), None, "k = {k}, len = {len}");
        }
    }
}

#[test]
fn half_width_extractor_equals_the_full_width_extractor_narrowed() {
    let mut rng = StdRng::seed_from_u64(114);
    for k in (1..=MAX_K).filter(|k| fits_half_word(*k)) {
        let random = k + 2 + rng.gen_range(0..80usize);
        for len in [0, k - 1, k, k + 1, random] {
            let mut ascii = dna_string(&mut rng, len);
            for case in 0..3 {
                // Random bases, then the all-T and all-A words: every payload
                // bit set (the whole word, at k = 32) and none.
                match case {
                    0 => {}
                    1 => ascii.fill(b'T'),
                    _ => ascii.fill(b'A'),
                }
                let seq = PackedSequence::from_ascii(&ascii).unwrap();
                let wide: Vec<u128> = CanonicalWords::<u128>::new(&seq, k).collect();
                let half: Vec<u64> = CanonicalWords::<u64>::new(&seq, k).collect();
                assert_eq!(
                    half.len(),
                    (len + 1).saturating_sub(k),
                    "k = {k}, len = {len}"
                );
                let narrowed: Vec<u64> = wide.iter().map(|w| u64::narrow(*w)).collect();
                assert_eq!(half, narrowed, "k = {k}, len = {len}");
                // Nothing lives below the top 64 bits, so narrowing lost nothing
                // and both words name the k-mer the `Kmer` extractor yields.
                let kmers: Vec<Kmer> = CanonicalKmerExtractor::new(&seq, k).collect();
                for ((half, wide), kmer) in half.iter().zip(&wide).zip(&kmers) {
                    assert_eq!(half.widen(), *wide, "k = {k}");
                    assert_eq!(Kmer::from_word(*half, k), *kmer, "k = {k}");
                    assert_eq!(kmer.word::<u64>(), *half, "k = {k}");
                    assert_eq!(kmer.word::<u128>(), *wide, "k = {k}");
                    assert_eq!(u128::from(*half >> (64 - 2 * k)), kmer.bits(), "k = {k}");
                }
            }
        }
    }
    assert!(fits_half_word(32) && !fits_half_word(33));
}

#[test]
fn canonical_kmers_are_strand_invariant() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..CASES {
        let k = rng.gen_range(5..32usize);
        let extra = rng.gen_range(0..120usize);
        let ascii = dna_string(&mut rng, k + extra);
        let seq = PackedSequence::from_ascii(&ascii).unwrap();
        let rc = seq.reverse_complement();
        let mut fwd: Vec<Kmer> = CanonicalKmerExtractor::new(&seq, k).collect();
        let mut rev: Vec<Kmer> = CanonicalKmerExtractor::new(&rc, k).collect();
        fwd.sort();
        rev.sort();
        assert_eq!(fwd, rev);
    }
}

#[test]
fn kmer_prefix_is_a_prefix() {
    let mut rng = StdRng::seed_from_u64(108);
    for _ in 0..CASES {
        let len = rng.gen_range(1..60usize);
        let ascii = dna_string(&mut rng, len);
        let kmer = Kmer::from_ascii(&ascii).unwrap();
        let j = rng.gen_range(1..60usize).min(kmer.k());
        let prefix = kmer.prefix(j);
        assert_eq!(prefix.k(), j);
        for i in 0..j {
            assert_eq!(prefix.base(i), kmer.base(i));
        }
    }
}

#[test]
fn abundance_profiles_are_normalized() {
    let mut rng = StdRng::seed_from_u64(109);
    for _ in 0..CASES {
        let n = rng.gen_range(1..20usize);
        let counts: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000u64)).collect();
        let profile = AbundanceProfile::from_counts(
            counts
                .iter()
                .enumerate()
                .map(|(i, c)| (TaxId(i as u32 + 1), *c)),
        );
        if counts.iter().any(|c| *c > 0) {
            assert!((profile.total() - 1.0).abs() < 1e-9);
        } else {
            assert!(profile.is_empty());
        }
    }
}

#[test]
fn lca_is_commutative_and_on_both_lineages() {
    let mut rng = StdRng::seed_from_u64(110);
    for _ in 0..CASES {
        let genera = rng.gen_range(1..5usize);
        let species = rng.gen_range(1..6usize);
        let tax = Taxonomy::synthetic(genera, species);
        let all = tax.ids_at_rank(Rank::Species);
        let a = all[rng.gen_range(0..30usize) % all.len()];
        let b = all[rng.gen_range(0..30usize) % all.len()];
        let lca = tax.lca(a, b);
        assert_eq!(lca, tax.lca(b, a));
        assert!(tax.lineage(a).contains(&lca));
        assert!(tax.lineage(b).contains(&lca));
    }
}

#[test]
fn base_ascii_roundtrip() {
    for code in 0u8..4 {
        let base = Base::from_code(code);
        assert_eq!(Base::from_ascii(base.to_ascii()), Some(base));
        assert_eq!(base.code(), code);
    }
}

/// The per-base reverse complement the word-parallel one replaced.
fn reverse_complement_by_base(kmer: Kmer) -> Kmer {
    let bases: Vec<Base> = (0..kmer.k())
        .rev()
        .map(|i| kmer.base(i).complement())
        .collect();
    Kmer::from_bases(&bases)
}

#[test]
fn word_parallel_reverse_complement_equals_the_per_base_loop() {
    let mut rng = StdRng::seed_from_u64(111);
    for k in 1..=MAX_K {
        let mut cases: Vec<Kmer> = (0..CASES)
            .map(|_| Kmer::from_ascii(&dna_string(&mut rng, k)).unwrap())
            .collect();
        // The all-A / all-T words exercise the shifted-out padding.
        cases.push(Kmer::from_ascii(&vec![b'A'; k]).unwrap());
        cases.push(Kmer::from_ascii(&vec![b'T'; k]).unwrap());
        for kmer in cases {
            let rc = kmer.reverse_complement();
            assert_eq!(rc, reverse_complement_by_base(kmer), "k = {k}, {kmer}");
            assert_eq!(rc.reverse_complement(), kmer, "involution, k = {k}");
            let canonical = kmer.canonical();
            assert_eq!(canonical, kmer.min(rc));
            assert_eq!(canonical.canonical(), canonical, "idempotent, k = {k}");
            assert_eq!(rc.canonical(), canonical, "strand-invariant, k = {k}");
        }
    }
}

/// Random candidate genomes that share seeds across species: every genome is
/// random bases around a copy of one common core segment (some genomes skip
/// it, some are shorter than a seed, one may be empty). Taxids are distinct
/// but in no particular order.
fn shared_seed_genomes(rng: &mut StdRng, count: usize) -> Vec<ReferenceGenome> {
    let core = dna_string(rng, 90);
    let mut taxids: Vec<u32> = (0..count as u32).map(|i| 10 + 3 * i).collect();
    for i in (1..taxids.len()).rev() {
        taxids.swap(i, rng.gen_range(0..=i));
    }
    taxids
        .into_iter()
        .map(|taxid| {
            let mut ascii = match rng.gen_range(0..8u32) {
                0 => Vec::new(),
                1 => dna_string(rng, 9),
                _ => random_len_dna(rng, 300),
            };
            if rng.gen_range(0..4u32) > 0 {
                ascii.extend(&core);
                ascii.extend(random_len_dna(rng, 120));
            }
            ReferenceGenome::new(
                TaxId(taxid),
                format!("g{taxid}"),
                PackedSequence::from_ascii(&ascii).unwrap(),
            )
        })
        .collect()
}

/// One `(taxid, concatenated-space position)` per seed occurrence, keyed by
/// seed: the map-based unified index the flat one replaced.
type MapIndex = BTreeMap<Kmer, Vec<(TaxId, u64)>>;

/// The map-based merge: per-seed insertion in candidate order.
fn merge_by_map(candidates: &[&ReferenceIndex], base: u64) -> (MapIndex, Vec<(TaxId, u64)>) {
    let mut merged = MapIndex::new();
    let mut offsets = Vec::new();
    let mut running = base;
    for idx in candidates {
        offsets.push((idx.taxid(), running));
        for (seed, positions) in idx.entries() {
            let out = merged.entry(seed).or_default();
            out.extend(positions.iter().map(|p| (idx.taxid(), running + *p as u64)));
        }
        running += idx.genome_len() as u64;
    }
    (merged, offsets)
}

/// The map-based voter: one ordered-map bump per location.
fn votes_by_map(index: &MapIndex, read: &Read, seed_k: usize) -> BTreeMap<TaxId, u32> {
    let mut votes: BTreeMap<TaxId, u32> = BTreeMap::new();
    for kmer in read.kmers(seed_k) {
        for (taxid, _) in index.get(&kmer.canonical()).into_iter().flatten() {
            *votes.entry(*taxid).or_insert(0) += 1;
        }
    }
    votes
}

/// Its winner: most votes, smallest taxid on a tie.
fn winner(votes: &BTreeMap<TaxId, u32>) -> Option<ReadMapHit> {
    votes
        .iter()
        .max_by_key(|(taxid, votes)| (**votes, Reverse(**taxid)))
        .map(|(taxid, votes)| ReadMapHit {
            taxid: *taxid,
            votes: *votes,
        })
}

fn assert_matches_map(
    flat: &UnifiedReferenceIndex,
    (map, offsets): &(MapIndex, Vec<(TaxId, u64)>),
    what: &str,
) {
    assert_eq!(flat.offsets(), offsets.as_slice(), "{what}: offsets");
    assert_eq!(flat.len(), map.len(), "{what}: seed count");
    for ((seed, locations), (expected_seed, expected)) in flat.entries().zip(map) {
        assert_eq!(seed, *expected_seed, "{what}: seed order");
        let got: Vec<(TaxId, u64)> = locations.iter().map(|l| (l.taxid, l.position)).collect();
        assert_eq!(&got, expected, "{what}: locations of {seed}");
        for loc in locations {
            assert_eq!(flat.offsets()[loc.candidate as usize].0, loc.taxid);
        }
    }
    let encoded: usize = map
        .iter()
        .map(|(seed, locations)| seed.encoded_bytes() + 12 * locations.len())
        .sum();
    assert_eq!(
        flat.encoded_bytes(),
        encoded as u64,
        "{what}: encoded bytes"
    );
}

#[test]
fn flat_merges_equal_the_map_based_reference_builder() {
    let mut rng = StdRng::seed_from_u64(112);
    for case in 0..CASES {
        let k = [5usize, 11, 15, 32][case % 4];
        let count = if case == 0 { 0 } else { 1 + case % 9 };
        let genomes = shared_seed_genomes(&mut rng, count);
        let indexes: Vec<ReferenceIndex> = genomes
            .iter()
            .map(|g| ReferenceIndex::build(g, k))
            .collect();
        let candidates: Vec<&ReferenceIndex> = indexes.iter().collect();
        let reference = merge_by_map(&candidates, 0);

        let whole = UnifiedReferenceIndex::merge(&indexes);
        assert_matches_map(&whole, &reference, "merge");

        // 1–8 consecutive ranges at random cuts (repeated cuts give empty
        // ranges), each merged at its base offset, then recombined.
        let parts = rng.gen_range(1..=8usize);
        let mut cuts: Vec<usize> = (1..parts).map(|_| rng.gen_range(0..=count)).collect();
        cuts.extend([0, count]);
        cuts.sort();
        let mut partials = Vec::new();
        let mut base = 17 * case as u64;
        let first_base = base;
        for w in cuts.windows(2) {
            let range = &candidates[w[0]..w[1]];
            let partial = PartialUnifiedIndex::merge_range(range, base);
            assert_matches_map(partial.index(), &merge_by_map(range, base), "merge_range");
            assert_eq!(partial.is_empty(), range.is_empty());
            base += partial.span();
            partials.push(partial);
        }
        let shifted = merge_by_map(&candidates, first_base);
        let recombined = UnifiedReferenceIndex::merge_partials(partials);
        assert_matches_map(&recombined, &shifted, "merge_partials");
        if first_base == 0 {
            assert_eq!(recombined, whole);
        }
    }
}

#[test]
fn flat_mapper_equals_the_map_based_voter() {
    let mut rng = StdRng::seed_from_u64(113);
    let (mut mapped, mut ties, mut unmapped, mut fixed) = (0, 0, 0, 0);
    for case in 0..CASES {
        let k = [7usize, 11, 15][case % 3];
        let mut genomes = shared_seed_genomes(&mut rng, 2 + case % 7);
        // A tandem repeat: a handful of distinct seeds, each at dozens of
        // locations of this one candidate, so a read drawn from it holds the
        // same seed several times and the walk meets seeds with several
        // locations at every step.
        let unit = dna_string(&mut rng, 3 + case % 5);
        let repeat: Vec<u8> = unit.iter().copied().cycle().take(240).collect();
        let repeat = PackedSequence::from_ascii(&repeat).unwrap();
        genomes.push(ReferenceGenome::new(TaxId(11), "repeat", repeat));
        let indexes: Vec<ReferenceIndex> = genomes
            .iter()
            .map(|g| ReferenceIndex::build(g, k))
            .collect();
        let candidates: Vec<&ReferenceIndex> = indexes.iter().collect();
        let flat = UnifiedReferenceIndex::merge(&indexes);
        let (map, _) = merge_by_map(&candidates, 0);

        let mut reads: Vec<PackedSequence> = Vec::new();
        for genome in genomes.iter().filter(|g| g.len() > k) {
            // A window of the genome (windows inside the shared core tie
            // every species that carries it), and the same window from the
            // reverse strand.
            let len = rng.gen_range(k..=genome.len().min(4 * k));
            let start = rng.gen_range(0..=genome.len() - len);
            let window = genome.sequence().subsequence(start, len);
            reads.push(window.reverse_complement());
            reads.push(window);
        }
        // Reads of exactly 1, 2, 15, 16, 17 and 32 seeds (none at all: the
        // reads shorter than a seed below), drawn from every genome that is
        // long enough — the repeat always is. A read of one seed is a lone
        // lookup; a walk starts at its second.
        for genome in genomes.iter().filter(|g| g.len() >= k + 32) {
            for len in [1, 2, 15, 16, 17, 32].map(|seeds| k + seeds - 1) {
                let start = rng.gen_range(0..=genome.len() - len);
                reads.push(genome.sequence().subsequence(start, len));
                fixed += 1;
            }
        }
        // Foreign reads, and reads shorter than a seed (one of them empty).
        reads.push(PackedSequence::from_ascii(&dna_string(&mut rng, 80)).unwrap());
        reads.push(PackedSequence::from_ascii(&dna_string(&mut rng, k - 1)).unwrap());
        reads.push(PackedSequence::new());

        let reads: Vec<Read> = reads
            .into_iter()
            .enumerate()
            .map(|(i, sequence)| Read::new(format!("r{i}"), sequence))
            .collect();
        // The range mapper over any two-way cut of the reads: per-candidate
        // counts add up to the thresholded winners of the whole list (its
        // vote scratch is reused from read to read, so a stale vote shows).
        let mut won = vec![0u64; indexes.len()];
        for read in &reads {
            let hit = winner(&votes_by_map(&map, read, k)).filter(|h| h.votes >= MIN_MAPPING_VOTES);
            if let Some(hit) = hit {
                won[indexes.iter().position(|i| i.taxid() == hit.taxid).unwrap()] += 1;
            }
        }
        let cut = rng.gen_range(0..=reads.len());
        let (head, tail) = reads.split_at(cut);
        let counted: Vec<u64> = std::iter::zip(
            flat.count_mapped_reads(head, k),
            flat.count_mapped_reads(tail, k),
        )
        .map(|(a, b)| a + b)
        .collect();
        assert_eq!(counted, won, "case {case} cut {cut}");
        assert_eq!(flat.count_mapped_reads(&reads, k), won, "case {case}");
        assert_eq!(flat.count_mapped_reads(&reads, k + 1), vec![0; won.len()]);

        for (i, read) in reads.into_iter().enumerate() {
            let votes = votes_by_map(&map, &read, k);
            let expected = winner(&votes);
            assert_eq!(
                flat.map_read_hit(&read, k),
                expected,
                "case {case} read {i}"
            );
            // Not the winner alone: every candidate's votes, seed for seed.
            assert_eq!(
                flat.read_votes(&read, k),
                per_candidate(&flat, &votes),
                "case {case} read {i}"
            );
            match expected {
                Some(hit) => {
                    mapped += 1;
                    ties += usize::from(votes.values().filter(|v| **v == hit.votes).count() > 1);
                }
                None => unmapped += 1,
            }
            // A seed length the index was not built with matches nothing,
            // exactly as the length-aware k-mer order made the map behave.
            for other_k in [k - 1, k + 1] {
                assert!(votes_by_map(&map, &read, other_k).is_empty());
                assert_eq!(flat.map_read_hit(&read, other_k), None);
                assert_eq!(flat.map_read(&read, other_k), None);
                assert_eq!(flat.read_votes(&read, other_k), vec![0; indexes.len()]);
            }
        }
        // The same totality for single-seed lookups, on both index types.
        let first_seed = flat.entries().next().map(|(seed, _)| seed);
        if let Some(seed) = first_seed {
            let unified = flat.locations(seed).expect("own seed resolves");
            let longer = Kmer::from_bits(seed.bits() << 2, k + 1);
            assert!(flat.locations(seed.prefix(k - 1)).is_none());
            assert!(flat.locations(longer).is_none());
            for idx in &indexes {
                assert!(idx.locations(seed.prefix(k - 1)).is_none());
                assert!(idx.locations(longer).is_none());
                let own = unified.iter().filter(|l| l.taxid == idx.taxid()).count();
                assert_eq!(idx.locations(seed).map_or(0, <[u32]>::len), own);
            }
        }
    }
    // Raw seed words alone cannot tell `A…A` of length 15 from length 14;
    // the index's seed length must.
    let poly_a = PackedSequence::from_ascii(&[b'A'; 40]).unwrap();
    let index = ReferenceIndex::build(&ReferenceGenome::new(TaxId(1), "poly-a", poly_a), 15);
    let flat = UnifiedReferenceIndex::merge(std::slice::from_ref(&index));
    let read = Read::new("a", PackedSequence::from_ascii(&[b'A'; 30]).unwrap());
    assert_eq!(flat.map_read(&read, 15), Some(TaxId(1)));
    assert_eq!(flat.map_read_hit(&read, 14), None);
    let short = Kmer::from_ascii(&[b'A'; 14]).unwrap();
    assert!(flat.locations(short).is_none() && index.locations(short).is_none());
    assert!(
        mapped > 100 && ties > 10 && unmapped > 50 && fixed > 10 * CASES,
        "{mapped} {ties} {unmapped} {fixed}"
    );
}

/// The map-based voter's votes laid out per candidate of `flat`.
fn per_candidate(flat: &UnifiedReferenceIndex, votes: &BTreeMap<TaxId, u32>) -> Vec<u32> {
    let votes = flat.offsets().iter().map(|(taxid, _)| votes.get(taxid));
    votes.map(|v| v.copied().unwrap_or(0)).collect()
}

/// `read`'s votes from the walk equal the map-based voter's, candidate for
/// candidate, and so does its best hit.
fn assert_walk_matches_map(flat: &UnifiedReferenceIndex, map: &MapIndex, read: &Read, k: usize) {
    let votes = votes_by_map(map, read, k);
    let what = String::from_utf8_lossy(&read.sequence().to_ascii()).into_owned();
    assert_eq!(
        flat.read_votes(read, k),
        per_candidate(flat, &votes),
        "k = {k}, read {what}"
    );
    assert_eq!(
        flat.map_read_hit(read, k),
        winner(&votes),
        "k = {k}, read {what}"
    );
}

/// A different base at `at`.
fn substitute(ascii: &mut [u8], at: usize) {
    ascii[at] = match ascii[at] {
        b'A' => b'C',
        b'C' => b'G',
        b'G' => b'T',
        _ => b'A',
    };
}

#[test]
fn walk_along_votes_equal_the_map_based_voter() {
    let mut rng = StdRng::seed_from_u64(114);
    let (mut substituted, mut junctions) = (0, 0);
    for case in 0..CASES {
        let k = [5usize, 11, 15, 21][case % 4];
        let mut genomes = shared_seed_genomes(&mut rng, 2 + case % 6);
        // A tandem repeat, so an anchor's entry has many locations.
        let unit = dna_string(&mut rng, 2 + case % 6);
        let repeat: Vec<u8> = unit.iter().copied().cycle().take(200).collect();
        let repeat = PackedSequence::from_ascii(&repeat).unwrap();
        genomes.insert(
            case % genomes.len(),
            ReferenceGenome::new(TaxId(11), "repeat", repeat),
        );
        let indexes: Vec<ReferenceIndex> = genomes
            .iter()
            .map(|g| ReferenceIndex::build(g, k))
            .collect();
        let candidates: Vec<&ReferenceIndex> = indexes.iter().collect();
        let flat = UnifiedReferenceIndex::merge(&indexes);
        let (map, _) = merge_by_map(&candidates, 0);

        let mut reads: Vec<PackedSequence> = Vec::new();
        for genome in genomes.iter().filter(|g| g.len() > 2 * k) {
            let len = rng.gen_range(2 * k + 1..=genome.len().min(6 * k));
            let start = rng.gen_range(0..=genome.len() - len);
            let window = genome.sequence().subsequence(start, len);
            // One substitution mid-read: the walk breaks for the seeds over
            // it and re-anchors after them.
            let mut ascii = window.to_ascii();
            substitute(&mut ascii, len / 2);
            let substitution = PackedSequence::from_ascii(&ascii).unwrap();
            reads.push(substitution.reverse_complement());
            reads.push(substitution);
            substituted += 1;
            // Both strands: the reverse one walks backwards.
            reads.push(window.reverse_complement());
            reads.push(window);
        }
        // Genome i's tail, then genome i + 1's head: the two abut in the
        // concatenated space, and the walk must not cross from one into
        // the other.
        for pair in genomes.windows(2) {
            let tail = pair[0].len().min(2 * k);
            let mut ascii = pair[0]
                .sequence()
                .subsequence(pair[0].len() - tail, tail)
                .to_ascii();
            let head = pair[1].len().min(2 * k);
            ascii.extend(pair[1].sequence().subsequence(0, head).to_ascii());
            let junction = PackedSequence::from_ascii(&ascii).unwrap();
            reads.push(junction.reverse_complement());
            reads.push(junction);
            junctions += 1;
        }
        for sequence in reads {
            assert_walk_matches_map(&flat, &map, &Read::new("r", sequence), k);
        }
    }
    assert!(
        substituted > 4 * CASES && junctions > 3 * CASES,
        "{substituted} {junctions}"
    );
}

#[test]
fn walk_stays_inside_its_candidate_on_tiny_genomes() {
    // One- and two-base genomes abut in the concatenated space, so at
    // k = 1 a walk from `C` one step on lands on `A`'s seed: the read `CA`
    // has one vote for each genome, not two for the first.
    let genome = |taxid: u32, ascii: &str| {
        let sequence = PackedSequence::from_ascii(ascii.as_bytes()).unwrap();
        ReferenceGenome::new(TaxId(taxid), ascii, sequence)
    };
    let index = |genomes: &[ReferenceGenome], k: usize| -> Vec<ReferenceIndex> {
        genomes
            .iter()
            .map(|g| ReferenceIndex::build(g, k))
            .collect()
    };
    let ca = Read::new("ca", PackedSequence::from_ascii(b"CA").unwrap());
    let flat = UnifiedReferenceIndex::merge(&index(&[genome(1, "C"), genome(2, "A")], 1));
    assert_eq!(flat.read_votes(&ca, 1), vec![1, 1]);

    // Every ordered pair and triple of tiny genomes, at k = 1 and 2,
    // against every read of one to four bases.
    let tiny = ["A", "C", "G", "T", "AC", "CA", "GT", "TG", "AA", "CC", "AT"];
    let mut reads: Vec<Read> = Vec::new();
    for len in 1..=4u32 {
        for code in 0..4usize.pow(len) {
            let ascii: Vec<u8> = (0..len).map(|i| b"ACGT"[(code >> (2 * i)) & 3]).collect();
            reads.push(Read::new("r", PackedSequence::from_ascii(&ascii).unwrap()));
        }
    }
    let mut rng = StdRng::seed_from_u64(116);
    for k in [1usize, 2] {
        for (i, a) in tiny.iter().enumerate() {
            for (j, b) in tiny.iter().enumerate() {
                let mut genomes = vec![genome(10 + i as u32, a), genome(30 + j as u32, b)];
                if rng.gen_range(0..2u32) == 0 {
                    let c = tiny[rng.gen_range(0..tiny.len())];
                    genomes.push(genome(50, c));
                }
                let indexes = index(&genomes, k);
                let candidates: Vec<&ReferenceIndex> = indexes.iter().collect();
                let flat = UnifiedReferenceIndex::merge(&indexes);
                let (map, _) = merge_by_map(&candidates, 0);
                for read in &reads {
                    assert_walk_matches_map(&flat, &map, read, k);
                }
            }
        }
    }
}

#[test]
fn linear_min_merge_equals_the_map_based_merge_at_any_width() {
    // Every genome carries one common core, so its seeds sit in every
    // stream at once and only the tie order decides their location order.
    let mut rng = StdRng::seed_from_u64(115);
    for count in [1usize, 2, 8, 32] {
        for k in [7usize, 15] {
            let core = dna_string(&mut rng, 60);
            let mut taxids: Vec<u32> = (0..count as u32).map(|i| 100 + 7 * i).collect();
            for i in (1..taxids.len()).rev() {
                taxids.swap(i, rng.gen_range(0..=i));
            }
            let genomes: Vec<ReferenceGenome> = taxids
                .into_iter()
                .map(|taxid| {
                    let mut ascii = random_len_dna(&mut rng, 200);
                    ascii.extend(&core);
                    ascii.extend(random_len_dna(&mut rng, 100));
                    let sequence = PackedSequence::from_ascii(&ascii).unwrap();
                    ReferenceGenome::new(TaxId(taxid), format!("g{taxid}"), sequence)
                })
                .collect();
            let indexes: Vec<ReferenceIndex> = genomes
                .iter()
                .map(|g| ReferenceIndex::build(g, k))
                .collect();
            let candidates: Vec<&ReferenceIndex> = indexes.iter().collect();
            let flat = UnifiedReferenceIndex::merge(&indexes);
            let what = format!("{count} streams, k = {k}");
            assert_matches_map(&flat, &merge_by_map(&candidates, 0), &what);
            let shared = flat.entries().filter(|(_, locations)| {
                locations
                    .iter()
                    .any(|l| l.candidate != locations[0].candidate)
            });
            assert_eq!(
                shared.count() > 0,
                count > 1,
                "{what}: fixture shares seeds"
            );
        }
    }
}

/// Sorted `(k-mer, sorted taxa)` entries, as the ordered-map builds below
/// produce them.
type MapTable = Vec<(Kmer, Vec<TaxId>)>;

/// The ordered-map database build the sort-built one replaced: a `BTreeMap`
/// insert plus an `O(t)` `contains` scan per occurrence of a k-mer `keep`
/// selects, over the forward extractor's k-mers made canonical one by one
/// (no rolling canonical words, no payload words).
fn database_by_map(
    references: &ReferenceCollection,
    k: usize,
    keep: impl Fn(Kmer) -> bool,
) -> MapTable {
    let mut map: BTreeMap<Kmer, Vec<TaxId>> = BTreeMap::new();
    for genome in references.genomes() {
        for kmer in KmerExtractor::new(genome.sequence(), k).map(|kmer| kmer.canonical()) {
            if keep(kmer) {
                let taxa = map.entry(kmer).or_default();
                if !taxa.contains(&genome.taxid()) {
                    taxa.push(genome.taxid());
                }
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

/// The ordered-map sketch build the sort-built one replaced: per k size, a
/// `BTreeMap` insert plus a `contains` scan per hash-selected occurrence,
/// each taxon's sketch size counted as its associations are inserted.
fn sketch_by_map(
    references: &ReferenceCollection,
    config: SketchConfig,
) -> (Vec<(usize, MapTable)>, BTreeMap<TaxId, usize>) {
    let threshold = (config.fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    let mut tables = Vec::new();
    let mut sizes: BTreeMap<TaxId, usize> = BTreeMap::new();
    for k in config.k_sizes() {
        let mut map: BTreeMap<Kmer, Vec<TaxId>> = BTreeMap::new();
        for genome in references.genomes() {
            if genome.len() < k {
                continue;
            }
            for kmer in KmerExtractor::new(genome.sequence(), k).map(|kmer| kmer.canonical()) {
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

/// A sketch table's entries as owned `(k-mer, taxa)` pairs.
fn owned_entries(table: &SketchTable) -> MapTable {
    table.entries().map(|e| (e.kmer, e.taxa.to_vec())).collect()
}

/// Genomes for the builder properties: [`shared_seed_genomes`] (taxa sharing
/// k-mers, genomes shorter than a seed, an empty one), a tandem repeat (one
/// genome holding the same k-mers many times) and a second genome under an
/// existing taxid (the same association from two genomes).
fn builder_collection(rng: &mut StdRng, count: usize) -> ReferenceCollection {
    let mut genomes = shared_seed_genomes(rng, count);
    let unit = dna_string(rng, 5);
    let repeat: Vec<u8> = unit.iter().copied().cycle().take(150).collect();
    genomes.push(ReferenceGenome::new(
        TaxId(7),
        "repeat",
        PackedSequence::from_ascii(&repeat).unwrap(),
    ));
    if let Some(first) = genomes.first().cloned() {
        let mut twin = first.sequence().to_ascii();
        twin.extend(dna_string(rng, 40));
        genomes.push(ReferenceGenome::new(
            first.taxid(),
            "twin",
            PackedSequence::from_ascii(&twin).unwrap(),
        ));
    }
    ReferenceCollection::new(genomes, Taxonomy::new())
}

#[test]
fn sort_built_database_equals_the_ordered_map_reference() {
    let mut rng = StdRng::seed_from_u64(115);
    let mut shared = 0;
    for case in 0..CASES / 4 {
        let references = builder_collection(&mut rng, 1 + case % 8);
        for k in [1usize, 2, 15, 21, 31, 32, 33, 45, 60] {
            let db = SortedKmerDatabase::build(&references, k);
            let expected = database_by_map(&references, k, |_| true);
            let keys: Vec<Kmer> = expected.iter().map(|(kmer, _)| *kmer).collect();
            assert_eq!(db.kmer_slice(), keys.as_slice(), "case {case}, k = {k}");
            assert_eq!(db.k(), k);
            // The column is exactly its length: no growth slack is charged
            // to the resident accounting. The directory has 2^⌊log₂ n⌋
            // buckets (capped at the width of the largest k-mer's top 64
            // payload bits) plus a sentinel, 4 bytes each.
            let buckets = expected.last().map_or(0, |(max, _)| {
                let width = 64 - ((max.word::<u128>() >> 64) as u64).leading_zeros();
                (1usize << expected.len().ilog2().min(width)) + 1
            });
            let heap = 16 * expected.len() + 4 * buckets;
            assert_eq!(
                db.storage().heap_bytes(),
                heap as u64,
                "case {case}, k = {k}"
            );

            // The associations: a sketch table that selects every k-mer,
            // keyed by the database's column.
            let table = SketchTable::build_selected(&references, k, |_| true);
            assert_eq!(owned_entries(&table), expected, "case {case}, k = {k}");
            assert_eq!(table.kmer_slice(), db.kmer_slice());
            let associations: usize = expected.iter().map(|(_, taxa)| taxa.len()).sum();
            assert_eq!(table.associations().len(), associations);
            shared += expected.iter().filter(|(_, taxa)| taxa.len() > 1).count();

            // Any selection: the same build restricted to the kept k-mers.
            let keep = |kmer: Kmer| kmer.bits().is_multiple_of(3);
            let selected = SketchTable::build_selected(&references, k, keep);
            assert_eq!(
                owned_entries(&selected),
                database_by_map(&references, k, keep),
                "case {case}, k = {k}, selected"
            );
        }
    }
    assert!(shared > 100, "{shared} shared k-mers");
}

#[test]
fn sort_built_sketch_equals_the_ordered_map_reference() {
    let mut rng = StdRng::seed_from_u64(116);
    let shape = |k_max, k_min, k_step, fraction| SketchConfig {
        k_max,
        k_min,
        k_step,
        fraction,
    };
    let configs = [
        SketchConfig::small(),
        SketchConfig::default(),
        // Zero step, k_min above k_max, nothing selected, everything selected.
        shape(31, 21, 0, 0.2),
        shape(21, 31, 5, 0.2),
        shape(31, 21, 5, 0.0),
        shape(31, 21, 5, 1.0),
        // Across the word widths, and down to one base.
        shape(33, 31, 1, 0.3),
        shape(4, 1, 1, 0.5),
    ];
    let mut nonempty = 0;
    for case in 0..CASES / 4 {
        let collections = [
            builder_collection(&mut rng, 2 + case),
            ReferenceCollection::synthetic(4, 300, case as u64),
        ];
        for references in &collections {
            for config in configs {
                let what = format!("case {case}, {config:?}");
                let db = SketchDatabase::build(references, config);
                let (tables, sizes) = sketch_by_map(references, config);
                assert_eq!(db.config(), Some(config));
                assert_eq!(db.k_sizes(), config.k_sizes(), "{what}");
                let mut flat_bytes = 0;
                for (k, expected) in &tables {
                    let table = db.table(*k).expect("one table per k size");
                    assert_eq!(owned_entries(table), *expected, "{what}, k = {k}");
                    flat_bytes += expected
                        .iter()
                        .map(|(kmer, taxa)| (kmer.encoded_bytes() + 4 * taxa.len()) as u64)
                        .sum::<u64>();
                }
                assert_eq!(db.flat_table_bytes(), flat_bytes, "{what}");
                let associations: usize = sizes.values().sum();
                assert_eq!(db.total_associations(), associations, "{what}");
                let kmers: usize = tables.iter().map(|(_, table)| table.len()).sum();
                assert_eq!(db.total_kmers(), kmers, "{what}");
                assert_eq!(db.is_empty(), kmers == 0, "{what}");
                assert_eq!(db.taxa(), sizes.keys().copied().collect::<Vec<_>>());
                for genome in references.genomes() {
                    let taxid = genome.taxid();
                    let expected = sizes.get(&taxid).copied().unwrap_or(0);
                    let size = db.sizes().sketch_size_of(taxid);
                    assert_eq!(size, expected, "{what}, {taxid}");
                }
                nonempty += usize::from(kmers > 0);
            }
        }
    }
    assert!(nonempty > 100, "{nonempty} nonempty sketches");
}
