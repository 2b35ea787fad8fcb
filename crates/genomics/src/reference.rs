//! Reference genomes and reference collections.
//!
//! Metagenomic databases are built from large collections of reference genomes
//! of known species (the paper uses 155,442 genomes for 52,961 microbial
//! species drawn from NCBI). This module provides the [`ReferenceGenome`] and
//! [`ReferenceCollection`] types plus a deterministic synthetic generator used
//! throughout the workspace when real genome collections are unavailable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dna::{Base, PackedSequence};
use crate::taxonomy::{Rank, TaxId, Taxonomy};

/// A single reference genome with its taxonomic label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceGenome {
    taxid: TaxId,
    name: String,
    sequence: PackedSequence,
}

impl ReferenceGenome {
    /// Creates a reference genome.
    pub fn new(taxid: TaxId, name: impl Into<String>, sequence: PackedSequence) -> Self {
        ReferenceGenome {
            taxid,
            name: name.into(),
            sequence,
        }
    }

    /// The taxon this genome belongs to.
    pub fn taxid(&self) -> TaxId {
        self.taxid
    }

    /// Human-readable genome name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The genome sequence.
    pub fn sequence(&self) -> &PackedSequence {
        &self.sequence
    }

    /// Genome length in bases.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Returns `true` if the genome has zero length.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// A collection of reference genomes together with their taxonomy.
///
/// This is the input to database construction for every tool in the workspace
/// (the R-Qry hash-table database, the S-Qry sorted k-mer database, sketch
/// databases, and per-species mapping indexes).
#[derive(Debug, Clone)]
pub struct ReferenceCollection {
    genomes: Vec<ReferenceGenome>,
    taxonomy: Taxonomy,
}

impl ReferenceCollection {
    /// Creates a collection from genomes and their taxonomy.
    pub fn new(genomes: Vec<ReferenceGenome>, taxonomy: Taxonomy) -> Self {
        ReferenceCollection { genomes, taxonomy }
    }

    /// The genomes in the collection.
    pub fn genomes(&self) -> &[ReferenceGenome] {
        &self.genomes
    }

    /// The taxonomy the genomes are labelled against.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Number of genomes.
    pub fn len(&self) -> usize {
        self.genomes.len()
    }

    /// Returns `true` if the collection has no genomes.
    pub fn is_empty(&self) -> bool {
        self.genomes.is_empty()
    }

    /// All distinct species-level taxids present in the collection, sorted.
    pub fn species(&self) -> Vec<TaxId> {
        let mut ids: Vec<TaxId> = self.genomes.iter().map(|g| g.taxid).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Total bases across all genomes.
    pub fn total_bases(&self) -> usize {
        self.genomes.iter().map(ReferenceGenome::len).sum()
    }

    /// Heap bytes of the genomes' packed sequences, charged on capacity
    /// (names and the taxonomy are not counted).
    pub fn sequence_bytes(&self) -> u64 {
        self.genomes.iter().map(|g| g.sequence.heap_bytes()).sum()
    }

    /// Returns the genome for a taxid, if present.
    pub fn genome_for(&self, taxid: TaxId) -> Option<&ReferenceGenome> {
        self.genomes.iter().find(|g| g.taxid == taxid)
    }

    /// Returns a reduced collection keeping only every `stride`-th genome.
    ///
    /// This models the *sampling* techniques some tools use to shrink their
    /// databases at the cost of accuracy (§1 and §3.2 of the paper): the
    /// performance-optimized baseline is built from a poorer genome collection
    /// than the accuracy-optimized one.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn subsample(&self, stride: usize) -> ReferenceCollection {
        assert!(stride > 0, "stride must be positive");
        let genomes = self
            .genomes
            .iter()
            .enumerate()
            .filter(|(i, _)| i % stride == 0)
            .map(|(_, g)| g.clone())
            .collect();
        ReferenceCollection {
            genomes,
            taxonomy: self.taxonomy.clone(),
        }
    }

    /// Generates a deterministic synthetic reference collection.
    ///
    /// `species_count` species are created under a synthetic taxonomy (grouped
    /// into genera of 8); each species gets one genome of `genome_len` bases.
    /// Genomes within a genus share a common ancestral backbone with per-species
    /// mutations so that related species share k-mers — this is what makes LCA
    /// classification and sketch-based identification behave realistically.
    pub fn synthetic(species_count: usize, genome_len: usize, seed: u64) -> ReferenceCollection {
        let species_per_genus = 8;
        let genera = species_count.div_ceil(species_per_genus);
        let taxonomy = Taxonomy::synthetic(genera, species_per_genus);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genomes = Vec::with_capacity(species_count);

        let species_ids = taxonomy.ids_at_rank(Rank::Species);
        let mut created = 0;
        for g in 0..genera {
            // Ancestral backbone for this genus.
            let backbone: Vec<Base> = (0..genome_len)
                .map(|_| Base::from_code(rng.gen_range(0..4)))
                .collect();
            for s in 0..species_per_genus {
                if created >= species_count {
                    break;
                }
                let taxid = TaxId(1000 * (g as u32 + 1) + s as u32 + 1);
                debug_assert!(species_ids.contains(&taxid));
                // Mutate ~5% of positions per species: species in a genus
                // still share most of their sequence (genus-level k-mers for
                // small k), while long k-mers (k ≥ 30) are largely
                // species-specific — mirroring why large k-mers give the
                // S-Qry flow its specificity.
                let mut seq = PackedSequence::with_capacity(genome_len);
                for &b in &backbone {
                    if rng.gen_bool(0.05) {
                        seq.push(Base::from_code(rng.gen_range(0..4)));
                    } else {
                        seq.push(b);
                    }
                }
                genomes.push(ReferenceGenome::new(
                    taxid,
                    format!("synthetic genome g{g} s{s}"),
                    seq,
                ));
                created += 1;
            }
        }
        ReferenceCollection { genomes, taxonomy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_collection_shape() {
        let rc = ReferenceCollection::synthetic(10, 500, 7);
        assert_eq!(rc.len(), 10);
        assert_eq!(rc.species().len(), 10);
        assert_eq!(rc.total_bases(), 10 * 500);
        for g in rc.genomes() {
            assert_eq!(g.len(), 500);
            assert!(rc.taxonomy().contains(g.taxid()));
        }
    }

    #[test]
    fn synthetic_collection_is_deterministic() {
        let a = ReferenceCollection::synthetic(6, 300, 123);
        let b = ReferenceCollection::synthetic(6, 300, 123);
        for (ga, gb) in a.genomes().iter().zip(b.genomes()) {
            assert_eq!(ga.sequence(), gb.sequence());
        }
        let c = ReferenceCollection::synthetic(6, 300, 124);
        assert_ne!(a.genomes()[0].sequence(), c.genomes()[0].sequence());
    }

    #[test]
    fn same_genus_species_share_sequence_content() {
        let rc = ReferenceCollection::synthetic(8, 1000, 5);
        let a = rc.genomes()[0].sequence();
        let b = rc.genomes()[1].sequence();
        let matches = a.iter().zip(b.iter()).filter(|(x, y)| x == y).count();
        // ~90% of positions should match (two independent 5% mutation passes).
        assert!(
            matches > 820,
            "expected shared backbone, got {matches}/1000"
        );
    }

    #[test]
    fn subsample_reduces_collection() {
        let rc = ReferenceCollection::synthetic(12, 200, 1);
        let sub = rc.subsample(3);
        assert_eq!(sub.len(), 4);
        assert!(sub.total_bases() < rc.total_bases());
    }

    #[test]
    fn genome_lookup_by_taxid() {
        let rc = ReferenceCollection::synthetic(4, 100, 2);
        let first = rc.genomes()[0].taxid();
        assert!(rc.genome_for(first).is_some());
        assert!(rc.genome_for(TaxId(999_999)).is_none());
    }
}
