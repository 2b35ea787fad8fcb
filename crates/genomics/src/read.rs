//! Sequencing reads and read sets.
//!
//! A metagenomic *sample read set* is the collection of basecalled reads
//! produced by sequencing one sample (§2.1 of the paper). The species of
//! origin of each read is unknown to the analysis tools; for synthetic samples
//! we additionally keep the ground-truth taxon so accuracy can be scored.

use std::fmt;

use crate::dna::PackedSequence;
use crate::kmer::{kmers_per_read, Kmer, KmerExtractor};
use crate::taxonomy::TaxId;

/// A single sequencing read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    id: String,
    sequence: PackedSequence,
    truth: Option<TaxId>,
}

impl Read {
    /// Creates a read with an identifier and sequence.
    pub fn new(id: impl Into<String>, sequence: PackedSequence) -> Read {
        Read {
            id: id.into(),
            sequence,
            truth: None,
        }
    }

    /// Creates a read that carries its ground-truth taxon (synthetic data).
    pub fn with_truth(id: impl Into<String>, sequence: PackedSequence, truth: TaxId) -> Read {
        Read {
            id: id.into(),
            sequence,
            truth: Some(truth),
        }
    }

    /// The read identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The read sequence.
    pub fn sequence(&self) -> &PackedSequence {
        &self.sequence
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Returns `true` if the read has zero length.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Ground-truth taxon for synthetic reads, if recorded.
    pub fn truth(&self) -> Option<TaxId> {
        self.truth
    }

    /// Extracts all k-mers of length `k` from this read.
    pub fn kmers(&self, k: usize) -> KmerExtractor<'_> {
        KmerExtractor::new(&self.sequence, k)
    }
}

impl fmt::Display for Read {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ">{}\n{}", self.id, self.sequence)
    }
}

/// An ordered collection of reads (one sequenced sample).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    reads: Vec<Read>,
}

impl ReadSet {
    /// Creates an empty read set.
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    /// Creates a read set from a vector of reads.
    pub fn from_reads(reads: Vec<Read>) -> ReadSet {
        ReadSet { reads }
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// Returns `true` if the set contains no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Appends a read.
    pub fn push(&mut self, read: Read) {
        self.reads.push(read);
    }

    /// The reads as a slice.
    pub fn reads(&self) -> &[Read] {
        &self.reads
    }

    /// Iterates over the reads.
    pub fn iter(&self) -> std::slice::Iter<'_, Read> {
        self.reads.iter()
    }

    /// Total number of bases across all reads.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(Read::len).sum()
    }

    /// Total number of k-mers all reads yield for the given `k`: the sum of
    /// [`kmers_per_read`] (zero for `k == 0`). Step 1 sizes its buffers by it.
    pub fn total_kmers(&self, k: usize) -> usize {
        self.reads.iter().map(|r| kmers_per_read(r.len(), k)).sum()
    }

    /// Extracts every k-mer from every read (unsorted, duplicates preserved).
    pub fn extract_kmers(&self, k: usize) -> Vec<Kmer> {
        let mut out = Vec::new();
        for r in &self.reads {
            out.extend(r.kmers(k));
        }
        out
    }

    /// Size of the read set in the 2-bit encoding, in bytes (sequence payload
    /// only). Used by the performance model for host-side transfer estimates.
    pub fn encoded_bytes(&self) -> usize {
        self.reads.iter().map(|r| (2 * r.len()).div_ceil(8)).sum()
    }

    /// Parses a FASTA-formatted byte buffer into a read set.
    ///
    /// Ambiguous bases (anything outside `ACGTacgt`) terminate the current
    /// record's usable sequence, mirroring how k-mer based tools skip k-mers
    /// spanning `N`s. Header lines start with `>`.
    ///
    /// # Errors
    ///
    /// Returns an error message if the buffer does not start with a header.
    pub fn from_fasta(buf: &[u8]) -> Result<ReadSet, String> {
        let text = String::from_utf8_lossy(buf);
        let mut reads = Vec::new();
        let mut current_id: Option<String> = None;
        let mut current_seq = PackedSequence::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('>') {
                if let Some(id) = current_id.take() {
                    reads.push(Read::new(id, std::mem::take(&mut current_seq)));
                }
                current_id = Some(header.to_string());
            } else {
                if current_id.is_none() {
                    return Err("FASTA data must start with a '>' header line".to_string());
                }
                for c in line.bytes() {
                    if let Some(b) = crate::dna::Base::from_ascii(c) {
                        current_seq.push(b);
                    }
                }
            }
        }
        if let Some(id) = current_id {
            reads.push(Read::new(id, current_seq));
        }
        Ok(ReadSet { reads })
    }

    /// Serializes the read set to FASTA.
    pub fn to_fasta(&self) -> String {
        let mut out = String::new();
        for r in &self.reads {
            out.push('>');
            out.push_str(r.id());
            out.push('\n');
            out.push_str(&r.sequence().to_string());
            out.push('\n');
        }
        out
    }
}

impl FromIterator<Read> for ReadSet {
    fn from_iter<I: IntoIterator<Item = Read>>(iter: I) -> ReadSet {
        ReadSet {
            reads: iter.into_iter().collect(),
        }
    }
}

impl Extend<Read> for ReadSet {
    fn extend<I: IntoIterator<Item = Read>>(&mut self, iter: I) {
        self.reads.extend(iter);
    }
}

impl<'a> IntoIterator for &'a ReadSet {
    type Item = &'a Read;
    type IntoIter = std::slice::Iter<'a, Read>;

    fn into_iter(self) -> Self::IntoIter {
        self.reads.iter()
    }
}

impl IntoIterator for ReadSet {
    type Item = Read;
    type IntoIter = std::vec::IntoIter<Read>;

    fn into_iter(self) -> Self::IntoIter {
        self.reads.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::PackedSequence;

    fn read(id: &str, seq: &str) -> Read {
        Read::new(id, PackedSequence::from_ascii(seq.as_bytes()).unwrap())
    }

    #[test]
    fn read_kmers_and_length() {
        let r = read("r1", "ACGTACGT");
        assert_eq!(r.len(), 8);
        assert_eq!(r.kmers(5).count(), 4);
        assert!(r.truth().is_none());
    }

    #[test]
    fn read_with_truth_carries_taxid() {
        let r = Read::with_truth(
            "r1",
            PackedSequence::from_ascii(b"ACGT").unwrap(),
            TaxId(42),
        );
        assert_eq!(r.truth(), Some(TaxId(42)));
    }

    #[test]
    fn readset_totals() {
        let rs = ReadSet::from_reads(vec![read("a", "ACGTACGT"), read("b", "ACGT")]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.total_bases(), 12);
        assert_eq!(rs.extract_kmers(4).len(), 5 + 1);
        assert_eq!(rs.encoded_bytes(), 2 + 1);
    }

    #[test]
    fn total_kmers_is_the_extractors_own_count() {
        use crate::kmer::CanonicalKmerExtractor;
        let rs = ReadSet::from_reads(vec![
            read("a", "ACGTACGT"),
            read("b", "ACGT"),
            read("c", ""),
        ]);
        // k = 0 yields nothing (and must not underflow); then k = 1, each
        // read's length, and one past it, against both extractors.
        assert_eq!(rs.total_kmers(0), 0);
        for k in [1, 4, 5, 8, 9] {
            let forward: usize = rs.iter().map(|r| r.kmers(k).count()).sum();
            let canonical: usize = rs
                .iter()
                .map(|r| CanonicalKmerExtractor::new(r.sequence(), k).count())
                .sum();
            assert_eq!(rs.total_kmers(k), forward, "k = {k}");
            assert_eq!(rs.total_kmers(k), canonical, "k = {k}");
            assert_eq!(rs.total_kmers(k), rs.extract_kmers(k).len(), "k = {k}");
        }
        assert_eq!(rs.total_kmers(9), 0);
        assert_eq!(rs.total_kmers(usize::MAX), 0);
    }

    #[test]
    fn fasta_roundtrip() {
        let rs = ReadSet::from_reads(vec![
            read("read/1", "ACGTACGTAC"),
            read("read/2", "TTTTGGGG"),
        ]);
        let fasta = rs.to_fasta();
        let parsed = ReadSet::from_fasta(fasta.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.reads()[0].sequence(), rs.reads()[0].sequence());
        assert_eq!(parsed.reads()[1].id(), "read/2");
    }

    #[test]
    fn fasta_skips_ambiguous_bases() {
        let parsed = ReadSet::from_fasta(b">r1\nACGNNNTT\n").unwrap();
        assert_eq!(parsed.reads()[0].sequence().to_string(), "ACGTT");
    }

    #[test]
    fn fasta_requires_header() {
        assert!(ReadSet::from_fasta(b"ACGT\n").is_err());
    }

    #[test]
    fn readset_collect_and_extend() {
        let mut rs: ReadSet = vec![read("a", "ACGT")].into_iter().collect();
        rs.extend(vec![read("b", "GGCC")]);
        assert_eq!(rs.len(), 2);
        let ids: Vec<&str> = rs.iter().map(Read::id).collect();
        assert_eq!(ids, vec!["a", "b"]);
    }
}
