//! CMash-style ternary search tree over variable-sized sketch k-mers.
//!
//! The accuracy-optimized baseline retrieves taxIDs by traversing a ternary
//! search tree that encodes variable-sized k-mers space-efficiently
//! (Fig. 7(b)): looking up a k_max-mer also visits the nodes of all of its
//! prefixes, so one traversal retrieves matches at every k. The price is up
//! to k_max pointer-chasing operations per lookup on a structure that may not
//! fit in an SSD's internal DRAM — the reason MegIS replaces it with K-mer
//! Sketch Streaming inside the SSD (§4.3.2).

use std::cell::Cell;

use megis_genomics::dna::Base;
use megis_genomics::kmer::Kmer;
use megis_genomics::sketch::SketchDatabase;
use megis_genomics::taxonomy::TaxId;

/// Size of one tree node in bytes for the size model: a split character,
/// three child pointers, and an optional taxID-list pointer.
const NODE_BYTES: u64 = 1 + 3 * 8 + 8;

#[derive(Debug, Clone, Default)]
struct Node {
    /// The base this node splits on.
    split: Option<Base>,
    /// Children: lower / equal / higher.
    lo: Option<usize>,
    eq: Option<usize>,
    hi: Option<usize>,
    /// Taxa recorded at the end of a sketch k-mer of some size.
    taxa: Vec<TaxId>,
}

/// A ternary search tree of sketch k-mers (the baseline taxID-retrieval
/// structure).
#[derive(Debug, Clone, Default)]
pub struct TernarySketchTree {
    nodes: Vec<Node>,
    root: Option<usize>,
    kmers: usize,
    associations: usize,
    pointer_chases: Cell<u64>,
}

impl TernarySketchTree {
    /// Builds the tree from the logical sketch content.
    pub fn build(sketches: &SketchDatabase) -> TernarySketchTree {
        let mut tree = TernarySketchTree::default();
        for k in sketches.k_sizes() {
            if let Some(table) = sketches.table(k) {
                for entry in table.entries() {
                    tree.insert(entry.kmer, entry.taxa);
                }
            }
        }
        tree
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of sketch k-mers inserted.
    pub fn kmer_count(&self) -> usize {
        self.kmers
    }

    /// Returns `true` if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.kmers == 0
    }

    /// Estimated in-memory size of the tree (Fig. 7 size comparison): node
    /// storage plus 4 bytes per taxID association.
    pub fn size_bytes(&self) -> u64 {
        self.nodes.len() as u64 * NODE_BYTES + self.associations as u64 * 4
    }

    /// Total pointer-chasing operations performed by lookups so far (a proxy
    /// for the irregular memory traffic that makes this structure a poor fit
    /// for in-storage processing).
    pub fn pointer_chases(&self) -> u64 {
        self.pointer_chases.get()
    }

    fn insert(&mut self, kmer: Kmer, taxa: &[TaxId]) {
        let bases: Vec<Base> = (0..kmer.k()).map(|i| kmer.base(i)).collect();
        let mut node = self.ensure_root(bases[0]);
        let mut depth = 0;
        loop {
            let split = self.nodes[node].split.expect("interior nodes have splits");
            match bases[depth].cmp(&split) {
                std::cmp::Ordering::Less => {
                    node = self.child_or_new(node, ChildKind::Lo, bases[depth]);
                }
                std::cmp::Ordering::Greater => {
                    node = self.child_or_new(node, ChildKind::Hi, bases[depth]);
                }
                std::cmp::Ordering::Equal => {
                    depth += 1;
                    if depth == bases.len() {
                        for t in taxa {
                            if !self.nodes[node].taxa.contains(t) {
                                self.nodes[node].taxa.push(*t);
                                self.associations += 1;
                            }
                        }
                        self.kmers += 1;
                        return;
                    }
                    node = self.child_or_new(node, ChildKind::Eq, bases[depth]);
                }
            }
        }
    }

    fn ensure_root(&mut self, split: Base) -> usize {
        match self.root {
            Some(r) => r,
            None => {
                let idx = self.new_node(split);
                self.root = Some(idx);
                idx
            }
        }
    }

    fn new_node(&mut self, split: Base) -> usize {
        self.nodes.push(Node {
            split: Some(split),
            ..Node::default()
        });
        self.nodes.len() - 1
    }

    fn child_or_new(&mut self, node: usize, kind: ChildKind, split: Base) -> usize {
        let existing = match kind {
            ChildKind::Lo => self.nodes[node].lo,
            ChildKind::Eq => self.nodes[node].eq,
            ChildKind::Hi => self.nodes[node].hi,
        };
        match existing {
            Some(c) => c,
            None => {
                let idx = self.new_node(split);
                match kind {
                    ChildKind::Lo => self.nodes[node].lo = Some(idx),
                    ChildKind::Eq => self.nodes[node].eq = Some(idx),
                    ChildKind::Hi => self.nodes[node].hi = Some(idx),
                }
                idx
            }
        }
    }

    /// Looks up a query k-mer, returning the union of taxa recorded on the
    /// query itself and on every prefix of it that is a sketch k-mer.
    /// One traversal serves all k sizes, at the cost of pointer chasing.
    pub fn lookup_with_prefixes(&self, query: Kmer) -> Vec<TaxId> {
        let mut taxa = Vec::new();
        let Some(mut node) = self.root else {
            return taxa;
        };
        let bases: Vec<Base> = (0..query.k()).map(|i| query.base(i)).collect();
        let mut depth = 0;
        loop {
            self.pointer_chases.set(self.pointer_chases.get() + 1);
            let n = &self.nodes[node];
            let split = n.split.expect("interior nodes have splits");
            match bases[depth].cmp(&split) {
                std::cmp::Ordering::Less => match n.lo {
                    Some(c) => node = c,
                    None => break,
                },
                std::cmp::Ordering::Greater => match n.hi {
                    Some(c) => node = c,
                    None => break,
                },
                std::cmp::Ordering::Equal => {
                    // Reaching the end of a stored k-mer (any k) collects taxa.
                    taxa.extend_from_slice(&n.taxa);
                    depth += 1;
                    if depth == bases.len() {
                        break;
                    }
                    match n.eq {
                        Some(c) => node = c,
                        None => break,
                    }
                }
            }
        }
        taxa.sort();
        taxa.dedup();
        taxa
    }
}

#[derive(Debug, Clone, Copy)]
enum ChildKind {
    Lo,
    Eq,
    Hi,
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::reference::ReferenceCollection;
    use megis_genomics::sketch::SketchConfig;

    fn sketches() -> SketchDatabase {
        let refs = ReferenceCollection::synthetic(6, 600, 11);
        SketchDatabase::build(&refs, SketchConfig::small())
    }

    #[test]
    fn tree_contains_all_sketch_kmers() {
        let db = sketches();
        let tree = TernarySketchTree::build(&db);
        assert_eq!(tree.kmer_count(), db.total_kmers());
        assert!(!tree.is_empty());
    }

    #[test]
    fn lookup_matches_flat_table_lookup() {
        let db = sketches();
        let tree = TernarySketchTree::build(&db);
        let kmax = db.k_max().unwrap();
        for kmer in db.table(kmax).unwrap().kmers().take(50) {
            assert_eq!(
                tree.lookup_with_prefixes(kmer),
                db.lookup_with_prefixes(kmer),
                "tree and flat lookups disagree for {kmer}"
            );
        }
    }

    #[test]
    fn missing_kmer_returns_empty_or_prefix_matches_only() {
        let db = sketches();
        let tree = TernarySketchTree::build(&db);
        let query = Kmer::from_ascii(&vec![b'A'; db.k_max().unwrap()]).unwrap();
        assert_eq!(
            tree.lookup_with_prefixes(query),
            db.lookup_with_prefixes(query)
        );
    }

    #[test]
    fn lookups_accumulate_pointer_chases() {
        let db = sketches();
        let tree = TernarySketchTree::build(&db);
        let kmax = db.k_max().unwrap();
        let before = tree.pointer_chases();
        for kmer in db.table(kmax).unwrap().kmers().take(10) {
            tree.lookup_with_prefixes(kmer);
        }
        let chased = tree.pointer_chases() - before;
        assert!(
            chased as usize >= 10 * kmax,
            "each lookup chases ≥ k pointers"
        );
    }

    #[test]
    fn tree_shares_prefixes_between_kmers() {
        // Prefix sharing is what makes the ternary tree compact at paper
        // scale (Fig. 7): the node count must be well below the worst case of
        // k nodes per inserted k-mer.
        let db = sketches();
        let tree = TernarySketchTree::build(&db);
        let worst_case: usize = db
            .k_sizes()
            .iter()
            .map(|k| k * db.table(*k).unwrap().len())
            .sum();
        assert!(tree.node_count() < worst_case);
        assert!(tree.size_bytes() > 0);
    }

    #[test]
    fn empty_tree_lookup() {
        let tree = TernarySketchTree::default();
        let q = Kmer::from_ascii(b"ACGTACGTACGTACGTACGTA").unwrap();
        assert!(tree.lookup_with_prefixes(q).is_empty());
        assert_eq!(tree.size_bytes(), 0);
    }
}
