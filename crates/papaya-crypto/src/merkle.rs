//! Append-only verifiable log backed by a Merkle tree (Appendix C.2).
//!
//! PAPAYA records every released trusted binary (the code that runs inside
//! the enclave) in a verifiable log so that clients can check an *inclusion
//! proof* for the binary they are attesting, and auditors can check
//! *consistency proofs* between snapshots to make sure the log is
//! append-only.  This module implements the RFC 6962 (Certificate
//! Transparency) Merkle-tree construction: leaf hashes are
//! `SHA-256(0x00 || leaf)` and interior nodes are
//! `SHA-256(0x01 || left || right)`.

use crate::sha256::Sha256;

/// A Merkle tree hash (root, node, or leaf hash).
pub type Hash = [u8; 32];

/// An append-only Merkle log of binary records.
///
/// # Example
///
/// ```
/// use papaya_crypto::merkle::MerkleLog;
/// let mut log = MerkleLog::new();
/// log.append(b"trusted-binary-v1".to_vec());
/// log.append(b"trusted-binary-v2".to_vec());
/// let root = log.root();
/// let proof = log.inclusion_proof(1).unwrap();
/// assert!(proof.verify(&root, b"trusted-binary-v2", 1, log.len()));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MerkleLog {
    leaves: Vec<Vec<u8>>,
    leaf_hashes: Vec<Hash>,
}

/// Proof that a record is included in a log snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InclusionProof {
    /// Sibling hashes from the leaf to the root.
    pub path: Vec<Hash>,
}

/// Proof that one log snapshot is a prefix of a later snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsistencyProof {
    /// Intermediate node hashes per RFC 6962 section 2.1.2.
    pub path: Vec<Hash>,
}

fn leaf_hash(data: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// Computes the Merkle tree hash of a slice of leaf hashes (RFC 6962 MTH).
fn subtree_root(hashes: &[Hash]) -> Hash {
    match hashes.len() {
        0 => Sha256::new().finalize(),
        1 => hashes[0],
        n => {
            let split = largest_power_of_two_below(n);
            let left = subtree_root(&hashes[..split]);
            let right = subtree_root(&hashes[split..]);
            node_hash(&left, &right)
        }
    }
}

/// Largest power of two strictly less than `n` (n >= 2).
fn largest_power_of_two_below(n: usize) -> usize {
    debug_assert!(n >= 2);
    let mut k = 1usize;
    while k * 2 < n {
        k *= 2;
    }
    k
}

impl MerkleLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Returns true when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Appends a record and returns its index.
    pub fn append(&mut self, record: Vec<u8>) -> usize {
        self.leaf_hashes.push(leaf_hash(&record));
        self.leaves.push(record);
        self.leaves.len() - 1
    }

    /// Returns the record at `index`, if present.
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        self.leaves.get(index).map(|v| v.as_slice())
    }

    /// The current root hash (the "snapshot" clients and auditors compare).
    pub fn root(&self) -> Hash {
        subtree_root(&self.leaf_hashes)
    }

    /// The root hash of the first `size` records.
    ///
    /// Returns `None` if `size` exceeds the log length.
    pub fn root_at(&self, size: usize) -> Option<Hash> {
        if size > self.leaf_hashes.len() {
            return None;
        }
        Some(subtree_root(&self.leaf_hashes[..size]))
    }

    /// Builds an inclusion proof for record `index` in the current snapshot.
    pub fn inclusion_proof(&self, index: usize) -> Option<InclusionProof> {
        self.inclusion_proof_at(index, self.len())
    }

    /// Builds an inclusion proof for record `index` against the snapshot of
    /// the first `size` records.
    pub fn inclusion_proof_at(&self, index: usize, size: usize) -> Option<InclusionProof> {
        if index >= size || size > self.len() {
            return None;
        }
        let mut path = Vec::new();
        collect_inclusion_path(&self.leaf_hashes[..size], index, &mut path);
        Some(InclusionProof { path })
    }

    /// Builds a consistency proof between the snapshot of size `old_size` and
    /// the current snapshot.
    pub fn consistency_proof(&self, old_size: usize) -> Option<ConsistencyProof> {
        if old_size == 0 || old_size > self.len() {
            return None;
        }
        let mut path = Vec::new();
        collect_consistency_path(&self.leaf_hashes, old_size, true, &mut path);
        Some(ConsistencyProof { path })
    }
}

fn collect_inclusion_path(hashes: &[Hash], index: usize, out: &mut Vec<Hash>) {
    let n = hashes.len();
    if n <= 1 {
        return;
    }
    let split = largest_power_of_two_below(n);
    if index < split {
        collect_inclusion_path(&hashes[..split], index, out);
        out.push(subtree_root(&hashes[split..]));
    } else {
        collect_inclusion_path(&hashes[split..], index - split, out);
        out.push(subtree_root(&hashes[..split]));
    }
}

fn collect_consistency_path(hashes: &[Hash], old_size: usize, complete: bool, out: &mut Vec<Hash>) {
    // RFC 6962 SUBPROOF.
    let n = hashes.len();
    if old_size == n {
        if !complete {
            out.push(subtree_root(hashes));
        }
        return;
    }
    let split = largest_power_of_two_below(n);
    if old_size <= split {
        collect_consistency_path(&hashes[..split], old_size, complete, out);
        out.push(subtree_root(&hashes[split..]));
    } else {
        collect_consistency_path(&hashes[split..], old_size - split, false, out);
        out.push(subtree_root(&hashes[..split]));
    }
}

impl InclusionProof {
    /// Verifies that `record` is the `index`-th of `tree_size` records in a
    /// log whose root is `root` (RFC 9162 section 2.1.3.2).
    pub fn verify(&self, root: &Hash, record: &[u8], index: usize, tree_size: usize) -> bool {
        if index >= tree_size {
            return false;
        }
        let mut fn_ = index;
        let mut sn = tree_size - 1;
        let mut r = leaf_hash(record);
        for p in &self.path {
            if sn == 0 {
                return false;
            }
            if fn_ & 1 == 1 || fn_ == sn {
                r = node_hash(p, &r);
                if fn_ & 1 == 0 {
                    // fn == sn with fn even: skip the levels where this node
                    // has no right sibling.
                    while fn_ != 0 && fn_ & 1 == 0 {
                        fn_ >>= 1;
                        sn >>= 1;
                    }
                }
            } else {
                r = node_hash(&r, p);
            }
            fn_ >>= 1;
            sn >>= 1;
        }
        sn == 0 && &r == root
    }
}

impl ConsistencyProof {
    /// Verifies that the log with root `old_root` and `old_size` records is a
    /// prefix of the log with root `new_root` and `new_size` records
    /// (RFC 9162 section 2.1.4.2).
    pub fn verify(
        &self,
        old_root: &Hash,
        old_size: usize,
        new_root: &Hash,
        new_size: usize,
    ) -> bool {
        if old_size == 0 || old_size > new_size {
            return false;
        }
        if old_size == new_size {
            return self.path.is_empty() && old_root == new_root;
        }
        // If old_size is an exact power of two the proof omits the old root;
        // prepend it.
        let mut path: Vec<Hash> = Vec::with_capacity(self.path.len() + 1);
        if old_size.is_power_of_two() {
            path.push(*old_root);
        }
        path.extend_from_slice(&self.path);
        if path.is_empty() {
            return false;
        }

        let mut fn_ = old_size - 1;
        let mut sn = new_size - 1;
        while fn_ & 1 == 1 {
            fn_ >>= 1;
            sn >>= 1;
        }
        let mut iter = path.into_iter();
        #[expect(
            clippy::expect_used,
            reason = "the empty-path case returned early above; a missing head here is an internal invariant breach"
        )]
        let first = iter.next().expect("path is non-empty");
        let mut fr = first;
        let mut sr = first;
        for c in iter {
            if sn == 0 {
                return false;
            }
            if fn_ & 1 == 1 || fn_ == sn {
                fr = node_hash(&c, &fr);
                sr = node_hash(&c, &sr);
                if fn_ & 1 == 0 {
                    while fn_ != 0 && fn_ & 1 == 0 {
                        fn_ >>= 1;
                        sn >>= 1;
                    }
                }
            } else {
                sr = node_hash(&sr, &c);
            }
            fn_ >>= 1;
            sn >>= 1;
        }
        sn == 0 && &fr == old_root && &sr == new_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize) -> Vec<u8> {
        format!("trusted-binary-v{i}").into_bytes()
    }

    fn build(n: usize) -> MerkleLog {
        let mut log = MerkleLog::new();
        for i in 0..n {
            log.append(record(i));
        }
        log
    }

    #[test]
    fn empty_log_root_is_hash_of_empty() {
        let log = MerkleLog::new();
        assert_eq!(log.root(), crate::sha256::sha256(b""));
    }

    #[test]
    fn root_changes_on_append() {
        let mut log = MerkleLog::new();
        log.append(record(0));
        let r1 = log.root();
        log.append(record(1));
        assert_ne!(r1, log.root());
    }

    #[test]
    fn inclusion_proofs_verify_for_all_sizes() {
        for n in 1..=20usize {
            let log = build(n);
            let root = log.root();
            for i in 0..n {
                let proof = log.inclusion_proof(i).unwrap();
                assert!(
                    proof.verify(&root, &record(i), i, n),
                    "inclusion proof failed for leaf {i} of {n}"
                );
            }
        }
    }

    #[test]
    fn inclusion_proof_rejects_wrong_record() {
        let log = build(8);
        let root = log.root();
        let proof = log.inclusion_proof(3).unwrap();
        assert!(!proof.verify(&root, b"not the record", 3, 8));
    }

    #[test]
    fn inclusion_proof_rejects_wrong_index() {
        let log = build(8);
        let root = log.root();
        let proof = log.inclusion_proof(3).unwrap();
        assert!(!proof.verify(&root, &record(3), 4, 8));
    }

    #[test]
    fn inclusion_proof_rejects_wrong_root() {
        let log = build(9);
        let proof = log.inclusion_proof(2).unwrap();
        let wrong_root = [0u8; 32];
        assert!(!proof.verify(&wrong_root, &record(2), 2, 9));
    }

    #[test]
    fn inclusion_proof_out_of_range_is_none() {
        let log = build(4);
        assert!(log.inclusion_proof(4).is_none());
        assert!(log.inclusion_proof_at(1, 10).is_none());
    }

    #[test]
    fn consistency_proofs_verify_for_all_prefix_pairs() {
        let max = 16usize;
        let log = build(max);
        for old in 1..=max {
            for new in old..=max {
                let sub = build(new);
                let proof = sub.consistency_proof(old).unwrap();
                let old_root = log.root_at(old).unwrap();
                let new_root = log.root_at(new).unwrap();
                assert!(
                    proof.verify(&old_root, old, &new_root, new),
                    "consistency proof failed for {old} -> {new}"
                );
            }
        }
    }

    #[test]
    fn consistency_proof_detects_rewritten_history() {
        let log = build(8);
        let old_root = log.root_at(4).unwrap();
        // A tampered log rewrites record 2 after the snapshot was published.
        let mut tampered = MerkleLog::new();
        for i in 0..8 {
            if i == 2 {
                tampered.append(b"malicious binary".to_vec());
            } else {
                tampered.append(record(i));
            }
        }
        let proof = tampered.consistency_proof(4).unwrap();
        assert!(!proof.verify(&old_root, 4, &tampered.root(), 8));
    }

    #[test]
    fn get_returns_appended_records() {
        let log = build(3);
        assert_eq!(log.get(0), Some(record(0).as_slice()));
        assert_eq!(log.get(2), Some(record(2).as_slice()));
        assert_eq!(log.get(3), None);
    }
}
