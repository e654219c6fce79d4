//! Flat parameter vectors.
//!
//! Federated learning moves *model deltas* around: a client computes
//! `delta = trained_params - initial_params`, the delta is (optionally masked
//! and) uploaded, the server aggregates deltas and feeds them to a server
//! optimizer.  [`ParamVec`] is that flat vector representation, with the
//! arithmetic and byte (de)serialization the rest of the stack needs.

/// A flat `f32` parameter (or delta) vector.
///
/// # Example
///
/// ```
/// use papaya_nn::params::ParamVec;
/// let a = ParamVec::from_vec(vec![1.0, 2.0, 3.0]);
/// let b = ParamVec::from_vec(vec![0.5, 1.0, 1.5]);
/// let delta = a.sub(&b);
/// assert_eq!(delta.as_slice(), &[0.5, 1.0, 1.5]);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ParamVec {
    data: Vec<f32>,
}

impl ParamVec {
    /// Creates a zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        ParamVec {
            data: vec![0.0; len],
        }
    }

    /// Wraps an existing vector.
    pub fn from_vec(data: Vec<f32>) -> Self {
        ParamVec { data }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the scalars.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the scalars.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn sub(&self, other: &ParamVec) -> ParamVec {
        assert_eq!(self.len(), other.len(), "length mismatch");
        ParamVec {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &ParamVec) -> ParamVec {
        assert_eq!(self.len(), other.len(), "length mismatch");
        ParamVec {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// In-place `self += weight * other`.
    pub fn add_scaled(&mut self, other: &ParamVec, weight: f32) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += weight * b;
        }
    }

    /// Multiplies every element by `factor` in place.
    pub fn scale(&mut self, factor: f32) {
        for a in self.data.iter_mut() {
            *a *= factor;
        }
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Serializes to little-endian `f32` bytes (the client's serialized model
    /// update; its length is the paper's "model size" in bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * 4);
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes from little-endian `f32` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the byte length is not a multiple of four.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len().is_multiple_of(4),
            "byte length must be a multiple of 4"
        );
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        ParamVec { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        let a = ParamVec::from_vec(vec![1.0, 2.0, 3.0]);
        let b = ParamVec::from_vec(vec![1.0, 1.0, 1.0]);
        assert_eq!(a.sub(&b).as_slice(), &[0.0, 1.0, 2.0]);
        assert_eq!(a.add(&b).as_slice(), &[2.0, 3.0, 4.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.as_slice(), &[1.5, 2.5, 3.5]);
        c.scale(2.0);
        assert_eq!(c.as_slice(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn norm_matches_manual() {
        let a = ParamVec::from_vec(vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn byte_roundtrip() {
        let a = ParamVec::from_vec(vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE]);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), 16);
        assert_eq!(ParamVec::from_bytes(&bytes), a);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = ParamVec::zeros(3);
        let b = ParamVec::zeros(4);
        let _ = a.sub(&b);
    }
}
