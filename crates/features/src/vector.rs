//! Named feature vectors.

use darwin_ckpt::{CkptError, Dec, Enc};
use serde::{Deserialize, Serialize};

/// A dense feature vector with stable entry semantics.
///
/// Layout: `[avg_size, iat_1..iat_n, sd_1..sd_m]`, optionally extended with
/// size-distribution buckets (see [`crate::SizeDistribution`]) when used as
/// predictor input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    values: Vec<f64>,
}

impl FeatureVector {
    /// Wraps raw values.
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes into the raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Entry access.
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Euclidean distance to another vector of the same length.
    pub fn distance(&self, other: &FeatureVector) -> f64 {
        assert_eq!(self.len(), other.len(), "dimension mismatch");
        self.values.iter().zip(&other.values).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }

    /// Concatenates `extra` entries (e.g. size-distribution buckets) onto a
    /// copy of this vector.
    pub fn extended(&self, extra: &[f64]) -> FeatureVector {
        let mut v = self.values.clone();
        v.extend_from_slice(extra);
        FeatureVector::new(v)
    }

    /// Serializes the entries bit-exactly.
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.seq(&self.values, |e, &v| e.f64(v));
    }

    /// Reads entries written by [`FeatureVector::encode_state`].
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(Self { values: dec.seq(8, |d| d.f64())? })
    }
}

impl From<Vec<f64>> for FeatureVector {
    fn from(values: Vec<f64>) -> Self {
        Self::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = FeatureVector::new(vec![0.0, 3.0]);
        let b = FeatureVector::new(vec![4.0, 0.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = FeatureVector::new(vec![1.5, -2.0, 7.0]);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn distance_rejects_mismatched_dims() {
        FeatureVector::new(vec![1.0]).distance(&FeatureVector::new(vec![1.0, 2.0]));
    }

    #[test]
    fn extended_appends() {
        let a = FeatureVector::new(vec![1.0]);
        let e = a.extended(&[2.0, 3.0]);
        assert_eq!(e.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.len(), 1, "original untouched");
    }
}
