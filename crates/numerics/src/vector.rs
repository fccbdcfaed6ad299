//! Dense vector operations used across the embedding and metrics crates.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn l2_norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Normalizes `a` to unit L2 norm in place. Zero vectors are left unchanged.
pub fn normalize(a: &mut [f64]) {
    let n = l2_norm(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

/// Cosine similarity in `[-1, 1]`; zero if either vector is all-zero.
///
/// This is Eq. (1) of the paper: the retrieval score between a query
/// embedding and a cached image embedding.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use modm_numerics::cosine_similarity;
/// let s = cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]);
/// assert!((s - 1.0).abs() < 1e-12);
/// ```
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    cosine_with_norms(dot(a, b), l2_norm(a), l2_norm(b))
}

/// Cosine similarity of `a` and `b` from their precomputed `dot(a, b)`,
/// `l2_norm(a)` and `l2_norm(b)`; zero if either norm is zero.
///
/// Bit-identical to [`cosine_similarity`] when the inputs are computed
/// the same way: they are pure functions of the vector values, so hoisting
/// them out of the call changes no f64 operation. Hot paths that scan one
/// query against many stored vectors (leader clustering) use this to
/// cache the stored norms and batch the dot products.
pub fn cosine_with_norms(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// `out += scale * v`, element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(out: &mut [f64], scale: f64, v: &[f64]) {
    assert_eq!(out.len(), v.len(), "dimension mismatch");
    for (o, x) in out.iter_mut().zip(v) {
        *o += scale * x;
    }
}

/// Linear interpolation `(1 - t) * a + t * b`, element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn lerp(a: &[f64], b: &[f64], t: f64) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (1.0 - t) * x + t * y)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_bounds_and_cases() {
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = vec![1.0, 1.0];
        axpy(&mut out, 2.0, &[1.0, 3.0]);
        assert_eq!(out, vec![3.0, 7.0]);
    }

    #[test]
    fn lerp_endpoints() {
        let a = [0.0, 10.0];
        let b = [10.0, 0.0];
        assert_eq!(lerp(&a, &b, 0.0), vec![0.0, 10.0]);
        assert_eq!(lerp(&a, &b, 1.0), vec![10.0, 0.0]);
        assert_eq!(lerp(&a, &b, 0.5), vec![5.0, 5.0]);
    }

    #[test]
    fn squared_distance_basics() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_rejects_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
