//! Dense square-matrix operations and a Jacobi eigensolver for symmetric
//! matrices. Sized for the 16-dimensional feature covariances the FID metric
//! uses, not for large-scale linear algebra.

use std::fmt;

/// A dense row-major square matrix of `f64`.
///
/// # Example
///
/// ```
/// use modm_numerics::Matrix;
/// let i = Matrix::identity(3);
/// let m = i.scaled(2.0);
/// assert_eq!(m.get(1, 1), 2.0);
/// assert_eq!(m.trace(), 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{})", self.n, self.n)?;
        for r in 0..self.n.min(8) {
            let row: Vec<String> = (0..self.n.min(8))
                .map(|c| format!("{:+.3}", self.get(r, c)))
                .collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates an `n x n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix must be non-empty");
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a diagonal matrix from the given entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// The dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] = v;
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let n = self.n;
        let mut out = Matrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data[i * n + j] += a * other.data[k * n + j];
                }
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix { n: self.n, data }
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix { n: self.n, data }
    }

    /// The matrix scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            n: self.n,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Sum of the diagonal.
    pub fn trace(&self) -> f64 {
        (0..self.n).map(|i| self.get(i, i)).sum()
    }

    /// Largest absolute off-diagonal element (convergence check for Jacobi).
    pub fn max_off_diagonal(&self) -> f64 {
        let mut m: f64 = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    m = m.max(self.get(i, j).abs());
                }
            }
        }
        m
    }

    /// True when `|a[i][j] - a[j][i]| <= tol` for all pairs.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
    ///
    /// Returns `(eigenvalues, eigenvectors)` where column `k` of the
    /// eigenvector matrix corresponds to `eigenvalues[k]`. The input must be
    /// symmetric.
    ///
    /// # Errors
    ///
    /// Returns [`EigenError::NotSymmetric`] if the matrix is not symmetric to
    /// `1e-9`, or [`EigenError::NoConvergence`] if the sweep limit is hit.
    pub fn symmetric_eigen(&self) -> Result<(Vec<f64>, Matrix), EigenError> {
        if !self.is_symmetric(1e-9) {
            return Err(EigenError::NotSymmetric);
        }
        let n = self.n;
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        const MAX_SWEEPS: usize = 100;
        for _ in 0..MAX_SWEEPS {
            if a.max_off_diagonal() < 1e-12 {
                let eig = (0..n).map(|i| a.get(i, i)).collect();
                return Ok((eig, v));
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() < 1e-15 {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Apply the rotation to rows/cols p and q.
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        Err(EigenError::NoConvergence)
    }

    /// Square root of a symmetric positive semi-definite matrix.
    ///
    /// Computed via eigendecomposition: `sqrt(M) = V sqrt(D) V^T`. Slightly
    /// negative eigenvalues (numerical noise) are clamped to zero.
    ///
    /// # Errors
    ///
    /// Propagates [`EigenError`] from the eigendecomposition, and returns
    /// [`EigenError::NotPositiveSemiDefinite`] for eigenvalues below `-1e-6`.
    pub fn sqrt_psd(&self) -> Result<Matrix, EigenError> {
        let (eig, v) = self.symmetric_eigen()?;
        if eig.iter().any(|&e| e < -1e-6) {
            return Err(EigenError::NotPositiveSemiDefinite);
        }
        let sqrt_d =
            Matrix::from_diagonal(&eig.iter().map(|&e| e.max(0.0).sqrt()).collect::<Vec<f64>>());
        Ok(v.mul(&sqrt_d).mul(&v.transpose()))
    }
}

/// Errors from the symmetric eigensolver and PSD square root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EigenError {
    /// The input matrix was not symmetric.
    NotSymmetric,
    /// The Jacobi sweeps did not converge.
    NoConvergence,
    /// The matrix had a significantly negative eigenvalue.
    NotPositiveSemiDefinite,
}

impl fmt::Display for EigenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EigenError::NotSymmetric => write!(f, "matrix is not symmetric"),
            EigenError::NoConvergence => write!(f, "jacobi iteration did not converge"),
            EigenError::NotPositiveSemiDefinite => {
                write!(f, "matrix is not positive semi-definite")
            }
        }
    }
}

impl std::error::Error for EigenError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from row-major data.
    fn from_rows(n: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), n * n, "wrong data length");
        Matrix { n, data }
    }

    #[test]
    fn identity_multiplication() {
        let i = Matrix::identity(4);
        let mut m = Matrix::zeros(4);
        for r in 0..4 {
            for c in 0..4 {
                m.set(r, c, (r * 4 + c) as f64);
            }
        }
        assert_eq!(i.mul(&m), m);
        assert_eq!(m.mul(&i), m);
    }

    #[test]
    fn trace_and_transpose() {
        let m = from_rows(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.trace(), 5.0);
        let t = m.transpose();
        assert_eq!(t.get(0, 1), 3.0);
        assert_eq!(t.get(1, 0), 2.0);
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let m = Matrix::from_diagonal(&[3.0, 1.0, 2.0]);
        let (mut eig, _) = m.symmetric_eigen().unwrap();
        eig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((eig[0] - 1.0).abs() < 1e-9);
        assert!((eig[1] - 2.0).abs() < 1e-9);
        assert!((eig[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        // Symmetric test matrix.
        let m = from_rows(3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0]);
        let (eig, v) = m.symmetric_eigen().unwrap();
        let d = Matrix::from_diagonal(&eig);
        let rec = v.mul(&d).mul(&v.transpose());
        for r in 0..3 {
            for c in 0..3 {
                assert!(
                    (rec.get(r, c) - m.get(r, c)).abs() < 1e-8,
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn sqrt_of_psd_squares_back() {
        let m = from_rows(2, vec![2.0, 1.0, 1.0, 2.0]);
        let s = m.sqrt_psd().unwrap();
        let sq = s.mul(&s);
        for r in 0..2 {
            for c in 0..2 {
                assert!((sq.get(r, c) - m.get(r, c)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn sqrt_rejects_negative_definite() {
        let m = Matrix::from_diagonal(&[-1.0, 1.0]);
        assert_eq!(m.sqrt_psd(), Err(EigenError::NotPositiveSemiDefinite));
    }

    #[test]
    fn eigen_rejects_asymmetric() {
        let m = from_rows(2, vec![1.0, 2.0, 0.0, 1.0]);
        assert_eq!(m.symmetric_eigen().err(), Some(EigenError::NotSymmetric));
    }

    #[test]
    fn add_sub_scale() {
        let a = from_rows(2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::identity(2);
        assert_eq!(a.add(&b).get(0, 0), 2.0);
        assert_eq!(a.sub(&b).get(1, 1), 3.0);
        assert_eq!(a.scaled(2.0).get(0, 1), 4.0);
    }
}
