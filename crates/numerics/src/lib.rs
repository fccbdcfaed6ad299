//! Numerical kernels for the MoDM quality metrics.
//!
//! The paper evaluates image quality with FID (Fréchet Inception Distance),
//! which requires the matrix square root of a product of covariance matrices.
//! This crate implements the small amount of dense linear algebra needed —
//! vectors, symmetric matrices, a Jacobi eigensolver, the PSD matrix square
//! root, running Gaussian moment estimation and the Fréchet distance itself —
//! with no external dependencies. It also holds the exact lane-blocked
//! dot-product kernel ([`lanes`]) behind the flat similarity scans.
//!
//! # Example: FID between two feature sets
//!
//! ```
//! use modm_numerics::gaussian::GaussianStats;
//! use modm_numerics::frechet::frechet_distance;
//!
//! let mut a = GaussianStats::new(3);
//! let mut b = GaussianStats::new(3);
//! for i in 0..200 {
//!     let x = (i % 7) as f64 * 0.1;
//!     a.record(&[x, 1.0 - x, 0.5 * x]);
//!     b.record(&[x + 0.5, 1.0 - x, 0.5 * x]);
//! }
//! let fid = frechet_distance(&a, &b).expect("well-formed stats");
//! assert!(fid > 0.2, "means differ by 0.5 in one axis: {fid}");
//! ```

pub mod frechet;
pub mod gaussian;
pub mod lanes;
pub mod matrix;
pub mod vector;

pub use frechet::frechet_distance;
pub use gaussian::GaussianStats;
pub use matrix::Matrix;
pub use vector::{cosine_similarity, cosine_with_norms, dot, l2_norm, normalize};
