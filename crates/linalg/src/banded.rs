//! Lower-banded matrices for the IIR variational transformation.
//!
//! The paper recasts IIR filtering as the least squares problem
//! `min ‖B x − A u‖²` where `A` and `B` are *banded diagonal* convolution
//! matrices built from the filter taps (equations 4.1–4.2). A dense
//! representation would waste `O(t²)` space and FLOPs for a `t`-sample
//! signal; this banded type stores only the band and performs products in
//! `O(t · band)`.

use crate::error::LinalgError;
use crate::kernels::nonzero_runs;
use crate::matrix::Matrix;
use stochastic_fpu::Fpu;

/// A square lower-banded matrix: entry `(i, j)` may be non-zero only when
/// `0 ≤ i − j ≤ band`.
///
/// # Examples
///
/// ```
/// use robustify_linalg::BandedMatrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// // The convolution matrix of the FIR filter h = [1, -1] over 4 samples.
/// let m = BandedMatrix::convolution(4, &[1.0, -1.0])?;
/// let y = m.matvec(&mut ReliableFpu::new(), &[1.0, 3.0, 6.0, 10.0])?;
/// assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMatrix {
    n: usize,
    band: usize,
    /// `diags[d][i]` is the entry at `(i + d, i)`: diagonal `d` below the
    /// main diagonal, which has `n - d` entries.
    diags: Vec<Vec<f64>>,
    /// `runs[d]` lists the maximal runs `(start, end)` of non-zero entries
    /// of `diags[d]`, in ascending order. Found whenever a diagonal is
    /// written, so products never rescan the band.
    runs: Vec<Vec<(usize, usize)>>,
}

impl BandedMatrix {
    /// Creates an `n × n` zero matrix with `band` sub-diagonals.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `band >= n`.
    pub fn zeros(n: usize, band: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        assert!(band < n, "bandwidth {band} must be below dimension {n}");
        let diags = (0..=band).map(|d| vec![0.0; n - d]).collect();
        BandedMatrix {
            n,
            band,
            diags,
            runs: vec![Vec::new(); band + 1],
        }
    }

    /// Builds the `n × n` convolution (Toeplitz) matrix of the tap vector
    /// `taps`, as in the paper's equations (4.1)–(4.2): entry `(i, j)` is
    /// `taps[i − j]` when `0 ≤ i − j < taps.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `taps` is empty or
    /// longer than `n`.
    pub fn convolution(n: usize, taps: &[f64]) -> Result<Self, LinalgError> {
        if taps.is_empty() || taps.len() > n {
            return Err(LinalgError::shape(
                format!("1..={n} taps"),
                format!("{} taps", taps.len()),
            ));
        }
        let mut m = Self::zeros(n, taps.len() - 1);
        for (d, &t) in taps.iter().enumerate() {
            for v in &mut m.diags[d] {
                *v = t;
            }
            m.runs[d] = nonzero_runs(&m.diags[d]);
        }
        Ok(m)
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals.
    pub fn bandwidth(&self) -> usize {
        self.band
    }

    /// Entry `(i, j)` (zero outside the band).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index ({i}, {j}) out of bounds");
        if i < j || i - j > self.band {
            0.0
        } else {
            self.diags[i - j][j]
        }
    }

    /// Sets entry `(i, j)` and finds the non-zero runs of its diagonal
    /// again, in `O(n)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or outside the band.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index ({i}, {j}) out of bounds");
        assert!(
            i >= j && i - j <= self.band,
            "index ({i}, {j}) outside the band of width {}",
            self.band
        );
        let d = i - j;
        self.diags[d][j] = value;
        self.runs[d] = nonzero_runs(&self.diags[d]);
    }

    /// Banded matrix–vector product `M x` through the FPU in
    /// `O(n · band)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != n`.
    pub fn matvec<F: Fpu>(&self, fpu: &mut F, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.n {
            return Err(LinalgError::shape(
                format!("vector of length {}", self.n),
                format!("length {}", x.len()),
            ));
        }
        let mut y = vec![0.0; self.n];
        for (d, (diag, runs)) in self.diags.iter().zip(&self.runs).enumerate() {
            // Batched per maximal run of non-zero diagonal entries: the
            // historical loop skipped zero entries one by one, so the runs
            // (and the FLOP sequence) are preserved exactly while the
            // fault-free stretches execute as tight fma loops.
            for &(start, end) in runs {
                fpu.fma_batch(
                    &diag[start..end],
                    &x[start..end],
                    &mut y[start + d..end + d],
                );
            }
        }
        Ok(y)
    }

    /// Transposed product `Mᵀ y` through the FPU in `O(n · band)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `y.len() != n`.
    pub fn matvec_t<F: Fpu>(&self, fpu: &mut F, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if y.len() != self.n {
            return Err(LinalgError::shape(
                format!("vector of length {}", self.n),
                format!("length {}", y.len()),
            ));
        }
        let mut x = vec![0.0; self.n];
        for (d, (diag, runs)) in self.diags.iter().zip(&self.runs).enumerate() {
            for &(start, end) in runs {
                fpu.fma_batch(
                    &diag[start..end],
                    &y[start + d..end + d],
                    &mut x[start..end],
                );
            }
        }
        Ok(x)
    }

    /// The residual `M x − rhs` through the FPU in `O(n · band)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x` or `rhs` is not of
    /// length `n`.
    pub fn residual<F: Fpu>(
        &self,
        fpu: &mut F,
        x: &[f64],
        rhs: &[f64],
    ) -> Result<Vec<f64>, LinalgError> {
        if rhs.len() != self.n {
            return Err(LinalgError::shape(
                format!("vector of length {}", self.n),
                format!("length {}", rhs.len()),
            ));
        }
        let mut r = self.matvec(fpu, x)?;
        fpu.sub_assign_batch(rhs, &mut r);
        Ok(r)
    }

    /// Solves the lower-banded system `M x = rhs` by forward substitution
    /// through the FPU in `O(n · band)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `rhs.len() != n`, or
    /// [`LinalgError::Singular`] if a diagonal entry is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use robustify_linalg::BandedMatrix;
    /// use stochastic_fpu::ReliableFpu;
    ///
    /// # fn main() -> Result<(), robustify_linalg::LinalgError> {
    /// let m = BandedMatrix::convolution(4, &[1.0, -1.0])?;
    /// let x = m.forward_solve(&mut ReliableFpu::new(), &[1.0, 2.0, 3.0, 4.0])?;
    /// assert_eq!(x, vec![1.0, 3.0, 6.0, 10.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn forward_solve<F: Fpu>(&self, fpu: &mut F, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if rhs.len() != self.n {
            return Err(LinalgError::shape(
                format!("vector of length {}", self.n),
                format!("length {}", rhs.len()),
            ));
        }
        let mut x = vec![0.0; self.n];
        for i in 0..self.n {
            let mut acc = rhs[i];
            for d in 1..=self.band.min(i) {
                let m = self.diags[d][i - d];
                if m == 0.0 {
                    continue;
                }
                let p = fpu.mul(m, x[i - d]);
                acc = fpu.sub(acc, p);
            }
            let pivot = self.diags[0][i];
            if pivot == 0.0 {
                return Err(LinalgError::Singular);
            }
            x[i] = fpu.div(acc, pivot);
        }
        Ok(x)
    }

    /// Expands to a dense [`Matrix`] (for tests and small problems).
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::{Fpu, ReliableFpu};

    #[test]
    fn convolution_layout_matches_paper() {
        // Paper eq. (4.1): first column is the taps, shifted down each col.
        let m = BandedMatrix::convolution(5, &[1.0, 2.0, 3.0]).expect("valid taps");
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 0)], 2.0);
        assert_eq!(d[(2, 0)], 3.0);
        assert_eq!(d[(3, 0)], 0.0);
        assert_eq!(d[(2, 2)], 1.0);
        assert_eq!(d[(4, 2)], 3.0);
        assert_eq!(d[(0, 1)], 0.0, "upper triangle is zero");
    }

    #[test]
    fn matvec_matches_dense() {
        let m = BandedMatrix::convolution(6, &[0.5, -1.0, 0.25]).expect("valid taps");
        let x = [1.0, 2.0, -3.0, 4.0, 0.0, -1.0];
        let mut fpu = ReliableFpu::new();
        let banded = m.matvec(&mut fpu, &x).expect("length matches");
        let dense = m.to_dense().matvec(&mut fpu, &x).expect("length matches");
        for (b, d) in banded.iter().zip(&dense) {
            assert!((b - d).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_t_matches_dense_transpose() {
        let m = BandedMatrix::convolution(6, &[2.0, 1.0]).expect("valid taps");
        let y = [1.0, -1.0, 2.0, 0.5, 3.0, -2.0];
        let mut fpu = ReliableFpu::new();
        let banded = m.matvec_t(&mut fpu, &y).expect("length matches");
        let dense = m.to_dense().matvec_t(&mut fpu, &y).expect("length matches");
        for (b, d) in banded.iter().zip(&dense) {
            assert!((b - d).abs() < 1e-12);
        }
    }

    #[test]
    fn banded_matvec_is_cheaper_than_dense() {
        let n = 64;
        let m = BandedMatrix::convolution(n, &[1.0, 0.5, 0.25]).expect("valid taps");
        let x = vec![1.0; n];
        let mut banded_fpu = ReliableFpu::new();
        m.matvec(&mut banded_fpu, &x).expect("length matches");
        let mut dense_fpu = ReliableFpu::new();
        m.to_dense()
            .matvec(&mut dense_fpu, &x)
            .expect("length matches");
        assert!(
            banded_fpu.flops() * 10 < dense_fpu.flops(),
            "banded {} vs dense {}",
            banded_fpu.flops(),
            dense_fpu.flops()
        );
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = BandedMatrix::zeros(4, 1);
        m.set(2, 1, 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(1, 2), 0.0);
        assert_eq!(m.get(3, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the band")]
    fn set_outside_band_panics() {
        BandedMatrix::zeros(4, 1).set(3, 0, 1.0);
    }

    #[test]
    fn convolution_rejects_bad_taps() {
        assert!(BandedMatrix::convolution(3, &[]).is_err());
        assert!(BandedMatrix::convolution(3, &[1.0; 4]).is_err());
    }

    #[test]
    fn matvec_shape_check() {
        let m = BandedMatrix::convolution(4, &[1.0]).expect("valid taps");
        assert!(m.matvec(&mut ReliableFpu::new(), &[1.0]).is_err());
        assert!(m.matvec_t(&mut ReliableFpu::new(), &[1.0]).is_err());
    }
}
