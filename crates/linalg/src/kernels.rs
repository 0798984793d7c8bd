//! Vector kernels executed through an [`Fpu`].
//!
//! These are the BLAS-1 building blocks of every solver in the workspace.
//! All arithmetic goes through the FPU; shape checks use native code.

use crate::error::LinalgError;
use stochastic_fpu::Fpu;

/// The maximal runs `(start, end)` of consecutive non-zero entries of `v`,
/// in ascending order.
///
/// This is the one definition of a run: the segmentation that lets
/// sparse-aware inner loops (banded diagonals, constraint rows) batch
/// through the FPU fast path while preserving their historical "skip zero
/// entries one by one" FLOP sequence exactly — zero entries never reach
/// the FPU. The runs are found when a matrix is built (and, for a
/// [`BandedMatrix`](crate::BandedMatrix), again for the one diagonal a
/// `set` writes) and stored, so no product rescans its entries.
///
/// # Examples
///
/// ```
/// use robustify_linalg::nonzero_runs;
///
/// assert_eq!(nonzero_runs(&[0.0, 1.0, 2.0, 0.0, 3.0]), vec![(1, 3), (4, 5)]);
/// ```
pub fn nonzero_runs(v: &[f64]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut j = 0;
    while j < v.len() {
        if v[j] == 0.0 {
            j += 1;
            continue;
        }
        let mut end = j + 1;
        while end < v.len() && v[end] != 0.0 {
            end += 1;
        }
        runs.push((j, end));
        j = end;
    }
    runs
}

fn check_equal_len(a: &[f64], b: &[f64]) -> Result<(), LinalgError> {
    if a.len() != b.len() {
        return Err(LinalgError::shape(
            format!("vectors of equal length {}", a.len()),
            format!("length {}", b.len()),
        ));
    }
    Ok(())
}

/// Inner product `xᵀ y` without a shape check (callers validate).
///
/// Runs on the FPU's batched fast path ([`Fpu::dot_batch`]): fault-free
/// stretches execute as a tight native loop, bit-identical to the per-op
/// expansion `p = mul(x[i], y[i]); acc = add(acc, p)`.
///
/// # FLOP accounting
///
/// `2·n` FLOPs ([`Fpu::dot_batch`]; `+ LANE_WIDTH` once lane-split).
pub(crate) fn dot_unchecked<F: Fpu>(fpu: &mut F, x: &[f64], y: &[f64]) -> f64 {
    fpu.dot_batch(x, y)
}

/// Inner product `xᵀ y` through the FPU.
///
/// # FLOP accounting
///
/// `2·n` FLOPs ([`Fpu::dot_batch`]; `+ LANE_WIDTH` once lane-split).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
///
/// # Examples
///
/// ```
/// use robustify_linalg::dot;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let d = dot(&mut ReliableFpu::new(), &[1.0, 2.0], &[3.0, 4.0])?;
/// assert_eq!(d, 11.0);
/// # Ok(())
/// # }
/// ```
pub fn dot<F: Fpu>(fpu: &mut F, x: &[f64], y: &[f64]) -> Result<f64, LinalgError> {
    check_equal_len(x, y)?;
    Ok(dot_unchecked(fpu, x, y))
}

/// Squared Euclidean norm `‖x‖²` through the FPU.
///
/// # FLOP accounting
///
/// `2·n` FLOPs (a self inner product via [`Fpu::dot_batch`]).
///
/// # Examples
///
/// ```
/// use robustify_linalg::norm2_sq;
/// use stochastic_fpu::ReliableFpu;
///
/// assert_eq!(norm2_sq(&mut ReliableFpu::new(), &[3.0, 4.0]), 25.0);
/// ```
pub fn norm2_sq<F: Fpu>(fpu: &mut F, x: &[f64]) -> f64 {
    dot_unchecked(fpu, x, x)
}

/// Euclidean norm `‖x‖` through the FPU.
///
/// # FLOP accounting
///
/// `2·n + 1` FLOPs ([`norm2_sq`] plus one [`Fpu::sqrt`]).
///
/// # Examples
///
/// ```
/// use robustify_linalg::norm2;
/// use stochastic_fpu::ReliableFpu;
///
/// assert_eq!(norm2(&mut ReliableFpu::new(), &[3.0, 4.0]), 5.0);
/// ```
pub fn norm2<F: Fpu>(fpu: &mut F, x: &[f64]) -> f64 {
    let sq = norm2_sq(fpu, x);
    fpu.sqrt(sq)
}

/// In-place `y ← α x + y` through the FPU.
///
/// # FLOP accounting
///
/// `2·n` FLOPs ([`Fpu::axpy_batch`]: `mul` + `add` per element).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
///
/// # Examples
///
/// ```
/// use robustify_linalg::axpy;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let mut y = vec![1.0, 1.0];
/// axpy(&mut ReliableFpu::new(), 2.0, &[10.0, 20.0], &mut y)?;
/// assert_eq!(y, vec![21.0, 41.0]);
/// # Ok(())
/// # }
/// ```
pub fn axpy<F: Fpu>(fpu: &mut F, alpha: f64, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
    check_equal_len(x, y)?;
    fpu.axpy_batch(alpha, x, y);
    Ok(())
}

/// In-place `x ← α x` through the FPU.
///
/// # FLOP accounting
///
/// `n` FLOPs ([`Fpu::scale_batch`]: one `mul` per element).
///
/// # Examples
///
/// ```
/// use robustify_linalg::scale;
/// use stochastic_fpu::ReliableFpu;
///
/// let mut x = vec![1.0, -2.0];
/// scale(&mut ReliableFpu::new(), 3.0, &mut x);
/// assert_eq!(x, vec![3.0, -6.0]);
/// ```
pub fn scale<F: Fpu>(fpu: &mut F, alpha: f64, x: &mut [f64]) {
    fpu.scale_batch(alpha, x);
}

/// Element-wise difference `x - y` through the FPU.
///
/// # FLOP accounting
///
/// `n` FLOPs ([`Fpu::sub_batch`]: one `sub` per element).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
///
/// # Examples
///
/// ```
/// use robustify_linalg::sub_vec;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let d = sub_vec(&mut ReliableFpu::new(), &[3.0, 4.0], &[1.0, 1.0])?;
/// assert_eq!(d, vec![2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
pub fn sub_vec<F: Fpu>(fpu: &mut F, x: &[f64], y: &[f64]) -> Result<Vec<f64>, LinalgError> {
    check_equal_len(x, y)?;
    let mut out = vec![0.0; x.len()];
    fpu.sub_batch(x, y, &mut out);
    Ok(out)
}

/// In-place element-wise `y ← y + x` through the FPU.
///
/// # FLOP accounting
///
/// `n` FLOPs ([`Fpu::add_assign_batch`]: one `add` per element).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
///
/// # Examples
///
/// ```
/// use robustify_linalg::add_assign;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let mut y = vec![1.0, 2.0];
/// add_assign(&mut ReliableFpu::new(), &[10.0, 10.0], &mut y)?;
/// assert_eq!(y, vec![11.0, 12.0]);
/// # Ok(())
/// # }
/// ```
pub fn add_assign<F: Fpu>(fpu: &mut F, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
    check_equal_len(x, y)?;
    fpu.add_assign_batch(x, y);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::{Fpu, ReliableFpu};

    #[test]
    fn dot_of_empty_is_zero() {
        assert_eq!(
            dot(&mut ReliableFpu::new(), &[], &[]).expect("equal lengths"),
            0.0
        );
    }

    #[test]
    fn dot_rejects_unequal_lengths() {
        assert!(dot(&mut ReliableFpu::new(), &[1.0], &[1.0, 2.0]).is_err());
        assert!(axpy(&mut ReliableFpu::new(), 1.0, &[1.0], &mut [1.0, 2.0]).is_err());
        assert!(sub_vec(&mut ReliableFpu::new(), &[1.0], &[1.0, 2.0]).is_err());
        assert!(add_assign(&mut ReliableFpu::new(), &[1.0], &mut [1.0, 2.0]).is_err());
    }

    #[test]
    fn norms_agree() {
        let mut fpu = ReliableFpu::new();
        let x = [1.0, 2.0, 2.0];
        assert_eq!(norm2_sq(&mut fpu, &x), 9.0);
        assert_eq!(norm2(&mut fpu, &x), 3.0);
    }

    #[test]
    fn axpy_with_zero_alpha_still_counts_flops() {
        let mut fpu = ReliableFpu::new();
        let mut y = vec![1.0, 2.0];
        axpy(&mut fpu, 0.0, &[5.0, 5.0], &mut y).expect("equal lengths");
        assert_eq!(y, vec![1.0, 2.0]);
        assert_eq!(fpu.flops(), 4);
    }

    #[test]
    fn scale_by_zero_gives_zeros() {
        let mut x = vec![1.0, -2.0, 3.0];
        scale(&mut ReliableFpu::new(), 0.0, &mut x);
        assert_eq!(x, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn flop_counts_are_exact() {
        let mut fpu = ReliableFpu::new();
        dot(&mut fpu, &[1.0; 10], &[2.0; 10]).expect("equal lengths");
        assert_eq!(fpu.flops(), 20); // 10 muls + 10 adds
        let before = fpu.flops();
        norm2(&mut fpu, &[1.0; 4]);
        assert_eq!(fpu.flops() - before, 9); // 4 muls + 4 adds + sqrt
    }
}
