//! Banded products with stored runs are **bit-identical** to the per-call
//! run scan they replace.
//!
//! `BandedMatrix` finds each diagonal's maximal non-zero runs when the
//! band is built (and again for the diagonal a `set` writes), and its
//! products loop over the stored runs. The reference below is a
//! test-local copy of the loop it replaced: every product rescans every
//! diagonal for its maximal non-zero runs (`for_each_run`, a copy of the
//! scan every product used to make) and issues one `fma_batch` per run.
//! Both sides must issue the same `fma_batch` calls on the same slices in
//! the same order, so results, FLOP counters, fault counters and fault
//! statistics agree bit for bit — across fault rates, seeds, batched and
//! scalar dispatch, and on a `ReliableFpu`.
//!
//! The matrices mix interior `0.0` and `-0.0` taps (both end a run),
//! `set` calls that open and close a gap inside a diagonal, and non-finite
//! entries; the inputs carry ±Inf and NaN.

use robustify_linalg::BandedMatrix;
use stochastic_fpu::{BitFaultModel, FaultRate, Fpu, NoisyFpu, ReliableFpu};

/// Diagonal `d` of `m`, read entry by entry.
fn diagonal(m: &BandedMatrix, d: usize) -> Vec<f64> {
    (0..m.dim() - d).map(|i| m.get(i + d, i)).collect()
}

/// Invokes `f(start, end)` for every maximal run of consecutive non-zero
/// entries of `v`: the scan each product made before the runs were stored.
fn for_each_run(v: &[f64], mut f: impl FnMut(usize, usize)) {
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
        f(j, end);
        j = end;
    }
}

/// The per-call loop: rescan each diagonal for its runs on every product.
fn reference_matvec<F: Fpu>(fpu: &mut F, m: &BandedMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.dim()];
    for d in 0..=m.bandwidth() {
        let diag = diagonal(m, d);
        for_each_run(&diag, |start, end| {
            fpu.fma_batch(
                &diag[start..end],
                &x[start..end],
                &mut y[start + d..end + d],
            );
        });
    }
    y
}

fn reference_matvec_t<F: Fpu>(fpu: &mut F, m: &BandedMatrix, y: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; m.dim()];
    for d in 0..=m.bandwidth() {
        let diag = diagonal(m, d);
        for_each_run(&diag, |start, end| {
            fpu.fma_batch(
                &diag[start..end],
                &y[start + d..end + d],
                &mut x[start..end],
            );
        });
    }
    x
}

fn reference_residual<F: Fpu>(fpu: &mut F, m: &BandedMatrix, x: &[f64], rhs: &[f64]) -> Vec<f64> {
    let mut r = reference_matvec(fpu, m, x);
    fpu.sub_assign_batch(rhs, &mut r);
    r
}

/// Runs `matvec`, `matvec_t` and `residual` (stored runs, or the
/// reference scan) and records every result bit plus the FPU counters.
fn fingerprint<F: Fpu>(
    fpu: &mut F,
    m: &BandedMatrix,
    x: &[f64],
    rhs: &[f64],
    stored: bool,
) -> Vec<u64> {
    let (y, xt, r) = if stored {
        (
            m.matvec(fpu, x).expect("length matches"),
            m.matvec_t(fpu, x).expect("length matches"),
            m.residual(fpu, x, rhs).expect("lengths match"),
        )
    } else {
        (
            reference_matvec(fpu, m, x),
            reference_matvec_t(fpu, m, x),
            reference_residual(fpu, m, x, rhs),
        )
    };
    let mut out: Vec<u64> = y.iter().chain(&xt).chain(&r).map(|v| v.to_bits()).collect();
    out.push(fpu.flops());
    out.push(fpu.faults());
    out
}

fn noisy(rate: f64, seed: u64, batched: bool) -> NoisyFpu {
    let mut fpu = NoisyFpu::new(FaultRate::per_flop(rate), BitFaultModel::emulated(), seed);
    fpu.set_batching(batched);
    fpu
}

/// Compares stored runs against the reference scan on every FPU the
/// contract covers: rates 0, 1 %, 10 % and 50 % over several seeds with
/// batching on and off, plus a `ReliableFpu`.
fn assert_identical(m: &BandedMatrix, x: &[f64], rhs: &[f64], case: &str) {
    let mut stored = ReliableFpu::new();
    let mut reference = ReliableFpu::new();
    assert_eq!(
        fingerprint(&mut stored, m, x, rhs, true),
        fingerprint(&mut reference, m, x, rhs, false),
        "{case}: ReliableFpu diverged"
    );
    for rate in [0.0, 0.01, 0.1, 0.5] {
        for seed in [1, 7, 0xBAD5EED] {
            for batched in [true, false] {
                let mut stored = noisy(rate, seed, batched);
                let mut reference = noisy(rate, seed, batched);
                let a = fingerprint(&mut stored, m, x, rhs, true);
                let b = fingerprint(&mut reference, m, x, rhs, false);
                assert_eq!(
                    a, b,
                    "{case}: rate {rate}, seed {seed}, batched {batched} diverged"
                );
                assert_eq!(
                    stored.stats(),
                    reference.stats(),
                    "{case}: fault statistics diverged"
                );
            }
        }
    }
}

fn signal(n: usize, phase: f64) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.37 + phase).sin()).collect()
}

/// The input with ±Inf and NaN planted at the start, middle and end.
fn non_finite_signal(n: usize) -> Vec<f64> {
    let mut x = signal(n, 0.5);
    x[0] = f64::NAN;
    x[n / 3] = f64::INFINITY;
    x[n / 2] = f64::NEG_INFINITY;
    x[n - 1] = f64::NAN;
    x
}

/// The paper's IIR scale (500 samples, band 8), with interior `0.0` and
/// `-0.0` taps that leave whole diagonals without a run.
#[test]
fn convolution_with_signed_zero_taps_matches_the_per_call_scan() {
    let n = 500;
    let taps = [1.0, -0.75, 0.0, 0.5, -0.0, 0.25, -0.125, 0.0, 0.0625];
    let m = BandedMatrix::convolution(n, &taps).expect("taps fit");
    let rhs = signal(n, 1.25);
    assert_identical(&m, &signal(n, 0.0), &rhs, "finite input");
    assert_identical(&m, &non_finite_signal(n), &rhs, "non-finite input");
}

/// Irregular diagonals written with `set`: several gaps per diagonal,
/// signed zeros, and non-finite entries (which are non-zero, so they sit
/// inside runs).
#[test]
fn set_built_irregular_band_matches_the_per_call_scan() {
    let n = 97;
    let band = 6;
    let mut m = BandedMatrix::zeros(n, band);
    for d in 0..=band {
        for j in 0..n - d {
            let value = match (j * 7 + d * 3) % 13 {
                0 | 5 => 0.0,
                9 => -0.0,
                _ => 0.5 + ((j + 2 * d) % 11) as f64 * 0.125,
            };
            m.set(j + d, j, value);
        }
    }
    m.set(40, 38, f64::INFINITY);
    m.set(60, 57, f64::NAN);
    let rhs = signal(n, 2.0);
    assert_identical(&m, &signal(n, 0.0), &rhs, "irregular band");
    assert_identical(
        &m,
        &non_finite_signal(n),
        &rhs,
        "irregular band, non-finite input",
    );
}

/// A `set` that opens a zero gap in the middle of a diagonal splits its
/// run in two, and the `set` that closes it merges them again; both
/// signed zeros open the gap.
#[test]
fn set_opening_and_closing_a_gap_matches_the_per_call_scan() {
    let n = 64;
    let mut m = BandedMatrix::convolution(n, &[2.0, -1.0, 0.5, 0.25]).expect("taps fit");
    let (x, rhs) = (signal(n, 0.0), signal(n, 0.75));
    assert_identical(&m, &x, &rhs, "full band");
    for zero in [0.0, -0.0] {
        m.set(32 + 2, 32, zero);
        m.set(33 + 2, 33, zero);
        assert_identical(&m, &x, &rhs, "gap open");
        m.set(32 + 2, 32, 0.5);
        assert_identical(&m, &x, &rhs, "gap half closed");
        m.set(33 + 2, 33, 0.5);
        assert_identical(&m, &x, &rhs, "gap closed");
        assert_eq!(
            m,
            BandedMatrix::convolution(n, &[2.0, -1.0, 0.5, 0.25]).expect("taps fit"),
            "closing the gap restores the original band"
        );
    }
    // Zeroing the ends of a diagonal shortens its run instead.
    m.set(1, 0, 0.0);
    m.set(n - 1, n - 2, -0.0);
    assert_identical(&m, &x, &rhs, "trimmed diagonal");
}
