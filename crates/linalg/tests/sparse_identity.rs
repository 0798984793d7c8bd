//! Sparse determinism contract: CSR SpMV/SpMTV are **byte-identical**
//! between batched and scalar dispatch for every shipped
//! `FaultModelSpec` variant, and agree with the dense products at
//! rate 0.
//!
//! "Scalar" is the same kernel code with the countdown skip-ahead fast
//! path disabled (`NoisyFpu::set_batching(false)`), which degrades every
//! row reduction to its documented per-op `execute` expansion — the
//! `crates/fpu/tests/batch_identity.rs` pattern applied to the sparse
//! layer. Fingerprints pin committed result bits, FLOP counters, fault
//! counters and statistics (including the bit-position histogram),
//! memory shadow state, and the continuation of the fault stream after
//! the products.
//!
//! The products walk their rows through `Fpu::with_exact_item_windows`:
//! whole-row spans run natively, the row a window ends inside of runs its
//! batch kernel, and rows of `LANE_REDUCTION_MIN` or more entries always
//! do. The inputs below therefore mix empty rows, short rows and
//! lane-splitting rows, zero `y` coefficients, and strike positions that
//! end a window inside a row and exactly on a row boundary.

use proptest::prelude::*;
use robustify_linalg::CsrMatrix;
use stochastic_fpu::{
    BitFaultModel, BitWidth, FaultModelSpec, FaultRate, FlopOp, Fpu, NoisyFpu, ReliableFpu,
    LANE_REDUCTION_MIN,
};

/// Every shipped fault-model scenario: the CLI presets plus combinator
/// nestings that exercise each `FaultModelSpec` variant (mirrors
/// `crates/fpu/tests/batch_identity.rs`).
fn shipped_fault_models() -> Vec<FaultModelSpec> {
    let mut family: Vec<FaultModelSpec> = [
        "emulated",
        "uniform",
        "msb",
        "lsb",
        "stuck0",
        "stuck1",
        "burst",
        "operand",
        "intermittent",
        "muldiv",
        "voltage",
        "dvfs",
        "regfile",
        "memory",
    ]
    .iter()
    .map(|name| FaultModelSpec::from_preset(name).expect("preset exists"))
    .collect();
    family.push(FaultModelSpec::intermittent(
        0.3,
        128,
        FaultModelSpec::operand(BitFaultModel::uniform(BitWidth::F64)),
    ));
    family.push(FaultModelSpec::op_selective(
        vec![FlopOp::Add, FlopOp::Mul],
        FaultModelSpec::burst(2, BitFaultModel::lsb_only(BitWidth::F64)),
    ));
    family
}

/// A deterministic sparse test matrix: entry at `(i, j)` when
/// `(i * 7 + j) % stride == 0`, with one row left structurally empty to
/// pin the empty-row path. `stride == 1` yields dense rows (long enough
/// rows take the lane-accumulated reduction); larger strides yield the
/// scattered-gather shape.
fn test_matrix(rows: usize, cols: usize, stride: usize) -> CsrMatrix {
    let mut triplets = Vec::new();
    for i in 0..rows {
        if rows > 2 && i == rows / 2 {
            continue;
        }
        for j in 0..cols {
            if (i * 7 + j) % stride == 0 {
                triplets.push((i, j, 0.5 + ((i * 13 + j * 5) % 9) as f64 * 0.25));
            }
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("indices in bounds")
}

/// A matrix whose row lengths cycle through empty, short and
/// lane-splitting (`LANE_REDUCTION_MIN` and more) rows, clamped to
/// `cols`; `salt` shifts each row's columns.
fn mixed_matrix(rows: usize, cols: usize, salt: usize) -> CsrMatrix {
    let lengths = [0, 1, 5, LANE_REDUCTION_MIN, 3, 0, LANE_REDUCTION_MIN + 7, 2];
    let mut triplets = Vec::new();
    for i in 0..rows {
        let len = lengths[(i + salt) % lengths.len()].min(cols);
        for k in 0..len {
            let j = (i * 3 + salt + k) % cols;
            triplets.push((i, j, 0.75 + ((i * 5 + k * 11) % 13) as f64 * 0.125));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("indices in bounds")
}

/// A 12×16 matrix of exactly 5 entries per row (the 5-point stencil's
/// shape), so every row costs 10 FLOPs in either product.
fn stencil_matrix() -> CsrMatrix {
    let (rows, cols) = (12, 16);
    let mut triplets = Vec::new();
    for i in 0..rows {
        for k in 0..5 {
            triplets.push((i, (i + 3 * k) % cols, 1.0 + ((i + k) % 7) as f64 * 0.25));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("indices in bounds")
}

fn product_inputs(a: &CsrMatrix) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..a.cols())
        .map(|i| 0.25 + (i % 23) as f64 * 0.375)
        .collect();
    // Zero coefficients pin the matvec_t zero-skip: both dispatch modes
    // must skip the row entirely (no FLOPs, no strike-schedule advance).
    let mut y: Vec<f64> = (0..a.rows())
        .map(|i| {
            if i % 5 == 4 {
                0.0
            } else {
                1.5 - (i % 7) as f64 * 0.125
            }
        })
        .collect();
    if a.rows() > 1 {
        y[a.rows() / 3] = 0.0;
    }
    (x, y)
}

/// Runs both sparse products on any `fpu` and fingerprints the
/// FPU-agnostic observables: committed results, the next 64 draws of the
/// operation stream, and the FLOP and fault counters.
fn products_fingerprint<F: Fpu>(fpu: &mut F, a: &CsrMatrix, prefix: u64) -> Vec<u64> {
    let (x, y) = product_inputs(a);
    let mut out = Vec::new();

    // A scalar prefix slides the strike schedule relative to row
    // boundaries, so across cases strikes land on first, interior and
    // last entries of rows.
    for i in 0..prefix {
        out.push(fpu.mul(1.0 + i as f64, 1.5).to_bits());
    }

    let ax = a.matvec(fpu, &x).expect("shapes match");
    out.extend(ax.iter().map(|f| f.to_bits()));
    let aty = a.matvec_t(fpu, &y).expect("shapes match");
    out.extend(aty.iter().map(|f| f.to_bits()));

    // The fault stream must continue identically after the products: any
    // desynchronized LFSR draw or miscounted FLOP shows up here.
    for i in 0..64u64 {
        out.push(fpu.add(i as f64, 0.5).to_bits());
        out.push(fpu.sqrt(1.0 + i as f64).to_bits());
    }

    out.push(fpu.flops());
    out.push(fpu.faults());
    out
}

/// [`products_fingerprint`] plus the `NoisyFpu` internals: fault
/// statistics (with the bit-position histogram) and memory shadow masks.
fn sparse_workload_fingerprint(fpu: &mut NoisyFpu, a: &CsrMatrix, prefix: u64) -> Vec<u64> {
    let mut out = products_fingerprint(fpu, a, prefix);
    let stats = fpu.stats();
    out.push(stats.high_bit_faults());
    out.push(stats.mantissa_faults());
    out.extend(stats.bit_histogram().iter().copied());
    if let Some(memory) = fpu.memory_state() {
        out.extend(memory.masks().iter().copied());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse batched == scalar for every shipped spec variant and for
    /// `ReliableFpu`, across fault rates, matrix shapes, sparsity
    /// strides, mixed row lengths, seeds, and strike positions.
    #[test]
    fn sparse_products_are_byte_identical_to_scalar(
        seed in any::<u64>(),
        rate_millis in 0u64..1001,
        rows in 1usize..20,
        // Straddles LANE_REDUCTION_MIN so stride-1 rows take the
        // lane-accumulated reduction and strided rows the short chain.
        cols in 1usize..(2 * LANE_REDUCTION_MIN),
        stride in 1usize..6,
        salt in 0usize..8,
        prefix in 0u64..32,
    ) {
        let rate = FaultRate::per_flop(rate_millis as f64 / 1000.0);
        // The mixed matrix interleaves whole-row spans, window-boundary
        // rows and never-batched long rows within one product.
        for a in [test_matrix(rows, cols, stride), mixed_matrix(rows, cols, salt)] {
            for spec in shipped_fault_models() {
                let mut batched = NoisyFpu::new(rate, spec.clone(), seed);
                let mut scalar = NoisyFpu::new(rate, spec.clone(), seed);
                scalar.set_batching(false);
                let b = sparse_workload_fingerprint(&mut batched, &a, prefix);
                let s = sparse_workload_fingerprint(&mut scalar, &a, prefix);
                prop_assert_eq!(b, s, "{} diverged (rate {:?})", spec.name(), rate);
            }
            // `ReliableFpu` grants one unbounded window, so every
            // batchable row runs natively; scalar dispatch here is a
            // rate-0 `NoisyFpu` issuing every op through `execute`.
            let mut scalar = NoisyFpu::new(FaultRate::ZERO, FaultModelSpec::default(), seed);
            scalar.set_batching(false);
            prop_assert_eq!(
                products_fingerprint(&mut ReliableFpu::new(), &a, prefix),
                products_fingerprint(&mut scalar, &a, prefix)
            );
        }
    }

    /// Triplet → CSR → dense round-trip: assembly (any order, duplicate
    /// accumulation, zero dropping) reproduces the dense matrix exactly.
    #[test]
    fn triplet_csr_dense_round_trip(
        rows in 1usize..12,
        cols in 1usize..12,
        stride in 1usize..5,
        shuffle_salt in any::<u64>(),
    ) {
        let a = test_matrix(rows, cols, stride);
        let dense = a.to_dense();
        // Rebuild from the dense entries, in a salted order, with each
        // value split into two duplicate triplets plus an explicit zero.
        let mut triplets = vec![(0usize, 0usize, 0.0f64)];
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, 0.25 * v));
                    triplets.push((i, j, 0.75 * v));
                }
            }
        }
        let salt = shuffle_salt as usize % triplets.len();
        triplets.rotate_left(salt);
        let rebuilt = CsrMatrix::from_triplets(rows, cols, &triplets).expect("in bounds");
        prop_assert_eq!(rebuilt.to_dense(), dense);
        prop_assert_eq!(CsrMatrix::from_dense(&dense).to_dense(), dense);
    }

    /// At rate 0 the sparse products agree with the dense [`Matrix`]
    /// products: a rate-0 `NoisyFpu` is bit-identical to the reliable
    /// path, rows with no stored zeros reproduce the dense result bit for
    /// bit (same kernel call on the same data), and rows with dropped
    /// zeros agree to rounding (the dense kernel sums the zero terms, in
    /// possibly different lane groupings).
    #[test]
    fn sparse_matches_dense_at_rate_zero(
        rows in 1usize..16,
        cols in 1usize..40,
        stride in 1usize..6,
        seed in any::<u64>(),
    ) {
        let a = test_matrix(rows, cols, stride);
        let dense = a.to_dense();
        let x: Vec<f64> = (0..cols).map(|i| 0.25 + (i % 23) as f64 * 0.375).collect();
        let mut y: Vec<f64> = (0..rows).map(|i| 1.5 - (i % 7) as f64 * 0.125).collect();
        if rows > 1 {
            y[rows / 3] = 0.0;
        }
        let mut noisy = NoisyFpu::new(
            FaultRate::per_flop(0.0),
            FaultModelSpec::default(),
            seed,
        );
        let mut reliable = ReliableFpu::new();
        let sparse_ax = a.matvec(&mut noisy, &x).expect("shapes match");
        let sparse_aty = a.matvec_t(&mut noisy, &y).expect("shapes match");
        let reliable_ax = a.matvec(&mut reliable, &x).expect("shapes match");
        let reliable_aty = a.matvec_t(&mut reliable, &y).expect("shapes match");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        // Rate 0 through a NoisyFpu is the reliable path, bit for bit.
        prop_assert_eq!(bits(&sparse_ax), bits(&reliable_ax));
        prop_assert_eq!(bits(&sparse_aty), bits(&reliable_aty));

        let dense_ax = dense.matvec(&mut reliable, &x).expect("shapes match");
        let dense_aty = dense.matvec_t(&mut reliable, &y).expect("shapes match");
        if stride == 1 {
            // Every stored row is contiguous and full: the sparse product
            // issues exactly the dense kernel call, so agreement is exact.
            prop_assert_eq!(bits(&sparse_ax), bits(&dense_ax));
            prop_assert_eq!(bits(&sparse_aty), bits(&dense_aty));
        } else {
            for (s, d) in sparse_ax.iter().zip(&dense_ax) {
                prop_assert!((s - d).abs() <= 1e-12 * (1.0 + d.abs()), "{s} vs {d}");
            }
            for (s, d) in sparse_aty.iter().zip(&dense_aty) {
                prop_assert!((s - d).abs() <= 1e-12 * (1.0 + d.abs()), "{s} vs {d}");
            }
        }
    }
}

/// The zero-skip economy: dropped entries never reach the FPU, so a
/// sparse product charges strictly fewer FLOPs than the dense product
/// over the same matrix — and exactly the same FLOPs when nothing is
/// dropped.
#[test]
fn sparse_flop_counts_reflect_stored_entries_only() {
    let with_zeros = test_matrix(9, 24, 3);
    let x = vec![1.0; 24];
    let mut sparse_fpu = ReliableFpu::new();
    with_zeros
        .matvec(&mut sparse_fpu, &x)
        .expect("shapes match");
    assert_eq!(sparse_fpu.flops(), 2 * with_zeros.nnz() as u64);
    let mut dense_fpu = ReliableFpu::new();
    with_zeros
        .to_dense()
        .matvec(&mut dense_fpu, &x)
        .expect("shapes match");
    assert!(sparse_fpu.flops() < dense_fpu.flops());

    // Fully dense (stride 1, no empty row): identical kernel, identical
    // charge.
    let full = test_matrix(2, 24, 1);
    assert_eq!(full.nnz(), 48);
    let mut sparse_fpu = ReliableFpu::new();
    full.matvec(&mut sparse_fpu, &x).expect("shapes match");
    let mut dense_fpu = ReliableFpu::new();
    full.to_dense()
        .matvec(&mut dense_fpu, &x)
        .expect("shapes match");
    assert_eq!(sparse_fpu.flops(), dense_fpu.flops());
}

/// Slides the first strike across row boundaries: with 10-FLOP rows, the
/// first fault-free window of a product ends exactly on a row boundary
/// when the strike's offset into the product is a multiple of 10 and
/// inside a row otherwise. Both products, every offset over two rows,
/// must match scalar dispatch bit for bit.
#[test]
fn windows_ending_inside_and_on_row_boundaries_match_scalar() {
    let rate = FaultRate::per_flop(0.01);
    let seed = 12;
    let mut probe = NoisyFpu::new(rate, FaultModelSpec::default(), seed);
    while probe.faults() == 0 {
        probe.mul(1.5, 2.5);
    }
    // The op the first strike lands on; no fault happens before it, so
    // its index does not depend on which ops run first.
    let strike = probe.flops() - 1;
    assert!(strike >= 30, "seed {seed} strikes too early ({strike})");

    let a = stencil_matrix();
    let (x, _) = product_inputs(&a);
    // No zero coefficients: every row costs 10 FLOPs in `matvec_t` too.
    let y: Vec<f64> = (0..a.rows())
        .map(|i| 1.5 - (i % 7) as f64 * 0.125)
        .collect();
    for offset in 10..30 {
        for transpose in [false, true] {
            let run = |fpu: &mut NoisyFpu| {
                for i in 0..strike - offset {
                    fpu.mul(1.0 + i as f64, 1.5);
                }
                let v = if transpose {
                    a.matvec_t(fpu, &y)
                } else {
                    a.matvec(fpu, &x)
                }
                .expect("shapes match");
                let mut out: Vec<u64> = v.iter().map(|f| f.to_bits()).collect();
                out.extend((0..64).map(|i| fpu.add(i as f64, 0.5).to_bits()));
                out.extend([fpu.flops(), fpu.faults()]);
                out
            };
            let mut batched = NoisyFpu::new(rate, FaultModelSpec::default(), seed);
            let mut scalar = NoisyFpu::new(rate, FaultModelSpec::default(), seed);
            scalar.set_batching(false);
            let b = run(&mut batched);
            assert!(
                batched.faults() >= 1,
                "offset {offset}: the product must strike"
            );
            assert_eq!(
                b,
                run(&mut scalar),
                "offset {offset}, transpose {transpose}"
            );
            assert_eq!(batched.stats(), scalar.stats());
        }
    }
}
