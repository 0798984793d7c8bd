//! Overhead of the fault-injection substrate itself: a `NoisyFpu` must be
//! cheap enough that experiment wall-clock is dominated by the algorithms,
//! not the emulation.
//!
//! `dot1024_fpu_overhead` covers the paper's grid rates (1/5/10 % of
//! FLOPs) and the 50 % extreme, where the strike lane carries the time;
//! `sample_bit` times the per-strike bit draw of each preset distribution.
//! `strike_cost` splits what one strike costs: `uniform_1_to` is the
//! interval draw (one LFSR step plus a modulo), and `execute` on a
//! rate-1 `NoisyFpu` is a whole strike (interval draw, bit draw and
//! corruption) outside any batch kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use robustify_linalg::dot;
use std::hint::black_box;
use stochastic_fpu::{
    BitFaultModel, BitWidth, FaultRate, FlopOp, Fpu, Lfsr, NoisyFpu, ReliableFpu,
};

fn bench_fault_injection(c: &mut Criterion) {
    let x: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.71).cos()).collect();

    let mut group = c.benchmark_group("dot1024_fpu_overhead");
    group.sample_size(50);

    group.bench_function("reliable", |b| {
        let mut fpu = ReliableFpu::new();
        b.iter(|| black_box(dot(&mut fpu, &x, &y).expect("equal lengths")))
    });
    group.bench_function("noisy_rate_0", |b| {
        let mut fpu = NoisyFpu::new(FaultRate::ZERO, BitFaultModel::emulated(), 7);
        b.iter(|| black_box(dot(&mut fpu, &x, &y).expect("equal lengths")))
    });
    for pct in [1, 5, 10, 50] {
        group.bench_function(format!("noisy_rate_{pct}pct_emulated"), |b| {
            let rate = FaultRate::percent_of_flops(f64::from(pct));
            let mut fpu = NoisyFpu::new(rate, BitFaultModel::emulated(), 7);
            b.iter(|| black_box(dot(&mut fpu, &x, &y).expect("equal lengths")))
        });
    }
    group.bench_function("noisy_rate_1pct_f32", |b| {
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(0.01),
            BitFaultModel::emulated_with_width(BitWidth::F32),
            7,
        );
        b.iter(|| black_box(dot(&mut fpu, &x, &y).expect("equal lengths")))
    });
    group.finish();
}

fn bench_sample_bit(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_bit");
    group.sample_size(50);
    for kind in [
        "emulated",
        "exponent_heavy",
        "uniform",
        "msb_only",
        "lsb_only",
    ] {
        let model = BitFaultModel::from_kind(kind, BitWidth::F64).expect("preset name");
        let mut lfsr = Lfsr::new(7);
        group.bench_function(kind, |b| b.iter(|| black_box(model.sample_bit(&mut lfsr))));
    }
    group.finish();
}

fn bench_strike_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("strike_cost");
    group.sample_size(50);
    // The interval bounds `round(2/rate − 1)` of the 1 % and 10 % grids.
    for (label, upper) in [("1pct", 199), ("10pct", 19)] {
        let mut lfsr = Lfsr::new(7);
        group.bench_function(format!("uniform_1_to_{label}"), |b| {
            b.iter(|| black_box(lfsr.uniform_1_to(black_box(upper))))
        });
    }
    // At rate 1 every operation strikes.
    let mut fpu = NoisyFpu::new(FaultRate::per_flop(1.0), BitFaultModel::emulated(), 7);
    group.bench_function("execute_rate1_emulated", |b| {
        b.iter(|| black_box(fpu.execute(FlopOp::Mul, black_box(1.5), black_box(2.5))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_injection,
    bench_sample_bit,
    bench_strike_cost
);
criterion_main!(benches);
