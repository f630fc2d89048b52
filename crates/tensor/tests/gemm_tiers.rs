//! The register-tiled f32 GEMM against the loops it replaced, on every
//! SIMD tier: `Tensor::matmul`, `conv2d_backward_weight` and
//! `conv2d_backward_input` must stay **bit-identical** to the former `ikj`
//! kernel and the former per-sample backward loops — every tile
//! remainder, `k = 0`, signed zeros and IEEE specials included — at any
//! pool size (run under `DDNN_THREADS=1` and `=4` by `just
//! kernel-matrix`).
//!
//! The reference functions below are the former code, kept verbatim apart
//! from calling [`reference_matmul`] (the former `ikj` kernel) where they
//! called `matmul`.

use ddnn_tensor::conv::{
    col2im, conv2d_backward_input, conv2d_backward_weight, im2col, Conv2dSpec,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::simd::{self, SimdTier};
use ddnn_tensor::Tensor;
use rand::Rng;

/// The widest register tile of any tier (AVX-512: 4 rows × 32 columns).
const TILE_ROWS: usize = 4;
const TILE_COLS: usize = 32;

/// Values a GEMM must carry through: the IEEE specials and signed zeros.
const SPECIALS: [f32; 6] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.0];

/// A `len`-long operand: uniform draws, with about one in `special_every`
/// taken from [`SPECIALS`] (never, for `0`).
fn operand(len: usize, special_every: u32, seed: u64) -> Vec<f32> {
    let mut rng = rng_from_seed(seed);
    (0..len)
        .map(|_| {
            if special_every > 0 && rng.gen_range(0..special_every) == 0 {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

/// Bits of a float result with every NaN mapped to one pattern: IEEE 754
/// leaves a NaN result's sign and payload unspecified, and the compiler
/// may commute an addition's operands, which picks a different NaN input
/// to propagate. Every other value — zeros' signs included — is compared
/// bit for bit.
fn sum_bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// The former `ops::gemm`, verbatim: `(m,k) x (k,n)` accumulated into
/// `out` in `ikj` order.
fn reference_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// The former `Tensor::matmul` body over [`reference_gemm`].
fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let mut out = vec![0.0f32; m * n];
    reference_gemm(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec(out, [m, n]).unwrap()
}

/// The former `conv2d_backward_weight` loop, one sample after another.
fn reference_backward_weight(input: &Tensor, grad_out: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (n, c) = (input.dims()[0], input.dims()[1]);
    let (f, oh, ow) = (grad_out.dims()[1], grad_out.dims()[2], grad_out.dims()[3]);
    let rows = c * spec.kernel_h * spec.kernel_w;
    let cols = im2col(input, spec).unwrap();
    let mut grad_w = Tensor::zeros([f, rows]);
    for b in 0..n {
        let gmat = grad_out.index_axis0(b).unwrap().reshape([f, oh * ow]).unwrap();
        let colmat = cols.index_axis0(b).unwrap(); // (rows, oh*ow)
        grad_w.add_assign(&reference_matmul(&gmat, &colmat.transpose().unwrap())).unwrap();
    }
    grad_w.reshape([f, c, spec.kernel_h, spec.kernel_w]).unwrap()
}

/// The former `conv2d_backward_input` loop, one sample after another.
fn reference_backward_input(
    input_dims: &[usize],
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Tensor {
    let &[n, c, h, w] = input_dims else { panic!("rank 4") };
    let (f, oh, ow) = (grad_out.dims()[1], grad_out.dims()[2], grad_out.dims()[3]);
    let rows = c * spec.kernel_h * spec.kernel_w;
    let wmat_t = weight.reshape([f, rows]).unwrap().transpose().unwrap();
    let mut grad_cols = Vec::with_capacity(n * rows * oh * ow);
    for b in 0..n {
        let gmat = grad_out.index_axis0(b).unwrap().reshape([f, oh * ow]).unwrap();
        grad_cols.extend_from_slice(reference_matmul(&wmat_t, &gmat).data());
    }
    let grad_cols = Tensor::from_vec(grad_cols, [n, rows, oh * ow]).unwrap();
    col2im(&grad_cols, c, h, w, spec).unwrap()
}

#[test]
fn matmul_matches_the_ikj_loop_on_every_tier_and_remainder() {
    let mut seed = 0;
    for tier in simd::supported_tiers() {
        for m in 1..=2 * TILE_ROWS + 3 {
            for n in 1..=2 * TILE_COLS + 3 {
                for k in [0, 1, 3, 17] {
                    seed += 1;
                    let a = Tensor::from_vec(operand(m * k, 5, seed), [m, k]).unwrap();
                    let b = Tensor::from_vec(operand(k * n, 5, !seed), [k, n]).unwrap();
                    let got = simd::with_tier(tier, || a.matmul(&b).unwrap());
                    let want = reference_matmul(&a, &b);
                    assert_eq!(
                        sum_bits(got.data()),
                        sum_bits(want.data()),
                        "{tier}: ({m},{k}) x ({k},{n})"
                    );
                }
            }
        }
    }
}

#[test]
fn specials_propagate_through_every_tier() {
    // A zero row of `a` against a NaN or Inf row of `b` must poison every
    // column the special sits in (0·NaN = 0·Inf = NaN); a product of
    // signed zeros keeps the accumulator's +0.0.
    let (m, k, n) = (5, 2, 2 * TILE_COLS + 3);
    let a = Tensor::from_vec(vec![0.0; m * k], [m, k]).unwrap();
    let mut brows = vec![-0.0f32; k * n];
    brows[3] = f32::NAN;
    brows[n + 40] = f32::INFINITY;
    let b = Tensor::from_vec(brows, [k, n]).unwrap();
    for tier in simd::supported_tiers() {
        let c = simd::with_tier(tier, || a.matmul(&b).unwrap());
        for (i, row) in c.data().chunks(n).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if j == 3 || j == 40 {
                    assert!(v.is_nan(), "{tier}: [{i}][{j}] = {v}");
                } else {
                    assert_eq!(v.to_bits(), 0.0f32.to_bits(), "{tier}: [{i}][{j}] = {v}");
                }
            }
        }
    }
}

#[test]
fn tiers_agree_on_a_training_sized_product() {
    // The benchmark's edge conv weight gradient, (16, 256) x (256, 216):
    // past every tile boundary and remainder at once.
    let (m, k, n) = (16, 256, 216);
    let a = Tensor::from_vec(operand(m * k, 0, 1), [m, k]).unwrap();
    let b = Tensor::from_vec(operand(k * n, 0, 2), [k, n]).unwrap();
    let want = reference_matmul(&a, &b);
    for tier in SimdTier::ALL {
        let got = simd::with_tier(tier, || a.matmul(&b).unwrap());
        assert_eq!(sum_bits(got.data()), sum_bits(want.data()), "{tier}");
    }
}

#[test]
fn conv_backward_matches_the_per_sample_loops() {
    // Per-sample work is 8·36·256 ≈ 7.4e4 MACs, so a batch of 1 or 3 runs
    // inline and a batch of 40 (≈ 2.9e6) clears the pool's 2²¹ cut-off.
    let cases = [
        (4, 16, 16, 8, Conv2dSpec::paper_conv()),
        (3, 9, 7, 5, Conv2dSpec::new(3, 2, 1)),
        (2, 6, 5, 3, Conv2dSpec::new(2, 1, 0)),
    ];
    let mut seed = 100;
    for (c, h, w, f, spec) in cases {
        let (oh, ow) = spec.checked_output_size(h, w).unwrap();
        for n in [1, 3, 40] {
            seed += 1;
            let input = Tensor::from_vec(operand(n * c * h * w, 0, seed), [n, c, h, w]).unwrap();
            let (kh, kw) = (spec.kernel_h, spec.kernel_w);
            let weight =
                Tensor::from_vec(operand(f * c * kh * kw, 0, !seed), [f, c, kh, kw]).unwrap();
            let grad_out =
                Tensor::from_vec(operand(n * f * oh * ow, 0, seed + 7), [n, f, oh, ow]).unwrap();
            let want_w = reference_backward_weight(&input, &grad_out, &spec);
            let want_x = reference_backward_input(input.dims(), &weight, &grad_out, &spec);
            for tier in simd::supported_tiers() {
                let (got_w, got_x) = simd::with_tier(tier, || {
                    (
                        conv2d_backward_weight(&input, &grad_out, &spec).unwrap(),
                        conv2d_backward_input(input.dims(), &weight, &grad_out, &spec).unwrap(),
                    )
                });
                let at = format!("{tier}: n={n} c={c} {h}x{w} f={f} {spec:?}");
                assert_eq!(got_w.dims(), want_w.dims(), "{at}");
                assert_eq!(sum_bits(got_w.data()), sum_bits(want_w.data()), "dW {at}");
                assert_eq!(got_x.dims(), want_x.dims(), "{at}");
                assert_eq!(sum_bits(got_x.data()), sum_bits(want_x.data()), "dX {at}");
            }
        }
    }
}
