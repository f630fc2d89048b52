//! The register-tiled f32 GEMM against the loops it replaced, on every
//! SIMD tier: `Tensor::matmul`, `conv2d` (which reads its taps from a
//! zero-padded plane), `conv2d_backward_weight` and `conv2d_backward_input`
//! must stay **bit-identical** to the former `ikj` kernel, the former
//! per-sample `im2col` + `ikj` forward and the former per-sample backward
//! loops — every tile remainder, `k = 0`, signed zeros and IEEE specials
//! included — at any pool size (run under `DDNN_THREADS=1` and `=4` by
//! `just kernel-matrix`).
//!
//! The reference functions below are the former code, kept verbatim apart
//! from calling [`reference_matmul`] (the former `ikj` kernel) where they
//! called `matmul` and [`reference_im2col`] (the former bounds-checked
//! lowering) where they called `im2col`.

use ddnn_tensor::conv::{
    col2im, conv2d, conv2d_backward_input, conv2d_backward_weight, Conv2dSpec,
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

/// The former `im2col`, verbatim: an `(n, c, h, w)` batch lowered to `n`
/// `(c·kh·kw, oh·ow)` column matrices by the bounds-checked per-tap walk,
/// padding taps left `0.0`.
fn reference_im2col(
    data: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    spec: &Conv2dSpec,
) -> Vec<f32> {
    let (oh, ow) = spec.checked_output_size(h, w).unwrap();
    let rows = c * spec.kernel_h * spec.kernel_w;
    let cols = oh * ow;
    let mut out = vec![0.0f32; n * rows * cols];
    for (b, bchunk) in out.chunks_mut(rows * cols).enumerate() {
        let in_base = b * c * h * w;
        let mut r = 0;
        for ch in 0..c {
            for ky in 0..spec.kernel_h {
                for kx in 0..spec.kernel_w {
                    let row_off = r * cols;
                    for oy in 0..oh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src_row = in_base + ch * h * w + iy as usize * w;
                        for ox in 0..ow {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            bchunk[row_off + oy * ow + ox] = data[src_row + ix as usize];
                        }
                    }
                    r += 1;
                }
            }
        }
    }
    out
}

/// The former `conv2d` forward, one sample after another: the sample's
/// column matrix, then `(f, rows) x (rows, pixels)` by the `ikj` loop into
/// a zeroed output.
fn reference_conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let &[n, c, h, w] = input.dims() else { panic!("rank 4") };
    let f = weight.dims()[0];
    let (oh, ow) = spec.checked_output_size(h, w).unwrap();
    let (rows, pixels) = (c * spec.kernel_h * spec.kernel_w, oh * ow);
    let cols = reference_im2col(input.data(), (n, c, h, w), spec);
    let mut out = vec![0.0f32; n * f * pixels];
    for (b, res) in out.chunks_mut(f * pixels).enumerate() {
        let colmat = &cols[b * rows * pixels..][..rows * pixels];
        reference_gemm(weight.data(), colmat, f, rows, pixels, res);
    }
    Tensor::from_vec(out, [n, f, oh, ow]).unwrap()
}

/// The former `conv2d_backward_weight` loop, one sample after another.
fn reference_backward_weight(input: &Tensor, grad_out: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (n, c) = (input.dims()[0], input.dims()[1]);
    let (f, oh, ow) = (grad_out.dims()[1], grad_out.dims()[2], grad_out.dims()[3]);
    let rows = c * spec.kernel_h * spec.kernel_w;
    let (h, w) = (input.dims()[2], input.dims()[3]);
    let cols =
        Tensor::from_vec(reference_im2col(input.data(), (n, c, h, w), spec), [n, rows, oh * ow])
            .unwrap();
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
    let rect =
        |kernel_h, kernel_w, stride, padding| Conv2dSpec { kernel_h, kernel_w, stride, padding };
    // `(c, h, w, f, spec, batches)`. Per-sample work of the first shape is
    // 8·36·256 ≈ 7.4e4 MACs, so a batch of 1 or 3 runs inline and a batch
    // of 40 (≈ 2.9e6) clears the pool's 2²¹ cut-off.
    let (small, paper) = (&[1, 3, 40][..], &[50][..]);
    let cases = [
        (4, 16, 16, 8, Conv2dSpec::paper_conv(), small),
        (3, 9, 7, 5, Conv2dSpec::new(3, 2, 1), small),
        (2, 6, 5, 3, Conv2dSpec::new(2, 1, 0), small),
        // The paper's training shapes at its batch of 50: the device conv
        // (27 taps, narrower than an AVX-512 tile) and the edge conv (216
        // taps; its 256 pixels are no multiple of the weight gradient's
        // pixel block on any tier).
        (3, 32, 32, 4, Conv2dSpec::paper_conv(), paper),
        (24, 16, 16, 16, Conv2dSpec::paper_conv(), paper),
        // 27 taps over 17·19 = 323 pixels: a full block and a partial one.
        (3, 17, 19, 5, Conv2dSpec::paper_conv(), small),
        // Strides 2 and 3, rectangular kernels.
        (3, 11, 13, 5, Conv2dSpec::new(3, 3, 1), small),
        (3, 7, 19, 5, rect(2, 5, 1, 2), small),
        (2, 9, 6, 3, rect(3, 1, 2, 0), small),
        // Padding at and past the kernel: taps and whole rows of padding.
        (2, 3, 4, 3, Conv2dSpec::new(2, 1, 2), small),
        (1, 2, 3, 2, Conv2dSpec::new(1, 1, 3), small),
        (2, 5, 5, 3, Conv2dSpec::new(3, 3, 4), small),
    ];
    let mut seed = 100;
    for (c, h, w, f, spec, batches) in cases {
        let (oh, ow) = spec.checked_output_size(h, w).unwrap();
        let (kh, kw) = (spec.kernel_h, spec.kernel_w);
        for (&n, specials) in batches.iter().flat_map(|n| [(n, false), (n, true)]) {
            seed += 1;
            // With specials, about one per tensor: sparse enough that most
            // sums stay finite.
            let every = |len: usize| if specials { len as u32 } else { 0 };
            let input =
                Tensor::from_vec(operand(n * c * h * w, every(n * c * h * w), seed), [n, c, h, w])
                    .unwrap();
            let weight = Tensor::from_vec(
                operand(f * c * kh * kw, every(f * c * kh * kw), !seed),
                [f, c, kh, kw],
            )
            .unwrap();
            let grad_out = Tensor::from_vec(
                operand(n * f * oh * ow, every(n * f * oh * ow), seed + 7),
                [n, f, oh, ow],
            )
            .unwrap();
            let want_w = reference_backward_weight(&input, &grad_out, &spec);
            let want_x = reference_backward_input(input.dims(), &weight, &grad_out, &spec);
            for tier in simd::supported_tiers() {
                let (got_w, got_x) = simd::with_tier(tier, || {
                    (
                        conv2d_backward_weight(&input, &grad_out, &spec).unwrap(),
                        conv2d_backward_input(input.dims(), &weight, &grad_out, &spec).unwrap(),
                    )
                });
                let at = format!("{tier}: n={n} c={c} {h}x{w} f={f} {spec:?} specials={specials}");
                assert_eq!(got_w.dims(), want_w.dims(), "{at}");
                assert_eq!(sum_bits(got_w.data()), sum_bits(want_w.data()), "dW {at}");
                assert_eq!(got_x.dims(), want_x.dims(), "{at}");
                assert_eq!(sum_bits(got_x.data()), sum_bits(want_x.data()), "dX {at}");
            }
        }
    }
}

#[test]
fn conv2d_matches_the_im2col_ikj_loop_on_every_tier() {
    let rect =
        |kernel_h, kernel_w, stride, padding| Conv2dSpec { kernel_h, kernel_w, stride, padding };
    // `(c, h, w, f, spec)`. Per-sample work runs from a few MACs to
    // 24·9·32·1024 ≈ 7.1e6, so batches of 1, 3 and 40 fall on both sides
    // of the pool's 2²¹ cut-off, and the widest single sample runs inline
    // above it.
    let cases = [
        // The device conv: output rows of whole tiles on every tier.
        (3, 32, 32, 4, Conv2dSpec::paper_conv()),
        // The edge and cloud shapes: rows narrower than a 32-wide tile.
        (24, 16, 16, 16, Conv2dSpec::paper_conv()),
        (16, 8, 8, 32, Conv2dSpec::paper_conv()),
        (24, 32, 32, 32, Conv2dSpec::paper_conv()),
        // Widths that are no multiple of any lane count.
        (5, 9, 37, 7, Conv2dSpec::paper_conv()),
        (2, 4, 21, 3, Conv2dSpec::paper_conv()),
        // Stride 2, rectangular kernels.
        (3, 11, 13, 5, Conv2dSpec::new(3, 2, 1)),
        (3, 7, 19, 5, rect(2, 5, 1, 2)),
        (2, 9, 6, 3, rect(3, 1, 2, 0)),
        // Padding at and past the kernel: taps and whole rows of padding.
        (2, 3, 4, 3, Conv2dSpec::new(2, 1, 2)),
        (1, 2, 3, 2, Conv2dSpec::new(1, 1, 3)),
        (2, 5, 5, 3, Conv2dSpec::new(3, 3, 4)),
    ];
    let mut seed = 500;
    for (c, h, w, f, spec) in cases {
        let (kh, kw) = (spec.kernel_h, spec.kernel_w);
        let rows = (c * kh * kw) as u32;
        for n in [1, 3, 40] {
            seed += 1;
            // Specials sparse enough that most outputs stay finite: about
            // one per four receptive fields, and one per weight tensor.
            let input =
                Tensor::from_vec(operand(n * c * h * w, 4 * rows, seed), [n, c, h, w]).unwrap();
            let weight =
                Tensor::from_vec(operand(f * c * kh * kw, f as u32 * rows, !seed), [f, c, kh, kw])
                    .unwrap();
            let want = reference_conv2d(&input, &weight, &spec);
            for tier in simd::supported_tiers() {
                let got = simd::with_tier(tier, || conv2d(&input, &weight, &spec).unwrap());
                let at = format!("{tier}: n={n} c={c} {h}x{w} f={f} {spec:?}");
                assert_eq!(got.dims(), want.dims(), "{at}");
                assert_eq!(sum_bits(got.data()), sum_bits(want.data()), "{at}");
            }
        }
    }
}

#[test]
fn conv2d_padding_taps_carry_an_infinite_weight_into_nan() {
    // An Inf weight on a corner tap times a padding zero is NaN: every
    // pixel whose window puts that tap in the border is NaN, the rest
    // are +Inf, on every tier.
    let input = Tensor::ones([1, 2, 5, 7]);
    let mut weight = Tensor::ones([3, 2, 3, 3]);
    weight.data_mut()[0] = f32::INFINITY;
    let spec = Conv2dSpec::paper_conv();
    let want = reference_conv2d(&input, &weight, &spec);
    assert!(want.data()[..35].iter().any(|v| v.is_nan()));
    assert!(want.data()[..35].contains(&f32::INFINITY));
    for tier in simd::supported_tiers() {
        let got = simd::with_tier(tier, || conv2d(&input, &weight, &spec).unwrap());
        assert_eq!(sum_bits(got.data()), sum_bits(want.data()), "{tier}");
    }
}
