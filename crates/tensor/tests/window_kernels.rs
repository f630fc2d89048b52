//! The sliding-window kernels against the bounds-checked loops they
//! replaced: [`col2im`] and [`max_pool2d`] walk clipped contiguous rows and
//! [`conv2d`] reads its taps from a zero-padded plane, and each must stay
//! **bit-identical** to a per-tap bounds-checked walk — values, argmax
//! indices, the all-padding `0.0` / `usize::MAX` sentinel, and NaN, ±inf,
//! −0.0 and tie handling — on any geometry, padding at or beyond the
//! kernel included.
//!
//! The reference functions below are the kernels' former loop nests,
//! kept verbatim apart from running serially over the batch; `conv2d`'s
//! is the per-tap `im2col` walk followed by the `ikj` product.

use ddnn_tensor::conv::{col2im, conv2d, max_pool2d, max_pool2d_values, Conv2dSpec};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng;

/// Values a window kernel must carry through untouched: the IEEE
/// specials, a signed zero, and a short palette that makes ties common.
const SPECIALS: [f32; 8] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.0, -1.0, 0.5];

/// A tensor mixing uniform draws with [`SPECIALS`] (about one in three).
fn mixed(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = rng_from_seed(seed);
    Tensor::from_fn(dims.to_vec(), |_| {
        if rng.gen_range(0..3) == 0 {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// [`bits`] of a float sum, with every NaN mapped to one pattern: IEEE
/// 754 leaves the sign and payload of a NaN result unspecified, and the
/// compiler may commute an addition's operands, which picks a different
/// NaN input to propagate. Every other value is compared bit for bit.
fn sum_bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

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

/// `(f, k) x (k, n)` accumulated into `out` in `ikj` order.
fn reference_gemm(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize), out: &mut [f32]) {
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                out[i * n + j] += a[i * k + p] * b[p * n + j];
            }
        }
    }
}

fn reference_col2im(
    data: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    spec: &Conv2dSpec,
) -> Vec<f32> {
    let (oh, ow) = spec.checked_output_size(h, w).unwrap();
    let rows = c * spec.kernel_h * spec.kernel_w;
    let mut out = vec![0.0f32; n * c * h * w];
    for (b, bchunk) in out.chunks_mut(c * h * w).enumerate() {
        let in_base = b * rows * (oh * ow);
        let mut r = 0;
        for ch in 0..c {
            for ky in 0..spec.kernel_h {
                for kx in 0..spec.kernel_w {
                    let row_off = in_base + r * oh * ow;
                    for oy in 0..oh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = ch * h * w + iy as usize * w;
                        for ox in 0..ow {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            bchunk[dst_row + ix as usize] += data[row_off + oy * ow + ox];
                        }
                    }
                    r += 1;
                }
            }
        }
    }
    out
}

fn reference_max_pool2d(
    data: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    spec: &Conv2dSpec,
) -> (Vec<f32>, Vec<usize>) {
    let (oh, ow) = spec.checked_output_size(h, w).unwrap();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![usize::MAX; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            let in_plane = (b * c + ch) * h * w;
            let out_plane = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = usize::MAX;
                    for ky in 0..spec.kernel_h {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..spec.kernel_w {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = in_plane + iy as usize * w + ix as usize;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = out_plane + oy * ow + ox;
                    if best_idx == usize::MAX {
                        out[o] = 0.0;
                    } else {
                        out[o] = best;
                        argmax[o] = best_idx;
                    }
                }
            }
        }
    }
    (out, argmax)
}

/// Checks all four kernels against their references on one geometry;
/// a geometry the spec rejects must be rejected by every kernel.
fn check(n: usize, c: usize, h: usize, w: usize, spec: Conv2dSpec, seed: u64) {
    let input = mixed(&[n, c, h, w], seed);
    let dims = (n, c, h, w);
    let Ok((oh, ow)) = spec.checked_output_size(h, w) else {
        let weight = Tensor::ones([1, c, spec.kernel_h, spec.kernel_w]);
        assert!(conv2d(&input, &weight, &spec).is_err(), "{spec:?} on {h}x{w}");
        assert!(max_pool2d(&input, &spec).is_err(), "{spec:?} on {h}x{w}");
        assert!(max_pool2d_values(&input, &spec).is_err(), "{spec:?} on {h}x{w}");
        return;
    };
    let ctx = format!("{spec:?} on {dims:?}, seed {seed}");

    let rows = c * spec.kernel_h * spec.kernel_w;
    let f = 2;
    let weight = mixed(&[f, c, spec.kernel_h, spec.kernel_w], seed ^ 0xf17);
    let cols = reference_im2col(input.data(), dims, &spec);
    let mut expected = vec![0.0f32; n * f * oh * ow];
    for (b, res) in expected.chunks_mut(f * oh * ow).enumerate() {
        let colmat = &cols[b * rows * oh * ow..][..rows * oh * ow];
        reference_gemm(weight.data(), colmat, (f, rows, oh * ow), res);
    }
    let conv = conv2d(&input, &weight, &spec).unwrap();
    assert_eq!(sum_bits(conv.data()), sum_bits(&expected), "conv2d {ctx}");

    let grad_cols = mixed(&[n, rows, oh * ow], seed ^ 0xc01);
    let back = col2im(&grad_cols, c, h, w, &spec).unwrap();
    let expected = reference_col2im(grad_cols.data(), dims, &spec);
    assert_eq!(sum_bits(back.data()), sum_bits(&expected), "col2im {ctx}");

    let pooled = max_pool2d(&input, &spec).unwrap();
    let (values, argmax) = reference_max_pool2d(input.data(), dims, &spec);
    assert_eq!(bits(pooled.output.data()), bits(&values), "max_pool2d values {ctx}");
    assert_eq!(pooled.argmax, argmax, "max_pool2d argmax {ctx}");
    let values_only = max_pool2d_values(&input, &spec).unwrap();
    assert_eq!(bits(values_only.data()), bits(&values), "max_pool2d_values {ctx}");
}

proptest! {
    #[test]
    fn window_kernels_match_the_bounds_checked_reference(
        kernel in 1usize..=5,
        stride in 1usize..=3,
        padding in 0usize..=3,
        h in 1usize..=40,
        w in 1usize..=40,
        n in 1usize..=3,
        c in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        check(n, c, h, w, Conv2dSpec::new(kernel, stride, padding), seed);
    }

    #[test]
    fn rectangular_kernels_match_the_reference(
        kernel_h in 1usize..=5,
        kernel_w in 1usize..=5,
        stride in 1usize..=3,
        padding in 0usize..=3,
        h in 1usize..=12,
        w in 1usize..=12,
        seed in 0u64..1_000_000,
    ) {
        check(2, 2, h, w, Conv2dSpec { kernel_h, kernel_w, stride, padding }, seed);
    }
}

#[test]
fn padding_at_or_beyond_the_kernel_matches_the_reference() {
    // Windows that fall wholly in padding: the pool's `0.0` / `usize::MAX`
    // sentinel and the conv's taps that read only padding.
    for (kernel, stride, padding) in [(1, 1, 1), (1, 1, 3), (2, 1, 2), (2, 3, 3), (3, 2, 3)] {
        for hw in [1, 2, 5] {
            check(2, 2, hw, hw + 1, Conv2dSpec::new(kernel, stride, padding), hw as u64);
        }
    }
}

#[test]
fn paper_geometries_match_the_reference() {
    check(3, 3, 32, 32, Conv2dSpec::paper_conv(), 1);
    check(3, 4, 32, 32, Conv2dSpec::paper_pool(), 2);
    check(2, 16, 16, 16, Conv2dSpec::paper_pool(), 3);
    // Training's batch of 50 at the device and edge pool shapes: above the
    // pool's cut-off, so the max-pool fans out over the batch whenever
    // the pool has more than one thread.
    check(50, 4, 32, 32, Conv2dSpec::paper_pool(), 4);
    check(50, 16, 16, 16, Conv2dSpec::paper_pool(), 5);
}

#[test]
fn all_nan_and_all_neg_inf_windows_keep_the_sentinel() {
    // `>` never selects NaN or a −inf that only ties the start value, so
    // such windows report the all-padding sentinel, as before.
    for fill in [f32::NAN, f32::NEG_INFINITY] {
        let input = Tensor::full([1, 1, 4, 4], fill);
        let pooled = max_pool2d(&input, &Conv2dSpec::paper_pool()).unwrap();
        assert!(pooled.output.data().iter().all(|&v| v.to_bits() == 0.0f32.to_bits()));
        assert!(pooled.argmax.iter().all(|&i| i == usize::MAX));
    }
}
