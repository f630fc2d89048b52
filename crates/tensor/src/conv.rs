//! Convolution and pooling kernels for NCHW tensors.
//!
//! Convolutions run on the register-tiled GEMM of [`crate::gemm`]. The
//! forward pass and the weight gradient read their taps straight from a
//! zero-padded copy of each sample, with no column matrix (the weight
//! gradient copies each pixel's `(c, ky)` runs of the paper's 3 taps as
//! fixed-width arrays); the input gradient scatters its product back
//! through `col2im`, the lowering's adjoint. Pooling is computed directly,
//! recording argmax indices so the backward pass can scatter gradients.
//! Every pass fans out over the batch only, the max-pool included, and a
//! lone sample stays on the calling thread.

use crate::error::{Result, TensorError};
use crate::gemm;
use crate::parallel;
use crate::simd::{self, SimdTier};
use crate::tensor::Tensor;
use std::ops::Range;

/// Geometry of a 2-D sliding-window operation (convolution or pooling).
///
/// The paper's fused binary blocks use a 3×3 convolution with stride 1 and
/// padding 1, and a 3×3 pool with stride 2 and padding 1; both are instances
/// of this struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Zero padding applied symmetrically on all sides.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a square-kernel spec.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dSpec { kernel_h: kernel, kernel_w: kernel, stride, padding }
    }

    /// The paper's convolution geometry: 3×3, stride 1, padding 1.
    pub fn paper_conv() -> Self {
        Conv2dSpec::new(3, 1, 1)
    }

    /// The paper's pooling geometry: 3×3, stride 2, padding 1.
    pub fn paper_pool() -> Self {
        Conv2dSpec::new(3, 2, 1)
    }

    /// Output spatial size for an `(h, w)` input, rejecting degenerate
    /// geometry — the only size arithmetic there is: the f32
    /// conv/pool/lowering family below, the fused
    /// [`crate::bitmatrix::BinaryConvPlan`] and the layers above all go
    /// through it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel is larger
    /// than the padded input, if the kernel is empty, or if the stride is
    /// zero.
    pub fn checked_output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let valid = self.stride > 0
            && self.kernel_h > 0
            && self.kernel_w > 0
            && h + 2 * self.padding >= self.kernel_h
            && w + 2 * self.padding >= self.kernel_w;
        if !valid {
            return Err(TensorError::InvalidGeometry {
                kernel: (self.kernel_h, self.kernel_w),
                input: (h, w),
                stride: self.stride,
                padding: self.padding,
            });
        }
        let oh = (h + 2 * self.padding - self.kernel_h) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel_w) / self.stride + 1;
        Ok((oh, ow))
    }
}

pub(crate) fn check_nchw(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: t.rank() });
    }
    let d = t.dims();
    if d.contains(&0) {
        return Err(TensorError::Empty { op });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// The output positions `o` whose tap `k` lands inside an input axis of
/// length `size` (`0 <= o·stride + k − padding < size`), clipped to the
/// `out` positions there are; empty when the tap only ever reads padding.
fn tap_range(k: usize, size: usize, out: usize, spec: &Conv2dSpec) -> Range<usize> {
    let hi = (size + spec.padding).saturating_sub(k).div_ceil(spec.stride).min(out);
    let lo = spec.padding.saturating_sub(k).div_ceil(spec.stride).min(hi);
    lo..hi
}

/// The input positions a `kernel`-wide window starting at padded position
/// `start` covers on an axis of length `size`; empty when the window lies
/// wholly in padding.
fn window_range(start: usize, kernel: usize, size: usize, padding: usize) -> Range<usize> {
    let (lo, hi) = (start.max(padding), (start + kernel).min(padding + size));
    if lo < hi {
        lo - padding..hi - padding
    } else {
        0..0
    }
}

/// One sample's lowering geometry: a `(c, h, w)` image under `spec`, read
/// as `rows = c·kh·kw` taps by `pixels = oh·ow` output positions.
#[derive(Debug, Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    spec: Conv2dSpec,
}

impl Lowering {
    fn new(c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Result<Self> {
        let (oh, ow) = spec.checked_output_size(h, w)?;
        Ok(Lowering { c, h, w, oh, ow, spec: *spec })
    }

    fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    fn rows(&self) -> usize {
        self.c * self.spec.kernel_h * self.spec.kernel_w
    }

    fn pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// `(rows, columns)` of one channel of the zero-padded plane.
    fn padded(&self) -> (usize, usize) {
        (self.h + 2 * self.spec.padding, self.w + 2 * self.spec.padding)
    }

    /// Copies one image into the interior of its zero-padded plane. Only
    /// the interior is written, so the border stays zero across samples.
    fn pad(&self, image: &[f32], plane: &mut [f32]) {
        let (p, (hp, wp)) = (self.spec.padding, self.padded());
        for (ch, rows) in image.chunks_exact(self.h * self.w).enumerate() {
            for (iy, row) in rows.chunks_exact(self.w).enumerate() {
                plane[(ch * hp + iy + p) * wp + p..][..self.w].copy_from_slice(row);
            }
        }
    }

    /// The column/row walk of [`Lowering::col2im`]: for every
    /// `(ch, ky, kx)` tap in that order and every output row `oy` the tap
    /// reaches, calls `f(r, oy, row, ox_range, ix0)` — `r` the tap's
    /// column-matrix row and `row` the offset of its input row in the
    /// image, with input column `ix0 + (ox − ox_range.start) · stride` for
    /// each output column `ox` in `ox_range`.
    fn for_each_tap_row(&self, mut f: impl FnMut(usize, usize, usize, Range<usize>, usize)) {
        let spec = &self.spec;
        let mut r = 0;
        for ch in 0..self.c {
            for ky in 0..spec.kernel_h {
                let oys = tap_range(ky, self.h, self.oh, spec);
                for kx in 0..spec.kernel_w {
                    let oxs = tap_range(kx, self.w, self.ow, spec);
                    if !oxs.is_empty() {
                        let ix0 = oxs.start * spec.stride + kx - spec.padding;
                        for oy in oys.clone() {
                            let iy = oy * spec.stride + ky - spec.padding;
                            f(r, oy, (ch * self.h + iy) * self.w, oxs.clone(), ix0);
                        }
                    }
                    r += 1;
                }
            }
        }
    }

    /// Accumulates one `(rows, pixels)` column matrix back into its image
    /// gradient — the adjoint of the lowering. Within one
    /// `(ch, ky, kx)` tap every output pixel reaches a distinct input
    /// element, so walking the taps in that order hands each element its
    /// contributions in the per-tap loop's order.
    fn col2im(&self, colmat: &[f32], dst: &mut [f32]) {
        let (pixels, stride) = (self.pixels(), self.spec.stride);
        self.for_each_tap_row(|r, oy, row, oxs, ix0| {
            let src = &colmat[r * pixels + oy * self.ow..][oxs];
            let dst = &mut dst[row..][..self.w];
            if stride == 1 {
                for (d, &s) in dst[ix0..ix0 + src.len()].iter_mut().zip(src) {
                    *d += s;
                }
            } else {
                for (d, &s) in dst[ix0..].iter_mut().step_by(stride).zip(src) {
                    *d += s;
                }
            }
        });
    }
}

/// Inverse lowering: accumulates a `(n, c*kh*kw, oh*ow)` column tensor back
/// into an NCHW gradient of shape `(n, c, h, w)`.
///
/// Overlapping receptive fields *accumulate*, which is exactly the adjoint of
/// the lowering — required for correct convolution input gradients.
///
/// # Errors
///
/// Returns an error if `cols` is not rank 3 or its shape is inconsistent
/// with `(c, h, w)` under `spec`.
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Result<Tensor> {
    if cols.rank() != 3 {
        return Err(TensorError::RankMismatch { expected: 3, actual: cols.rank() });
    }
    let low = Lowering::new(c, h, w, spec)?;
    let (rows, pixels) = (low.rows(), low.pixels());
    let n = cols.dims()[0];
    if cols.dims()[1] != rows || cols.dims()[2] != pixels {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: vec![n, rows, pixels],
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; n * low.image_len()];
    let data = cols.data();
    // Scatter-accumulation stays within one batch element, so batches can
    // run on separate workers without racing.
    parallel::par_item_chunks_mut(&mut out, low.image_len(), n * rows * pixels, |b0, chunk| {
        for (bi, bchunk) in chunk.chunks_mut(low.image_len()).enumerate() {
            low.col2im(&data[(b0 + bi) * rows * pixels..][..rows * pixels], bchunk);
        }
    });
    Tensor::from_vec(out, [n, c, h, w])
}

/// Forward 2-D convolution: input `(n, c, h, w)`, weights `(f, c, kh, kw)`,
/// producing `(n, f, oh, ow)`.
///
/// # Errors
///
/// Returns an error for non-rank-4 operands, mismatched channel counts or
/// degenerate geometry.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "conv2d")?;
    let (f, wc, kh, kw) = check_nchw(weight, "conv2d")?;
    if wc != c || kh != spec.kernel_h || kw != spec.kernel_w {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
            op: "conv2d",
        });
    }
    let low = Lowering::new(c, h, w, spec)?;
    let (rows, pixels) = (low.rows(), low.pixels());
    let (x, wdata) = (input.data(), weight.data());
    let taps = TapRuns::new(&low, simd::active_tier());
    let mut out = vec![0.0f32; n * f * pixels];
    // Fan the batch out across the pool; each element is an independent
    // `(f, rows) x (rows, pixels)` product on its own padded copy, staged
    // in one plane per worker. A lone sample runs on the calling thread.
    parallel::par_item_chunks_mut(&mut out, f * pixels, n * f * rows * pixels, |b0, chunk| {
        let mut plane = vec![0.0f32; taps.plane_len];
        for (bi, res) in chunk.chunks_mut(f * pixels).enumerate() {
            low.pad(&x[(b0 + bi) * low.image_len()..][..low.image_len()], &mut plane);
            taps.conv(wdata, &plane, res);
        }
    });
    Tensor::from_vec(out, [n, f, low.oh, low.ow])
}

/// The forward GEMM's implicit right-hand operand: row `r = (c, ky, kx)`,
/// column `(oy, ox)` is the sample's zero-padded copy at
/// `(c, oy·stride + ky, ox·stride + kx)` — one run of the padded plane per
/// tap and output row, with no column matrix in between. Every output
/// element accumulates its taps in ascending `(c, ky, kx)` order from
/// `0.0`, the padding taps included (`w · 0.0`, so an Inf or NaN weight
/// still poisons a border pixel), as a GEMM over the former column matrix
/// did.
struct TapRuns {
    tier: SimdTier,
    /// Offset of each tap's run for output row 0, ascending in `r`.
    starts: Vec<usize>,
    /// Width of a padded plane row.
    wp: usize,
    /// Taps per `(c, ky)` run: the kernel width.
    kw: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    /// Output pixels per slab, when the runs are not read in place.
    slab_cols: Option<usize>,
    /// Floats of a padded plane, the zero tail the in-place reads may
    /// reach included.
    plane_len: usize,
}

/// Floats in one slab of copied runs: an L1-sized block of the operand.
const SLAB_FLOATS: usize = 8 * 1024;

impl TapRuns {
    fn new(low: &Lowering, tier: SimdTier) -> Self {
        let (spec, (hp, wp)) = (&low.spec, low.padded());
        let (kh, kw) = (spec.kernel_h, spec.kernel_w);
        let starts = (0..low.c * kh * kw)
            .map(|r| (r / (kh * kw) * hp + r / kw % kh) * wp + r % kw)
            .collect();
        let nr = gemm::tile_cols(tier);
        // At stride 1 a tap's run for one output row is contiguous, so
        // the GEMM reads it in place; the last tile of a row may read up
        // to `nr` floats past the row's end (dropped lanes), which for the
        // last row the plane's zero tail holds. Other strides, and rows
        // too narrow to fill a tile, copy blocks of runs into a slab.
        let slab_cols = (spec.stride != 1 || low.ow < nr).then(|| {
            let cols = (SLAB_FLOATS / low.rows()).max(1);
            (cols - cols % nr).max(nr).min(low.pixels())
        });
        TapRuns {
            tier,
            starts,
            wp,
            kw,
            stride: spec.stride,
            oh: low.oh,
            ow: low.ow,
            slab_cols,
            plane_len: low.c * hp * wp + nr,
        }
    }

    /// `out += w · B` for the filters `w` (rows of `starts.len()` weights,
    /// as many as `out` holds output maps) over one padded sample.
    fn conv(&self, w: &[f32], plane: &[f32], out: &mut [f32]) {
        let (rows, pixels) = (self.starts.len(), self.oh * self.ow);
        let m = out.len() / pixels;
        let Some(cols) = self.slab_cols else {
            let runs = gemm::Operand { data: plane, rows: &self.starts[..] };
            for oy in 0..self.oh {
                let b = gemm::Operand { data: &plane[oy * self.wp..], ..runs };
                let out = &mut out[oy * self.ow..];
                gemm::gemm_into(self.tier, w, b, (m, rows, self.ow), out, pixels);
            }
            return;
        };
        let mut slab = vec![0.0f32; rows * cols];
        for q0 in (0..pixels).step_by(cols) {
            let width = cols.min(pixels - q0);
            let (oy0, ox0) = (q0 / self.ow, q0 % self.ow);
            for (&start, dst) in self.starts.iter().zip(slab.chunks_exact_mut(cols)) {
                // The block's pixels, one output row's run at a time.
                let (mut oy, mut ox, mut done) = (oy0, ox0, 0);
                while done < width {
                    let len = (self.ow - ox).min(width - done);
                    let src = &plane[start + (oy * self.wp + ox) * self.stride..];
                    let dst = &mut dst[done..][..len];
                    if self.stride == 1 {
                        dst.copy_from_slice(&src[..len]);
                    } else {
                        let taps = src.iter().step_by(self.stride);
                        dst.iter_mut().zip(taps).for_each(|(d, &v)| *d = v);
                    }
                    (oy, ox, done) = (oy + 1, 0, done + len);
                }
            }
            let b = gemm::Operand { data: &slab[..], rows: gemm::Strided(cols) };
            gemm::gemm_into(self.tier, w, b, (m, rows, width), &mut out[q0..], pixels);
        }
    }

    /// Row length of a weight-gradient partial: the taps, padded to whole
    /// register tiles so that every column panel of the product is full.
    fn grad_ld(&self) -> usize {
        self.starts.len().next_multiple_of(gemm::tile_cols(self.tier))
    }

    /// Output pixels per weight-gradient block: an L1-sized slab of
    /// [`TapRuns::grad_ld`]-float rows.
    fn grad_block(&self) -> usize {
        (SLAB_FLOATS / self.grad_ld()).clamp(1, self.oh * self.ow)
    }

    /// The implicit operand's columns from pixel `q0` on, pixel-major: row
    /// `q` of `slab` (rows `ld` floats apart, as many as it holds) gets
    /// pixel `q0 + q`'s taps in ascending `r` — the runs [`TapRuns::conv`]
    /// copies tap-major, read across. A pixel's `kw` taps of one `(c, ky)`
    /// are adjacent in the padded plane, so at the paper's width of 3 each
    /// such run is one fixed-width copy; other widths read tap by tap.
    fn gather(&self, plane: &[f32], q0: usize, slab: &mut [f32], ld: usize) {
        if self.kw == 3 {
            return self.gather_runs::<3>(plane, q0, slab, ld);
        }
        let (mut oy, mut ox) = (q0 / self.ow, q0 % self.ow);
        for dst in slab.chunks_exact_mut(ld) {
            let taps = &plane[(oy * self.wp + ox) * self.stride..];
            dst.iter_mut().zip(&self.starts).for_each(|(d, &s)| *d = taps[s]);
            (oy, ox) = if ox + 1 == self.ow { (oy + 1, 0) } else { (oy, ox + 1) };
        }
    }

    /// [`TapRuns::gather`] for a kernel `KW` taps wide, one `[f32; KW]`
    /// copy per `(c, ky)` run. A copy of a width known only at run time
    /// (a `memcpy` call, or a loop of unknown trip count) measured slower
    /// than the tap-by-tap reads; the fixed width is what pays: a
    /// training step at the paper's shapes runs some 11 % faster with it
    /// than with the tap-by-tap reads alone (EXPERIMENTS.md E35).
    fn gather_runs<const KW: usize>(&self, plane: &[f32], q0: usize, slab: &mut [f32], ld: usize) {
        let (mut oy, mut ox) = (q0 / self.ow, q0 % self.ow);
        for dst in slab.chunks_exact_mut(ld) {
            let taps = &plane[(oy * self.wp + ox) * self.stride..];
            for (run, &s) in dst.chunks_exact_mut(KW).zip(self.starts.iter().step_by(KW)) {
                let run: &mut [f32; KW] = run.try_into().expect("a run of KW taps");
                *run = taps[s..s + KW].try_into().expect("a run of KW taps");
            }
            (oy, ox) = if ox + 1 == self.ow { (oy + 1, 0) } else { (oy, ox + 1) };
        }
    }

    /// `out += dy · Bᵀ` — the weight gradient's product — for the rows of
    /// `dy` (`oh·ow` floats each, one per row of `out`, which are
    /// [`TapRuns::grad_ld`] floats apart) over one padded sample. The
    /// pixels go in consecutive blocks of `slab.len() / grad_ld`, each
    /// gathered pixel-major into `slab` with its columns of `dy` copied
    /// into `lhs`; every element of `out` carries its sum from one block
    /// into the next, so it takes its products in ascending pixel order,
    /// as one product over all pixels would. The slab's padding columns are
    /// never written: they keep the zeros they were allocated with, and the
    /// columns of `out` past the taps are the caller's to drop.
    fn weight_grad(
        &self,
        dy: &[f32],
        plane: &[f32],
        out: &mut [f32],
        slab: &mut [f32],
        lhs: &mut [f32],
    ) {
        let (ld, pixels) = (self.grad_ld(), self.oh * self.ow);
        let (m, block) = (out.len() / ld, slab.len() / ld);
        for q0 in (0..pixels).step_by(block) {
            let width = block.min(pixels - q0);
            let (b, a) = (&mut slab[..width * ld], &mut lhs[..m * width]);
            self.gather(plane, q0, b, ld);
            for (dst, src) in a.chunks_exact_mut(width).zip(dy.chunks_exact(pixels)) {
                dst.copy_from_slice(&src[q0..][..width]);
            }
            gemm::gemm(self.tier, a, b, m, width, ld, out);
        }
    }
}

/// Gradients of [`conv2d`] given upstream `grad_out` of shape
/// `(n, f, oh, ow)`.
///
/// Returns `(grad_input, grad_weight)` with the shapes of `input` and
/// `weight` respectively: [`conv2d_backward_input`] and
/// [`conv2d_backward_weight`], which a caller that reads only one of the
/// two runs alone.
///
/// # Errors
///
/// Returns an error for inconsistent shapes.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor)> {
    let grad_weight = conv2d_backward_weight(input, grad_out, spec)?;
    if grad_weight.dims() != weight.dims() {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.dims().to_vec(),
            rhs: grad_weight.dims().to_vec(),
            op: "conv2d_backward",
        });
    }
    let grad_input = conv2d_backward_input(input.dims(), weight, grad_out, spec)?;
    Ok((grad_input, grad_weight))
}

/// `f` of a `grad_out` that fits an `(n, ·, h, w)` input, checked against
/// the lowering's output size.
fn check_grad_out(n: usize, low: &Lowering, grad_out: &Tensor) -> Result<usize> {
    let (gn, f, goh, gow) = check_nchw(grad_out, "conv2d_backward")?;
    if gn != n || goh != low.oh || gow != low.ow {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.dims().to_vec(),
            rhs: vec![n, f, low.oh, low.ow],
            op: "conv2d_backward",
        });
    }
    Ok(f)
}

/// The weight half of [`conv2d_backward`]: `dW = Σ_b dY_b · Bᵀ_b`, with
/// `B_b` the `(c·kh·kw, oh·ow)` taps of sample `b` that [`conv2d`] reads,
/// shaped `(f, c, kh, kw)` and summed over the batch in order.
///
/// The per-sample partials fan out over the batch. Each worker pads its
/// samples one at a time and reads their taps from the zero-padded plane,
/// an L1-sized block of output pixels at a time, with no column matrix.
/// Each partial starts from `0.0` and takes its products in ascending
/// pixel order; the partials are then added into `dW` one sample after
/// another from zero, exactly as a serial loop over the batch adds them.
///
/// # Errors
///
/// Returns an error for inconsistent shapes.
pub fn conv2d_backward_weight(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "conv2d_backward")?;
    let low = Lowering::new(c, h, w, spec)?;
    let f = check_grad_out(n, &low, grad_out)?;
    let (rows, pixels) = (low.rows(), low.pixels());
    let (x, dy) = (input.data(), grad_out.data());
    let taps = TapRuns::new(&low, simd::active_tier());
    let (ld, block) = (taps.grad_ld(), taps.grad_block());
    let mut partials = vec![0.0f32; n * f * ld];
    parallel::par_item_chunks_mut(&mut partials, f * ld, n * f * pixels * rows, |b0, chunk| {
        let mut plane = vec![0.0f32; taps.plane_len];
        let (mut slab, mut lhs) = (vec![0.0f32; block * ld], vec![0.0f32; f * block]);
        for (bi, part) in chunk.chunks_mut(f * ld).enumerate() {
            let b = b0 + bi;
            low.pad(&x[b * low.image_len()..][..low.image_len()], &mut plane);
            let dy = &dy[b * f * pixels..][..f * pixels];
            taps.weight_grad(dy, &plane, part, &mut slab, &mut lhs);
        }
    });
    let mut grad_w = vec![0.0f32; f * rows];
    for part in partials.chunks_exact(f * ld) {
        for (g, p) in grad_w.chunks_exact_mut(rows).zip(part.chunks_exact(ld)) {
            g.iter_mut().zip(p).for_each(|(g, &p)| *g += p);
        }
    }
    Tensor::from_vec(grad_w, [f, c, spec.kernel_h, spec.kernel_w])
}

/// The input half of [`conv2d_backward`]: `dX_b = col2im(Wᵀ · dY_b)` for an
/// input of shape `input_dims` `(n, c, h, w)`, fanned out over the batch
/// with `Wᵀ` formed once per call; a lone sample runs on the calling
/// thread.
///
/// # Errors
///
/// Returns an error for inconsistent shapes.
pub fn conv2d_backward_input(
    input_dims: &[usize],
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let &[n, c, h, w] = input_dims else {
        return Err(TensorError::RankMismatch { expected: 4, actual: input_dims.len() });
    };
    let (f, wc, kh, kw) = check_nchw(weight, "conv2d_backward")?;
    let low = Lowering::new(c, h, w, spec)?;
    let gf = check_grad_out(n, &low, grad_out)?;
    if gf != f || wc != c || kh != spec.kernel_h || kw != spec.kernel_w {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.dims().to_vec(),
            rhs: vec![gf, c, spec.kernel_h, spec.kernel_w],
            op: "conv2d_backward",
        });
    }
    let (rows, pixels) = (low.rows(), low.pixels());
    let wmat_t = weight.reshape([f, rows])?.transpose()?;
    let (tier, wt, dy) = (simd::active_tier(), wmat_t.data(), grad_out.data());
    let image = low.image_len();
    let mut grad_in = vec![0.0f32; n * image];
    parallel::par_item_chunks_mut(&mut grad_in, image, n * rows * f * pixels, |b0, chunk| {
        let mut cols = vec![0.0f32; rows * pixels];
        for (bi, dx) in chunk.chunks_mut(image).enumerate() {
            cols.fill(0.0);
            let dy = &dy[(b0 + bi) * f * pixels..][..f * pixels];
            gemm::gemm(tier, wt, dy, rows, f, pixels, &mut cols);
            low.col2im(&cols, dx);
        }
    });
    Tensor::from_vec(grad_in, [n, c, h, w])
}

/// Result of a max-pooling forward pass: the pooled output plus the flat
/// input index each output element was taken from (for the backward pass).
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled tensor of shape `(n, c, oh, ow)`.
    pub output: Tensor,
    /// For each output element, the flat index into the input it selected.
    pub argmax: Vec<usize>,
}

/// Forward max pooling over an NCHW tensor.
///
/// Padding positions are treated as `-inf` (never selected) unless an entire
/// window falls in padding, in which case the output is `0.0` and the argmax
/// sentinel `usize::MAX` marks "no source" (no gradient flows back).
///
/// # Errors
///
/// Returns an error if `input` is not a non-empty rank-4 tensor or the
/// pooling geometry is degenerate.
pub fn max_pool2d(input: &Tensor, spec: &Conv2dSpec) -> Result<MaxPoolOutput> {
    let (output, argmax) = pool(input, spec, true)?;
    Ok(MaxPoolOutput { output, argmax })
}

/// [`max_pool2d`]'s pooled values alone, without the argmax table only a
/// backward pass reads (inference).
///
/// # Errors
///
/// As [`max_pool2d`].
pub fn max_pool2d_values(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    Ok(pool(input, spec, false)?.0)
}

/// What one window tap of [`max_pool2d`] counts in the pool's
/// MAC-equivalents, as an XNOR word counts 64. The scan is a scalar
/// compare-select with a data-dependent branch, about 3 ns a tap, against
/// about 21 MACs a ns for the f32 GEMM the cut-off was set by: a tap costs
/// some 64 MACs.
const POOL_TAP_COST: usize = 64;

/// Max pooling with the argmax table filled when `record` is set (left
/// empty otherwise). Each window is clipped to the input once per output
/// row and column, then scanned ky-then-kx with a strict `>`, so ties keep
/// the first tap and NaN is never selected. The batch fans out over the
/// pool, each sample's planes whole in one share, and a lone sample runs on
/// the calling thread, as every conv pass does; argmax entries are flat
/// indices into the whole input.
fn pool(input: &Tensor, spec: &Conv2dSpec, record: bool) -> Result<(Tensor, Vec<usize>)> {
    let (n, c, h, w) = check_nchw(input, "max_pool2d")?;
    let (oh, ow) = spec.checked_output_size(h, w)?;
    let per_sample = c * oh * ow;
    let mut out = vec![0.0f32; n * per_sample];
    let mut argmax = if record { vec![usize::MAX; n * per_sample] } else { Vec::new() };
    let data = input.data();
    let ixs: Vec<Range<usize>> =
        (0..ow).map(|ox| window_range(ox * spec.stride, spec.kernel_w, w, spec.padding)).collect();
    // One plane: its pooled values into `out` and, when recorded, the flat
    // input index of each into `argmax`.
    let scan = |plane: usize, out: &mut [f32], mut argmax: Option<&mut [usize]>| {
        let in_plane = plane * h * w;
        for oy in 0..oh {
            let iys = window_range(oy * spec.stride, spec.kernel_h, h, spec.padding);
            for (ox, cols) in ixs.iter().enumerate() {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = usize::MAX;
                for iy in iys.clone() {
                    let first = in_plane + iy * w + cols.start;
                    for (idx, &v) in (first..).zip(&data[first..first + cols.len()]) {
                        if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                // A window wholly in padding (or of NaN/−inf only) selects
                // nothing: output 0.0, argmax sentinel `usize::MAX`.
                if best_idx != usize::MAX {
                    out[oy * ow + ox] = best;
                    if let Some(argmax) = argmax.as_deref_mut() {
                        argmax[oy * ow + ox] = best_idx;
                    }
                }
            }
        }
    };
    let mut argmax_samples = argmax.chunks_mut(per_sample);
    let mut samples: Vec<(&mut [f32], Option<&mut [usize]>)> =
        out.chunks_mut(per_sample).map(|o| (o, argmax_samples.next())).collect();
    let work = n * per_sample * spec.kernel_h * spec.kernel_w * POOL_TAP_COST;
    parallel::par_map_mut(&mut samples, work, |b, (out, argmax)| {
        for (ch, plane) in out.chunks_mut(oh * ow).enumerate() {
            let argmax = argmax.as_deref_mut().map(|a| &mut a[ch * oh * ow..][..oh * ow]);
            scan(b * c + ch, plane, argmax);
        }
    });
    Ok((Tensor::from_vec(out, [n, c, oh, ow])?, argmax))
}

/// Every pooled plane of a `(c, h, w)` stack of planes, in channel order:
/// `visit(channel, pooled)` once per channel, with its `oh·ow` pooled
/// values in row-major order — for inference, which reduces each pooled
/// plane on the spot instead of storing the map. Separable: per output
/// row, the elementwise max down its clipped row window, across whole rows
/// of lanes, into a row padded with `−∞`; then each column window's max
/// of that row. The values equal [`max_pool2d`]'s (a max is a selection;
/// NaN is never selected and a window with nothing to select yields
/// `0.0`); only the sign of a zero may differ where a window holds both
/// `+0.0` and `−0.0`.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] unless `data` holds `c·h·w`
/// values, and an error for degenerate pooling geometry.
pub fn max_pool2d_visit(
    data: &[f32],
    (c, h, w): (usize, usize, usize),
    spec: &Conv2dSpec,
    mut visit: impl FnMut(usize, &[f32]),
) -> Result<()> {
    if data.len() != c * h * w {
        return Err(TensorError::LengthMismatch { expected: c * h * w, actual: data.len() });
    }
    let (oh, ow) = spec.checked_output_size(h, w)?;
    // A compare-select from −∞ (one `maxps` lane): NaN never wins, and
    // −∞ left over means nothing was selected. Every fold takes its taps
    // in ascending order, so ties keep the first.
    let max = |best: f32, v: f32| if v > best { v } else { best };
    let (p, s) = (spec.padding, spec.stride);
    // One output row's column maxima between `−∞` padding, which the
    // windows read and never select.
    let mut column = vec![f32::NEG_INFINITY; w + 2 * p];
    let mut pooled = vec![0.0f32; oh * ow];
    for (ch, plane) in data.chunks_exact(h * w).enumerate() {
        for (oy, out) in pooled.chunks_exact_mut(ow).enumerate() {
            let ys = window_range(oy * s, spec.kernel_h, h, p);
            let inner = &mut column[p..p + w];
            inner.fill(f32::NEG_INFINITY);
            for row in plane[ys.start * w..ys.end * w].chunks_exact(w) {
                inner.iter_mut().zip(row).for_each(|(c, &v)| *c = max(*c, v));
            }
            for (ox, o) in out.iter_mut().enumerate() {
                let window = &column[ox * s..][..spec.kernel_w];
                let best = window.iter().fold(f32::NEG_INFINITY, |b, &v| max(b, v));
                *o = if best == f32::NEG_INFINITY { 0.0 } else { best };
            }
        }
        visit(ch, &pooled);
    }
    Ok(())
}

/// Backward max pooling: scatters `grad_out` to the argmax positions recorded
/// by [`max_pool2d`].
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `grad_out` length differs
/// from the recorded argmax table, and [`TensorError::IndexOutOfBounds`]
/// for an argmax index outside `input_shape` (other than the `usize::MAX`
/// "no source" sentinel).
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
) -> Result<Tensor> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::LengthMismatch { expected: argmax.len(), actual: grad_out.len() });
    }
    let mut grad_in = Tensor::zeros(input_shape.to_vec());
    let gi = grad_in.data_mut();
    for (g, &idx) in grad_out.data().iter().zip(argmax) {
        if idx == usize::MAX {
            continue;
        }
        let Some(slot) = gi.get_mut(idx) else {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![idx],
                shape: input_shape.to_vec(),
            });
        };
        *slot += g;
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One image's `(rows, pixels)` column matrix: the taps the weight
    /// gradient gathers from the padded plane, all pixels in one block,
    /// transposed back.
    fn im2col(image: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
        let (_, c, h, w) = check_nchw(image, "im2col")?;
        let low = Lowering::new(c, h, w, spec)?;
        let (rows, pixels) = (low.rows(), low.pixels());
        let taps = TapRuns::new(&low, SimdTier::Scalar);
        let mut plane = vec![0.0f32; taps.plane_len];
        low.pad(image.data(), &mut plane);
        let mut cols_t = vec![0.0f32; pixels * rows];
        taps.gather(&plane, 0, &mut cols_t, rows);
        Tensor::from_vec(cols_t, [pixels, rows])?.transpose()?.reshape([1, rows, pixels])
    }

    #[test]
    fn output_size_paper_geometries() {
        let size = |spec: Conv2dSpec, hw| spec.checked_output_size(hw, hw).unwrap();
        assert_eq!(size(Conv2dSpec::paper_conv(), 32), (32, 32));
        assert_eq!(size(Conv2dSpec::paper_pool(), 32), (16, 16));
        assert_eq!(size(Conv2dSpec::paper_pool(), 16), (8, 8));
        assert_eq!(size(Conv2dSpec::paper_pool(), 8), (4, 4));
    }

    #[test]
    fn oversized_kernel_is_rejected_not_clamped() {
        // A 5x5 kernel on an unpadded 2x2 input must error, not clamp to a
        // bogus 1x1 output.
        let spec = Conv2dSpec::new(5, 1, 0);
        assert!(matches!(
            spec.checked_output_size(2, 2),
            Err(TensorError::InvalidGeometry { kernel: (5, 5), input: (2, 2), .. })
        ));
        let input = Tensor::ones([1, 1, 2, 2]);
        let weight = Tensor::ones([1, 1, 5, 5]);
        assert!(conv2d(&input, &weight, &spec).is_err());
        assert!(Lowering::new(1, 2, 2, &spec).is_err());
        assert!(max_pool2d(&input, &spec).is_err());
        // Padding that makes the kernel fit again is accepted.
        let padded = Conv2dSpec::new(5, 1, 2);
        assert_eq!(padded.checked_output_size(2, 2).unwrap(), (2, 2));
    }

    #[test]
    fn zero_stride_is_rejected() {
        let spec = Conv2dSpec::new(3, 0, 1);
        assert!(spec.checked_output_size(8, 8).is_err());
        assert!(max_pool2d(&Tensor::ones([1, 1, 8, 8]), &spec).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is the identity layout.
        let input = Tensor::from_fn([1, 2, 2, 2], |i| i as f32);
        let spec = Conv2dSpec::new(1, 1, 0);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.dims(), &[1, 2, 4]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn im2col_respects_padding() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let spec = Conv2dSpec::new(3, 1, 1);
        let cols = im2col(&input, &spec).unwrap();
        // Center tap (kernel position 1,1 = row 4) sees every input pixel.
        let row4 = &cols.data()[4 * 4..5 * 4];
        assert_eq!(row4, &[1.0, 1.0, 1.0, 1.0]);
        // Corner tap (0,0) only sees the input where the window fits.
        let row0 = &cols.data()[0..4];
        assert_eq!(row0, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn conv2d_known_values() {
        // 2x2 input, 3x3 all-ones kernel, pad 1: each output = sum of the
        // 3x3 neighbourhood.
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let weight = Tensor::ones([1, 1, 3, 3]);
        let out = conv2d(&input, &weight, &Conv2dSpec::paper_conv()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        let input = Tensor::ones([1, 3, 4, 4]);
        let weight = Tensor::ones([2, 3, 3, 3]);
        let out = conv2d(&input, &weight, &Conv2dSpec::paper_conv()).unwrap();
        assert_eq!(out.dims(), &[1, 2, 4, 4]);
        // Interior output pixel: 3 channels * 9 taps = 27.
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 27.0);
        // Corner: 3 channels * 4 in-bounds taps = 12.
        assert_eq!(out.get(&[0, 1, 0, 0]).unwrap(), 12.0);
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let input = Tensor::ones([1, 2, 4, 4]);
        let weight = Tensor::ones([1, 3, 3, 3]);
        assert!(conv2d(&input, &weight, &Conv2dSpec::paper_conv()).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y — the adjoint
        // property that makes conv gradients correct.
        let spec = Conv2dSpec::paper_conv();
        let x = Tensor::from_fn([1, 2, 3, 3], |i| (i as f32 * 0.37).sin());
        let cx = im2col(&x, &spec).unwrap();
        let y = Tensor::from_fn(cx.dims().to_vec(), |i| (i as f32 * 0.11).cos());
        let lhs = cx.dot(&y).unwrap();
        let cy = col2im(&y, 2, 3, 3, &spec).unwrap();
        let rhs = x.dot(&cy).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn max_pool2d_visit_walks_max_pool2d_values_in_order() {
        let spec = Conv2dSpec::paper_pool();
        for (c, h, w) in [(3, 16, 16), (2, 5, 7), (1, 1, 1)] {
            let x = Tensor::from_fn([1, c, h, w], |i| ((i * 7919) % 13) as f32 - 6.0);
            let mut seen = Vec::new();
            max_pool2d_visit(x.data(), (c, h, w), &spec, |ch, pooled| {
                seen.extend(pooled.iter().map(|&v| (ch, v)));
            })
            .unwrap();
            let pooled = max_pool2d_values(&x, &spec).unwrap();
            let per = pooled.len() / c;
            let expect: Vec<_> =
                pooled.data().iter().enumerate().map(|(i, &v)| (i / per, v)).collect();
            assert_eq!(seen, expect, "{c}x{h}x{w}");
        }
        // NaN is never selected, and a window of NaN and −∞ only pools to 0.
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let x = Tensor::from_vec(
            vec![nan, ninf, 2.0, nan, ninf, nan, nan, f32::INFINITY],
            [1, 1, 2, 4],
        )
        .unwrap();
        let mut seen = Vec::new();
        max_pool2d_visit(x.data(), (1, 2, 4), &spec, |_, pooled| seen.extend_from_slice(pooled))
            .unwrap();
        assert_eq!(seen, max_pool2d_values(&x, &spec).unwrap().data());
        assert_eq!(seen, [0.0, f32::INFINITY]);
        assert!(max_pool2d_visit(&[0.0; 3], (1, 2, 2), &spec, |_, _| ()).is_err());
    }

    #[test]
    fn conv2d_backward_finite_difference() {
        let spec = Conv2dSpec::paper_conv();
        let input = Tensor::from_fn([1, 1, 3, 3], |i| (i as f32 * 0.3).sin());
        let weight = Tensor::from_fn([1, 1, 3, 3], |i| (i as f32 * 0.7).cos() * 0.5);
        let out = conv2d(&input, &weight, &spec).unwrap();
        // Loss = sum of outputs -> upstream gradient of ones.
        let gout = Tensor::ones(out.dims().to_vec());
        let (gin, gw) = conv2d_backward(&input, &weight, &gout, &spec).unwrap();
        let eps = 1e-3;
        // Check a few weight coordinates by central differences.
        for &idx in &[0usize, 4, 8] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let fp = conv2d(&input, &wp, &spec).unwrap().sum();
            let fm = conv2d(&input, &wm, &spec).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gw.data()[idx]).abs() < 1e-2, "dW[{idx}]: {num} vs {}", gw.data()[idx]);
        }
        // And a few input coordinates.
        for &idx in &[0usize, 4, 7] {
            let mut xp = input.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = input.clone();
            xm.data_mut()[idx] -= eps;
            let fp = conv2d(&xp, &weight, &spec).unwrap().sum();
            let fm = conv2d(&xm, &weight, &spec).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gin.data()[idx]).abs() < 1e-2,
                "dX[{idx}]: {num} vs {}",
                gin.data()[idx]
            );
        }
    }

    #[test]
    fn max_pool_known_values() {
        let input = Tensor::from_vec((1..=16).map(|x| x as f32).collect(), [1, 1, 4, 4]).unwrap();
        let res = max_pool2d(&input, &Conv2dSpec::paper_pool()).unwrap();
        assert_eq!(res.output.dims(), &[1, 1, 2, 2]);
        // Windows centred per stride-2 with pad 1 over a 4x4 of 1..16.
        assert_eq!(res.output.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_scatters_to_argmax() {
        let input = Tensor::from_vec((1..=16).map(|x| x as f32).collect(), [1, 1, 4, 4]).unwrap();
        let spec = Conv2dSpec::paper_pool();
        let res = max_pool2d(&input, &spec).unwrap();
        let gout = Tensor::ones([1, 1, 2, 2]);
        let gin = max_pool2d_backward(&gout, &res.argmax, input.dims()).unwrap();
        // Gradient lands exactly on the max positions (values 6, 8, 14, 16).
        assert_eq!(gin.data()[5], 1.0);
        assert_eq!(gin.data()[7], 1.0);
        assert_eq!(gin.data()[13], 1.0);
        assert_eq!(gin.data()[15], 1.0);
        assert_eq!(gin.sum(), 4.0);
    }

    #[test]
    fn max_pool_backward_rejects_an_argmax_outside_the_input() {
        let input = Tensor::from_vec((1..=16).map(|x| x as f32).collect(), [1, 1, 4, 4]).unwrap();
        let res = max_pool2d(&input, &Conv2dSpec::paper_pool()).unwrap();
        let gout = Tensor::ones([1, 1, 2, 2]);
        // The argmax of a 4x4 input, [5, 7, 13, 15], read against a 3x3
        // one: 13 is the first index past its nine elements.
        let err = max_pool2d_backward(&gout, &res.argmax, &[1, 1, 3, 3]).unwrap_err();
        assert_eq!(err, TensorError::IndexOutOfBounds { index: vec![13], shape: vec![1, 1, 3, 3] });
        // The "no source" sentinel still scatters nothing.
        let none = max_pool2d_backward(&gout, &[usize::MAX; 4], &[1, 1, 3, 3]).unwrap();
        assert_eq!(none.sum(), 0.0);
    }

    #[test]
    fn max_pool_preserves_max_bound() {
        let input = Tensor::from_fn([1, 2, 8, 8], |i| ((i * 37) % 101) as f32 / 101.0);
        let res = max_pool2d(&input, &Conv2dSpec::paper_pool()).unwrap();
        assert!(res.output.max().unwrap() <= input.max().unwrap());
    }

    #[test]
    fn pool_rejects_bad_rank() {
        let input = Tensor::ones([4, 4]);
        assert!(max_pool2d(&input, &Conv2dSpec::paper_pool()).is_err());
    }
}
