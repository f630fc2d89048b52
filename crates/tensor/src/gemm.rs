//! The one f32 GEMM: `out += a · b` for a row-major `a` and a `b` whose
//! rows start wherever an [`Operand`] says — a row-major matrix, or the
//! tap runs of a zero-padded image — in register tiles, on the SIMD tiers
//! of [`crate::simd`]. `Tensor::matmul`, the f32 convolution and both
//! halves of its backward pass all run it.
//!
//! One generic body ([`gemm_tiled`]) works on `[f32; W]` lane arrays, which
//! the compiler turns into one vector register each, and is recompiled
//! under each tier's `#[target_feature]` set:
//!
//! | tier             | lanes `W` | tile (rows × columns) | accumulators |
//! |------------------|-----------|-----------------------|--------------|
//! | `scalar`, `sse2` | 4         | 4 × 8                 | 8 `xmm`      |
//! | `avx2`           | 8         | 4 × 16                | 8 `ymm`      |
//! | `avx512`         | 16        | 4 × 32                | 8 `zmm`      |
//!
//! (`scalar` and `sse2` share the x86-64 baseline clone: SSE2 is the
//! baseline, and the f32 kernel needs nothing `popcnt` adds.)
//!
//! **Every tier produces the same bits**, those of the plain `ikj` loop
//! (`out[i][j] += a[i][p] * b[p][j]` for `p` ascending): each output
//! element has one accumulator, seeded from `out`, that takes its
//! products in ascending `p` through a separate multiply and add. No FMA:
//! a fused multiply-add rounds once where the loop rounds twice, and Rust
//! never contracts `x + y * z` into one. Tiling only changes which
//! elements advance side by side, never the sequence one element sees —
//! so the result is also independent of how [`gemm_auto`] partitions the
//! rows over the pool.
//!
//! There is deliberately no `a == 0.0` skip: `0.0 * NaN` is NaN, not
//! zero, so skipping would silently erase NaN/Inf contributions from `b`
//! and mask poisoned activations instead of propagating them (IEEE
//! semantics).

use crate::parallel;
use crate::simd::SimdTier;

/// Rows of a register tile: output rows that share every load of `b`.
const MR: usize = 4;

/// Row-major `(m,k) x (k,n)` product accumulated into `out` (length `m*n`;
/// zeroed by the caller unless it accumulates), serial, on `tier`'s clone.
/// `tier` must come from [`crate::simd::active_tier`].
pub(crate) fn gemm(
    tier: SimdTier,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    gemm_into(tier, a, Operand { data: b, rows: Strided(n) }, (m, k, n), out, n)
}

/// Where each row of a right-hand operand starts in its data.
pub(crate) trait RowStarts: Copy {
    /// The offset of row `p`'s first column.
    fn at(self, p: usize) -> usize;
}

/// A row-major matrix's rows, this many floats apart.
#[derive(Clone, Copy)]
pub(crate) struct Strided(pub usize);

impl RowStarts for Strided {
    #[inline(always)]
    fn at(self, p: usize) -> usize {
        p * self.0
    }
}

/// Rows at listed offsets, in ascending order: the tap runs of a padded
/// image, which [`crate::conv::conv2d`] reads in place.
impl RowStarts for &[usize] {
    #[inline(always)]
    fn at(self, p: usize) -> usize {
        self[p]
    }
}

/// A `(k, n)` right-hand operand: row `p`, column `j` is
/// `data[rows.at(p) + j]`. A full `NR`-wide column panel is read in place
/// from every row, so `data` must reach `rows.at(p) + j + NR` for every
/// full panel at `j`; the last, narrower panel reads in place only the rows
/// that reach that far and copies the rest.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a, R> {
    pub data: &'a [f32],
    pub rows: R,
}

/// `out += a · b` for an `(m, k)` row-major `a` and a `(k, n)` [`Operand`]
/// `b`, with `out`'s rows `ldo` floats apart — [`gemm`] for any operand
/// layout, on `tier`'s clone.
pub(crate) fn gemm_into<R: RowStarts>(
    tier: SimdTier,
    a: &[f32],
    b: Operand<'_, R>,
    mkn: (usize, usize, usize),
    out: &mut [f32],
    ldo: usize,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the tier is clamped to the detected CPU features.
    match tier {
        SimdTier::Scalar | SimdTier::Sse2 => gemm_tiled::<4, 2, R>(a, b, mkn, out, ldo),
        SimdTier::Avx2 => unsafe { gemm_avx2(a, b, mkn, out, ldo) },
        SimdTier::Avx512 => unsafe { gemm_avx512(a, b, mkn, out, ldo) },
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = tier;
        gemm_tiled::<4, 2, R>(a, b, mkn, out, ldo)
    }
}

/// Columns of `tier`'s register tile (`NR` in the module table): an
/// output row narrower than this fills no tile.
pub(crate) fn tile_cols(tier: SimdTier) -> usize {
    match tier {
        SimdTier::Scalar | SimdTier::Sse2 => 8,
        SimdTier::Avx2 => 16,
        SimdTier::Avx512 => 32,
    }
}

/// [`gemm`] that row-partitions the output across the worker pool when the
/// product clears the pool's work cut-off. Each output element is produced
/// by exactly one worker running the serial kernel's per-element sequence,
/// so the result is bit-identical for any thread count.
pub(crate) fn gemm_auto(
    tier: SimdTier,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    parallel::par_item_chunks_mut(out, n, m * k * n, |r0, chunk| {
        let mrows = chunk.len() / n;
        gemm(tier, &a[r0 * k..(r0 + mrows) * k], b, mrows, k, n, chunk);
    });
}

/// AVX2 clone of [`gemm_tiled`]: 8-lane arrays are `ymm` registers.
///
/// # Safety
///
/// The CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2<R: RowStarts>(
    a: &[f32],
    b: Operand<'_, R>,
    mkn: (usize, usize, usize),
    out: &mut [f32],
    ldo: usize,
) {
    gemm_tiled::<8, 2, R>(a, b, mkn, out, ldo)
}

/// AVX-512 clone of [`gemm_tiled`]: 16-lane arrays are `zmm` registers.
///
/// # Safety
///
/// The CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512<R: RowStarts>(
    a: &[f32],
    b: Operand<'_, R>,
    mkn: (usize, usize, usize),
    out: &mut [f32],
    ldo: usize,
) {
    gemm_tiled::<16, 2, R>(a, b, mkn, out, ldo)
}

/// The one GEMM body: `out += a · b` in `MR × NR` register tiles of
/// `NR = NV · W` columns, one `NR`-wide column panel of `b` at a time —
/// the panel stays in L1 while every row block streams past it.
#[inline(always)]
fn gemm_tiled<const W: usize, const NV: usize, R: RowStarts>(
    a: &[f32],
    b: Operand<'_, R>,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
    ldo: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let full = n - n % (NV * W);
    for j in (0..full).step_by(NV * W) {
        let panel = Panel { b: &b.data[j..], rows: b.rows, main: k, tail: &[] };
        row_blocks::<W, NV, R>(a, m, k, panel, &mut out[j..], ldo);
    }
    match n - full {
        0 => {}
        width if width <= W => edge_panel::<W, 1, R>(a, b, (m, k, n), full, out, ldo),
        _ => edge_panel::<W, NV, R>(a, b, (m, k, n), full, out, ldo),
    }
}

/// The last, narrower column panel — columns `start..n`, fewer than
/// `NR = NV · W` — as `NR`-wide tiles whose padding columns are computed
/// and dropped. Its rows of `b` are read in place (a row's padding lanes
/// read whatever follows it) except the last few, whose reads would pass
/// the end of `b`: those are copied into a zero-padded tail. Its output
/// columns go through an `NR`-wide buffer, so no store reaches the next
/// row.
#[inline(always)]
fn edge_panel<const W: usize, const NV: usize, R: RowStarts>(
    a: &[f32],
    b: Operand<'_, R>,
    (m, k, n): (usize, usize, usize),
    start: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let (nr, width) = (NV * W, n - start);
    // Rows start in ascending order, so the rows read in place are a
    // prefix, found by bisection: those whose `nr` floats from
    // `rows.at(p) + start` stay within `b`.
    let fits = |p: usize| b.rows.at(p) + start + nr <= b.data.len();
    let (mut main, mut hi) = (0, k);
    while main < hi {
        let mid = (main + hi) / 2;
        if fits(mid) {
            main = mid + 1;
        } else {
            hi = mid;
        }
    }
    let mut tail = vec![0.0f32; (k - main) * nr];
    for (p, dst) in (main..k).zip(tail.chunks_exact_mut(nr)) {
        dst[..width].copy_from_slice(&b.data[b.rows.at(p) + start..][..width]);
    }
    let mut edge = vec![0.0f32; m * nr];
    for (i, dst) in edge.chunks_exact_mut(nr).enumerate() {
        dst[..width].copy_from_slice(&out[i * ldo + start..][..width]);
    }
    let panel = Panel { b: &b.data[start..], rows: b.rows, main, tail: &tail };
    row_blocks::<W, NV, R>(a, m, k, panel, &mut edge, nr);
    for (i, src) in edge.chunks_exact(nr).enumerate() {
        out[i * ldo + start..][..width].copy_from_slice(&src[..width]);
    }
}

/// The rows of `b` one column panel reads: rows `0..main` in place, at
/// `rows.at(p)` from the panel's first column, then the rest from `tail`,
/// `NR` floats apart.
#[derive(Clone, Copy)]
struct Panel<'a, R> {
    b: &'a [f32],
    rows: R,
    main: usize,
    tail: &'a [f32],
}

/// Every row of `out` against one column panel: `MR`-row tiles, then the
/// leftover rows one at a time. `out` starts at the panel's first column,
/// with rows `ldo` floats apart.
#[inline(always)]
fn row_blocks<const W: usize, const NV: usize, R: RowStarts>(
    a: &[f32],
    m: usize,
    k: usize,
    panel: Panel<'_, R>,
    out: &mut [f32],
    ldo: usize,
) {
    let mut i = 0;
    while i + MR <= m {
        tile::<W, MR, NV, R>(&a[i * k..], k, panel, &mut out[i * ldo..], ldo);
        i += MR;
    }
    for i in i..m {
        tile::<W, 1, NV, R>(&a[i * k..], k, panel, &mut out[i * ldo..], ldo);
    }
}

/// One `R × NR` register tile: `out[r][c] += Σ_p a[r][p] · b[p][c]` in
/// ascending `p`, with `a` rows of `k` and `out` rows of `ldo` floats.
#[inline(always)]
fn tile<const W: usize, const R: usize, const NV: usize, S: RowStarts>(
    a: &[f32],
    k: usize,
    panel: Panel<'_, S>,
    out: &mut [f32],
    ldo: usize,
) {
    let nr = NV * W;
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    let mut acc: [[[f32; W]; NV]; R] = std::array::from_fn(|r| lanes(&out[r * ldo..][..nr]));
    for p in 0..panel.main {
        step(&mut acc, &rows, p, &panel.b[panel.rows.at(p)..][..nr]);
    }
    for (p, bp) in (panel.main..k).zip(panel.tail.chunks_exact(nr)) {
        step(&mut acc, &rows, p, bp);
    }
    for (r, row) in acc.iter().enumerate() {
        for (dst, x) in out[r * ldo..][..nr].chunks_exact_mut(W).zip(row) {
            dst.copy_from_slice(x);
        }
    }
}

/// The `NV` lane arrays of `src`'s first `NV · W` floats.
#[inline(always)]
fn lanes<const W: usize, const NV: usize>(src: &[f32]) -> [[f32; W]; NV] {
    std::array::from_fn(|v| src[v * W..][..W].try_into().expect("a W-lane slice"))
}

/// One `p` of a tile: `acc[r] += a[r][p] · bp` for every row `r`, with
/// `bp` the `NV · W` floats of row `p` of `b` — loaded once for all rows,
/// each lane a multiply, then an add.
#[inline(always)]
fn step<const W: usize, const R: usize, const NV: usize>(
    acc: &mut [[[f32; W]; NV]; R],
    rows: &[&[f32]; R],
    p: usize,
    bp: &[f32],
) {
    let bv: [[f32; W]; NV] = lanes(bp);
    for (row, arow) in acc.iter_mut().zip(rows) {
        let av = arow[p];
        for (o, x) in row.iter_mut().zip(&bv) {
            *o = std::array::from_fn(|l| o[l] + av * x[l]);
        }
    }
}
