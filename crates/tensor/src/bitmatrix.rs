//! Bit-packed ±1 matrices and XNOR–popcount kernels.
//!
//! The paper's end-device sections are binary networks precisely so they
//! can run in tiny memory with bitwise arithmetic (eBNN, McDanel et al.).
//! This module supplies that compute path: a [`BitMatrix`] stores a ±1
//! matrix as row-packed `u64` words (one bit per element, `+1 → 1`,
//! `−1 → 0` — the same strictly-positive sign convention as
//! [`crate::bits::pack_signs`] and `nn::binarize`), and the dot product of
//! two ±1 rows reduces to
//!
//! ```text
//! dot(a, b) = k − 2·popcount(a XOR b)          (k = row length)
//! ```
//!
//! because XOR counts the positions where the signs disagree (each
//! disagreement contributes −1 instead of +1). Rows are padded to a whole
//! number of words with zero bits; the pad bits of both operands are zero,
//! so `a XOR b` is zero there and the padding never contributes.
//!
//! Convolution has exactly one bit-packed lowering, the fused
//! [`BinaryConvPlan`] behind [`binary_conv2d`]: each output pixel's
//! receptive field is assembled as one bit row in registers and dotted
//! against every filter at once; nothing is materialised. Zero *padding*
//! taps cannot be represented in a ±1 alphabet (a zero would alias to −1),
//! so border pixels are repaired to the masked identity
//!
//! ```text
//! dot(a, b) = popcount(mask) − 2·popcount((a XOR b) AND mask)
//! ```
//!
//! by a precomputed additive term. The plan packs one input row per word,
//! so it covers `w + 2·padding ≤ 64` ([`BinaryConvPlan::fits`]; every
//! paper geometry is at most 34 wide); [`binary_conv2d`] hands wider rows
//! to the f32 [`conv2d`] on the sign-binarized operands.
//!
//! Every product term is an integer in `{−1, 0, +1}` and every partial sum
//! an integer far below 2^24, so the `f32` results here are **exactly**
//! equal to the float path on binarized operands — bit-identical, not just
//! close — which is what lets the frozen inference form stand in for the
//! f32 layers.
//!
//! Operands reach the kernels as bits. The frozen inference form hands
//! over packed maps ([`BinaryConvPlan::run_rows`],
//! [`BitMatrix::from_sign_bytes`]) and packs f32 signs only for its
//! weights, once; [`BitMatrix::pack`], [`binary_matmul`],
//! [`binary_conv2d`] and [`binary_conv2d_signs`] pack f32 operands with one
//! portable packer, the strict `x > 0.0` test per bit, in fixed 64-value
//! blocks whose lanes the compiler vectorizes on every tier. The same pass
//! reports whether every value was exactly ±1, which is how a training
//! forward learns that its input can take the plan.

use crate::conv::{check_nchw, conv2d, Conv2dSpec};
use crate::error::{Result, TensorError};
use crate::parallel;
use crate::simd::{self, SimdTier};
use crate::tensor::Tensor;

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// What a *batched* convolution divides its tap-product count by before
/// handing it to the worker pool as its work estimate. Cross-sample
/// fan-out gives up the one plane buffer and the warm caches a serial loop
/// over the batch keeps, so its parallel form has to clear the pool's
/// cut-off by this much more: a tier's micro-batch of eight runs inline on
/// the tier's own thread, an evaluation batch of dozens fans out.
const BATCH_FANOUT_COST: usize = 8;

/// Output pixels assembled per inner-loop iteration of the fused planar
/// conv kernel. Eight `u64` lanes fill one AVX-512 register (two AVX2
/// registers), so the per-lane extract loops vectorize to `vpsrlvq`.
const CONV_TILE: usize = 8;

/// The bits of `1.0` and `−1.0` with the sign cleared: a value is exactly
/// ±1 iff its bits outside the sign equal these.
const ONE_BITS: u32 = 0x3f80_0000;

/// Gathers the low bit of each byte of a word into its top byte, byte `i`
/// to bit `56 + i`: every partial product lands on a bit of its own, so
/// the multiply carries nothing into the top byte.
const BYTE_GATHER: u64 = 0x0102_0408_1020_4080;

/// Packs one block of 64 values by sign — bit `i` is set iff
/// `block[i] > 0.0` (ordered compare: false for NaN and both zeros) — and
/// returns the word beside the OR of every value's bits outside the sign
/// XOR [`ONE_BITS`], which is zero iff all 64 are exactly ±1. The lanes
/// are fixed, so both tests vectorize; each eight compare bytes become one
/// byte of the word by one multiply.
#[inline(always)]
fn pack_block(block: &[f32; WORD_BITS]) -> (u64, u32) {
    let mut bytes = [0u8; WORD_BITS];
    let mut off = 0u32;
    for (b, &x) in bytes.iter_mut().zip(block) {
        *b = u8::from(x > 0.0);
        off |= (x.to_bits() & 0x7fff_ffff) ^ ONE_BITS;
    }
    let word = bytes.chunks_exact(8).enumerate().fold(0u64, |word, (k, group)| {
        let group = u64::from_le_bytes(group.try_into().expect("eight bytes"));
        word | (group.wrapping_mul(BYTE_GATHER) >> 56) << (8 * k)
    });
    (word, off)
}

/// The one f32 → bit packer: packs `src` by sign into `dst`, 64 values per
/// word LSB-first (the last word zero above `src`'s end), and reports
/// whether every value was exactly ±1. `dst` holds `src.len().div_ceil(64)`
/// words.
#[inline(always)]
fn pack_into(src: &[f32], dst: &mut [u64]) -> bool {
    debug_assert_eq!(dst.len(), src.len().div_ceil(WORD_BITS));
    let mut off = 0u32;
    let mut blocks = src.chunks_exact(WORD_BITS);
    for (word, block) in dst.iter_mut().zip(blocks.by_ref()) {
        let (bits, o) = pack_block(block.try_into().expect("64 values"));
        (*word, off) = (bits, off | o);
    }
    let tail = blocks.remainder();
    if let Some(last) = dst.get_mut(src.len() / WORD_BITS) {
        // `−1.0` packs as a clear bit and passes the ±1 test, so the
        // padding changes neither answer.
        let mut block = [-1.0f32; WORD_BITS];
        block[..tail.len()].copy_from_slice(tail);
        let (bits, o) = pack_block(&block);
        (*last, off) = (bits, off | o);
    }
    off == 0
}

/// One word per `w`-value row of `data` (`w ≤ 64`), packed by sign, for
/// data made of whole `sample`-value samples (a multiple of `w`). Each
/// sample is packed as one bit stream and its rows cut out of it. With
/// `signs_only`, `None` as soon as a sample holds a value that is not
/// exactly ±1.
fn pack_rows(data: &[f32], w: usize, sample: usize, signs_only: bool) -> Option<Vec<u64>> {
    let mask = u64::MAX >> (WORD_BITS - w);
    let mut stream = vec![0u64; sample.div_ceil(WORD_BITS)];
    let mut rows = Vec::with_capacity(data.len() / w);
    for values in data.chunks_exact(sample) {
        if !pack_into(values, &mut stream) && signs_only {
            return None;
        }
        rows.extend((0..sample / w).map(|r| {
            let (k, shift) = (r * w / WORD_BITS, r * w % WORD_BITS);
            // A row that straddles two words takes its high bits from the
            // second (`shift > 0` there, so the shift is in range).
            let spill =
                if shift + w > WORD_BITS { stream[k + 1] << (WORD_BITS - shift) } else { 0 };
            (stream[k] >> shift | spill) & mask
        }));
    }
    Some(rows)
}

/// A ±1 matrix packed one bit per element into row-major `u64` words.
///
/// Element `(r, c)` lives in word `r * words_per_row + c / 64` at bit
/// `c % 64` (LSB-first within a word); a set bit means `+1`, a clear bit
/// `−1`. Trailing pad bits in the last word of each row are always zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-`−1` (all bits clear) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(WORD_BITS);
        BitMatrix { rows, cols, words_per_row, words: vec![0; rows * words_per_row] }
    }

    /// Packs a rank-2 tensor by sign: strictly positive elements become set
    /// bits (`+1`), everything else — including `0.0` and `-0.0` — clear
    /// bits (`−1`). This matches `nn::binarize` and
    /// [`crate::bits::pack_signs`] exactly, so binarized master weights can
    /// be packed directly without materialising `sign(W)` first.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `t` is rank 2.
    pub fn pack(t: &Tensor) -> Result<BitMatrix> {
        if t.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: t.rank() });
        }
        Ok(Self::pack_slice(t.data(), t.dims()[0], t.dims()[1]))
    }

    /// Packs `rows * cols` row-major values by the same sign convention as
    /// [`BitMatrix::pack`], without requiring a rank-2 tensor.
    pub(crate) fn pack_slice(data: &[f32], rows: usize, cols: usize) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        if cols > 0 {
            let src = data[..rows * cols].chunks_exact(cols);
            for (words, row) in m.words.chunks_exact_mut(m.words_per_row).zip(src) {
                pack_into(row, words);
            }
        }
        m
    }

    /// Packs rows given in the wire layout of [`crate::bits::pack_signs`]
    /// (MSB-first bytes, `packed_len(cols)` of them per row) without
    /// unpacking them to floats: each 8-byte group reverses into one
    /// LSB-first word, and the bits past `cols` in a row's last byte are
    /// dropped, so the zero-pad invariant holds whatever they carried.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] for a row of the wrong
    /// length.
    pub fn from_sign_bytes<'a>(
        cols: usize,
        rows: impl ExactSizeIterator<Item = &'a [u8]>,
    ) -> Result<BitMatrix> {
        let mut m = BitMatrix::zeros(rows.len(), cols);
        let wpr = m.words_per_row;
        for (r, bytes) in rows.enumerate() {
            let expected = crate::bits::packed_len(cols);
            if bytes.len() != expected {
                return Err(TensorError::LengthMismatch { expected, actual: bytes.len() });
            }
            for (w, group) in m.words[r * wpr..][..wpr].iter_mut().zip(bytes.chunks(8)) {
                let mut be = [0u8; 8];
                be[..group.len()].copy_from_slice(group);
                *w = u64::from_be_bytes(be).reverse_bits();
            }
            if !cols.is_multiple_of(WORD_BITS) {
                m.words[(r + 1) * wpr - 1] &= (1u64 << (cols % WORD_BITS)) - 1;
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of (logical) columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Index of the word holding element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics outside the logical `(rows, cols)` extent: a bit planted in a
    /// row's tail padding would break the zero-pad invariant every dot
    /// product of that row relies on.
    fn word_of(&self, r: usize, c: usize) -> usize {
        let (rows, cols) = (self.rows, self.cols);
        assert!(r < rows && c < cols, "bit ({r}, {c}) outside {rows}x{cols}");
        r * self.words_per_row + c / WORD_BITS
    }

    /// Whether element `(r, c)` is `+1`. Panics if `(r, c)` is out of range.
    pub fn get(&self, r: usize, c: usize) -> bool {
        (self.words[self.word_of(r, c)] >> (c % WORD_BITS)) & 1 == 1
    }

    /// Sets element `(r, c)` to `+1` (true) or `−1` (false). Panics if
    /// `(r, c)` is out of range.
    pub fn set(&mut self, r: usize, c: usize, positive: bool) {
        let i = self.word_of(r, c);
        if positive {
            self.words[i] |= 1 << (c % WORD_BITS);
        } else {
            self.words[i] &= !(1 << (c % WORD_BITS));
        }
    }

    /// The packed words of row `r`.
    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Unpacks back to a ±1 `f32` tensor of shape `(rows, cols)`.
    pub fn unpack(&self) -> Tensor {
        Tensor::from_fn([self.rows, self.cols], |i| {
            if self.get(i / self.cols, i % self.cols) {
                1.0
            } else {
                -1.0
            }
        })
    }

    /// XNOR–popcount GEMM: `self (m,k) · rhsᵀ` where `rhs` is `(n,k)`,
    /// producing an `(m,n)` tensor of exact integer-valued dot products.
    ///
    /// Note the rhs is taken row-major over `k` — the natural layout for
    /// both linear-layer weights (`(out, in)`) and conv filters
    /// (`(f, c·kh·kw)`) — so no transpose is ever materialised.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ.
    pub fn xnor_matmul(&self, rhs: &BitMatrix) -> Result<Tensor> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
                op: "xnor_matmul",
            });
        }
        let (m, n) = (self.rows, rhs.rows);
        let tier = simd::active_tier();
        let mut out = vec![0.0f32; m * n];
        let kernel = |r0: usize, chunk: &mut [f32]| self.xnor_block(tier, rhs, r0, chunk);
        parallel::par_item_chunks_mut(&mut out, n, m * n * self.cols, kernel);
        Tensor::from_vec(out, [m, n])
    }

    /// Serial unmasked XNOR block: fills output rows `r0..` (each `rhs.rows`
    /// columns wide) of `self · rhsᵀ`.
    #[inline(always)]
    fn xnor_block_generic(&self, rhs: &BitMatrix, r0: usize, chunk: &mut [f32]) {
        let (n, k) = (rhs.rows, self.cols as i32);
        for (ri, orow) in chunk.chunks_mut(n).enumerate() {
            let arow = self.row(r0 + ri);
            for (j, o) in orow.iter_mut().enumerate() {
                let mut diff = 0i32;
                for (&aw, &bw) in arow.iter().zip(rhs.row(j)) {
                    diff += (aw ^ bw).count_ones() as i32;
                }
                *o = (k - 2 * diff) as f32;
            }
        }
    }

    /// `popcnt`-enabled clone of [`BitMatrix::xnor_block_generic`]: the
    /// `#[target_feature]` attribute recompiles the inlined body with the
    /// hardware popcount instruction.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn xnor_block_popcnt(&self, rhs: &BitMatrix, r0: usize, chunk: &mut [f32]) {
        self.xnor_block_generic(rhs, r0, chunk)
    }

    /// AVX2 clone: the compiler vectorizes the word loop's `count_ones`
    /// reduction with the `vpshufb` nibble-LUT idiom.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn xnor_block_avx2(&self, rhs: &BitMatrix, r0: usize, chunk: &mut [f32]) {
        self.xnor_block_generic(rhs, r0, chunk)
    }

    /// AVX-512 clone: VPOPCNTDQ gives a native 8×64-bit `vpopcntq`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq,popcnt")]
    unsafe fn xnor_block_avx512(&self, rhs: &BitMatrix, r0: usize, chunk: &mut [f32]) {
        self.xnor_block_generic(rhs, r0, chunk)
    }

    /// Tier-dispatched unmasked XNOR block. `tier` must come from
    /// [`simd::active_tier`] (clamped to CPU support).
    #[inline]
    fn xnor_block(&self, tier: SimdTier, rhs: &BitMatrix, r0: usize, chunk: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is clamped to the detected CPU features.
        match tier {
            SimdTier::Scalar => self.xnor_block_generic(rhs, r0, chunk),
            SimdTier::Sse2 => unsafe { self.xnor_block_popcnt(rhs, r0, chunk) },
            SimdTier::Avx2 => unsafe { self.xnor_block_avx2(rhs, r0, chunk) },
            SimdTier::Avx512 => unsafe { self.xnor_block_avx512(rhs, r0, chunk) },
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = tier;
            self.xnor_block_generic(rhs, r0, chunk)
        }
    }
}

/// `x · wᵀ` for ±1 tensors via XNOR–popcount: `x` is `(n, k)`, `w` is
/// `(m, k)` (linear-layer weight layout), the result `(n, m)` — exactly
/// equal to `x.matmul(&w.transpose())` on binarized operands.
///
/// # Errors
///
/// Returns an error unless both tensors are rank 2 with matching width.
pub fn binary_matmul(x: &Tensor, w: &Tensor) -> Result<Tensor> {
    let xb = BitMatrix::pack(x)?;
    let wb = BitMatrix::pack(w)?;
    xb.xnor_matmul(&wb)
}

/// Streaming bit writer for one packed row: accumulates taps in a register
/// and spills one whole `u64` per word boundary, so the hot packing loops
/// never read-modify-write the backing vector per tap.
struct RowBits<'a> {
    words: &'a mut [u64],
    cur: u64,
    tap: usize,
}

impl RowBits<'_> {
    /// Pushes `count < 64` bits at once (`bits` holds them LSB-first),
    /// splitting across a word boundary when needed.
    #[inline(always)]
    fn push_group(&mut self, bits: u64, count: usize) {
        debug_assert!(count < WORD_BITS && (count == 63 || bits >> count == 0));
        let pos = self.tap % WORD_BITS;
        self.cur |= bits << pos;
        let before = self.tap / WORD_BITS;
        self.tap += count;
        if self.tap / WORD_BITS > before {
            self.words[before] = self.cur;
            // Crossing implies pos > 0, so the shift below is in range.
            self.cur = bits >> (WORD_BITS - pos);
        }
    }

    /// Spills the final partial word, if any.
    fn finish(self) {
        if !self.tap.is_multiple_of(WORD_BITS) {
            self.words[self.tap / WORD_BITS] = self.cur;
        }
    }
}

/// A prepared binary convolution: weights packed once, geometry resolved
/// once, then any number of same-shaped ±1 samples, one packed `u64` per
/// input row, streamed through the fused popcount kernel — the only
/// bit-packed convolution in this crate.
///
/// Nothing is materialised: each input row word is pre-shifted by the
/// padding, and each output pixel's bit row is
/// assembled tile-by-tile into a words-per-patch scratch (a handful of
/// `u64`s, L1-resident) and immediately dotted against every filter.
/// Out-of-bounds taps read zero bits, so the kernel runs the unmasked
/// XNOR identity everywhere and the few border pixels are repaired
/// afterwards by a precomputed additive term (see [`BinaryConvPlan::new`]).
///
/// One row per word bounds the input width: [`BinaryConvPlan::fits`] is
/// the rule, and [`binary_conv2d`] routes everything else to the f32
/// [`conv2d`], the reference these outputs are bit-identical to on every
/// dispatch tier.
#[derive(Debug, Clone)]
pub struct BinaryConvPlan {
    /// Packed `(f, c*kh*kw)` weights in `(ch, ky, kx)` tap order.
    wbits: BitMatrix,
    spec: Conv2dSpec,
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    oh: usize,
    ow: usize,
    /// Bit `ky` of `ymasks[oy]` is set iff input row
    /// `oy*stride + ky - padding` is in bounds.
    ymasks: Vec<u64>,
    /// Border output pixels (those with any out-of-bounds tap) as
    /// `(pixel index, mask-combo index)` pairs, row-major order.
    border: Vec<(u32, u32)>,
    /// Additive border corrections, laid out `[fi][combo]`:
    /// `valid + 2·popcount(w AND NOT mask) − kk` turns the unmasked
    /// XNOR identity into the masked one (see `conv_sample`).
    deltas_t: Vec<i64>,
    /// Number of distinct `(ymask, xmask)` border combos.
    ncombos: usize,
}

impl BinaryConvPlan {
    /// Whether the fused kernel covers `spec` over `w`-wide inputs — the
    /// one selection between the plan and the f32 reference. The kernel
    /// pre-shifts each packed input row left by the padding so the tap
    /// group for output column `ox` is always `(row >> ox*stride) & kmask`
    /// with an in-range shift count, which needs the padded row
    /// (`w + 2·padding` addressable bits) to fit one word.
    pub fn fits(spec: &Conv2dSpec, w: usize) -> bool {
        w + 2 * spec.padding <= WORD_BITS && spec.kernel_w < WORD_BITS && spec.kernel_h < WORD_BITS
    }

    /// Prepares a plan for convolving `(n, c, h, w)` ±1 inputs with the
    /// given sign-packed weight tensor (`(f, c, kh, kw)`).
    ///
    /// # Errors
    ///
    /// Returns an error for a non-rank-4 weight, a kernel size differing
    /// from `spec`, degenerate geometry, or — as
    /// [`TensorError::InvalidGeometry`] — a geometry outside
    /// [`BinaryConvPlan::fits`].
    pub fn new(weight: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Result<BinaryConvPlan> {
        let (f, c, kh, kw) = check_nchw(weight, "binary_conv_plan")?;
        if kh != spec.kernel_h || kw != spec.kernel_w {
            return Err(TensorError::ShapeMismatch {
                lhs: weight.dims().to_vec(),
                rhs: vec![f, c, spec.kernel_h, spec.kernel_w],
                op: "binary_conv_plan",
            });
        }
        let (oh, ow) = spec.checked_output_size(h, w)?;
        if !Self::fits(spec, w) {
            return Err(TensorError::InvalidGeometry {
                kernel: (kh, kw),
                input: (h, w),
                stride: spec.stride,
                padding: spec.padding,
            });
        }
        let kk = c * kh * kw;
        let wbits = BitMatrix::pack_slice(weight.data(), f, kk);
        // Bit `k` set iff tap `o*stride + k - padding` lands inside `0..len`.
        let tap_mask = |o: usize, taps: usize, len: usize| {
            let mut m = 0u64;
            for k in 0..taps {
                let i = (o * spec.stride + k) as isize - spec.padding as isize;
                m |= u64::from(i >= 0 && i < len as isize) << k;
            }
            m
        };
        let ymasks: Vec<u64> = (0..oh).map(|oy| tap_mask(oy, kh, h)).collect();
        let xmasks: Vec<u64> = (0..ow).map(|ox| tap_mask(ox, kw, w)).collect();
        // Pre-shifted rows put a zero bit at every out-of-bounds tap, so
        // the kernel can run the *unmasked* identity everywhere and border
        // pixels are repaired afterwards by a per-(masks, fi) additive
        // delta:
        //
        //   popcount(p^w) = popcount((p^w)&m) + popcount(w & !m)
        //   masked = valid − 2·popcount((p^w)&m)
        //          = (kk − 2·popcount(p^w)) + (valid + 2·corr − kk)
        //
        // with `corr = popcount(w & !m)` (p is zero wherever m is).
        let full = ((1u64 << kh) - 1, (1u64 << kw) - 1);
        let mut combos: Vec<(u64, u64)> = Vec::new();
        let mut border = Vec::new();
        for (oy, &ym) in ymasks.iter().enumerate() {
            for (ox, &xm) in xmasks.iter().enumerate() {
                let pair = (ym, xm);
                if pair == full {
                    continue;
                }
                let cb = match combos.iter().position(|&p| p == pair) {
                    Some(i) => i,
                    None => {
                        combos.push(pair);
                        combos.len() - 1
                    }
                };
                border.push(((oy * ow + ox) as u32, cb as u32));
            }
        }
        let ncombos = combos.len();
        let mut deltas_t = vec![0i64; f * ncombos];
        let mut maskrow = vec![0u64; wbits.words_per_row];
        for (cb, &(ym, xm)) in combos.iter().enumerate() {
            maskrow.fill(0);
            let mut mb = RowBits { words: &mut maskrow, cur: 0, tap: 0 };
            for _ch in 0..c {
                for ky in 0..kh {
                    mb.push_group(if (ym >> ky) & 1 == 1 { xm } else { 0 }, kw);
                }
            }
            mb.finish();
            let valid = c as i64 * i64::from(ym.count_ones()) * i64::from(xm.count_ones());
            for fi in 0..f {
                let corr: i64 = wbits
                    .row(fi)
                    .iter()
                    .zip(maskrow.iter())
                    .map(|(&wv, &m)| i64::from((wv & !m).count_ones()))
                    .sum();
                deltas_t[fi * ncombos + cb] = valid + 2 * corr - kk as i64;
            }
        }
        Ok(BinaryConvPlan {
            wbits,
            spec: *spec,
            c,
            h,
            w,
            f,
            oh,
            ow,
            ymasks,
            border,
            deltas_t,
            ncombos,
        })
    }

    /// Runs the plan over bit-packed input: one word per `(sample,
    /// channel, row)`, row-major, holding the row's signs LSB-first (bit
    /// `x` set iff element `x` is `+1`). Bits at and above the plan's input
    /// width are ignored. Samples stream through the fused kernel one at a
    /// time; a batch fans out across the worker pool, one sample whole per
    /// worker, and a lone sample runs on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] unless `rows` holds a whole
    /// number of `c·h`-row samples.
    pub fn run_rows(&self, rows: &[u64]) -> Result<Tensor> {
        let per = self.c * self.h;
        if !rows.len().is_multiple_of(per) {
            let expected = rows.len().div_ceil(per) * per;
            return Err(TensorError::LengthMismatch { expected, actual: rows.len() });
        }
        let n = rows.len() / per;
        let mask = u64::MAX >> (WORD_BITS - self.w);
        let tier = simd::active_tier();
        let fp = self.f * self.oh * self.ow;
        let mut out = vec![0.0f32; n * fp];
        let work = self.batch_work(n) / BATCH_FANOUT_COST;
        parallel::par_item_chunks_mut(&mut out, fp, work, |b0, chunk| {
            let mut plane = Vec::with_capacity(per);
            for (sample, res) in rows[b0 * per..].chunks_exact(per).zip(chunk.chunks_mut(fp)) {
                // Pre-shift each row by the padding (see `conv_sample`).
                plane.clear();
                plane.extend(sample.iter().map(|&r| (r & mask) << self.spec.padding));
                self.conv_sample(tier, &plane, res);
            }
        });
        Ok(Tensor::from_vec(out, [n, self.f, self.oh, self.ow]).expect("n·f·oh·ow outputs"))
    }

    /// Tap-product count for an `n`-sample batch — its cost in the pool's
    /// MAC-equivalents (one XNOR word covers 64 taps).
    fn batch_work(&self, n: usize) -> usize {
        n * self.f * self.oh * self.ow * self.c * self.spec.kernel_h * self.spec.kernel_w
    }

    /// Convolves one sample's pad-shifted row words (`c·h` of them) into
    /// its `(f, oh*ow)` output slice.
    ///
    /// The pad shift lands a zero bit at every out-of-bounds tap (left-pad
    /// taps read the low zeros, right ones read past the packed width),
    /// which is what lets the kernel below skip masking entirely.
    fn conv_sample(&self, tier: SimdTier, plane_bits: &[u64], out: &mut [f32]) {
        let pixels = self.oh * self.ow;
        self.conv_pixels(tier, plane_bits, out);
        // Border repair: the kernel ran the unmasked identity everywhere;
        // add the precomputed per-(masks, filter) delta on the few pixels
        // whose receptive field leaves the input. Both operands are exact
        // small integers, so the f32 add is exact and the result matches
        // the masked identity bit for bit.
        if !self.border.is_empty() {
            for fi in 0..self.f {
                let drow = &self.deltas_t[fi * self.ncombos..][..self.ncombos];
                let orow = &mut out[fi * pixels..][..pixels];
                for &(j, cb) in &self.border {
                    orow[j as usize] += drow[cb as usize] as f32;
                }
            }
        }
    }

    /// The fused planar kernel: fills the sample's `(f, oh*ow)` output.
    ///
    /// Works one output row at a time: the y-validity test is hoisted out
    /// of the pixel loop by materializing `srow` — the pad-shifted source
    /// word per `(channel, ky)` group, zero for out-of-bounds rows — then
    /// patch rows for [`CONV_TILE`] pixels are assembled together and
    /// dotted against every filter with the *unmasked* XNOR identity
    /// (invalid taps carry zero bits; `conv_sample` repairs the border
    /// afterwards), and each tile's results store straight into their
    /// filters' planes. The per-lane loops have fixed trip counts, which is
    /// the shape LLVM turns into variable-shift (`vpsrlvq`) and 8-lane
    /// popcount (`vpopcntq`) SIMD under the AVX2/AVX-512 clones; every
    /// tier runs this same body, so outputs are identical by construction.
    #[inline(always)]
    fn conv_pixels_generic(&self, plane_bits: &[u64], out: &mut [f32]) {
        const TILE: usize = CONV_TILE;
        let (kh, kw) = (self.spec.kernel_h, self.spec.kernel_w);
        let (stride, pad) = (self.spec.stride, self.spec.padding as isize);
        let kmask = (1u64 << kw) - 1;
        let kk = (self.c * kh * kw) as i64;
        let pixels = self.oh * self.ow;
        let mut srow = vec![0u64; self.c * kh];
        let mut patchv = vec![0u64; self.wbits.words_per_row * TILE];
        for (oy, &ymask) in self.ymasks.iter().enumerate() {
            let iy0 = (oy * stride) as isize - pad;
            for ch in 0..self.c {
                let prows = &plane_bits[ch * self.h..][..self.h];
                for ky in 0..kh {
                    srow[ch * kh + ky] = if (ymask >> ky) & 1 == 1 {
                        prows[(iy0 + ky as isize) as usize]
                    } else {
                        0
                    };
                }
            }
            for ox in (0..self.ow).step_by(TILE) {
                let nl = TILE.min(self.ow - ox);
                // Per-lane shift counts; tail lanes repeat the last valid
                // pixel (their results are discarded below), so every
                // shift stays in range — the planar bound guarantees
                // `ox*stride + kw <= w + 2*pad <= 64`.
                let mut sx = [0u32; TILE];
                for (l, s) in sx.iter_mut().enumerate() {
                    *s = ((ox + l.min(nl - 1)) * stride) as u32;
                }
                patchv.fill(0);
                for (g, &s) in srow.iter().enumerate() {
                    let bit = g * kw;
                    let (tw, tb) = (bit >> 6, (bit & 63) as u32);
                    let pv = &mut patchv[tw * TILE..][..TILE];
                    for (l, p) in pv.iter_mut().enumerate() {
                        *p |= ((s >> sx[l]) & kmask) << tb;
                    }
                    if tb as usize + kw > 64 {
                        // The group straddles a word boundary: spill the
                        // high taps into the next word.
                        let pv2 = &mut patchv[(tw + 1) * TILE..][..TILE];
                        for (l, p) in pv2.iter_mut().enumerate() {
                            *p |= ((s >> sx[l]) & kmask) >> (64 - tb);
                        }
                    }
                }
                for fi in 0..self.f {
                    let wrow = self.wbits.row(fi);
                    let mut acc = [0i64; TILE];
                    for (wi, &wv) in wrow.iter().enumerate() {
                        let pv = &patchv[wi * TILE..][..TILE];
                        for (a, &p) in acc.iter_mut().zip(pv) {
                            *a += i64::from((p ^ wv).count_ones());
                        }
                    }
                    let orow = &mut out[fi * pixels + oy * self.ow + ox..][..nl];
                    for (o, &a) in orow.iter_mut().zip(acc.iter()) {
                        *o = (kk - 2 * a) as f32;
                    }
                }
            }
        }
    }

    /// `popcnt` clone of [`BinaryConvPlan::conv_pixels_generic`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn conv_pixels_popcnt(&self, plane_bits: &[u64], out: &mut [f32]) {
        self.conv_pixels_generic(plane_bits, out)
    }

    /// AVX2 clone: tile assembly vectorizes to `vpsrlvq`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn conv_pixels_avx2(&self, plane_bits: &[u64], out: &mut [f32]) {
        self.conv_pixels_generic(plane_bits, out)
    }

    /// AVX-512 VPOPCNTDQ clone: `vpopcntq` across the 8 tile lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq,popcnt")]
    unsafe fn conv_pixels_avx512(&self, plane_bits: &[u64], out: &mut [f32]) {
        self.conv_pixels_generic(plane_bits, out)
    }

    /// Tier-dispatched fused planar kernel.
    #[inline]
    fn conv_pixels(&self, tier: SimdTier, plane_bits: &[u64], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is clamped to the detected CPU features.
        match tier {
            SimdTier::Scalar => self.conv_pixels_generic(plane_bits, out),
            SimdTier::Sse2 => unsafe { self.conv_pixels_popcnt(plane_bits, out) },
            SimdTier::Avx2 => unsafe { self.conv_pixels_avx2(plane_bits, out) },
            SimdTier::Avx512 => unsafe { self.conv_pixels_avx512(plane_bits, out) },
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = tier;
            self.conv_pixels_generic(plane_bits, out)
        }
    }
}

/// Binary 2-D convolution: the XNOR–popcount equivalent of
/// [`crate::conv::conv2d`] for ±1 input and binarized weights.
///
/// `weight` is packed by sign (strictly positive → `+1`), so binarized
/// master weights can be passed directly. On valid operands the result is
/// bit-identical to `conv2d(input, &binarize(weight), spec)`.
///
/// Packs each input row into one word and streams the batch through a
/// [`BinaryConvPlan`]'s [`BinaryConvPlan::run_rows`]: weights are packed
/// once per call, so a multi-sample batch pays the weight and geometry
/// setup once. Rows too wide for the plan ([`BinaryConvPlan::fits`]) take
/// the f32 convolution on the sign-binarized operands instead, which sums
/// the same exact small integers.
///
/// # Errors
///
/// Returns an error for non-rank-4 operands, mismatched channel counts or
/// degenerate geometry.
pub fn binary_conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    if let Some(out) = xnor_conv(input, weight, spec, false)? {
        return Ok(out);
    }
    let sign = |x: f32| if x > 0.0 { 1.0 } else { -1.0 };
    conv2d(&input.map(sign), &weight.map(sign), spec)
}

/// [`binary_conv2d`] for an input that is exactly ±1 everywhere — where it
/// equals `conv2d(input, &binarize(weight), spec)` bit for bit — and
/// `Ok(None)` for any other input: one value that is not `1.0` or `−1.0`
/// (`±0.0` and NaN included), or rows too wide for the plan. The ±1 test
/// rides in the pass that packs the rows, which stops at the first sample
/// that fails it, so an input of anything else costs one sample's packing.
/// This is how a training forward with ±1 activations takes the XNOR plan
/// and every other input keeps the caller's f32 path.
///
/// # Errors
///
/// As [`binary_conv2d`].
pub fn binary_conv2d_signs(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Option<Tensor>> {
    xnor_conv(input, weight, spec, true)
}

/// The one entry into the XNOR plan: `None` when the rows do not fit it,
/// or, with `signs_only`, when the input is not exactly ±1 everywhere.
fn xnor_conv(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    signs_only: bool,
) -> Result<Option<Tensor>> {
    let (_, c, h, w) = check_nchw(input, "binary_conv2d")?;
    let (_, wc, _, _) = check_nchw(weight, "binary_conv2d")?;
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
            op: "binary_conv2d",
        });
    }
    if !BinaryConvPlan::fits(spec, w) {
        return Ok(None);
    }
    let Some(rows) = pack_rows(input.data(), w, c * h * w, signs_only) else {
        return Ok(None);
    };
    BinaryConvPlan::new(weight, spec, h, w)?.run_rows(&rows).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    fn binarize(t: &Tensor) -> Tensor {
        t.map(|x| if x > 0.0 { 1.0 } else { -1.0 })
    }

    fn random_signs(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = rng_from_seed(seed);
        Tensor::from_fn(dims.to_vec(), |_| if rng.gen::<f32>() > 0.5 { 1.0 } else { -1.0 })
    }

    #[test]
    fn pack_get_set_round_trip() {
        let t = random_signs(&[3, 70], 1); // spans a word boundary
        let m = BitMatrix::pack(&t).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 70);
        for r in 0..3 {
            for c in 0..70 {
                assert_eq!(m.get(r, c), t.get(&[r, c]).unwrap() > 0.0);
            }
        }
        assert_eq!(m.unpack(), t);
        let mut m2 = m.clone();
        m2.set(1, 65, !m.get(1, 65));
        assert_ne!(m2, m);
        m2.set(1, 65, m.get(1, 65));
        assert_eq!(m2, m);
    }

    #[test]
    fn pack_rejects_non_rank2() {
        assert!(BitMatrix::pack(&Tensor::ones([4])).is_err());
    }

    #[test]
    fn zero_packs_as_negative_one() {
        let t = Tensor::from_vec(vec![0.0, -0.0, 1.0, -1.0], [1, 4]).unwrap();
        let m = BitMatrix::pack(&t).unwrap();
        assert!(!m.get(0, 0));
        assert!(!m.get(0, 1));
        assert!(m.get(0, 2));
        assert!(!m.get(0, 3));
    }

    #[test]
    fn packer_matches_the_per_value_sign_test() {
        // Every length up to two words and a tail, IEEE specials planted:
        // bit `i` is `x > 0.0`, and the flag is "all exactly ±1".
        let specials = [f32::NAN, -f32::NAN, f32::INFINITY, -0.0, 0.0, 0.5, -1.0, 1.0];
        let mut rng = rng_from_seed(31);
        for len in 0..=130 {
            let signs: Vec<f32> =
                (0..len).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect();
            let mut planted = signs.clone();
            if len > 0 {
                planted[rng.gen_range(0..len)] = specials[len % specials.len()];
            }
            for src in [&signs, &planted] {
                let mut expect = vec![0u64; len.div_ceil(64)];
                for (i, &x) in src.iter().enumerate() {
                    expect[i / 64] |= u64::from(x > 0.0) << (i % 64);
                }
                let all_signs = src.iter().all(|&x| x == 1.0 || x == -1.0);
                let mut got = vec![!0u64; expect.len()];
                assert_eq!(pack_into(src, &mut got), all_signs, "len {len}");
                assert_eq!(got, expect, "len {len}");
            }
        }
    }

    #[test]
    fn binary_conv2d_signs_takes_only_inputs_of_exact_signs() {
        let spec = Conv2dSpec::paper_conv();
        let wf = Tensor::from_fn(vec![3, 2, 3, 3], |i| ((i * 31) % 13) as f32 / 6.0 - 1.0);
        let x = random_signs(&[3, 2, 6, 5], 41);
        let expect = conv2d(&x, &binarize(&wf), &spec).unwrap();
        assert_eq!(binary_conv2d_signs(&x, &wf, &spec).unwrap(), Some(expect));
        // One value other than ±1 in the last sample sends it back.
        for planted in [0.5, 0.0, -0.0, f32::NAN] {
            let mut y = x.clone();
            y.data_mut()[170] = planted;
            assert_eq!(binary_conv2d_signs(&y, &wf, &spec).unwrap(), None, "{planted}");
        }
        // So do rows too wide for the plan.
        let wide = random_signs(&[1, 2, 3, 70], 43);
        assert_eq!(binary_conv2d_signs(&wide, &wf, &spec).unwrap(), None);
        assert!(binary_conv2d_signs(&x, &Tensor::ones([3, 1, 3, 3]), &spec).is_err());
    }

    #[test]
    fn xnor_matmul_matches_float_gemm_exactly() {
        // k = 100 crosses a word boundary, exercising pad bits.
        let x = random_signs(&[7, 100], 2);
        let w = random_signs(&[5, 100], 3);
        let bits = binary_matmul(&x, &w).unwrap();
        let float = x.matmul(&w.transpose().unwrap()).unwrap();
        assert_eq!(bits, float, "XNOR path must be bit-identical to f32 on ±1 operands");
    }

    #[test]
    fn xnor_matmul_known_values() {
        // [1,1,-1] · [1,1,1] = 1, [1,1,-1] · [1,-1,-1] = 1 etc.
        let a = Tensor::from_vec(vec![1.0, 1.0, -1.0], [1, 3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, -1.0, -1.0], [2, 3]).unwrap();
        let out = binary_matmul(&a, &b).unwrap();
        assert_eq!(out.data(), &[1.0, 1.0]);
    }

    #[test]
    fn xnor_matmul_rejects_width_mismatch() {
        let a = BitMatrix::zeros(2, 8);
        let b = BitMatrix::zeros(2, 9);
        assert!(a.xnor_matmul(&b).is_err());
    }

    #[test]
    #[should_panic(expected = "outside 1x63")]
    fn set_rejects_a_column_in_the_tail_padding() {
        BitMatrix::zeros(1, 63).set(0, 63, true);
    }

    #[test]
    fn rows_written_through_set_match_float_gemm() {
        // Every column up to `cols − 1` on both sides of the word boundary:
        // the tail padding must still be zero afterwards.
        for cols in [63, 64, 65] {
            let x = random_signs(&[3, cols], cols as u64);
            let w = random_signs(&[2, cols], 100 + cols as u64);
            let mut xb = BitMatrix::zeros(3, cols);
            for r in 0..3 {
                for c in 0..cols {
                    xb.set(r, c, x.get(&[r, c]).unwrap() > 0.0);
                }
            }
            assert_eq!(xb, BitMatrix::pack(&x).unwrap(), "cols {cols}");
            let bits = xb.xnor_matmul(&BitMatrix::pack(&w).unwrap()).unwrap();
            assert_eq!(bits, x.matmul(&w.transpose().unwrap()).unwrap(), "cols {cols}");
        }
    }

    #[test]
    fn binary_conv2d_matches_float_conv_exactly() {
        // Paper geometries with padding: the border repair must reproduce
        // the zero-padded f32 convolution bit for bit.
        for (dims, fdims, spec) in [
            ([2, 3, 8, 8], [4, 3, 3, 3], Conv2dSpec::paper_conv()),
            ([1, 4, 16, 16], [6, 4, 3, 3], Conv2dSpec::paper_pool()),
            ([3, 2, 5, 5], [2, 2, 1, 1], Conv2dSpec::new(1, 1, 0)),
        ] {
            let x = random_signs(&dims, 7);
            let wf = Tensor::from_fn(fdims.to_vec(), |i| ((i * 29) % 17) as f32 / 8.0 - 1.0);
            let expect = conv2d(&x, &binarize(&wf), &spec).unwrap();
            let got = binary_conv2d(&x, &wf, &spec).unwrap();
            assert_eq!(got, expect, "spec {spec:?}");
        }
    }

    #[test]
    fn from_sign_bytes_matches_pack_and_ignores_tail_bits() {
        for cols in [1, 7, 64, 70, 130] {
            let t = random_signs(&[3, cols], cols as u64);
            let mut rows: Vec<Vec<u8>> =
                (0..3).map(|r| crate::bits::pack_signs(&t.row(r).unwrap()).to_vec()).collect();
            if cols % 8 != 0 {
                for row in &mut rows {
                    *row.last_mut().unwrap() |= 0xff >> (cols % 8);
                }
            }
            let m = BitMatrix::from_sign_bytes(cols, rows.iter().map(Vec::as_slice)).unwrap();
            assert_eq!(m, BitMatrix::pack(&t).unwrap(), "cols {cols}");
        }
        let short = [0u8; 1];
        assert!(BitMatrix::from_sign_bytes(9, std::iter::once(&short[..])).is_err());
    }

    #[test]
    fn run_rows_matches_binary_conv2d_on_the_packed_rows() {
        let spec = Conv2dSpec::paper_conv();
        let x = random_signs(&[3, 2, 5, 6], 17);
        let wf = Tensor::from_fn(vec![4, 2, 3, 3], |i| ((i * 37) % 11) as f32 / 5.0 - 1.0);
        let plan = BinaryConvPlan::new(&wf, &spec, 5, 6).unwrap();
        // Junk above the row width must not leak into the taps.
        let rows: Vec<u64> = pack_rows(x.data(), 6, 12, false)
            .unwrap()
            .iter()
            .map(|&row| row | !0u64 << 6)
            .collect();
        assert_eq!(plan.run_rows(&rows).unwrap(), binary_conv2d(&x, &wf, &spec).unwrap());
        assert!(plan.run_rows(&rows[1..]).is_err());
    }

    #[test]
    fn binary_conv2d_matches_float_on_wide_input() {
        // w = 70 does not fit one word: `binary_conv2d` takes the f32 route,
        // and the plan itself refuses the geometry instead of degrading.
        let spec = Conv2dSpec::paper_conv();
        let x = random_signs(&[1, 2, 3, 70], 13);
        let wf = Tensor::from_fn(vec![3, 2, 3, 3], |i| ((i * 31) % 13) as f32 / 6.0 - 1.0);
        let expect = conv2d(&x, &binarize(&wf), &spec).unwrap();
        let got = binary_conv2d(&x, &wf, &spec).unwrap();
        assert_eq!(got, expect);
        assert!(!BinaryConvPlan::fits(&spec, 70) && BinaryConvPlan::fits(&spec, 62));
        let err = BinaryConvPlan::new(&wf, &spec, 3, 70).unwrap_err();
        assert!(matches!(err, TensorError::InvalidGeometry { input: (3, 70), .. }), "{err}");
    }
}
