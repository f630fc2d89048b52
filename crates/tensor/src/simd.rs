//! Runtime SIMD dispatch tiers for the bit-packed kernels and the f32 GEMM.
//!
//! The XNOR–popcount kernels in [`crate::bitmatrix`] and the register-tiled
//! f32 GEMM behind `Tensor::matmul` and the f32 convolutions have one
//! generic (`#[inline(always)]`) body each, recompiled under several
//! `#[target_feature]` sets. This module decides **which clone runs**:
//!
//! | tier     | popcount                         | f32 GEMM tile   |
//! |----------|----------------------------------|-----------------|
//! | `scalar` | portable bit dance               | 4×8, baseline   |
//! | `sse2`   | hardware `popcnt`                | 4×8, baseline   |
//! | `avx2`   | `vpshufb` nibble-LUT vectors     | 4×16, `ymm`     |
//! | `avx512` | `vpopcntq` (AVX-512 VPOPCNTDQ)   | 4×32, `zmm`     |
//!
//! Packing f32 signs into bits has one portable packer on every tier
//! ([`crate::bitmatrix`]).
//!
//! Every tier computes the same results — exact integers for the XNOR
//! kernels, the bits of the plain `ikj` loop for the f32 GEMM; tiers differ
//! only in instruction selection — so tier choice is a pure performance
//! knob and the equivalence tests can sweep all of them.
//!
//! Resolution order for [`active_tier`]:
//!
//! 1. a thread-local override installed by [`with_tier`] (used by tests,
//!    which must not race on process-global environment variables);
//! 2. the `DDNN_SIMD` environment variable (`scalar`|`sse2`|`avx2`|
//!    `avx512`), read once per process;
//! 3. the best tier the CPU supports ([`detected_tier`], probed once).
//!
//! Both overrides are clamped down to [`detected_tier`] — asking for
//! `avx512` on an AVX2 machine silently runs the AVX2 clone rather than
//! faulting on illegal instructions.
//!
//! Kernels resolve the tier **once per public entry point** on the calling
//! thread and pass it down into their worker closures by value; the
//! persistent pool workers of [`crate::parallel`] would otherwise miss the
//! caller's thread-local override.

use std::cell::Cell;
use std::sync::OnceLock;

/// A SIMD capability level for the bit-packed kernels and the f32 GEMM,
/// ordered from portable to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// Portable Rust only: no explicit intrinsics, no `popcnt` feature.
    Scalar,
    /// The pre-AVX x86-64 path: the SSE2 baseline plus hardware `popcnt`.
    Sse2,
    /// AVX2: vectorized nibble-LUT popcounts.
    Avx2,
    /// AVX-512 with VPOPCNTDQ: native 8×64-bit vector popcount.
    Avx512,
}

impl SimdTier {
    /// All tiers, narrowest first (the order `supported_tiers` reports).
    pub const ALL: [SimdTier; 4] =
        [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2, SimdTier::Avx512];

    /// The tier's lowercase name, as accepted by `DDNN_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Parses a `DDNN_SIMD` value (case-insensitive). Unknown strings map
    /// to `None` (callers fall back to detection rather than erroring: a
    /// typo in an env var must not take down inference).
    pub fn parse(s: &str) -> Option<SimdTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdTier::Scalar),
            "sse2" => Some(SimdTier::Sse2),
            "avx2" => Some(SimdTier::Avx2),
            "avx512" => Some(SimdTier::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The widest tier this CPU can execute, probed once per process.
///
/// `Sse2` requires the `popcnt` instruction (not part of the x86-64
/// baseline); `Avx2` additionally requires AVX2; `Avx512` requires
/// AVX-512F plus the VPOPCNTDQ and BW extensions (the popcount kernels'
/// `avx512` clones are compiled with BW). Non-x86-64 targets report
/// `Scalar`.
pub fn detected_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: OnceLock<SimdTier> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("popcnt")
            {
                SimdTier::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
            {
                SimdTier::Avx2
            } else if std::arch::is_x86_feature_detected!("popcnt") {
                SimdTier::Sse2
            } else {
                SimdTier::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdTier::Scalar
}

/// The tier `DDNN_SIMD` asks for, read once per process: `None` when it is
/// unset or names no tier.
fn env_tier() -> Option<SimdTier> {
    static ENV: OnceLock<Option<SimdTier>> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("DDNN_SIMD").ok().as_deref().and_then(SimdTier::parse))
}

/// Every tier the current CPU supports, narrowest first — the sweep axis
/// for benches and equivalence tests.
pub fn supported_tiers() -> Vec<SimdTier> {
    let best = detected_tier();
    SimdTier::ALL.iter().copied().filter(|&t| t <= best).collect()
}

thread_local! {
    /// Tier forced by [`with_tier`] on this thread, if any.
    static TIER_OVERRIDE: Cell<Option<SimdTier>> = const { Cell::new(None) };
}

/// The tier the bit-packed kernels should dispatch to right now:
/// thread-local override, else `DDNN_SIMD`, else [`detected_tier`] —
/// always clamped to what the CPU supports.
pub fn active_tier() -> SimdTier {
    let want = TIER_OVERRIDE.with(Cell::get).or_else(env_tier).unwrap_or_else(detected_tier);
    want.min(detected_tier())
}

/// Runs `f` with the kernels pinned to `tier` (clamped to hardware
/// support) on the **current thread**.
///
/// This is the race-free way for tests to sweep tiers: unlike setting
/// `DDNN_SIMD`, a thread-local override cannot leak into concurrently
/// running tests. Kernel entry points resolve the tier before fanning out,
/// so the override covers their pool workers too. Restores the previous
/// override on exit (including unwind).
pub fn with_tier<T>(tier: SimdTier, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<SimdTier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TIER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TIER_OVERRIDE.with(|c| c.replace(Some(tier.min(detected_tier())))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_ordered_and_named() {
        assert!(SimdTier::Scalar < SimdTier::Sse2);
        assert!(SimdTier::Sse2 < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
        for t in SimdTier::ALL {
            assert_eq!(SimdTier::parse(t.name()), Some(t));
            assert_eq!(SimdTier::parse(&t.name().to_uppercase()), Some(t));
        }
        assert_eq!(SimdTier::parse("neon"), None);
        assert_eq!(SimdTier::parse(""), None);
    }

    #[test]
    fn supported_tiers_start_at_scalar_and_end_at_detected() {
        let tiers = supported_tiers();
        assert_eq!(tiers.first(), Some(&SimdTier::Scalar));
        assert_eq!(tiers.last(), Some(&detected_tier()));
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn with_tier_overrides_and_restores() {
        let before = active_tier();
        with_tier(SimdTier::Scalar, || {
            assert_eq!(active_tier(), SimdTier::Scalar);
            // Nested overrides stack.
            with_tier(detected_tier(), || assert_eq!(active_tier(), detected_tier()));
            assert_eq!(active_tier(), SimdTier::Scalar);
        });
        assert_eq!(active_tier(), before);
    }

    #[test]
    fn with_tier_clamps_to_hardware() {
        with_tier(SimdTier::Avx512, || assert!(active_tier() <= detected_tier()));
    }
}
