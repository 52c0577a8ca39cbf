//! Compile-time (monomorphized) semiring operations over the engine's
//! `f64` carrier.
//!
//! [`crate::SemiringKind`] dispatches every `add`/`mul` through a
//! `match` — fine for the hash operators, whose cost is dominated by key
//! extraction and probing, but fatal for the columnar kernels, whose
//! inner loops are a handful of arithmetic instructions that the
//! compiler can only vectorize when the operation is statically known.
//! This module provides one zero-sized type per semiring implementing
//! [`SemiringOps`] (associated-const identities, inlined static ops) and
//! the [`for_each_semiring`](crate::for_each_semiring) macro that
//! monomorphizes a generic kernel for all seven and selects the
//! instantiation from a runtime [`crate::SemiringKind`]. Both the
//! sorted-coordinate sparse kernels (`mpf_algebra::sparse`) and the dense
//! grid kernels (`mpf_algebra::dense`) are instantiated through this module,
//! so every columnar inner loop in the engine compiles to straight-line
//! per-semiring code. The definitions here are *the same expressions*
//! as the dynamic [`crate::SemiringKind::add`]/
//! [`crate::SemiringKind::mul`] arms, so both paths produce
//! bit-identical results cell for cell.
//!
//! # Deterministic fold order
//!
//! Every kernel folds a group's terms in one fixed order — its first
//! term, then the additive operation term by term — that depends only on
//! the data's layout, never on thread count, partitioning, or chunk
//! scheduling, so a given query produces bit-identical answers at any
//! `MPF_THREADS` setting.
//!
//! # SIMD tiers
//!
//! The build targets the baseline instruction set. A kernel that pays for
//! wider registers implements [`TierKernel`] and runs through
//! [`SimdTier::run`], which calls a copy of its body compiled for the
//! widest tier the CPU supports (AVX-512F, then AVX2, then the baseline;
//! detected once, x86-64 only). Paired with [`for_each_semiring`](crate::for_each_semiring),
//! one source is instantiated per (semiring, tier). Tiers change
//! instruction selection, never the arithmetic, so they produce the same
//! bits.

use crate::{logsumexp, SemiringKind};

/// Statically-known semiring operations over `f64` measures (Boolean
/// measures are `0.0`/`1.0`, as everywhere in the engine).
pub trait SemiringOps: Copy + Send + Sync + 'static {
    /// The runtime tag this type monomorphizes.
    const KIND: SemiringKind;
    /// Additive identity (`SemiringKind::zero`).
    const ZERO: f64;
    /// Multiplicative identity (`SemiringKind::one`).
    const ONE: f64;
    /// The additive (aggregate) operation.
    fn add(a: f64, b: f64) -> f64;
    /// The multiplicative (product join) operation.
    fn mul(a: f64, b: f64) -> f64;
}

/// `(+, ×)` — probabilistic inference, totals.
#[derive(Debug, Clone, Copy)]
pub struct SumProduct;

impl SemiringOps for SumProduct {
    const KIND: SemiringKind = SemiringKind::SumProduct;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// `(min, +)` — minimum additive cost.
#[derive(Debug, Clone, Copy)]
pub struct MinSum;

impl SemiringOps for MinSum {
    const KIND: SemiringKind = SemiringKind::MinSum;
    const ZERO: f64 = f64::INFINITY;
    const ONE: f64 = 0.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// `(max, +)` — maximum additive gain.
#[derive(Debug, Clone, Copy)]
pub struct MaxSum;

impl SemiringOps for MaxSum {
    const KIND: SemiringKind = SemiringKind::MaxSum;
    const ZERO: f64 = f64::NEG_INFINITY;
    const ONE: f64 = 0.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// `(min, ×)` — minimum multiplicative cost.
#[derive(Debug, Clone, Copy)]
pub struct MinProduct;

impl SemiringOps for MinProduct {
    const KIND: SemiringKind = SemiringKind::MinProduct;
    const ZERO: f64 = f64::INFINITY;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        // `+∞` (the additive identity) must annihilate; avoid the IEEE
        // `∞ × 0 = NaN` pitfall — same guard as the dynamic dispatch.
        if a == f64::INFINITY || b == f64::INFINITY {
            f64::INFINITY
        } else {
            a * b
        }
    }
}

/// `(max, ×)` — Viterbi / most probable explanation.
#[derive(Debug, Clone, Copy)]
pub struct MaxProduct;

impl SemiringOps for MaxProduct {
    const KIND: SemiringKind = SemiringKind::MaxProduct;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// `(∨, ∧)` on `{0.0, 1.0}` — existence queries.
#[derive(Debug, Clone, Copy)]
pub struct BoolOrAnd;

impl SemiringOps for BoolOrAnd {
    const KIND: SemiringKind = SemiringKind::BoolOrAnd;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        if a != 0.0 || b != 0.0 {
            1.0
        } else {
            0.0
        }
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        if a != 0.0 && b != 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// `(logsumexp, +)` — sum-product over log-space measures.
#[derive(Debug, Clone, Copy)]
pub struct LogSumProduct;

impl SemiringOps for LogSumProduct {
    const KIND: SemiringKind = SemiringKind::LogSumProduct;
    const ZERO: f64 = f64::NEG_INFINITY;
    const ONE: f64 = 0.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        logsumexp(a, b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// The instruction-set tier a [`TierKernel`] body is compiled for. The
/// build targets the baseline instruction set, so the wider tiers are
/// reached only through [`SimdTier::run`]'s `#[target_feature]` wrappers,
/// chosen once per process from what the CPU reports
/// ([`SimdTier::detect`]): `avx512f`, then `avx2`, then the baseline.
/// Off x86-64 only [`SimdTier::Base`] is ever supported.
///
/// A tier changes instruction selection, never arithmetic: each
/// semiring operation is one IEEE operation (or the same libm call) in
/// every tier, `mul` and `add` are never fused into an FMA (Rust does
/// not contract floating-point expressions), and a kernel body's fold
/// order is its own. A body therefore computes the same bits in every
/// tier; `mpf_algebra::dense`'s tier-parity test checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// The build target's baseline (SSE2 on x86-64).
    Base,
    /// x86-64 AVX2: sixteen 256-bit registers.
    Avx2,
    /// x86-64 AVX-512F: thirty-two 512-bit registers.
    Avx512,
}

impl SimdTier {
    /// Every tier, narrowest first.
    pub const ALL: [SimdTier; 3] = [SimdTier::Base, SimdTier::Avx2, SimdTier::Avx512];

    /// The tier's name, for trace spans (`simd=base|avx2|avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Base => "base",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Whether this CPU can run the tier's instructions.
    pub fn is_supported(self) -> bool {
        match self {
            SimdTier::Base => true,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            SimdTier::Avx2 | SimdTier::Avx512 => false,
        }
    }

    /// The widest tier this CPU supports, detected on first call.
    pub fn detect() -> SimdTier {
        static TIER: std::sync::OnceLock<SimdTier> = std::sync::OnceLock::new();
        *TIER.get_or_init(|| {
            SimdTier::ALL.into_iter().rev().find(|t| t.is_supported()).unwrap_or(SimdTier::Base)
        })
    }

    /// Run `kernel`'s body compiled for this tier, or for the baseline
    /// when the CPU does not support it.
    pub fn run<K: TierKernel>(self, kernel: K) -> K::Output {
        match self {
            // SAFETY: `run_avx512` only enables `avx512f`, and
            // `is_supported` has just confirmed it through
            // `is_x86_feature_detected!("avx512f")`.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 if self.is_supported() => unsafe { run_avx512(kernel) },
            // SAFETY: `run_avx2` only enables `avx2`, and `is_supported`
            // has just confirmed it through `is_x86_feature_detected!("avx2")`.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 if self.is_supported() => unsafe { run_avx2(kernel) },
            _ => kernel.run::<Base>(),
        }
    }
}

/// A kernel body compiled once per [`SimdTier`] from one source. The
/// implementation of [`TierKernel::run`] must be `#[inline(always)]`: it
/// is then compiled *inside* each tier's `#[target_feature]` wrapper
/// instead of being called from it, so its loops are vectorized for that
/// tier. Pair it with [`for_each_semiring`](crate::for_each_semiring) —
/// a kernel type generic over [`SemiringOps`] — to instantiate a body per
/// (semiring, tier).
pub trait TierKernel {
    /// What the body returns.
    type Output;
    /// The body, for tier `T` (`T::TIER` is a constant the body may
    /// branch on, e.g. to pick a register-tile shape).
    fn run<T: Tier>(self) -> Self::Output;
}

/// Type-level [`SimdTier`], the parameter of [`TierKernel::run`].
pub trait Tier {
    /// The tier this type stands for.
    const TIER: SimdTier;
}

/// [`SimdTier::Base`] as a type.
#[derive(Debug, Clone, Copy)]
pub struct Base;

impl Tier for Base {
    const TIER: SimdTier = SimdTier::Base;
}

/// [`SimdTier::Avx2`] as a type.
#[derive(Debug, Clone, Copy)]
pub struct Avx2;

impl Tier for Avx2 {
    const TIER: SimdTier = SimdTier::Avx2;
}

/// [`SimdTier::Avx512`] as a type.
#[derive(Debug, Clone, Copy)]
pub struct Avx512;

impl Tier for Avx512 {
    const TIER: SimdTier = SimdTier::Avx512;
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: TierKernel>(kernel: K) -> K::Output {
    kernel.run::<Avx2>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: TierKernel>(kernel: K) -> K::Output {
    kernel.run::<Avx512>()
}

/// Monomorphize a generic kernel over every semiring and call the
/// instantiation matching a runtime [`crate::SemiringKind`]:
///
/// ```
/// use mpf_semiring::{for_each_semiring, kernel::SemiringOps, SemiringKind};
///
/// fn dot<S: SemiringOps>(xs: &[f64], ys: &[f64]) -> f64 {
///     xs.iter().zip(ys).fold(S::ZERO, |acc, (&x, &y)| S::add(acc, S::mul(x, y)))
/// }
///
/// let sr = SemiringKind::MinSum;
/// let d = for_each_semiring!(sr, dot(&[1.0, 2.0], &[3.0, 5.0]));
/// assert_eq!(d, 4.0);
/// ```
///
/// The expansion is a `match` over all seven variants, each arm calling
/// `$func::<$crate::kernel::Variant>($args...)` — the static type flows
/// into the kernel's inner loops, so they compile to straight-line
/// vectorizable code per semiring.
#[macro_export]
macro_rules! for_each_semiring {
    ($kind:expr, $func:ident ( $($args:expr),* $(,)? )) => {
        match $kind {
            $crate::SemiringKind::SumProduct => {
                $func::<$crate::kernel::SumProduct>($($args),*)
            }
            $crate::SemiringKind::MinSum => {
                $func::<$crate::kernel::MinSum>($($args),*)
            }
            $crate::SemiringKind::MaxSum => {
                $func::<$crate::kernel::MaxSum>($($args),*)
            }
            $crate::SemiringKind::MinProduct => {
                $func::<$crate::kernel::MinProduct>($($args),*)
            }
            $crate::SemiringKind::MaxProduct => {
                $func::<$crate::kernel::MaxProduct>($($args),*)
            }
            $crate::SemiringKind::BoolOrAnd => {
                $func::<$crate::kernel::BoolOrAnd>($($args),*)
            }
            $crate::SemiringKind::LogSumProduct => {
                $func::<$crate::kernel::LogSumProduct>($($args),*)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check<S: SemiringOps>(cases: &[(f64, f64)]) {
        assert_eq!(S::ZERO, S::KIND.zero());
        assert_eq!(S::ONE, S::KIND.one());
        for &(a, b) in cases {
            let add = S::add(a, b);
            let mul = S::mul(a, b);
            let dadd = S::KIND.add(a, b);
            let dmul = S::KIND.mul(a, b);
            assert!(
                add == dadd || (add.is_nan() && dadd.is_nan()),
                "{:?} add({a}, {b})",
                S::KIND
            );
            assert!(
                mul == dmul || (mul.is_nan() && dmul.is_nan()),
                "{:?} mul({a}, {b})",
                S::KIND
            );
        }
    }

    #[test]
    fn static_ops_match_dynamic_dispatch() {
        let cases: Vec<(f64, f64)> = vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (0.5, 2.0),
            (-3.0, 7.0),
            (f64::INFINITY, 0.0),
            (f64::NEG_INFINITY, 1.0),
            (f64::INFINITY, f64::NEG_INFINITY),
            (1e308, 1e308),
            (-745.0, -745.0),
        ];
        for sr in SemiringKind::ALL {
            for_each_semiring!(sr, check(&cases));
        }
    }

    #[test]
    fn tiers_are_detected_once_and_run_their_own_body() {
        struct Which;
        impl TierKernel for Which {
            type Output = SimdTier;
            #[inline(always)]
            fn run<T: Tier>(self) -> SimdTier {
                T::TIER
            }
        }
        let widest = SimdTier::detect();
        assert!(widest.is_supported());
        assert_eq!(SimdTier::detect(), widest, "detection is cached");
        assert!(SimdTier::Base.is_supported());
        for tier in SimdTier::ALL {
            // A supported tier runs its own instantiation; an unsupported
            // one degrades to the baseline instead of faulting.
            let want = if tier.is_supported() { tier } else { SimdTier::Base };
            assert_eq!(tier.run(Which), want, "{tier:?}");
            assert!(tier <= widest || !tier.is_supported(), "{tier:?} above {widest:?}");
        }
        if cfg!(not(target_arch = "x86_64")) {
            assert_eq!(widest, SimdTier::Base);
        }
        assert_eq!(SimdTier::ALL.map(SimdTier::name), ["base", "avx2", "avx512"]);
    }

    #[test]
    fn macro_selects_the_matching_instantiation() {
        fn kind_of<S: SemiringOps>() -> SemiringKind {
            S::KIND
        }
        for sr in SemiringKind::ALL {
            assert_eq!(for_each_semiring!(sr, kind_of()), sr);
        }
    }
}
