//! Run-time SIMD dispatch for the kernels with an AVX2 tier: the real and
//! complex GEMM micro-kernels, Householder reflector application and the
//! mode-reconstruction row kernel.
//!
//! Every such kernel keeps its scalar body as the fallback and as the
//! bitwise reference. The AVX2 bodies vectorise across independent output
//! elements only and use separate `vmulpd`/`vaddpd`/`vsubpd` — never FMA,
//! never a reassociated sum — so each element sees the same operations in
//! the same order on either path and the results are bitwise equal.

use std::cell::Cell;

thread_local! {
    static SCALAR_ONLY: Cell<bool> = const { Cell::new(false) };
}

/// Whether kernels dispatched from this thread take their AVX2 bodies: the
/// CPU reports AVX2 at run time and no [`with_scalar_kernels`] scope is
/// active here.
#[inline]
pub(crate) fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !SCALAR_ONLY.with(Cell::get) && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `f` with every kernel it dispatches on this thread forced onto its
/// scalar reference body (a threaded [`gemm`](crate::gemm::gemm) hands the
/// choice to its workers). Results are bitwise the same either way; this
/// exists so tests can check exactly that.
pub fn with_scalar_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCALAR_ONLY.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCALAR_ONLY.with(|s| s.replace(true)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_scope_nests_and_restores() {
        let outer = avx2();
        with_scalar_kernels(|| {
            assert!(!avx2());
            with_scalar_kernels(|| assert!(!avx2()));
            assert!(!avx2());
        });
        assert_eq!(avx2(), outer);
    }
}
