//! Runtime SIMD backend selection for the bulk field kernels and the
//! ChaCha20 PRG.
//!
//! The delayed-reduction kernels in [`crate::ops`] and the multi-block
//! keystream path in `lsa_crypto` each have a portable scalar loop
//! (autovectorization-friendly, the oracle) and hand-written SIMD
//! kernels over stable `core::arch` intrinsics (plus one `asm!`
//! instruction where LLVM rewrites the intrinsic). Which one runs is
//! decided **once per bulk call** — never per element — by [`backend`],
//! which resolves, in order:
//!
//! 1. a scoped [`with_backend`] override on the current thread (tests
//!    and benches; every kernel runs on its caller's thread, so the pin
//!    covers the whole call);
//! 2. the `LSA_SIMD` environment variable, read once per process:
//!    `auto` (default) picks the best backend the CPU supports, and
//!    any backend's [`Backend::name`] (`scalar`, `avx2`, `avx512`)
//!    requests that backend. Any *supported* backend is honoured, so
//!    `avx2` keeps the 8-block keystream on an AVX-512 host; a name the
//!    host cannot run, or an unknown value, degrades to
//!    [`Backend::Scalar`] (the chosen backend is surfaced in every
//!    telemetry/bench JSON record, so a degraded knob is visible rather
//!    than a silent misconfiguration);
//! 3. CPU feature detection (`is_x86_feature_detected!`) on x86_64;
//!    every other architecture runs the portable path.
//!
//! `Avx512` differs from `Avx2` only where a kernel has a 512-bit body:
//! the ChaCha20 keystream and the `Fp61` pair kernel behind
//! [`crate::ops::eval_pairs`]. Every other field kernel runs its AVX2
//! body under both.
//!
//! Every SIMD kernel is required to be **bit-identical** to its scalar
//! oracle on all inputs — the backends only trade instruction count,
//! never results. `crates/field/tests/kernel_equivalence.rs` pins this
//! for every kernel on every available backend.

use std::cell::Cell;
use std::sync::OnceLock;

/// A SIMD instruction-set backend for the bulk kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable per-lane loops (the oracle; also what LLVM
    /// autovectorizes for the baseline target features).
    Scalar,
    /// 4-lane `u64` AVX2 kernels (x86_64 only).
    Avx2,
    /// The 16-block AVX-512F ChaCha20 keystream and the `Fp61` pair
    /// kernel on eight-lane `zmm` registers, with the AVX2 field kernels
    /// otherwise (x86_64 hosts with both features only).
    Avx512,
}

impl Backend {
    /// Stable lower-case name, as accepted by `LSA_SIMD` and emitted in
    /// telemetry/bench JSON records.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Whether this backend may run AVX2 kernels: every SIMD backend
    /// can, since `Avx512` is only chosen on hosts that also have AVX2.
    pub(crate) fn has_avx2(self) -> bool {
        self != Backend::Scalar
    }
}

/// The best backend this CPU supports, ignoring the knob and overrides.
pub fn detected() -> Backend {
    *available().last().expect("scalar is always available")
}

/// All backends usable on this host, scalar first and widest last — the
/// axis benches and equivalence tests sweep.
pub fn available() -> Vec<Backend> {
    let mut out = vec![Backend::Scalar];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        out.push(Backend::Avx2);
        if is_x86_feature_detected!("avx512f") {
            out.push(Backend::Avx512);
        }
    }
    out
}

fn env_backend() -> Backend {
    static GLOBAL: OnceLock<Backend> = OnceLock::new();
    *GLOBAL.get_or_init(|| {
        let requested = std::env::var("LSA_SIMD").ok();
        match requested.as_deref().map(str::trim) {
            None | Some("auto") | Some("") => detected(),
            // a named backend if the host runs it; anything else (an
            // unknown value, a missing feature) takes the portable path,
            // visible in telemetry next to the knob the user set
            Some(name) => available()
                .into_iter()
                .find(|b| b.name() == name)
                .unwrap_or(Backend::Scalar),
        }
    })
}

thread_local! {
    /// Scoped override installed by [`with_backend`].
    static OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend bulk kernels will use on this thread: the
/// [`with_backend`] override if one is active, else the `LSA_SIMD`
/// resolution. Call it **once per bulk call** and thread the value
/// through inner loops — never re-dispatch per element.
pub fn backend() -> Backend {
    OVERRIDE.with(Cell::get).unwrap_or_else(env_backend)
}

/// Run `f` with the backend pinned on the current thread (restored on
/// exit, even across panics).
///
/// Any backend in [`available`] is honoured; pinning one the host
/// cannot run degrades to [`Backend::Scalar`], mirroring the `LSA_SIMD`
/// knob.
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    let effective = if available().contains(&backend) {
        backend
    } else {
        Backend::Scalar
    };
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(effective))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_backend_overrides_and_restores() {
        let outer = backend();
        with_backend(Backend::Scalar, || {
            assert_eq!(backend(), Backend::Scalar);
        });
        assert_eq!(backend(), outer);
    }

    #[test]
    fn unsupported_pin_degrades_to_scalar() {
        // pinning any available backend is the identity (so a pinned
        // `avx2` keeps the 8-block keystream on an AVX-512 host);
        // pinning one the host lacks must fall back instead of trapping
        // later
        for b in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            with_backend(b, || {
                let eff = backend();
                if available().contains(&b) {
                    assert_eq!(eff, b);
                } else {
                    assert_eq!(eff, Backend::Scalar);
                }
            });
        }
    }

    #[test]
    fn available_lists_scalar_first() {
        let all = available();
        assert_eq!(all[0], Backend::Scalar);
        assert!(all.len() <= 3);
        // widest last, and only AVX2 hosts get the AVX-512 backend
        assert_eq!(all.last(), Some(&detected()));
        if all.contains(&Backend::Avx512) {
            assert!(all.contains(&Backend::Avx2));
        }
        assert!(all.iter().skip(1).all(|b| b.has_avx2()));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Avx512.name(), "avx512");
    }
}
