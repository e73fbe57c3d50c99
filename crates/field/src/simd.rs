//! Runtime SIMD backend selection for the bulk field kernels and the
//! ChaCha20 PRG.
//!
//! The delayed-reduction kernels in [`crate::ops`] and the multi-block
//! keystream path in `lsa_crypto` each have two implementations: the
//! portable scalar loop (autovectorization-friendly, the oracle) and a
//! hand-written SIMD kernel over stable `core::arch` intrinsics (plus
//! one `asm!` instruction where LLVM rewrites the intrinsic). Which
//! one runs is decided **once per bulk call** — never per element — by
//! [`backend`], which resolves, in order:
//!
//! 1. a scoped [`with_backend`] override on the current thread (tests
//!    and benches; propagated into [`crate::par`] workers so a forced
//!    backend survives the fork-join pool);
//! 2. the `LSA_SIMD` environment variable, read once per process:
//!    `auto` (default) picks the best backend the CPU supports,
//!    `scalar` forces the portable path, a feature name (`avx2`)
//!    requests that backend — silently degrading to [`Backend::Scalar`]
//!    when the host lacks the feature (the chosen backend is surfaced
//!    in every telemetry/bench JSON record, so a degraded knob is
//!    visible rather than a silent misconfiguration);
//! 3. CPU feature detection (`is_x86_feature_detected!`) on x86_64;
//!    every other architecture runs the portable path.
//!
//! Every SIMD kernel is required to be **bit-identical** to its scalar
//! oracle on all inputs — the backends only trade instruction count,
//! never results. `crates/field/tests/kernel_equivalence.rs` pins this
//! for every kernel on every compiled-in backend.

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
}

impl Backend {
    /// Stable lower-case name, as accepted by `LSA_SIMD` and emitted in
    /// telemetry/bench JSON records.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// The best backend this CPU supports, ignoring the knob and overrides.
pub fn detected() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// All backends usable on this host, scalar first — the axis benches
/// and equivalence tests sweep.
pub fn available() -> Vec<Backend> {
    let mut out = vec![Backend::Scalar];
    if detected() != Backend::Scalar {
        out.push(detected());
    }
    out
}

fn env_backend() -> Backend {
    static GLOBAL: OnceLock<Backend> = OnceLock::new();
    *GLOBAL.get_or_init(|| {
        let requested = std::env::var("LSA_SIMD").ok();
        match requested.as_deref().map(str::trim) {
            None | Some("auto") | Some("") => detected(),
            Some("scalar") | Some("off") | Some("0") => Backend::Scalar,
            Some("avx2") => {
                if detected() == Backend::Avx2 {
                    Backend::Avx2
                } else {
                    // requested feature missing: degrade loudly-enough —
                    // the chosen backend lands in every JSON record
                    Backend::Scalar
                }
            }
            // unknown value: conservative portable path (visible in
            // telemetry as "scalar" next to the knob the user set)
            Some(_) => Backend::Scalar,
        }
    })
}

thread_local! {
    /// Scoped override installed by [`with_backend`] (and mirrored into
    /// [`crate::par`] workers for the duration of a forked call).
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
/// exit, even across panics). [`crate::par`] propagates the pin into
/// its workers, so a kernel forked across the pool still honours it.
///
/// Pinning a backend the host cannot run degrades to
/// [`Backend::Scalar`], mirroring the `LSA_SIMD` knob.
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    let effective = if backend == Backend::Scalar || backend == detected() {
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

/// The current thread's scoped override, if any — used by
/// [`crate::par`] to mirror the pin into worker threads.
pub(crate) fn current_override() -> Option<Backend> {
    OVERRIDE.with(Cell::get)
}

/// Install an override captured from a forking thread (worker-side half
/// of the propagation; cleared when the worker's scope ends).
pub(crate) fn set_override(backend: Option<Backend>) {
    OVERRIDE.with(|o| o.set(backend));
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
        // pinning the detected backend is the identity; pinning one the
        // host lacks must fall back instead of trapping later
        for b in [Backend::Scalar, Backend::Avx2] {
            with_backend(b, || {
                let eff = backend();
                assert!(eff == b || eff == Backend::Scalar);
                if b == detected() {
                    assert_eq!(eff, b);
                }
            });
        }
    }

    #[test]
    fn available_lists_scalar_first() {
        let all = available();
        assert_eq!(all[0], Backend::Scalar);
        assert!(all.len() <= 2);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
    }
}
