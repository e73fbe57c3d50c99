//! Collection strategies (`vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// Acceptable length specifications for [`vec()`].
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self {
            lo: n,
            hi_exclusive: n + 1,
        }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec length range");
        Self {
            lo: r.start,
            hi_exclusive: r.end,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        Self {
            lo: *r.start(),
            hi_exclusive: *r.end() + 1,
        }
    }
}

/// Strategy producing `Vec`s whose elements come from `element` and whose
/// length is drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}
