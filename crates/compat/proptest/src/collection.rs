//! Collection strategies (`vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Strategy producing `Vec`s of an element strategy's values with a length
/// drawn from a range; see [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max_exclusive: usize,
}

/// A `Vec` strategy: lengths drawn uniformly from `size` (half-open), each
/// element generated independently.
pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec length range");
    VecStrategy {
        element,
        min: size.start,
        max_exclusive: size.end,
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.max_exclusive - self.min) as u64;
        let len = self.min + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_stay_in_range() {
        let strat = vec(0u64..10, 2..5);
        let mut rng = TestRng::from_seed(3);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 10));
        }
    }
}
