//! The catalog popularity sampler: Zipf(n, s) over ranks `1..=n` by
//! rejection-inversion (Hörmann & Derflinger), with each rank's acceptance
//! ratio computed once.
//!
//! A draw inverts H, the integral of `x^(−s)`, at a uniform point, rounds
//! to a rank `k` and accepts `k` with probability
//! `k^(−s) / (H(k + ½) − H(k − ½))`. That ratio depends only on `k` (for a
//! fixed `s`), so the sampler keeps it in a table the first time `k` is
//! drawn. It draws exactly the uniforms the vendored `rand_distr::Zipf`
//! draws — two per attempt, none when `n ≤ 1` — and evaluates the same f64
//! expressions in the same order, once per rank instead of once per attempt,
//! so from one generator state both return the same rank and leave the
//! generator in the same state. The tests below hold it to that.

use rand::rngs::SmallRng;
use rand::RngCore;

/// Ranks whose per-rank values are kept in a table (per class); a rank above
/// it is computed on every draw, as an uncached sampler would.
pub(crate) const CACHED_RANKS: u64 = 1 << 20;

/// The least acceptance probability of rank 1 the sampler takes on. Rank 1's
/// ratio is ≈ `(s − 1) / 2^(s − 1)` for a large skew `s`, and nearly every
/// attempt lands on rank 1 there, so below this floor the rejection loop
/// would take millions of attempts per draw (`s` = 50 would take ~10¹³);
/// past `s` ≈ 1000 the constants overflow and it would never finish.
const MIN_RANK_ONE_ACCEPT: f64 = 1e-6;

/// Zipf(n, s) over ranks `1..=n` with a lazily filled acceptance table.
pub(crate) struct ZipfSampler {
    n: f64,
    s: f64,
    /// H(½).
    h_lo: f64,
    /// H(n + ½) − H(½).
    h_span: f64,
    /// `accept[k − 1]` is rank `k`'s acceptance ratio, for the first
    /// [`CACHED_RANKS`] ranks; 0.0 marks a rank not yet drawn, so the table
    /// starts as zeroed pages that are touched only where ranks land.
    accept: Vec<f64>,
}

impl ZipfSampler {
    /// Zipf(`n`, `s`) for `n` ≥ 1. Refuses (with the reason) an `s` that is
    /// not positive and finite, and a skew whose rejection loop would not
    /// finish (rank 1 accepted with probability below
    /// [`MIN_RANK_ONE_ACCEPT`] or not a number).
    pub(crate) fn new(n: u64, s: f64) -> Result<Self, String> {
        debug_assert!(n >= 1, "a Zipf catalog has at least one rank");
        if s <= 0.0 || !s.is_finite() {
            return Err(format!("Zipf skew {s} is not positive and finite"));
        }
        let nf = n as f64;
        let h_lo = h_integral(0.5, s);
        let h_span = h_integral(nf + 0.5, s) - h_lo;
        if n > 1 {
            let rank_one = accept_ratio(1.0, s);
            if !(rank_one.is_finite() && rank_one >= MIN_RANK_ONE_ACCEPT) {
                return Err(format!(
                    "Zipf skew {s} accepts rank 1 with probability {rank_one:e}, below \
                     {MIN_RANK_ONE_ACCEPT:e}: the rejection loop would not finish"
                ));
            }
        }
        let cached = if n > 1 { n.min(CACHED_RANKS) as usize } else { 0 };
        Ok(Self { n: nf, s, h_lo, h_span, accept: vec![0.0; cached] })
    }

    /// Draws one rank in `1..=n`.
    pub(crate) fn sample(&mut self, rng: &mut SmallRng) -> u64 {
        if self.n <= 1.0 {
            return 1;
        }
        loop {
            let u = unit_f64(rng);
            let x = h_integral_inv(self.h_lo + u * self.h_span, self.s);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if unit_f64(rng) < self.accept(k) {
                return k as u64;
            }
        }
    }

    /// Rank `k`'s acceptance ratio, from the table where it has one.
    fn accept(&mut self, k: f64) -> f64 {
        // A NaN `k` casts to 0 and wraps past the table, as a rank above it.
        let Some(slot) = self.accept.get_mut((k as usize).wrapping_sub(1)) else {
            return accept_ratio(k, self.s);
        };
        if *slot == 0.0 {
            *slot = accept_ratio(k, self.s);
        }
        *slot
    }
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of one draw.
#[inline]
fn unit_f64(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Rank `k`'s acceptance probability: `k^(−s)` over the envelope's mass on
/// `[k − ½, k + ½]` (≤ 1 by convexity of `x^(−s)`).
fn accept_ratio(k: f64, s: f64) -> f64 {
    let envelope = h_integral(k + 0.5, s) - h_integral(k - 0.5, s);
    k.powf(-s) / envelope
}

/// H(x) = ∫₁ˣ t^(−s) dt.
#[inline]
fn h_integral(x: f64, s: f64) -> f64 {
    let one_minus_s = 1.0 - s;
    if one_minus_s.abs() < 1e-9 {
        x.ln()
    } else {
        (x.powf(one_minus_s) - 1.0) / one_minus_s
    }
}

/// Inverse of [`h_integral`].
#[inline]
fn h_integral_inv(y: f64, s: f64) -> f64 {
    let one_minus_s = 1.0 - s;
    if one_minus_s.abs() < 1e-9 {
        y.exp()
    } else {
        (1.0 + y * one_minus_s).powf(1.0 / one_minus_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_distr::Zipf;

    /// Draws `draws` ranks from both samplers off two copies of one
    /// generator and asserts equal ranks and equal generator states.
    fn agrees_with_the_oracle(n: u64, s: f64, seed: u64, draws: usize) {
        let oracle = Zipf::new(n, s).expect("oracle accepts the parameters");
        let mut sampler = ZipfSampler::new(n, s).expect("sampler accepts the parameters");
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = a.clone();
        for i in 0..draws {
            let want = a.sample(oracle) as u64;
            let got = sampler.sample(&mut b);
            assert_eq!(got, want, "draw {i} of Zipf({n}, {s}) seed {seed}");
            assert_eq!(a, b, "generator states part at draw {i} of Zipf({n}, {s}) seed {seed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The differential: over random catalogs (some above
        /// [`CACHED_RANKS`], some of one rank), skews (including
        /// `1 ± 1e-10`, either side of H's `ln` branch, and exactly 1) and
        /// seeds, the cached sampler and `rand_distr::Zipf` agree draw for
        /// draw.
        #[test]
        fn same_ranks_and_generator_state_as_rand_distr(
            n_pick in 0usize..4,
            n_any in 1u64..3_000_000,
            s_pick in 0usize..5,
            s_any in 0.01f64..4.0,
            seed in 0u64..u64::MAX,
        ) {
            let n = [1, 2, 1000, n_any][n_pick];
            let s = [1.0 - 1e-10, 1.0 + 1e-10, 1.0, s_any, s_any][s_pick];
            agrees_with_the_oracle(n, s, seed, 3_000);
        }
    }

    #[test]
    fn agrees_above_the_cached_ranks() {
        // s = 0.3 over 4 M ranks: most draws land above the table.
        agrees_with_the_oracle(4_000_000, 0.3, 17, 20_000);
    }

    #[test]
    fn refuses_a_skew_whose_loop_would_not_finish() {
        for s in [50.0, 1000.0, 2000.0] {
            let why = ZipfSampler::new(1000, s).err().expect("refused");
            assert!(why.contains("would not finish"), "{why}");
        }
        assert!(ZipfSampler::new(1000, f64::INFINITY).is_err());
        // One rank never enters the loop, whatever the skew.
        assert_eq!(
            ZipfSampler::new(1, 50.0).expect("one rank").sample(&mut SmallRng::seed_from_u64(1)),
            1
        );
        // A steep but finite skew still draws.
        let mut steep = ZipfSampler::new(1000, 16.0).expect("s = 16 finishes");
        let mut rng = SmallRng::seed_from_u64(2);
        assert!((0..100).all(|_| (1..=1000).contains(&steep.sample(&mut rng))));
    }
}
