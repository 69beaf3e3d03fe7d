//! Fast standard-normal sampling for the inner simulation loop.
//!
//! The engine draws one noise sample per ADC output per local iteration —
//! about a hundred million per run on G22-sized graphs — so it uses the
//! ziggurat method (Marsaglia & Tsang, 2000) in `f32` with 256 layers.
//! Each draw takes one 64-bit word from the caller's RNG: the low 8 bits
//! pick a layer, the high 32 bits are a signed uniform scaled by the
//! layer's width. The draw is accepted by one integer compare about 99 %
//! of the time; the rest fall into a layer's wedge (an `exp` test) or,
//! from the base layer, into the tail beyond `R` (Marsaglia's exponential
//! rejection). The tables are built once per process.
//!
//! [`GaussianSource::fill_f32`] fills a whole block and returns exactly
//! the values repeated [`GaussianSource::sample_f32`] calls would on the
//! same stream, so block and single draws can be mixed freely.

use std::sync::OnceLock;

use rand::Rng;

/// Number of ziggurat layers (a power of two; the layer index is the low
/// byte of each draw).
const LAYERS: usize = 256;

/// Right edge of the base layer: the point where the tail begins.
const R: f64 = 3.654_152_885_361_009;

/// Area of each layer under the unnormalized density `exp(-x²/2)`.
const V: f64 = 0.004_928_673_233_974_655;

/// Scale of the signed 32-bit uniform.
const M: f64 = 2_147_483_648.0;

/// Per-layer tables. Layer `i` covers `[0, x_i)` with `x_i = w[i]·2³¹`;
/// `k[i]` is the accept bound for `|hz|` (the inner rectangle), `f[i]` the
/// density at `x_i`.
struct Ziggurat {
    k: [u32; LAYERS],
    w: [f32; LAYERS],
    f: [f32; LAYERS],
}

impl Ziggurat {
    fn build() -> Self {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut k = [0_u32; LAYERS];
        let mut w = [0.0_f32; LAYERS];
        let mut f = [0.0_f32; LAYERS];
        // Base layer: a rectangle of area V, wider than R, whose part
        // beyond R stands for the tail.
        let q = V / density(R);
        k[0] = (R / q * M) as u32;
        w[0] = (q / M) as f32;
        f[0] = 1.0;
        w[LAYERS - 1] = (R / M) as f32;
        f[LAYERS - 1] = density(R) as f32;
        let mut outer = R;
        for i in (1..LAYERS - 1).rev() {
            let inner = (-2.0 * (V / outer + density(outer)).ln()).sqrt();
            k[i + 1] = (inner / outer * M) as u32;
            w[i] = (inner / M) as f32;
            f[i] = density(inner) as f32;
            outer = inner;
        }
        // The top layer has no inner rectangle.
        k[1] = 0;
        Ziggurat { k, w, f }
    }

    /// The rare path of one draw: the tail beyond `R` from the base layer,
    /// or the wedge test of layer `i`. `None` rejects the draw.
    #[cold]
    fn slow<G: Rng + ?Sized>(&self, i: usize, hz: i32, x: f32, rng: &mut G) -> Option<f32> {
        const R32: f32 = R as f32;
        if i == 0 {
            loop {
                // 1 − U lies in (0, 1], so both logarithms are finite.
                let a = -(1.0 - rng.gen::<f32>()).ln() / R32;
                let b = -(1.0 - rng.gen::<f32>()).ln();
                if b + b >= a * a {
                    return Some(if hz < 0 { -(R32 + a) } else { R32 + a });
                }
            }
        }
        let u: f32 = rng.gen();
        (self.f[i] + u * (self.f[i - 1] - self.f[i]) < (-0.5 * x * x).exp()).then_some(x)
    }
}

fn tables() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::build)
}

/// A standard-normal sampler over a caller-owned RNG stream.
///
/// The source holds no stream state of its own: every value is a pure
/// function of the words it consumes from the RNG.
#[derive(Clone)]
pub struct GaussianSource {
    z: &'static Ziggurat,
}

impl std::fmt::Debug for GaussianSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaussianSource")
            .field("layers", &LAYERS)
            .finish()
    }
}

impl Default for GaussianSource {
    fn default() -> Self {
        GaussianSource::new()
    }
}

impl GaussianSource {
    /// Creates a source (building the shared tables on first use).
    #[must_use]
    pub fn new() -> Self {
        GaussianSource { z: tables() }
    }

    /// Draws one standard-normal sample.
    #[inline]
    pub fn sample_f32<G: Rng + ?Sized>(&mut self, rng: &mut G) -> f32 {
        let z = self.z;
        loop {
            let bits = rng.next_u64();
            let i = (bits as usize) & (LAYERS - 1);
            let hz = (bits >> 32) as i32;
            let x = hz as f32 * z.w[i];
            if hz.unsigned_abs() < z.k[i] {
                return x;
            }
            if let Some(x) = z.slow(i, hz, x, rng) {
                return x;
            }
        }
    }

    /// Fills `out` with standard-normal samples: the same values, in
    /// order, as `out.len()` calls of [`Self::sample_f32`].
    pub fn fill_f32<G: Rng + ?Sized>(&mut self, rng: &mut G, out: &mut [f32]) {
        for v in out {
            *v = self.sample_f32(rng);
        }
    }

    /// Draws one standard-normal sample, widened to `f64`.
    pub fn sample<G: Rng + ?Sized>(&mut self, rng: &mut G) -> f64 {
        f64::from(self.sample_f32(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::{SmallRng, StdRng};
    use rand::SeedableRng;

    const DRAWS: usize = 2_000_000;

    fn draws(seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = vec![0.0_f32; DRAWS];
        GaussianSource::new().fill_f32(&mut rng, &mut out);
        out
    }

    /// Standard normal CDF Φ, via the Abramowitz–Stegun 7.1.26 erf
    /// approximation (absolute error below 1.5e-7).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-z * z).exp();
        if x >= 0.0 {
            0.5 * (1.0 + erf)
        } else {
            0.5 * (1.0 - erf)
        }
    }

    /// Inverse of [`phi`] by bisection.
    fn phi_inv(p: f64) -> f64 {
        let (mut lo, mut hi) = (-10.0, 10.0);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if phi(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn moments_match_standard_normal() {
        let xs = draws(11);
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
        let m = |p: i32| {
            xs.iter()
                .map(|&x| (f64::from(x) - mean).powi(p))
                .sum::<f64>()
                / n
        };
        let var = m(2);
        let skew = m(3) / var.powf(1.5);
        let kurt = m(4) / (var * var);
        // Standard errors at n = 2e6: mean 7e-4, var 1e-3, skew 1.7e-3,
        // kurtosis 3.5e-3; the bounds are about 5σ.
        assert!(mean.abs() < 0.0035, "mean {mean}");
        assert!((var - 1.0).abs() < 0.005, "var {var}");
        assert!(skew.abs() < 0.009, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.018, "kurtosis {kurt}");
    }

    #[test]
    fn tail_masses_match_phi_within_a_binomial_band() {
        let xs = draws(12);
        let n = xs.len() as f64;
        for k in [2.0_f64, 3.0, 4.0] {
            let p = 2.0 * (1.0 - phi(k));
            let hits = xs.iter().filter(|&&x| f64::from(x).abs() > k).count() as f64;
            let sd = (n * p * (1.0 - p)).sqrt();
            assert!(
                (hits - n * p).abs() < 5.0 * sd,
                "|x| > {k}σ: {hits} draws, expected {:.1} ± {sd:.1}",
                n * p
            );
        }
    }

    #[test]
    fn chi_square_over_equiprobable_bins() {
        const BINS: usize = 128;
        let edges: Vec<f64> = (1..BINS).map(|i| phi_inv(i as f64 / BINS as f64)).collect();
        let xs = draws(13);
        let mut counts = [0_u64; BINS];
        for &x in &xs {
            counts[edges.partition_point(|&e| e <= f64::from(x))] += 1;
        }
        let expected = xs.len() as f64 / BINS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        // 127 degrees of freedom: mean 127, sd ≈ 15.9; reject above ~5σ.
        assert!(chi2 < 127.0 + 5.0 * 15.9, "chi² {chi2}");
    }

    #[test]
    fn fill_matches_repeated_single_draws() {
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = a.clone();
        let mut src = GaussianSource::new();
        let mut block = vec![0.0_f32; 10_000];
        src.fill_f32(&mut a, &mut block);
        let single: Vec<f32> = (0..block.len()).map(|_| src.sample_f32(&mut b)).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&block), bits(&single));
        // Both leave the stream at the same point.
        assert_eq!(a, b);
    }

    #[test]
    fn consecutive_samples_are_not_identical() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = GaussianSource::new();
        let a = src.sample(&mut rng);
        let b = src.sample(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_under_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut src = GaussianSource::new();
            (0..10).map(|_| src.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn tables_close_at_the_top_and_shrink_inward() {
        let z = tables();
        // Layer widths decrease towards the top; densities increase.
        for i in 2..LAYERS {
            assert!(z.w[i - 1] < z.w[i], "width order at {i}");
            assert!(z.f[i - 1] > z.f[i], "density order at {i}");
        }
        // The recurrence closes: the top layer's rectangle has area V.
        let x1 = f64::from(z.w[1]) * M;
        let area = x1 * (1.0 - (-0.5 * x1 * x1).exp());
        assert!((area - V).abs() < 1e-6, "top layer area {area}");
    }
}
