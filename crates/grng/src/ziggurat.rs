//! Ziggurat rejection sampler (taxonomy category 3, Marsaglia & Tsang).

use vibnn_rng::{BitSource, Xoshiro256};

use crate::{substream_seed, GaussianSource, StreamFork};

const LAYERS: usize = 128;
/// x-coordinate of the base layer for 128 layers.
const R: f64 = 3.442619855899;
const V: f64 = 9.91256303526217e-3;

/// Marsaglia–Tsang ziggurat sampler for N(0, 1) with 128 layers.
///
/// The paper's taxonomy lists rejection methods (the Ziggurat algorithm) as
/// high-quality but hardware-unfriendly; it serves here as the software
/// gold standard for speed/quality comparisons.
///
/// # Example
///
/// ```
/// use vibnn_grng::{GaussianSource, ZigguratGrng};
/// let mut g = ZigguratGrng::new(1);
/// assert!(g.next_gaussian().is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct ZigguratGrng {
    uniform: Xoshiro256,
    x: [f64; LAYERS + 1],
    y: [f64; LAYERS],
    seed: u64,
}

fn pdf_unscaled(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

impl ZigguratGrng {
    /// Creates the generator, building the layer tables.
    pub fn new(seed: u64) -> Self {
        let mut x = [0.0; LAYERS + 1];
        let mut y = [0.0; LAYERS];
        x[0] = V / pdf_unscaled(R);
        x[1] = R;
        for i in 2..LAYERS {
            let prev_y = pdf_unscaled(x[i - 1]);
            let target = prev_y + V / x[i - 1];
            x[i] = (-2.0 * target.ln()).sqrt();
        }
        x[LAYERS] = 0.0;
        for i in 0..LAYERS {
            y[i] = pdf_unscaled(x[i.max(1)]);
        }
        // y[i] is the pdf at the *outer* edge of layer i; store pdf(x[i])
        // with y[0] at pdf(R).
        for (i, slot) in y.iter_mut().enumerate() {
            *slot = pdf_unscaled(x[i + 1]);
        }
        Self {
            uniform: Xoshiro256::new(seed),
            x,
            y,
            seed,
        }
    }

    fn sample_tail(rng: &mut Xoshiro256) -> f64 {
        // Marsaglia's tail algorithm for x > R.
        loop {
            let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
            let u2 = rng.next_f64().max(f64::MIN_POSITIVE);
            let x = -u1.ln() / R;
            let y = -u2.ln();
            if 2.0 * y > x * x {
                return R + x;
            }
        }
    }

    /// One draw from explicit state — shared by the scalar and block
    /// paths so they consume the identical uniform stream.
    #[inline(always)]
    fn draw(x_tab: &[f64; LAYERS + 1], y_tab: &[f64; LAYERS], rng: &mut Xoshiro256) -> f64 {
        loop {
            let bits = rng.next_u64();
            let layer = (bits & (LAYERS as u64 - 1)) as usize;
            let sign = if bits & LAYERS as u64 != 0 { 1.0 } else { -1.0 };
            let u = ((bits >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
            let x = u * x_tab[layer];
            if x < x_tab[layer + 1] {
                return sign * x;
            }
            if layer == 0 {
                return sign * Self::sample_tail(rng);
            }
            // Wedge: accept with probability proportional to pdf.
            let y0 = y_tab[layer - 1];
            let y1 = y_tab[layer];
            let v = rng.next_f64();
            if y0 + v * (y1 - y0) < pdf_unscaled(x) {
                return sign * x;
            }
        }
    }
}

impl StreamFork for ZigguratGrng {
    fn fork(&self, stream_id: u64) -> Self {
        Self::new(substream_seed(self.seed, stream_id))
    }
}

impl GaussianSource for ZigguratGrng {
    fn next_gaussian(&mut self) -> f64 {
        Self::draw(&self.x, &self.y, &mut self.uniform)
    }

    /// Hoists the uniform state into a local for the duration of the
    /// fill, as [`Self::fill_f32`] does, instead of the trait's
    /// per-scalar default. Identical stream: one draw per slot, in order.
    fn fill(&mut self, out: &mut [f64]) {
        let mut rng = self.uniform;
        for slot in out {
            *slot = Self::draw(&self.x, &self.y, &mut rng);
        }
        self.uniform = rng;
    }

    /// Writes each sample straight into the `f32` slice instead of
    /// round-tripping 256-element `f64` chunks through the trait's default
    /// (which cost ~10% block throughput versus the scalar path — the
    /// `bench_train` ε fill-rate guard watches this). The uniform state is
    /// hoisted into a local for the duration of the fill so the hot loop
    /// keeps it in registers instead of round-tripping through `&mut self`
    /// on every draw. Identical stream: one draw per slot, in order.
    fn fill_f32(&mut self, out: &mut [f32]) {
        let mut rng = self.uniform;
        for slot in out {
            *slot = Self::draw(&self.x, &self.y, &mut rng) as f32;
        }
        self.uniform = rng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_stats::{ks_test_normal, Moments};

    #[test]
    fn ziggurat_moments() {
        let mut g = ZigguratGrng::new(11);
        let m = Moments::from_slice(&g.take_vec(300_000));
        assert!(m.mean().abs() < 0.01, "mean {}", m.mean());
        assert!((m.std_dev() - 1.0).abs() < 0.01, "std {}", m.std_dev());
        assert!(m.skewness().abs() < 0.05);
        assert!(m.excess_kurtosis().abs() < 0.1);
    }

    #[test]
    fn ziggurat_passes_ks() {
        let mut g = ZigguratGrng::new(12);
        let out = ks_test_normal(&g.take_vec(50_000));
        assert!(out.passes(0.01), "p={} D={}", out.p_value, out.statistic);
    }

    #[test]
    fn tail_mass_is_correct() {
        let mut g = ZigguratGrng::new(13);
        let xs = g.take_vec(500_000);
        let beyond3 = xs.iter().filter(|&&x| x.abs() > 3.0).count() as f64;
        // P(|Z| > 3) = 0.0027.
        assert!(
            (beyond3 / 500_000.0 - 0.0027).abs() < 0.0008,
            "tail mass {}",
            beyond3 / 500_000.0
        );
    }

    #[test]
    fn fill_f32_matches_scalar_stream() {
        let mut scalar = ZigguratGrng::new(44);
        let mut block = ZigguratGrng::new(44);
        let want: Vec<f32> = (0..1000).map(|_| scalar.next_gaussian() as f32).collect();
        let mut got = vec![0.0f32; 1000];
        block.fill_f32(&mut got[..300]);
        block.fill_f32(&mut got[300..]);
        assert_eq!(got, want);
    }

    #[test]
    fn layer_table_is_monotone() {
        let g = ZigguratGrng::new(1);
        for i in 1..LAYERS {
            assert!(g.x[i] > g.x[i + 1], "x table must decrease");
        }
    }
}
