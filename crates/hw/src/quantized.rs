//! The functional fixed-point datapath: exactly the arithmetic the
//! accelerator performs, vectorized for fast accuracy evaluation.
//!
//! Semantics (paper Sections 5.1–5.3):
//!
//! 1. The weight generator computes `w = µ + σ·ε` in B-bit fixed point:
//!    `σ_q · ε_q` is requantized to the weight format and added to `µ_q`
//!    with saturation.
//! 2. Each PE multiplies B-bit activations by B-bit weights into a wide
//!    accumulator (no intermediate rounding — the adder tree of Figure 11),
//!    adds the bias, requantizes once to the activation format, and applies
//!    ReLU.
//! 3. The final layer's logits are dequantized; softmax and Monte Carlo
//!    averaging (equation 6) happen at full precision on the host, as they
//!    would on the CPU collecting accelerator outputs.
//!
//! The host-side Monte Carlo mean goes through `vibnn_bnn::reduce_mean`
//! and therefore inherits the workspace-wide fixed-lane accumulation
//! contract (`vibnn_nn::LANES` partial-sum chains, element `k` in lane
//! `k % LANES`, lanes folded in ascending order). The fixed-point MACs
//! inside the datapath are integer arithmetic — exact and associative —
//! so quantized forward passes themselves are unaffected by the lane
//! rule; only the float averaging step follows it.
//!
//! # Host kernel
//!
//! [`QuantizedBnn::sample_weights_with`] runs the weight generator as one
//! straight pass per table over µ, σ and a block of ε, through the
//! branch-free fast paths of `QFormat::quantize` and
//! `QFormat::requantize`. [`QuantizedBnn::forward_with_weights`] keeps
//! activations in flat row-major `i32` buffers and makes the input index
//! the outer loop, so each activation scales one *contiguous* weight row
//! into a vector of per-output accumulators; zero activations are
//! skipped. The accumulator is `i32` wherever the formats bound every
//! partial sum below `2^31` (the paper's B = 8 network) and `i64`
//! otherwise. Integer addition is exact, so neither the loop order, the
//! skip nor the width changes a bit: the ticked
//! [`crate::CycleAccelerator`] keeps the strided per-neuron
//! `MacAccumulator` loop of the hardware's PE array and is the
//! independent oracle the kernel is pinned to, along with the retained
//! pre-rewrite kernel in this module's tests.

use std::ops::{Add, Mul, Shl};

use vibnn_bnn::{parallel_fork_map, reduce_mean, BnnParams};
use vibnn_fixed::{choose_format, QFormat};
use vibnn_grng::{GaussianSource, StreamFork};
use vibnn_nn::{softmax_rows, Matrix};

/// Fixed-point formats for every signal class in the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizationSpec {
    /// Operand bit length `B`.
    pub bit_len: u32,
    /// Format for weights (µ and sampled w).
    pub weight_fmt: QFormat,
    /// Format for σ values.
    pub sigma_fmt: QFormat,
    /// Format for activations (inputs and layer outputs).
    pub act_fmt: QFormat,
    /// Format for the unit Gaussian ε samples.
    pub eps_fmt: QFormat,
}

impl QuantizationSpec {
    /// Calibrates formats for `params` at `bit_len` bits.
    ///
    /// Weight range covers `max|µ| + 2·max σ` (rarer ε excursions are
    /// absorbed by saturation); ε gets ±4 range; activations are
    /// calibrated from `act_max` (the largest |activation| observed on a
    /// float calibration pass — see [`QuantizedBnn::from_params`]).
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` is outside `2..=32` or `act_max <= 0`.
    pub fn calibrate(params: &BnnParams, bit_len: u32, act_max: f64) -> Self {
        assert!(act_max > 0.0, "activation range must be positive");
        let mut mu_max = 0.0f32;
        let mut sigma_max = 0.0f32;
        for w in &params.weight_mu {
            for &v in w.data() {
                mu_max = mu_max.max(v.abs());
            }
        }
        for s in &params.weight_sigma {
            for &v in s.data() {
                sigma_max = sigma_max.max(v.abs());
            }
        }
        for b in &params.bias_mu {
            for &v in b {
                mu_max = mu_max.max(v.abs());
            }
        }
        for b in &params.bias_sigma {
            for &v in b {
                sigma_max = sigma_max.max(v.abs());
            }
        }
        let w_range = f64::from(mu_max) + 2.0 * f64::from(sigma_max);
        Self {
            bit_len,
            weight_fmt: choose_format(bit_len, w_range.max(1e-3)),
            sigma_fmt: choose_format(bit_len, f64::from(sigma_max).max(1e-3)),
            act_fmt: choose_format(bit_len, act_max),
            eps_fmt: choose_format(bit_len, 4.0),
        }
    }
}

/// One quantized layer: integer µ/σ tables plus biases.
#[derive(Debug, Clone)]
struct QLayer {
    in_dim: usize,
    out_dim: usize,
    mu: Vec<i32>,
    sigma: Vec<i32>,
    bias_mu: Vec<i32>,
    bias_sigma: Vec<i32>,
}

/// Whether an `i32` accumulator holds every partial sum of a layer with
/// `in_dim` inputs: `in_dim` products of at most `2^(B_act−1) · 2^(B_w−1)`
/// plus the bias `2^(B_w−1) · 2^act_f` stay below `2^31`.
fn i32_accumulator_fits(spec: &QuantizationSpec, in_dim: usize) -> bool {
    let act_max = 1u128 << (spec.act_fmt.total_bits() - 1);
    let w_max = 1u128 << (spec.weight_fmt.total_bits() - 1);
    let bound = in_dim as u128 * act_max * w_max + (w_max << spec.act_fmt.frac_bits());
    bound < 1 << 31
}

/// Whether every raw value in `v` lies in `fmt`'s range, the premise of
/// [`i32_accumulator_fits`] for caller-supplied weights.
fn in_format(fmt: QFormat, v: &[i32]) -> bool {
    let (lo, hi) = v.iter().fold((0, 0), |(lo, hi), &x| (x.min(lo), x.max(hi)));
    lo >= fmt.min_raw() && hi <= fmt.max_raw()
}

/// One layer of [`QuantizedBnn::forward_with_weights`] on flat buffers:
/// maps row-major `rows × in_dim` activations through the row-major
/// `in_dim × out_dim` table `w` and the biases `b` to `rows × out_dim`,
/// accumulating in `A` (`i32` only under [`i32_accumulator_fits`]).
fn dense_layer<A>(
    act: &[i32],
    w: &[i32],
    b: &[i32],
    spec: &QuantizationSpec,
    relu: bool,
) -> Vec<i32>
where
    A: Copy + From<i32> + Into<i64> + Add<Output = A> + Mul<Output = A> + Shl<u32, Output = A>,
{
    let (act_f, w_f) = (spec.act_fmt.frac_bits(), spec.weight_fmt.frac_bits());
    let out_dim = b.len();
    let in_dim = w.len() / out_dim;
    let mut out = Vec::with_capacity(act.len() / in_dim * out_dim);
    let mut acc: Vec<A> = Vec::with_capacity(out_dim);
    for x in act.chunks_exact(in_dim) {
        // Bias enters at the accumulator scale (act_f + w_f).
        acc.clear();
        acc.extend(b.iter().map(|&b| A::from(b) << act_f));
        for (&xi, w_row) in x.iter().zip(w.chunks_exact(out_dim)) {
            if xi == 0 {
                continue;
            }
            let xi = A::from(xi);
            for (a, &wj) in acc.iter_mut().zip(w_row) {
                *a = *a + xi * A::from(wj);
            }
        }
        out.extend(acc.iter().map(|&a| {
            let v = spec.act_fmt.requantize(a.into(), act_f + w_f);
            if relu {
                vibnn_fixed::relu_raw(v)
            } else {
                v
            }
        }));
    }
    out
}

/// A BNN deployed on the fixed-point datapath.
///
/// # Example
///
/// ```
/// use vibnn_bnn::{Bnn, BnnConfig};
/// use vibnn_grng::BoxMullerGrng;
/// use vibnn_hw::QuantizedBnn;
/// use vibnn_nn::Matrix;
///
/// let bnn = Bnn::new(BnnConfig::new(&[4, 8, 2]), 1);
/// let calib = Matrix::zeros(4, 4);
/// let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);
/// let mut eps = BoxMullerGrng::new(2);
/// let probs = q.predict_proba_mc(&calib, 4, &mut eps);
/// assert_eq!(probs.cols(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedBnn {
    spec: QuantizationSpec,
    layers: Vec<QLayer>,
}

impl QuantizedBnn {
    /// Quantizes `params` at `bit_len` bits, calibrating the activation
    /// format with a float forward pass over `calibration` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty or shapes mismatch.
    pub fn from_params(params: &BnnParams, bit_len: u32, calibration: &Matrix) -> Self {
        assert!(calibration.rows() > 0, "need calibration inputs");
        assert_eq!(
            calibration.cols(),
            params.weight_mu[0].rows(),
            "calibration width mismatch"
        );
        // Float mean-forward pass to find the activation range; a modest
        // margin absorbs weight-sampling noise, and saturation handles the
        // rare excursions beyond it (clipping outliers costs far less
        // accuracy than starving the format of fraction bits).
        let mut act_max = 1.0f64;
        let mut h = calibration.clone();
        let layers = params.layers();
        for l in 0..layers {
            let mut y = h.matmul(&params.weight_mu[l]);
            y.add_row_broadcast(&params.bias_mu[l]);
            for &v in y.data() {
                act_max = act_max.max(f64::from(v.abs()));
            }
            if l + 1 < layers {
                y.map_inplace(|v| v.max(0.0));
            }
            h = y;
        }
        let spec = QuantizationSpec::calibrate(params, bit_len, act_max * 1.3);
        Self::with_spec(params, spec)
    }

    /// Quantizes with an explicit spec.
    pub fn with_spec(params: &BnnParams, spec: QuantizationSpec) -> Self {
        let mut layers = Vec::with_capacity(params.layers());
        for l in 0..params.layers() {
            let mu_m = &params.weight_mu[l];
            let sg_m = &params.weight_sigma[l];
            layers.push(QLayer {
                in_dim: mu_m.rows(),
                out_dim: mu_m.cols(),
                mu: mu_m
                    .data()
                    .iter()
                    .map(|&v| spec.weight_fmt.quantize_f32(v))
                    .collect(),
                sigma: sg_m
                    .data()
                    .iter()
                    .map(|&v| spec.sigma_fmt.quantize_f32(v))
                    .collect(),
                bias_mu: params.bias_mu[l]
                    .iter()
                    .map(|&v| spec.weight_fmt.quantize_f32(v))
                    .collect(),
                bias_sigma: params.bias_sigma[l]
                    .iter()
                    .map(|&v| spec.sigma_fmt.quantize_f32(v))
                    .collect(),
            });
        }
        Self { spec, layers }
    }

    /// The quantization formats in use.
    pub fn spec(&self) -> &QuantizationSpec {
        &self.spec
    }

    /// Layer sizes `[input, hidden…, output]`.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut v = vec![self.layers[0].in_dim];
        v.extend(self.layers.iter().map(|l| l.out_dim));
        v
    }

    /// Total weight count (µ entries).
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(|l| l.mu.len()).sum()
    }

    /// Samples one full set of quantized weights `w_q = µ_q + requant(σ_q·ε_q)`
    /// — the weight generator's output for one Monte Carlo sample.
    /// Returned per layer as row-major `in_dim × out_dim` tables, plus
    /// biases.
    ///
    /// ε is drawn through the block API: one [`GaussianSource::fill`] per
    /// weight table and one per bias row (the same stream order as
    /// per-scalar draws), so hardware-style generators run their batched
    /// kernels instead of being called once per weight.
    pub fn sample_weights(
        &self,
        eps_src: &mut impl GaussianSource,
    ) -> Vec<(Vec<i32>, Vec<i32>)> {
        self.sample_weights_with(eps_src, &mut Vec::new())
    }

    /// [`Self::sample_weights`] drawing into a caller-owned ε scratch
    /// buffer, so repeated sampling (the Monte Carlo hot loop) allocates
    /// the scratch once per worker instead of once per sample.
    pub fn sample_weights_with(
        &self,
        eps_src: &mut impl GaussianSource,
        eps: &mut Vec<f64>,
    ) -> Vec<(Vec<i32>, Vec<i32>)> {
        let spec = &self.spec;
        let prod_frac = spec.sigma_fmt.frac_bits() + spec.eps_fmt.frac_bits();
        let max_len = self
            .layers
            .iter()
            .map(|l| l.mu.len())
            .max()
            .unwrap_or(0);
        eps.resize(max_len, 0.0);
        let mut sample = |mu: &[i32], sigma: &[i32]| -> Vec<i32> {
            let eps = &mut eps[..mu.len()];
            eps_src.fill(eps);
            mu.iter()
                .zip(sigma)
                .zip(eps.iter())
                .map(|((&mu, &sg), &e)| {
                    let e = spec.eps_fmt.quantize(e);
                    let noise = spec
                        .weight_fmt
                        .requantize(i64::from(sg) * i64::from(e), prod_frac);
                    spec.weight_fmt.saturate(i64::from(mu) + i64::from(noise))
                })
                .collect()
        };
        self.layers
            .iter()
            .map(|layer| {
                let w = sample(&layer.mu, &layer.sigma);
                (w, sample(&layer.bias_mu, &layer.bias_sigma))
            })
            .collect()
    }

    /// Forward pass of one batch through one sampled weight set; returns
    /// dequantized logits. This is the reference semantics the cycle
    /// simulator must match bit-for-bit.
    ///
    /// `weights` holds one `(table, bias)` pair per layer, as
    /// [`Self::sample_weights`] returns them: a row-major
    /// `in_dim × out_dim` table and `out_dim` biases.
    ///
    /// Activations live in one flat row-major `i32` buffer per layer.
    /// For each input row the layer seeds one accumulator per output
    /// with `bias << act_f`, then walks the weight table one contiguous
    /// row `w[i·out_dim..(i+1)·out_dim]` at a time, adding `x_i · w_i,·`
    /// to every accumulator; zero activations (ReLU outputs, blank
    /// pixels) are skipped, which is exact because integer addition is.
    /// Each output is requantized once. The accumulator is `i32` when
    /// the formats bound every partial sum below `2^31`
    /// (`in_dim · 2^(B_act−1) · 2^(B_w−1) + 2^(B_w−1) · 2^act_f < 2^31`,
    /// true for the paper's B = 8 network) and the layer's weights lie in
    /// the weight format, as sampled ones always do; otherwise it is
    /// `i64`, with `MacAccumulator`'s overflow semantics. Both widths give
    /// the bits of a single `i64` accumulator. The ticked
    /// [`crate::CycleAccelerator`] keeps the strided per-neuron
    /// `MacAccumulator` loop and is pinned to this function bit for bit,
    /// an independent oracle for the forward.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `weights` do not match the network's shapes.
    pub fn forward_with_weights(
        &self,
        x: &Matrix,
        weights: &[(Vec<i32>, Vec<i32>)],
    ) -> Matrix {
        assert_eq!(weights.len(), self.layers.len(), "weight set mismatch");
        assert_eq!(x.cols(), self.layers[0].in_dim, "activation width mismatch");
        let spec = &self.spec;
        let mut act: Vec<i32> = x.data().iter().map(|&v| spec.act_fmt.quantize_f32(v)).collect();
        let last = self.layers.len() - 1;
        for (l, (layer, (w, b))) in self.layers.iter().zip(weights).enumerate() {
            assert_eq!(w.len(), layer.mu.len(), "weight table shape mismatch");
            assert_eq!(b.len(), layer.out_dim, "bias shape mismatch");
            let relu = l < last;
            act = if i32_accumulator_fits(spec, layer.in_dim)
                && in_format(spec.weight_fmt, w)
                && in_format(spec.weight_fmt, b)
            {
                dense_layer::<i32>(&act, w, b, spec, relu)
            } else {
                dense_layer::<i64>(&act, w, b, spec, relu)
            };
        }
        Matrix::from_vec(
            x.rows(),
            self.layers[last].out_dim,
            act.iter().map(|&v| spec.act_fmt.dequantize(v) as f32).collect(),
        )
    }

    /// Monte Carlo predictive probabilities on the fixed-point datapath
    /// (equation 6 with hardware weight sampling).
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn predict_proba_mc(
        &self,
        x: &Matrix,
        samples: usize,
        eps_src: &mut impl GaussianSource,
    ) -> Matrix {
        assert!(samples > 0, "need at least one Monte Carlo sample");
        let out_dim = self.layers.last().expect("layers").out_dim;
        let mut acc = Matrix::zeros(x.rows(), out_dim);
        for _ in 0..samples {
            let weights = self.sample_weights(eps_src);
            let mut probs = self.forward_with_weights(x, &weights);
            softmax_rows(&mut probs);
            acc.axpy(1.0, &probs);
        }
        acc.scale(1.0 / samples as f32);
        acc
    }

    /// Monte Carlo predictive probabilities with the sample ensemble
    /// spread across `threads` `std::thread::scope` workers.
    ///
    /// Mirrors `vibnn_bnn::Bnn::predict_proba_mc_parallel`: sample `s`
    /// draws its ε from `eps_src.fork(s)` and the per-sample softmax
    /// outputs are reduced in ascending sample order, so the result is
    /// bit-identical for every thread count. `threads == 0` uses the
    /// `VIBNN_THREADS` knob.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn predict_proba_mc_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        samples: usize,
        eps_src: &S,
        threads: usize,
    ) -> Matrix {
        reduce_mean(&self.predict_proba_mc_members_parallel(x, samples, eps_src, threads))
    }

    /// The per-sample softmax outputs behind
    /// [`Self::predict_proba_mc_parallel`], returned in ascending sample
    /// order — the batch entry point for callers that need the Monte
    /// Carlo *members* (predictive-uncertainty estimates, the serving
    /// engine) rather than just their mean.
    ///
    /// Sample `s` draws its ε from `eps_src.fork(s)` exactly as the mean
    /// path does, so `vibnn_bnn::reduce_mean` over the returned members is
    /// **bit-identical** to [`Self::predict_proba_mc_parallel`] at every
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn predict_proba_mc_members_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        samples: usize,
        eps_src: &S,
        threads: usize,
    ) -> Vec<Matrix> {
        assert!(samples > 0, "need at least one Monte Carlo sample");
        parallel_fork_map(samples, threads, eps_src, |_, src, eps_scratch: &mut Vec<f64>| {
            let weights = self.sample_weights_with(src, eps_scratch);
            let mut probs = self.forward_with_weights(x, &weights);
            softmax_rows(&mut probs);
            probs
        })
    }

    /// Accuracy under hardware MC inference.
    pub fn evaluate_mc(
        &self,
        x: &Matrix,
        labels: &[usize],
        samples: usize,
        eps_src: &mut impl GaussianSource,
    ) -> f64 {
        vibnn_nn::accuracy(&self.predict_proba_mc(x, samples, eps_src), labels)
    }

    /// Accuracy under parallel hardware MC inference (see
    /// [`Self::predict_proba_mc_parallel`]).
    pub fn evaluate_mc_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        labels: &[usize],
        samples: usize,
        eps_src: &S,
        threads: usize,
    ) -> f64 {
        vibnn_nn::accuracy(
            &self.predict_proba_mc_parallel(x, samples, eps_src, threads),
            labels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_bnn::{Bnn, BnnConfig};
    use vibnn_grng::BoxMullerGrng;
    use vibnn_nn::GaussianInit;

    fn toy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = GaussianInit::new(seed);
        let mut x = Matrix::zeros(n, 4);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let mut s = 0.0;
            for c in 0..4 {
                let v = rng.next_gaussian() as f32;
                x[(r, c)] = v;
                s += v;
            }
            y.push(usize::from(s > 0.0));
        }
        (x, y)
    }

    fn trained_bnn(seed: u64) -> (Bnn, Matrix, Vec<usize>) {
        let (x, y) = toy_data(512, seed);
        let mut bnn = Bnn::new(BnnConfig::new(&[4, 16, 2]).with_lr(0.02), seed ^ 1);
        for _ in 0..40 {
            bnn.train_epoch(&x, &y, 64);
        }
        (bnn, x, y)
    }

    /// The pre-rewrite per-element weight generator: one `fill` per
    /// table, then `quantize`, `requantize` and `saturate` per weight.
    /// The arithmetic itself is pinned by `vibnn_fixed`'s oracle tests.
    fn sample_weights_oracle(
        q: &QuantizedBnn,
        eps_src: &mut impl GaussianSource,
    ) -> Vec<(Vec<i32>, Vec<i32>)> {
        let spec = &q.spec;
        let prod_frac = spec.sigma_fmt.frac_bits() + spec.eps_fmt.frac_bits();
        let mut sample = |mu: &[i32], sigma: &[i32]| {
            let mut eps = vec![0.0; mu.len()];
            eps_src.fill(&mut eps);
            let mut dst = Vec::new();
            for i in 0..mu.len() {
                let e = spec.eps_fmt.quantize(eps[i]);
                let noise = spec
                    .weight_fmt
                    .requantize(i64::from(sigma[i]) * i64::from(e), prod_frac);
                dst.push(spec.weight_fmt.saturate(i64::from(mu[i]) + i64::from(noise)));
            }
            dst
        };
        q.layers
            .iter()
            .map(|l| (sample(&l.mu, &l.sigma), sample(&l.bias_mu, &l.bias_sigma)))
            .collect()
    }

    /// The pre-rewrite forward: `Vec<Vec<i32>>` rows, one
    /// `MacAccumulator` per output, weights walked with stride `out_dim`.
    fn forward_oracle(q: &QuantizedBnn, x: &Matrix, weights: &[(Vec<i32>, Vec<i32>)]) -> Matrix {
        let spec = &q.spec;
        let (act_f, w_f) = (spec.act_fmt.frac_bits(), spec.weight_fmt.frac_bits());
        let mut act: Vec<Vec<i32>> = (0..x.rows())
            .map(|r| x.row(r).iter().map(|&v| spec.act_fmt.quantize_f32(v)).collect())
            .collect();
        let last = q.layers.len() - 1;
        for (l, (layer, (w, b))) in q.layers.iter().zip(weights).enumerate() {
            act = act
                .iter()
                .map(|row| {
                    (0..layer.out_dim)
                        .map(|j| {
                            let mut acc = vibnn_fixed::MacAccumulator::new();
                            for (i, &xi) in row.iter().enumerate() {
                                acc.mac(xi, w[i * layer.out_dim + j]);
                            }
                            acc.add_raw(i64::from(b[j]) << act_f);
                            let v = spec.act_fmt.requantize(acc.raw(), act_f + w_f);
                            if l < last {
                                vibnn_fixed::relu_raw(v)
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
        }
        let mut logits = Matrix::zeros(act.len(), q.layers[last].out_dim);
        for (r, row) in act.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                logits[(r, c)] = spec.act_fmt.dequantize(v) as f32;
            }
        }
        logits
    }

    const ORACLE_BIT_LENS: [u32; 7] = [3, 4, 8, 12, 16, 24, 32];

    /// A [40, 24, 3] network with widened σ (so sampled weights also
    /// saturate) and inputs mixing zeros, negatives and out-of-range
    /// values.
    fn oracle_fixture() -> (BnnParams, Matrix) {
        let mut params = Bnn::new(BnnConfig::new(&[40, 24, 3]), 41).params();
        for s in &mut params.weight_sigma {
            s.scale(8.0);
        }
        let (mut x, _) = toy_data(12, 43);
        x = Matrix::from_vec(
            6,
            40,
            (0..240)
                .map(|k| match k % 5 {
                    0 | 3 => 0.0,
                    _ => x.data()[k % x.data().len()] * (1 + k % 7) as f32,
                })
                .collect(),
        );
        (params, x)
    }

    #[test]
    fn kernel_oracle_accumulator_width_rule() {
        let (params, x) = oracle_fixture();
        let spec = |bits| *QuantizedBnn::from_params(&params, bits, &x).spec();
        // The paper's B = 8 MNIST layers fit i32; B >= 16 needs i64.
        assert!(i32_accumulator_fits(&spec(8), 784));
        assert!(i32_accumulator_fits(&spec(12), 40));
        assert!(!i32_accumulator_fits(&spec(12), 784));
        assert!(!i32_accumulator_fits(&spec(16), 40));
        assert!(!i32_accumulator_fits(&spec(32), 3));
    }

    #[test]
    fn kernel_oracle_sampled_forward_matches_pre_rewrite_kernel() {
        let (params, x) = oracle_fixture();
        let eps = BoxMullerGrng::new(47);
        for bits in ORACLE_BIT_LENS {
            let q = QuantizedBnn::from_params(&params, bits, &x);
            let mut scratch = Vec::new();
            for s in 0..4 {
                let got = q.sample_weights_with(&mut eps.fork(s), &mut scratch);
                let want = sample_weights_oracle(&q, &mut eps.fork(s));
                assert_eq!(got, want, "B={bits} sample {s}: weights");
                let bits_of = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits_of(&q.forward_with_weights(&x, &got)),
                    bits_of(&forward_oracle(&q, &x, &want)),
                    "B={bits} sample {s}: logits"
                );
            }
        }
    }

    #[test]
    fn kernel_oracle_forward_matches_at_weight_extremes() {
        // Every weight and bias at one end of the weight format and every
        // input saturated: the largest partial sums either accumulator
        // width sees. Weights outside the format (a caller's, not the
        // generator's) must fall back to i64. B = 32 is left out only
        // because 40 products of 2^62 overflow the oracle's checked i64
        // accumulator in debug.
        let (params, calib) = oracle_fixture();
        let x = Matrix::from_vec(
            3,
            40,
            (0..120).map(|k| [1e9f32, -1e9, 0.0][k % 3]).collect(),
        );
        for bits in [3u32, 4, 8, 12, 16, 24] {
            let q = QuantizedBnn::from_params(&params, bits, &calib);
            let fmt = q.spec().weight_fmt;
            for w in [fmt.min_raw(), fmt.max_raw(), i32::MIN, i32::MAX] {
                let weights: Vec<_> = q
                    .layers
                    .iter()
                    .map(|l| (vec![w; l.mu.len()], vec![w; l.out_dim]))
                    .collect();
                assert_eq!(
                    q.forward_with_weights(&x, &weights).data(),
                    forward_oracle(&q, &x, &weights).data(),
                    "B={bits} w={w}"
                );
            }
        }
    }

    #[test]
    fn eight_bit_accuracy_close_to_float() {
        // The Table 6 claim: 8-bit hardware degrades accuracy only
        // slightly vs the float software BNN.
        let (bnn, x, y) = trained_bnn(3);
        let float_acc = bnn.evaluate_mean(&x, &y);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &x.rows_slice(0, 64));
        let mut eps = BoxMullerGrng::new(5);
        let q_acc = q.evaluate_mc(&x, &y, 8, &mut eps);
        assert!(
            q_acc > float_acc - 0.05,
            "8-bit acc {q_acc} vs float {float_acc}"
        );
    }

    #[test]
    fn accuracy_degrades_at_very_low_bit_lengths() {
        // The Figure 18 mechanism: too few bits destroy accuracy.
        let (bnn, x, y) = trained_bnn(7);
        let calib = x.rows_slice(0, 64);
        let mut eps_hi = BoxMullerGrng::new(9);
        let mut eps_lo = BoxMullerGrng::new(9);
        let hi = QuantizedBnn::from_params(&bnn.params(), 8, &calib)
            .evaluate_mc(&x, &y, 8, &mut eps_hi);
        let lo = QuantizedBnn::from_params(&bnn.params(), 3, &calib)
            .evaluate_mc(&x, &y, 8, &mut eps_lo);
        assert!(hi > lo, "8-bit {hi} should beat 3-bit {lo}");
    }

    #[test]
    fn sample_weights_are_within_format_range() {
        let (bnn, x, _) = trained_bnn(11);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &x.rows_slice(0, 16));
        let mut eps = BoxMullerGrng::new(13);
        for (w, b) in q.sample_weights(&mut eps) {
            let (lo, hi) = (q.spec().weight_fmt.min_raw(), q.spec().weight_fmt.max_raw());
            assert!(w.iter().all(|&v| v >= lo && v <= hi));
            assert!(b.iter().all(|&v| v >= lo && v <= hi));
        }
    }

    #[test]
    fn sampled_weights_scatter_around_mu() {
        let (bnn, x, _) = trained_bnn(17);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &x.rows_slice(0, 16));
        let mut eps = BoxMullerGrng::new(19);
        let a = q.sample_weights(&mut eps);
        let b = q.sample_weights(&mut eps);
        // Two samples should differ somewhere (σ > 0).
        assert_ne!(a[0].0, b[0].0, "weight samples identical");
    }

    #[test]
    fn zero_sigma_makes_weights_deterministic() {
        let (bnn, x, _) = trained_bnn(23);
        let mut params = bnn.params();
        for s in &mut params.weight_sigma {
            s.scale(0.0);
        }
        for b in &mut params.bias_sigma {
            for v in b.iter_mut() {
                *v = 0.0;
            }
        }
        let q = QuantizedBnn::from_params(&params, 8, &x.rows_slice(0, 16));
        let mut e1 = BoxMullerGrng::new(29);
        let mut e2 = BoxMullerGrng::new(31);
        assert_eq!(q.sample_weights(&mut e1), q.sample_weights(&mut e2));
    }

    #[test]
    fn layer_sizes_and_weight_count() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 16, 2]), 1);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &Matrix::zeros(2, 4));
        assert_eq!(q.layer_sizes(), vec![4, 16, 2]);
        assert_eq!(q.total_weights(), 4 * 16 + 16 * 2);
    }

    #[test]
    #[should_panic(expected = "need calibration inputs")]
    fn empty_calibration_panics() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 4, 2]), 1);
        let _ = QuantizedBnn::from_params(&bnn.params(), 8, &Matrix::zeros(0, 4));
    }
}
