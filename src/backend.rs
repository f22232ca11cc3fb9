//! Pluggable inference backends: one serving contract, three datapaths.
//!
//! The paper's deployment story is an accelerator serving Bayesian
//! inference, yet a serving stack usually grows around whichever
//! datapath existed first. This module makes the datapath a *plug*:
//! [`InferenceBackend`] is the micro-batch contract the serving engine
//! dispatches through, and three implementations cover the repo's
//! datapaths end to end:
//!
//! - [`SoftwareBackend`] — the parallel float path (weights sampled as
//!   `µ + σ·ε` in f32, dense forward, softmax), the precision reference.
//! - [`QuantizedBackend`] — the quantized-host path the engine has
//!   always used ([`QuantizedBnn::predict_proba_mc_members_parallel`]).
//!   This is the **default**; its results are bit-identical to the
//!   pre-backend serving engine.
//! - [`CycleBackend`] — the accelerator's datapath and ledger: the
//!   same quantized kernel, with the simulator's f64 softmax and mean,
//!   and each row charged the closed-form [`vibnn_hw::Schedule`] cycles
//!   for the samples it drew plus the energy those cycles dissipate
//!   under the [`vibnn_hw::power`] model. Answers and costs are pinned
//!   equal to the ticked [`CycleAccelerator`], which stays the oracle.
//!
//! # Determinism
//!
//! All three backends fork the engine's ε source per Monte Carlo
//! sample (`eps.fork(s)`), never consume a shared stream, and process
//! rows independently — so a request's answer depends only on its
//! feature row, the deployment, the backend kind, and the ε seed;
//! never on batch composition, arrival order, or worker count. The
//! cluster router exploits this: spill is restricted to replicas with
//! the same checkpoint fingerprint *and* the same backend kind, so
//! rerouting can never change a result.
//!
//! # Cost accounting
//!
//! Every micro-batch returns a [`BackendCost`]. The software and
//! quantized hosts charge zero cycles/energy (they are host code, not
//! modeled hardware); the cycle backend charges `Schedule` cycles per
//! sample drawn — what the ticked model counts, pinned by tests — and
//! the energy those cycles dissipate at the configured clock. Costs
//! accumulate per engine and per cluster replica, surface in
//! `ClusterMetrics`, and travel over the ingest wire.

use vibnn_bnn::{reduce_mean, BnnParams};
use vibnn_grng::{GaussianSource, StreamFork};
use vibnn_hw::{softmax_f64, CycleAccelerator, QuantizedBnn, Schedule};
use vibnn_nn::{relu, softmax_rows, Matrix, LANES};

use crate::sampler::{ExactN, RowTracker, SampleDecision, SamplingPolicy};
use crate::serve::ServeResult;
use crate::{Vibnn, VibnnError};

/// Which datapath a serving slot runs inference through.
///
/// The default is [`BackendKind::Quantized`] — the quantized-host path
/// the serving engine has always used — so existing deployments are
/// unchanged unless a backend is selected explicitly (via
/// `VibnnBuilder::backend`, `ServeConfig::backend`, or a cluster's
/// per-replica kinds).
///
/// ```
/// use vibnn::backend::BackendKind;
///
/// assert_eq!(BackendKind::default(), BackendKind::Quantized);
/// // Kinds travel over the ingest wire as one byte.
/// for kind in [BackendKind::Software, BackendKind::Quantized, BackendKind::Cycle] {
///     assert_eq!(BackendKind::from_code(kind.code()), Some(kind));
/// }
/// assert_eq!(BackendKind::from_code(9), None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Float-precision software path (µ + σ·ε in f32, dense forward).
    Software,
    /// Quantized host path — the historical serving datapath.
    #[default]
    Quantized,
    /// The accelerator's datapath: the quantized kernel, charged the
    /// closed-form `Schedule` cycles and their energy.
    Cycle,
}

impl BackendKind {
    /// Stable one-byte wire code (ingest metrics, checkpoint-free).
    pub fn code(self) -> u8 {
        match self {
            BackendKind::Software => 0,
            BackendKind::Quantized => 1,
            BackendKind::Cycle => 2,
        }
    }

    /// Inverse of [`Self::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(BackendKind::Software),
            1 => Some(BackendKind::Quantized),
            2 => Some(BackendKind::Cycle),
            _ => None,
        }
    }

    /// Instantiates this backend for a deployment. The returned object
    /// is what a [`crate::serve::ServeEngine`] dispatches micro-batches
    /// through.
    pub fn instantiate<S: StreamFork + Sync>(
        self,
        vibnn: &Vibnn,
    ) -> Box<dyn InferenceBackend<S>> {
        match self {
            BackendKind::Software => Box::new(SoftwareBackend::new(vibnn.params().clone())),
            BackendKind::Quantized => Box::new(QuantizedBackend::new(vibnn.network().clone())),
            BackendKind::Cycle => Box::new(CycleBackend::new(CycleAccelerator::new(
                vibnn.config().clone(),
                vibnn.network().clone(),
            ))),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Software => write!(f, "software"),
            BackendKind::Quantized => write!(f, "quantized"),
            BackendKind::Cycle => write!(f, "cycle"),
        }
    }
}

/// Hardware cost charged for served work: simulated clock cycles, the
/// energy those cycles dissipate (nanojoules, from the
/// [`vibnn_hw::power`] system model), and the Monte Carlo samples
/// drawn. Host backends (software/quantized) charge zero cycles and
/// energy; only the cycle backend meters modeled hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendCost {
    /// Simulated accelerator clock cycles.
    pub cycles: u64,
    /// Energy in nanojoules for those cycles at the configured clock.
    pub energy_nj: f64,
    /// Monte Carlo samples executed (rows × MC samples per request).
    pub samples: u64,
}

impl BackendCost {
    /// Folds another cost into this one (cumulative accounting).
    pub fn accumulate(&mut self, other: BackendCost) {
        self.cycles += other.cycles;
        self.energy_nj += other.energy_nj;
        self.samples += other.samples;
    }
}

/// One row's outcome under an adaptive sampling policy: an answer, or
/// a typed abstention (a risk-tiered policy declining to predict).
#[derive(Debug, Clone, PartialEq)]
pub enum RowOutcome {
    /// The request was answered.
    Served(ServeResult),
    /// A risk-tiered policy declined to answer after exhausting the
    /// sample budget on a still-uncertain request.
    Abstained {
        /// Request id (row index within the chunk; engines rewrite it).
        id: u64,
        /// Monte Carlo samples drawn before abstaining.
        samples_used: u32,
        /// Final normalized predictive entropy, in thousandths of
        /// `ln(classes)`.
        entropy_milli: u32,
    },
}

impl RowOutcome {
    /// The request id this outcome answers.
    pub fn id(&self) -> u64 {
        match self {
            RowOutcome::Served(r) => r.id,
            RowOutcome::Abstained { id, .. } => *id,
        }
    }

    /// Rewrites the request id (engines map chunk-relative row indices
    /// to global ids).
    pub fn set_id(&mut self, id: u64) {
        match self {
            RowOutcome::Served(r) => r.id = id,
            RowOutcome::Abstained { id: slot, .. } => *slot = id,
        }
    }

    /// The served result, or the abstention as its typed error.
    pub fn into_result(self) -> Result<ServeResult, VibnnError> {
        match self {
            RowOutcome::Served(r) => Ok(r),
            RowOutcome::Abstained {
                samples_used,
                entropy_milli,
                ..
            } => Err(VibnnError::Abstained {
                samples_used,
                entropy_milli,
            }),
        }
    }

    /// Samples this row actually drew.
    pub fn samples_used(&self) -> u32 {
        match self {
            RowOutcome::Served(r) => r.samples_used,
            RowOutcome::Abstained { samples_used, .. } => *samples_used,
        }
    }
}

/// The micro-batch contract a serving slot dispatches through: run one
/// validated chunk of feature rows through `samples` Monte Carlo draws
/// and return one [`ServeResult`] per row (ids = row index within the
/// chunk; the engine rewrites them) plus the batch's [`BackendCost`].
///
/// Implementations must keep the serving determinism contract: sample
/// `s` draws from `eps.fork(s)`, rows are processed independently, and
/// `workers` never affects results.
///
/// ```
/// use vibnn::backend::{BackendKind, InferenceBackend};
/// use vibnn::bnn::{Bnn, BnnConfig};
/// use vibnn::grng::ZigguratGrng;
/// use vibnn::nn::Matrix;
/// use vibnn::VibnnBuilder;
///
/// let bnn = Bnn::new(BnnConfig::new(&[4, 8, 2]), 7);
/// let vibnn = VibnnBuilder::new(bnn.params())
///     .mc_samples(3)
///     .calibration(Matrix::zeros(2, 4))
///     .build()?;
/// let mut backend = BackendKind::Cycle.instantiate::<ZigguratGrng>(&vibnn);
/// let eps = ZigguratGrng::new(0x5EED);
/// let (results, cost) = backend.serve_microbatch(&Matrix::zeros(2, 4), 3, &eps, 1);
/// assert_eq!(results.len(), 2);
/// assert!(cost.cycles > 0 && cost.energy_nj > 0.0);
/// assert_eq!(cost.samples, 2 * 3);
/// # Ok::<(), vibnn::VibnnError>(())
/// ```
pub trait InferenceBackend<S: StreamFork + Sync>: Send {
    /// Which datapath this backend runs.
    fn kind(&self) -> BackendKind;

    /// Serves one micro-batch; see the trait docs for the contract.
    fn serve_microbatch(
        &mut self,
        chunk: &Matrix,
        samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<ServeResult>, BackendCost);

    /// The incremental per-sample seam: serves one micro-batch where
    /// each row draws Monte Carlo members one at a time (sample `s`
    /// still from `eps.fork(s)`), consults `policy` after every member,
    /// and stops — or abstains — per row as soon as the policy decides.
    /// `max_samples` is the budget a row can never exceed.
    ///
    /// The determinism contract extends to stopping: a row's member
    /// sequence and its policy observations are pure functions of that
    /// row's features and the ε substreams, so `samples_used` and the
    /// served bits are independent of batch composition, arrival order,
    /// and `workers`. A row that stops after `n` samples returns
    /// exactly what [`Self::serve_microbatch`] would return for that
    /// row with `samples = n`.
    fn serve_adaptive(
        &mut self,
        chunk: &Matrix,
        policy: &dyn SamplingPolicy,
        max_samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<RowOutcome>, BackendCost);
}

/// The one Monte Carlo driver behind every backend's adaptive path
/// (and the cycle backend's `ExactN` path). A backend supplies two
/// things: `members_for(s, active, out)`, which appends sample `s`'s
/// softmax member for each still-active row to `out` (row-major, one
/// probability per class), and `mean_of`, its rule for turning one row's
/// flat member history (`samples × classes`) into the served mean.
///
/// Each row's [`RowTracker`] folds in its member and the policy decides
/// per row; stopped rows are dropped from later member evaluations
/// (that is the speedup). A finished row's result is rebuilt from its
/// own history, element-wise per row, so stopping one row never
/// perturbs another. `charge(n)` prices a row that drew `n` samples;
/// the batch cost folds those charges in row order.
fn drive_adaptive_rows<M, A, C>(
    chunk: &Matrix,
    policy: &dyn SamplingPolicy,
    max_samples: usize,
    mut members_for: M,
    mean_of: A,
    charge: C,
) -> (Vec<RowOutcome>, BackendCost)
where
    M: FnMut(usize, &Matrix, &mut Vec<f64>),
    A: Fn(&[f64], usize) -> Vec<f32>,
    C: Fn(u64) -> BackendCost,
{
    assert!(max_samples > 0, "need at least one Monte Carlo sample");
    let rows = chunk.rows();
    let mut classes = 0usize;
    let mut trackers: Vec<RowTracker> = Vec::new();
    // Row r's sample k occupies histories[r][k*classes..(k+1)*classes];
    // one flat buffer per row keeps the hot loop allocation-free.
    let mut histories: Vec<Vec<f64>> = vec![Vec::new(); rows];
    let mut abstained: Vec<bool> = vec![false; rows];
    let mut active: Vec<usize> = (0..rows).collect();
    let mut sub = Matrix::zeros(0, 0);
    let mut member: Vec<f64> = Vec::new();
    for s in 0..max_samples {
        if active.is_empty() {
            break;
        }
        member.clear();
        if active.len() == rows {
            members_for(s, chunk, &mut member);
        } else {
            sub.resize(active.len(), chunk.cols());
            for (i, &r) in active.iter().enumerate() {
                sub.row_mut(i).copy_from_slice(chunk.row(r));
            }
            members_for(s, &sub, &mut member);
        }
        if trackers.is_empty() {
            classes = member.len() / active.len();
            trackers = (0..rows)
                .map(|_| RowTracker::new(classes, max_samples))
                .collect();
            for h in &mut histories {
                h.reserve_exact(classes * max_samples);
            }
        }
        let mut still = Vec::with_capacity(active.len());
        for (probs, &r) in member.chunks_exact(classes).zip(&active) {
            histories[r].extend_from_slice(probs);
            let obs = trackers[r].observe(probs);
            match policy.decide(&obs) {
                SampleDecision::Continue | SampleDecision::Escalate => still.push(r),
                SampleDecision::Stop => {}
                SampleDecision::Abstain => abstained[r] = true,
            }
        }
        active = still;
    }
    let mut cost = BackendCost::default();
    let out = histories
        .iter()
        .enumerate()
        .map(|(r, history)| {
            let samples = history.len() / classes;
            cost.accumulate(charge(samples as u64));
            if abstained[r] {
                RowOutcome::Abstained {
                    id: r as u64,
                    samples_used: samples as u32,
                    entropy_milli: trackers[r].entropy_milli(),
                }
            } else {
                let proba = mean_of(history, classes);
                RowOutcome::Served(summarize(r, proba, samples, |k, c| {
                    history[k * classes + c]
                }))
            }
        })
        .collect();
    (out, cost)
}

/// The host backends' mean rule over one row's member history: the
/// fixed-lane rule of [`reduce_mean`] — lane `l` folds members `l,
/// l+LANES, …` element-wise in f32, lanes combine in ascending order,
/// then one reciprocal multiply. Host members are f32 widened to f64,
/// so narrowing them back is exact and an adaptive row's mean is
/// bit-identical to the batched path at the same member count.
fn lane_mean(history: &[f64], classes: usize) -> Vec<f32> {
    let samples = history.len() / classes;
    let member = |k: usize| history[k * classes..(k + 1) * classes].iter().map(|&p| p as f32);
    let mut lanes = (0..LANES.min(samples)).map(|l| {
        let mut lane: Vec<f32> = member(l).collect();
        for k in (l + LANES..samples).step_by(LANES) {
            for (v, p) in lane.iter_mut().zip(member(k)) {
                *v += p;
            }
        }
        lane
    });
    let mut proba = lanes.next().expect("at least one member");
    for lane in lanes {
        for (p, v) in proba.iter_mut().zip(lane) {
            *p += v;
        }
    }
    let recip = 1.0 / samples as f32;
    for p in &mut proba {
        *p *= recip;
    }
    proba
}

/// The cycle backend's mean rule: the simulator's own arithmetic, one
/// f64 accumulation chain per class over members in sample order, then
/// cast to f32 — what [`CycleAccelerator::infer_forked`] serves for a
/// deployment with that many samples.
fn chain_mean(history: &[f64], classes: usize) -> Vec<f32> {
    let samples = history.len() / classes;
    (0..classes)
        .map(|c| {
            let mut acc = 0.0f64;
            for k in 0..samples {
                acc += history[k * classes + c];
            }
            (acc / samples as f64) as f32
        })
        .collect()
}

/// Builds row `id`'s [`ServeResult`] from its mean probabilities and its
/// `samples` Monte Carlo members, where `member(k, c)` is member `k`'s
/// probability of class `c`: the argmax (lowest index wins ties), the
/// entropy of the mean, and `mc_std`, the class-averaged standard
/// deviation of the members, each class's squares summed in ascending
/// `k`.
fn summarize(
    id: usize,
    proba: Vec<f32>,
    samples: usize,
    member: impl Fn(usize, usize) -> f64,
) -> ServeResult {
    let mut argmax = 0;
    for (c, &p) in proba.iter().enumerate() {
        if p > proba[argmax] {
            argmax = c;
        }
    }
    let entropy = entropy_nats(&proba);
    let mut std_sum = 0.0f64;
    for (c, &m) in proba.iter().enumerate() {
        let mean_c = f64::from(m);
        let var = (0..samples)
            .map(|k| (member(k, c) - mean_c).powi(2))
            .sum::<f64>()
            / samples as f64;
        std_sum += var.sqrt();
    }
    ServeResult {
        id: id as u64,
        argmax,
        entropy,
        mc_std: std_sum / proba.len() as f64,
        samples_used: samples as u32,
        proba,
    }
}

/// Builds per-row [`ServeResult`]s from f32 Monte Carlo member
/// matrices, with the mean derived through the shared fixed-lane
/// [`reduce_mean`] — the exact arithmetic the pre-backend serving
/// engine used, kept in one place so the quantized and software
/// backends stay bit-compatible with it.
fn results_from_members(members: &[Matrix], samples: usize) -> Vec<ServeResult> {
    let mean = reduce_mean(members);
    (0..mean.rows())
        .map(|r| {
            summarize(r, mean.row(r).to_vec(), samples, |k, c| {
                f64::from(members[k][(r, c)])
            })
        })
        .collect()
}

/// A host backend's charge for `samples` Monte Carlo samples: no
/// modeled hardware, so no cycles or energy.
fn host_cost(samples: u64) -> BackendCost {
    BackendCost {
        samples,
        ..BackendCost::default()
    }
}

/// Predictive entropy of a probability row, in nats.
fn entropy_nats(proba: &[f32]) -> f64 {
    -proba
        .iter()
        .map(|&p| {
            let p = f64::from(p);
            if p > 0.0 {
                p * p.ln()
            } else {
                0.0
            }
        })
        .sum::<f64>()
}

/// The quantized-host datapath — the serving engine's historical (and
/// default) backend. Bit-identical to the pre-backend engine: members
/// via [`QuantizedBnn::predict_proba_mc_members_parallel`], mean via
/// the shared [`reduce_mean`].
#[derive(Debug, Clone)]
pub struct QuantizedBackend {
    qbnn: QuantizedBnn,
}

impl QuantizedBackend {
    /// Wraps a deployed quantized network.
    pub fn new(qbnn: QuantizedBnn) -> Self {
        Self { qbnn }
    }
}

impl<S: StreamFork + Sync> InferenceBackend<S> for QuantizedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Quantized
    }

    fn serve_microbatch(
        &mut self,
        chunk: &Matrix,
        samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<ServeResult>, BackendCost) {
        let members = self
            .qbnn
            .predict_proba_mc_members_parallel(chunk, samples, eps, workers);
        let results = results_from_members(&members, samples);
        (results, host_cost((chunk.rows() * samples) as u64))
    }

    fn serve_adaptive(
        &mut self,
        chunk: &Matrix,
        policy: &dyn SamplingPolicy,
        max_samples: usize,
        eps: &S,
        _workers: usize,
    ) -> (Vec<RowOutcome>, BackendCost) {
        // Samples are evaluated one at a time (the exit decision gates
        // the next draw), so the sample-parallel worker pool does not
        // apply here; sample `s` still draws from `eps.fork(s)` with
        // the weights sampled once per member for every active row.
        let mut scratch: Vec<f64> = Vec::new();
        let members_for = |s: usize, active: &Matrix, out: &mut Vec<f64>| {
            let mut src = eps.fork(s as u64);
            let weights = self.qbnn.sample_weights_with(&mut src, &mut scratch);
            let mut probs = self.qbnn.forward_with_weights(active, &weights);
            softmax_rows(&mut probs);
            out.extend(probs.data().iter().map(|&p| f64::from(p)));
        };
        drive_adaptive_rows(chunk, policy, max_samples, members_for, lane_mean, host_cost)
    }
}

/// The float-precision software datapath: sample `s` forks its own ε
/// substream, draws every layer's weights as `µ + σ·ε` in f32 (weights
/// row-major, then biases — the weight generator's table order), runs
/// the dense forward with ReLU between layers, and softmaxes. Members
/// reduce through the shared [`reduce_mean`], so results are
/// bit-identical at every worker count and batch composition.
#[derive(Debug, Clone)]
pub struct SoftwareBackend {
    params: BnnParams,
}

impl SoftwareBackend {
    /// Wraps the deployment's float parameters.
    pub fn new(params: BnnParams) -> Self {
        Self { params }
    }

    /// One sampled forward pass ending in softmax.
    fn sample_member(
        &self,
        x: &Matrix,
        src: &mut impl GaussianSource,
        eps: &mut Vec<f32>,
    ) -> Matrix {
        let last = self.params.layers() - 1;
        let mut h: Option<Matrix> = None;
        for l in 0..self.params.layers() {
            let mu = &self.params.weight_mu[l];
            let sigma = &self.params.weight_sigma[l];
            let d_out = mu.cols();
            let n_w = mu.rows() * d_out;
            eps.resize(n_w + d_out, 0.0);
            src.fill_f32(eps);
            let mut w = mu.clone();
            for ((wv, &sv), &ev) in w
                .data_mut()
                .iter_mut()
                .zip(sigma.data())
                .zip(eps.iter())
            {
                *wv += sv * ev;
            }
            let bias_eps = &eps[n_w..];
            let input = h.as_ref().unwrap_or(x);
            let mut out = input.matmul(&w);
            let bias_mu = &self.params.bias_mu[l];
            let bias_sigma = &self.params.bias_sigma[l];
            for r in 0..out.rows() {
                for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                    *v += bias_mu[c] + bias_sigma[c] * bias_eps[c];
                }
            }
            if l < last {
                relu(&mut out);
            }
            h = Some(out);
        }
        let mut probs = h.expect("at least one layer");
        softmax_rows(&mut probs);
        probs
    }
}

impl<S: StreamFork + Sync> InferenceBackend<S> for SoftwareBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Software
    }

    fn serve_microbatch(
        &mut self,
        chunk: &Matrix,
        samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<ServeResult>, BackendCost) {
        assert!(samples > 0, "need at least one Monte Carlo sample");
        let members = vibnn_bnn::parallel_fork_map(
            samples,
            workers,
            eps,
            |_, src, scratch: &mut Vec<f32>| self.sample_member(chunk, src, scratch),
        );
        let results = results_from_members(&members, samples);
        (results, host_cost((chunk.rows() * samples) as u64))
    }

    fn serve_adaptive(
        &mut self,
        chunk: &Matrix,
        policy: &dyn SamplingPolicy,
        max_samples: usize,
        eps: &S,
        _workers: usize,
    ) -> (Vec<RowOutcome>, BackendCost) {
        // Sequential per-sample evaluation (see the quantized backend's
        // note); sample `s` forks `eps.fork(s)` exactly as
        // `parallel_fork_map` does on the batched path.
        let mut scratch: Vec<f32> = Vec::new();
        let members_for = |s: usize, active: &Matrix, out: &mut Vec<f64>| {
            let mut src = eps.fork(s as u64);
            let probs = self.sample_member(active, &mut src, &mut scratch);
            out.extend(probs.data().iter().map(|&p| f64::from(p)));
        };
        drive_adaptive_rows(chunk, policy, max_samples, members_for, lane_mean, host_cost)
    }
}

/// The accelerator's datapath and cost ledger, served through the same
/// quantized kernel as [`QuantizedBackend`]. Sample `s` samples weights
/// once from `eps.fork(s)` for the whole micro-batch and runs
/// [`QuantizedBnn::forward_with_weights`] over the rows still active;
/// each member is the simulator's [`softmax_f64`] of the integer logits
/// and the mean is the simulator's f64 chain, so served bits equal
/// [`CycleAccelerator::infer_forked`] for a deployment with that many
/// samples. A row that drew `n` samples is charged `n ×`
/// [`Schedule::cycles_per_sample`] cycles and the simulator's energy for
/// them ([`CycleAccelerator::energy_nj`]) — exactly what the ticked
/// model counts, which the tests pin.
///
/// Both `ExactN` and adaptive policies run through the one adaptive
/// driver; `workers` is ignored because sample `s + 1` waits on the
/// stopping decision after sample `s`.
#[derive(Debug, Clone)]
pub struct CycleBackend {
    sim: CycleAccelerator,
    cycles_per_sample: u64,
}

impl CycleBackend {
    /// Wraps an accelerator model: its network is the kernel, its
    /// configuration sets the [`Schedule`], and its power model prices
    /// energy.
    pub fn new(sim: CycleAccelerator) -> Self {
        let cycles_per_sample = cycles_per_sample(&sim);
        Self {
            sim,
            cycles_per_sample,
        }
    }
}

/// Cycles one Monte Carlo sample of one image takes on `sim`'s
/// accelerator: the closed-form [`Schedule`], which the ticked model is
/// pinned to. The cycle backend charges by it and the cluster's
/// admission gate predicts with it.
pub(crate) fn cycles_per_sample(sim: &CycleAccelerator) -> u64 {
    Schedule::new(sim.config(), &sim.network().layer_sizes()).cycles_per_sample()
}

impl<S: StreamFork + Sync> InferenceBackend<S> for CycleBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cycle
    }

    fn serve_microbatch(
        &mut self,
        chunk: &Matrix,
        samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<ServeResult>, BackendCost) {
        let (out, cost) = self.serve_adaptive(chunk, &ExactN, samples, eps, workers);
        let results = out
            .into_iter()
            .map(|o| o.into_result().expect("ExactN never abstains"))
            .collect();
        (results, cost)
    }

    fn serve_adaptive(
        &mut self,
        chunk: &Matrix,
        policy: &dyn SamplingPolicy,
        max_samples: usize,
        eps: &S,
        _workers: usize,
    ) -> (Vec<RowOutcome>, BackendCost) {
        let qbnn = self.sim.network();
        let mut scratch: Vec<f64> = Vec::new();
        let members_for = |s: usize, active: &Matrix, out: &mut Vec<f64>| {
            let mut src = eps.fork(s as u64);
            let weights = qbnn.sample_weights_with(&mut src, &mut scratch);
            let logits = qbnn.forward_with_weights(active, &weights);
            for r in 0..logits.rows() {
                out.extend(softmax_f64(logits.row(r)));
            }
        };
        let charge = |samples: u64| {
            let cycles = samples * self.cycles_per_sample;
            BackendCost {
                cycles,
                energy_nj: self.sim.energy_nj(cycles),
                samples,
            }
        };
        drive_adaptive_rows(chunk, policy, max_samples, members_for, chain_mean, charge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VibnnBuilder;
    use vibnn_bnn::{Bnn, BnnConfig};
    use vibnn_grng::ZigguratGrng;

    fn tiny_vibnn() -> Vibnn {
        let bnn = Bnn::new(BnnConfig::new(&[3, 6, 2]).with_sigma_init(0.1), 11);
        VibnnBuilder::new(bnn.params())
            .mc_samples(3)
            .calibration(Matrix::zeros(2, 3))
            .build()
            .unwrap()
    }

    fn rows() -> Matrix {
        let mut x = Matrix::zeros(4, 3);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = (i as f32 * 0.31).sin();
        }
        x
    }

    #[test]
    fn kinds_round_trip_codes_and_default_is_quantized() {
        assert_eq!(BackendKind::default(), BackendKind::Quantized);
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            assert_eq!(BackendKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(BackendKind::from_code(0xFF), None);
    }

    #[test]
    fn every_backend_is_worker_count_invariant() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0xABCD);
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let mut reference = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (base, _) = reference.serve_microbatch(&x, 3, &eps, 1);
            for workers in [2usize, 4] {
                let mut b = kind.instantiate::<ZigguratGrng>(&vibnn);
                let (got, _) = b.serve_microbatch(&x, 3, &eps, workers);
                for (a, g) in base.iter().zip(&got) {
                    assert_eq!(a.proba, g.proba, "{kind} diverged at {workers} workers");
                }
            }
        }
    }

    #[test]
    fn every_backend_is_batch_composition_invariant() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x1234);
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let mut whole = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (base, _) = whole.serve_microbatch(&x, 3, &eps, 1);
            let mut split = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (head, _) = split.serve_microbatch(&x.rows_slice(0, 2), 3, &eps, 1);
            let (tail, _) = split.serve_microbatch(&x.rows_slice(2, 4), 3, &eps, 1);
            let stitched: Vec<&ServeResult> = head.iter().chain(&tail).collect();
            for (a, g) in base.iter().zip(stitched) {
                assert_eq!(a.proba, g.proba, "{kind} depends on batch composition");
            }
        }
    }

    #[test]
    fn only_the_cycle_backend_charges_hardware_cost() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x77);
        for (kind, metered) in [
            (BackendKind::Software, false),
            (BackendKind::Quantized, false),
            (BackendKind::Cycle, true),
        ] {
            let mut b = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (_, cost) = b.serve_microbatch(&x, 3, &eps, 1);
            assert_eq!(cost.samples, (x.rows() * 3) as u64, "{kind}");
            assert_eq!(cost.cycles > 0, metered, "{kind} cycles");
            assert_eq!(cost.energy_nj > 0.0, metered, "{kind} energy");
        }
    }

    #[test]
    fn adaptive_exact_n_matches_the_batched_path_bit_for_bit() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x5151);
        let policy = crate::sampler::PolicySpec::ExactN.instantiate();
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let mut reference = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (base, base_cost) = reference.serve_microbatch(&x, 3, &eps, 1);
            let mut adaptive = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (got, cost) = adaptive.serve_adaptive(&x, policy.as_ref(), 3, &eps, 1);
            assert_eq!(got.len(), base.len());
            for (b, g) in base.iter().zip(&got) {
                let RowOutcome::Served(g) = g else {
                    panic!("{kind}: ExactN must never abstain")
                };
                assert_eq!(b.proba, g.proba, "{kind} proba diverged");
                assert_eq!(b.argmax, g.argmax, "{kind} argmax diverged");
                assert_eq!(b.entropy.to_bits(), g.entropy.to_bits(), "{kind} entropy");
                assert_eq!(b.mc_std.to_bits(), g.mc_std.to_bits(), "{kind} mc_std");
                assert_eq!(g.samples_used, 3, "{kind} samples_used");
            }
            assert_eq!(cost.samples, base_cost.samples, "{kind} sample count");
        }
    }

    #[test]
    fn an_early_exit_row_matches_a_smaller_static_budget() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x2323);
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let policy = crate::sampler::PolicySpec::EarlyExit { k: 1, min_samples: 1 }
                .instantiate();
            let mut adaptive = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (out, _) = adaptive.serve_adaptive(&x, policy.as_ref(), 3, &eps, 1);
            for (r, o) in out.iter().enumerate() {
                let RowOutcome::Served(res) = o else {
                    panic!("{kind}: EarlyExit must never abstain")
                };
                let n = res.samples_used as usize;
                assert!(n >= 1 && n <= 3, "{kind} row {r} samples_used {n}");
                // A row stopped at n samples must carry exactly the bits
                // a static-n deployment would have served it.
                let reference: Vec<f32> = if kind == BackendKind::Cycle {
                    let mut cfg = vibnn.config().clone();
                    cfg.mc_samples = n;
                    let mut sim = CycleAccelerator::new(cfg, vibnn.network().clone());
                    sim.infer_forked(x.row(r), &eps).0
                } else {
                    let mut fresh = kind.instantiate::<ZigguratGrng>(&vibnn);
                    let (base, _) = fresh.serve_microbatch(&x.rows_slice(r, r + 1), n, &eps, 1);
                    base[0].proba.clone()
                };
                assert_eq!(res.proba, reference, "{kind} row {r} at {n} samples");
            }
        }
    }

    #[test]
    fn risk_tiered_abstentions_are_typed_at_the_full_budget() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x4242);
        // Threshold 0: every request counts as high-entropy, so every
        // row escalates to the full budget and then abstains.
        let policy = crate::sampler::PolicySpec::RiskTiered {
            k: 1,
            min_samples: 1,
            escalate_milli: 0,
            abstain: true,
        }
        .instantiate();
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let mut adaptive = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (out, cost) = adaptive.serve_adaptive(&x, policy.as_ref(), 3, &eps, 1);
            assert_eq!(cost.samples, (x.rows() * 3) as u64, "{kind} burns the budget");
            for o in &out {
                let RowOutcome::Abstained { samples_used, .. } = o else {
                    panic!("{kind}: expected an abstention, got {o:?}")
                };
                assert_eq!(*samples_used, 3, "{kind} abstains only at the budget");
                assert!(o.clone().into_result().is_err());
            }
        }
    }

    #[test]
    fn cycle_backend_matches_the_ticked_model() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x99);
        let mut backend = BackendKind::Cycle.instantiate::<ZigguratGrng>(&vibnn);
        let (served, _) = backend.serve_microbatch(&x, 3, &eps, 1);
        let mut sim = CycleAccelerator::new(vibnn.config().clone(), vibnn.network().clone());
        for (r, res) in served.iter().enumerate() {
            let (probs, _, cost) = sim.infer_forked(x.row(r), &eps);
            assert_eq!(res.proba, probs, "row {r} diverged from the ticked model");
            assert!(cost.cycles > 0);
        }
    }

    /// The ticked simulator for `vibnn` at `samples` Monte Carlo draws.
    fn sim_at(vibnn: &Vibnn, samples: usize) -> CycleAccelerator {
        let mut cfg = vibnn.config().clone();
        cfg.mc_samples = samples;
        CycleAccelerator::new(cfg, vibnn.network().clone())
    }

    #[test]
    fn every_backend_honours_a_budget_below_the_deployment_default() {
        let vibnn = tiny_vibnn();
        assert_eq!(vibnn.mc_samples(), 3);
        let x = rows();
        let eps = ZigguratGrng::new(0x2B);
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let mut b = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (served, cost) = b.serve_microbatch(&x, 2, &eps, 1);
            assert_eq!(cost.samples, (x.rows() * 2) as u64, "{kind}");
            for (r, res) in served.iter().enumerate() {
                assert_eq!(res.samples_used, 2, "{kind} row {r}");
                if kind == BackendKind::Cycle {
                    let (probs, _, _) = sim_at(&vibnn, 2).infer_forked(x.row(r), &eps);
                    assert_eq!(res.proba, probs, "row {r} diverged from a 2-sample model");
                }
            }
        }
    }

    #[test]
    fn cycle_cost_is_the_ticked_per_row_ledger_exactly() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x3C);
        let early = crate::sampler::PolicySpec::EarlyExit { k: 2, min_samples: 1 }.instantiate();
        let mut backend = BackendKind::Cycle.instantiate::<ZigguratGrng>(&vibnn);
        let (exact, exact_cost) = backend.serve_microbatch(&x, 3, &eps, 1);
        let exact = exact.into_iter().map(RowOutcome::Served).collect();
        let adaptive = backend.serve_adaptive(&x, early.as_ref(), 3, &eps, 1);
        for (out, cost) in [(exact, exact_cost), adaptive] {
            // Each row is charged what a simulator configured with that
            // row's sample count charges, folded in row order.
            let mut expected = BackendCost::default();
            for (r, o) in out.iter().enumerate() {
                let n = o.samples_used() as usize;
                let (_, _, ticked) = sim_at(&vibnn, n).infer_forked(x.row(r), &eps);
                expected.accumulate(BackendCost {
                    cycles: ticked.cycles,
                    energy_nj: ticked.energy_nj,
                    samples: n as u64,
                });
            }
            assert_eq!(cost.cycles, expected.cycles);
            assert_eq!(cost.energy_nj.to_bits(), expected.energy_nj.to_bits());
            assert_eq!(cost.samples, expected.samples);
        }
    }
}
