//! Sharded multi-replica serving: a [`ClusterEngine`] scales the
//! [`ServeEngine`] from one dispatcher to a pool of replicas with
//! deterministic routing, shared admission control, live metrics, and hot
//! checkpoint swap.
//!
//! The paper's accelerator is a single inference unit; the scale target is
//! serving heavy traffic from many users. This module treats each deployed
//! accelerator instance as a schedulable unit behind a cluster-level
//! queue: N replicas (each a [`Vibnn`] plus its own dispatcher thread and
//! micro-batching [`ServeEngine`]) drain a sharded request queue in
//! parallel.
//!
//! # Determinism
//!
//! Per-request determinism holds **by construction**, not by careful
//! scheduling:
//!
//! - Every replica serves with the *same* ε substream, derived from the
//!   cluster source by [`vibnn_bnn::replica_source`] (deliberately not
//!   keyed by replica id — see that function's docs). A replica's answer
//!   for a feature row therefore depends only on the row, the parameters
//!   it was loaded from, and the cluster seed.
//! - The router maps request id → home replica with a stable function
//!   (`id mod replicas`), and least-loaded spill is restricted to
//!   *equivalent* replicas — ones whose next-to-serve engine came from the
//!   same checkpoint (judged by a fingerprint of the full kind-3
//!   serialization, so independently loaded copies of one checkpoint
//!   count as equivalent) — so placement can never change a result.
//! - Each replica's micro-batches run through the serving engine's
//!   synchronous path, which is bit-identical to the one-shot batched
//!   `Vibnn::predict_proba_parallel` call row for row.
//!
//! Consequently a cluster of any size produces, for every request,
//! **bit-identical** results to a single `ServeEngine` (and to the batched
//! path) under the derived source — `tests/cluster_determinism.rs` pins
//! this for replicas {1, 2, 4} × workers {1, 2} × permuted arrival orders.
//!
//! # Lanes and deadlines
//!
//! Admission accepts a [`Priority`] lane and an optional deadline per
//! request ([`ClusterEngine::submit_with`]). Interactive traffic is
//! dequeued ahead of batch traffic, but a batch request passed over
//! [`ClusterConfig::batch_skip_bound`] times is promoted first — so
//! neither lane starves, and the selection rule is a pure function of
//! queue state (no timing dependence). Deadlines are enforced twice,
//! both times **before** any replica work: an already-expired request is
//! refused at admission, and one that expires while queued is failed
//! with [`VibnnError::DeadlineExceeded`] at dequeue. Scheduling affects
//! only *when* a request is served — never *what* it answers.
//!
//! # Hot checkpoint swap
//!
//! [`ClusterEngine::hot_swap`] loads a new deployment (typically a kind-3
//! checkpoint via [`ClusterEngine::hot_swap_from`]) into a **standby**
//! engine while traffic keeps flowing, then enqueues a swap marker on the
//! target replica's queue. The dispatcher drains every request queued
//! ahead of the marker with the old engine, then atomically switches to
//! the standby — no queued request is ever dropped or served twice, and
//! requests submitted after the swap are answered by the new version.
//! [`ClusterEngine::rollout`] walks the swap across every replica for a
//! versioned, no-downtime deployment.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use vibnn_bnn::replica_source;
use vibnn_grng::{StreamFork, ZigguratGrng};
use vibnn_nn::Matrix;

use crate::backend::{cycles_per_sample, BackendCost, BackendKind, RowOutcome};
use crate::sampler::PolicySpec;
use crate::serve::{ServeConfig, ServeEngine, ServeResult};
use crate::{Vibnn, VibnnError};

/// Sizing and policy knobs for a [`ClusterEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of serving replicas (default 2).
    pub replicas: usize,
    /// Maximum requests coalesced into one micro-batch per replica
    /// (default 32).
    pub max_batch: usize,
    /// **Cluster-level** queue capacity across all replicas; submissions
    /// beyond it get [`VibnnError::QueueFull`] backpressure (default 1024).
    pub max_queue: usize,
    /// Worker threads for each replica's Monte Carlo micro-batch
    /// (`0` honours `VIBNN_THREADS`; default 0). Never affects results.
    pub workers: usize,
    /// Allow least-loaded spill: when the home replica is busier than an
    /// *equivalent* replica (same checkpoint fingerprint), route the
    /// request there instead (default `true`). Spill never crosses a
    /// checkpoint boundary, so it can never change a result.
    pub spill: bool,
    /// Starvation bound for the batch lane: a queued
    /// [`Priority::Batch`] request passed over by `batch_skip_bound`
    /// micro-batch selections is promoted ahead of the interactive lane
    /// on the next one (default 4). `0` disables lane priority — every
    /// batch request counts as overdue immediately, degenerating to
    /// queue-order dequeue.
    pub batch_skip_bound: u32,
    /// The [`BackendKind`] every replica dispatches through. `None`
    /// (the default) honours the deployment's default backend. For a
    /// *mixed* pool — different backends per replica — use
    /// [`ClusterEngine::with_backends`].
    pub backend: Option<BackendKind>,
    /// The [`PolicySpec`] every replica samples under. `None` (the
    /// default) honours the deployment's default policy. For a *mixed*
    /// pool — different policies per replica — use
    /// [`ClusterEngine::with_policies`]. Spill never crosses a policy
    /// boundary, so every answer is attributable to exactly one
    /// `(version, backend, policy)` triple.
    pub policy: Option<PolicySpec>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            max_batch: 32,
            max_queue: 1024,
            workers: 0,
            spill: true,
            batch_skip_bound: 4,
            backend: None,
            policy: None,
        }
    }
}

/// The scheduling lane a request is admitted into.
///
/// Interactive requests are dequeued ahead of batch requests; a batch
/// request skipped [`ClusterConfig::batch_skip_bound`] times is promoted
/// ahead of the interactive lane, so neither lane can starve the other.
/// Lane choice affects **when** a request is served, never **what** it
/// answers — the determinism contract is lane-blind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; dequeued first (default).
    #[default]
    Interactive,
    /// Throughput traffic; yields to the interactive lane until its
    /// skip bound is reached.
    Batch,
}

/// Per-request admission options for
/// [`ClusterEngine::submit_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Scheduling lane (default [`Priority::Interactive`]).
    pub priority: Priority,
    /// Latest useful service time. An already-expired deadline is
    /// refused at admission with [`VibnnError::DeadlineExceeded`]; a
    /// deadline that expires while queued is detected at dequeue and
    /// the request is failed with the same error **before** it touches
    /// a replica. `None` (the default) never expires.
    pub deadline: Option<std::time::Instant>,
}

/// The outcome of one completed [`ClusterEngine::hot_swap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapReport {
    /// The replica that was swapped.
    pub replica: usize,
    /// The checkpoint version now serving on that replica.
    pub version: u64,
    /// Requests that were queued ahead of the swap marker and drained
    /// through the old engine before the switch.
    pub drained: u64,
}

/// A live snapshot of one replica's state, from
/// [`ClusterEngine::metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaMetrics {
    /// Requests queued on this replica, not yet dispatched.
    pub queue_depth: usize,
    /// Requests this replica has served since the cluster started.
    pub served: u64,
    /// Checkpoint version the replica is currently serving with (starts
    /// at 0; each hot swap increments it — a per-replica rollout
    /// counter, not a checkpoint identity).
    pub version: u64,
    /// Fingerprint of the checkpoint the replica is currently serving
    /// with (FNV-1a over the kind-3 serialization). Replicas with equal
    /// fingerprints answer identically, which is the equivalence spill
    /// routing is restricted to.
    pub checkpoint_fingerprint: u64,
    /// Whether a swap marker is queued but not yet applied (the replica
    /// is draining the old version's requests).
    pub swap_pending: bool,
    /// Whether the dispatcher thread is running (`false` after shutdown,
    /// or if the replica panicked).
    pub alive: bool,
    /// Micro-batch size histogram: entry `b - 1` counts dispatched
    /// micro-batches of exactly `b` requests (length = `max_batch`).
    pub batch_histogram: Vec<u64>,
    /// Which [`BackendKind`] this replica's serving slot dispatches
    /// through. Fixed for the replica's lifetime — hot swaps replace
    /// the checkpoint, never the backend.
    pub backend: BackendKind,
    /// Cumulative [`BackendCost`] this replica has charged (across hot
    /// swaps). Zero cycles/energy for host backends; nonzero cycle and
    /// energy totals for [`BackendKind::Cycle`] replicas.
    pub cost: BackendCost,
    /// Which [`PolicySpec`] this replica's serving slot samples under.
    /// Fixed for the replica's lifetime, like the backend — hot swaps
    /// replace the checkpoint, never the policy.
    pub policy: PolicySpec,
}

/// Served requests the windowed uncertainty aggregates in
/// [`UncertaintyStats`] cover (the most recent completions, cluster-wide).
pub const UNCERTAINTY_WINDOW: usize = 256;

/// Bucket count of the cumulative normalized-entropy histogram in
/// [`UncertaintyStats`].
pub const ENTROPY_BUCKETS: usize = 8;

/// Uncertainty aggregates over served requests, from
/// [`ClusterEngine::metrics`].
///
/// The windowed means cover the last [`UNCERTAINTY_WINDOW`] completions
/// in **completion order** — an observability gauge whose exact value
/// may vary with scheduling, unlike per-request results, which stay
/// bit-identical. The histogram counts every served request since the
/// cluster started, bucketed by entropy normalized to `ln(classes)` of
/// the founding deployment; cumulative counts commute, so the histogram
/// is deterministic in aggregate at any worker/replica count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UncertaintyStats {
    /// Configured window length ([`UNCERTAINTY_WINDOW`]).
    pub window: u64,
    /// Served requests currently inside the window (saturates at
    /// `window` once warm).
    pub count: u64,
    /// Mean predictive entropy (nats) over the window; `0` when empty.
    pub entropy_mean: f64,
    /// Mean Monte-Carlo spread (`mc_std`) over the window; `0` when
    /// empty.
    pub mc_std_mean: f64,
    /// Cumulative histogram over normalized entropy
    /// (`entropy / ln(classes)`), [`ENTROPY_BUCKETS`] equal buckets with
    /// the last bucket absorbing the top edge and anything above it.
    pub entropy_histogram: Vec<u64>,
}

/// Adaptive-sampling aggregates over served requests, from
/// [`ClusterEngine::metrics`].
///
/// All counts are cumulative since the cluster started. Cumulative
/// counts commute, so like the entropy histogram these are
/// deterministic in aggregate at any worker/replica count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SamplingStats {
    /// Total Monte Carlo samples drawn across every **served** request
    /// (abstentions' work is visible in [`BackendCost::samples`]
    /// instead).
    pub samples_used_total: u64,
    /// Mean `samples_used` per served request; `0` before the first
    /// completion. Under [`PolicySpec::ExactN`] this equals the
    /// deployment's `mc_samples`; adaptive policies pull it down.
    pub mean_samples: f64,
    /// Histogram of `samples_used` over served requests: bucket `s - 1`
    /// counts requests answered with exactly `s` samples (length = the
    /// founding deployment's `mc_samples`; the last bucket absorbs
    /// anything above it, as after a swap to a larger budget).
    pub histogram: Vec<u64>,
    /// Requests a [`PolicySpec::RiskTiered`] policy refused to answer
    /// ([`VibnnError::Abstained`]); they cost their full sample budget
    /// but are **not** counted as served.
    pub abstained: u64,
    /// Requests shed at admission with [`VibnnError::BudgetExceeded`]
    /// because their remaining deadline could not cover the predicted
    /// per-sample cycle cost on a [`BackendKind::Cycle`] replica; none
    /// of them cost any Monte Carlo work.
    pub budget_shed: u64,
}

/// A live snapshot of the whole cluster, from [`ClusterEngine::metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// Per-replica snapshots, indexed by replica id.
    pub replicas: Vec<ReplicaMetrics>,
    /// Requests queued cluster-wide, not yet dispatched.
    pub queued: usize,
    /// The configured cluster-level queue capacity.
    pub capacity: usize,
    /// Requests accepted since the cluster started.
    pub submitted: u64,
    /// Requests served since the cluster started.
    pub served: u64,
    /// Accepted requests that were routed away from their home replica to
    /// a less-loaded equivalent one.
    pub spilled: u64,
    /// Submissions refused with [`VibnnError::QueueFull`].
    pub rejected: u64,
    /// Requests failed with [`VibnnError::DeadlineExceeded`] — refused
    /// at admission or expired in the queue; none of them cost any
    /// Monte Carlo work.
    pub deadline_expired: u64,
    /// Accepted requests failed with [`VibnnError::EngineStopped`]
    /// because shutdown found them queued behind a swap marker.
    pub cancelled: u64,
    /// Served requests admitted on the [`Priority::Interactive`] lane.
    pub served_interactive: u64,
    /// Served requests admitted on the [`Priority::Batch`] lane.
    pub served_batch: u64,
    /// Hot swaps applied since the cluster started.
    pub swaps_completed: u64,
    /// Whether any replica is draining: a swap marker is pending behind
    /// queued requests, or shutdown was requested while queues still
    /// hold work.
    pub draining: bool,
    /// Windowed + cumulative uncertainty aggregates over served
    /// requests.
    pub uncertainty: UncertaintyStats,
    /// Cumulative [`BackendCost`] across every replica — the cluster's
    /// hardware bill (cycles, nanojoules, MC samples) since start.
    pub cost: BackendCost,
    /// Cumulative adaptive-sampling aggregates: `samples_used`
    /// distribution over served requests, abstentions, and budget sheds.
    pub sampling: SamplingStats,
}

/// FNV-1a over the deployment's kind-3 serialization: two deployments
/// share a fingerprint exactly when they were loaded from the same
/// checkpoint bytes — the cluster's criterion for replicas that answer
/// identically (and may therefore absorb each other's spill).
fn checkpoint_fingerprint(vibnn: &Vibnn) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &vibnn.to_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One queued unit of work for a replica dispatcher: a request, or a
/// swap marker carrying the standby engine that takes over once
/// everything ahead of it has drained.
enum Work<S: StreamFork + Sync> {
    Request {
        id: u64,
        features: Vec<f32>,
        lane: Priority,
        deadline: Option<std::time::Instant>,
        /// Micro-batch selections that passed this request over while it
        /// was eligible; at `batch_skip_bound` the batch lane outranks
        /// interactive traffic.
        skips: u32,
    },
    /// Boxed: a standby engine (deployment clone + simulator) dwarfs a
    /// request, and markers are rare.
    Swap {
        engine: Box<ServeEngine<S>>,
        version: u64,
        fingerprint: u64,
    },
}

/// What became of an accepted request, held in the shared result map
/// until the submitter collects it.
enum Outcome {
    Served(ServeResult),
    /// A [`PolicySpec::RiskTiered`] replica refused to answer ⇒
    /// [`VibnnError::Abstained`] (typed, exactly attributable: the
    /// caller learns the sample spend and the entropy that triggered
    /// the refusal).
    Abstained { samples_used: u32, entropy_milli: u32 },
    /// Deadline expired in the queue ⇒ [`VibnnError::DeadlineExceeded`].
    Expired,
    /// Stranded behind a swap marker at shutdown ⇒
    /// [`VibnnError::EngineStopped`].
    Cancelled,
}

impl Outcome {
    fn into_result(self) -> Result<ServeResult, VibnnError> {
        match self {
            Outcome::Served(r) => Ok(r),
            Outcome::Abstained {
                samples_used,
                entropy_milli,
            } => Err(VibnnError::Abstained {
                samples_used,
                entropy_milli,
            }),
            Outcome::Expired => Err(VibnnError::DeadlineExceeded),
            Outcome::Cancelled => Err(VibnnError::EngineStopped),
        }
    }
}

/// The deterministic lane-aware micro-batch selection rule, as a pure
/// function so the policy is testable without threads. `lanes` is the
/// (lane, skip count) of each dequeueable request in queue order;
/// returns which ones the next micro-batch takes (at most `max_batch`).
///
/// Three passes, each in queue order: overdue batch requests
/// (`skips >= skip_bound`) first — the anti-starvation promise — then
/// interactive, then fresh batch.
fn select_microbatch(lanes: &[(Priority, u32)], max_batch: usize, skip_bound: u32) -> Vec<bool> {
    let mut take = vec![false; lanes.len()];
    let mut taken = 0usize;
    let passes: [&dyn Fn(Priority, u32) -> bool; 3] = [
        &|lane, skips| lane == Priority::Batch && skips >= skip_bound,
        &|lane, _| lane == Priority::Interactive,
        &|lane, _| lane == Priority::Batch,
    ];
    for pass in passes {
        for (i, &(lane, skips)) in lanes.iter().enumerate() {
            if taken == max_batch {
                return take;
            }
            if !take[i] && pass(lane, skips) {
                take[i] = true;
                taken += 1;
            }
        }
    }
    take
}

struct ReplicaState<S: StreamFork + Sync> {
    queue: VecDeque<Work<S>>,
    /// `Request` items currently in `queue` (markers excluded).
    pending: usize,
    served: u64,
    /// Version the dispatcher is currently serving with.
    version: u64,
    /// Version a request submitted *now* would be served by (`> version`
    /// while a swap marker is queued).
    queued_version: u64,
    /// Fingerprint of the checkpoint the dispatcher is serving with.
    fingerprint: u64,
    /// Fingerprint a request submitted *now* would be answered under.
    /// Spill equivalence is judged on this, since routing decides the
    /// fate of future requests.
    queued_fingerprint: u64,
    batch_hist: Vec<u64>,
    alive: bool,
    /// Backend kind of this replica's serving slot. Fixed at
    /// construction; hot swaps replace the checkpoint, never the
    /// backend, so spill equivalence can gate on it directly.
    backend: BackendKind,
    /// Cumulative backend cost charged by this replica (survives hot
    /// swaps — it is the slot's bill, not the engine's).
    cost: BackendCost,
    /// Sampling policy of this replica's serving slot. Fixed at
    /// construction like the backend; spill equivalence gates on it so
    /// a request admitted under one policy is never answered under
    /// another.
    policy: PolicySpec,
}

struct ClusterState<S: StreamFork + Sync> {
    replicas: Vec<ReplicaState<S>>,
    results: HashMap<u64, Outcome>,
    next_id: u64,
    /// Requests queued cluster-wide (the admission-control gauge).
    queued_total: usize,
    submitted: u64,
    served_total: u64,
    served_interactive: u64,
    served_batch: u64,
    spilled: u64,
    rejected: u64,
    deadline_expired: u64,
    cancelled: u64,
    swaps_completed: u64,
    /// `(entropy, mc_std)` of the last [`UNCERTAINTY_WINDOW`] served
    /// requests, in completion order (the windowed-mean source).
    uncertainty_recent: VecDeque<(f64, f64)>,
    /// Cumulative normalized-entropy histogram over every served
    /// request ([`ENTROPY_BUCKETS`] buckets).
    entropy_hist: Vec<u64>,
    /// Total `samples_used` across served requests (the
    /// [`SamplingStats`] numerator).
    samples_used_total: u64,
    /// `samples_used` histogram over served requests (bucket `s - 1`
    /// counts requests answered with exactly `s` samples; length = the
    /// founding `mc_samples`, last bucket absorbing).
    samples_hist: Vec<u64>,
    /// Requests that ended in a typed abstention.
    abstained: u64,
    /// Requests shed at admission by the deadline/cost budget gate.
    budget_shed: u64,
    stop: bool,
}

/// Shutdown promises nothing to requests queued **behind** a swap
/// marker (they were promised the *new* version, which will never
/// serve), so fail them cleanly now instead of relying on dispatcher
/// timing to drain them. Markers themselves stay queued, in order, so
/// in-flight [`ClusterEngine::hot_swap`] waiters still resolve. Call
/// with `stop` already set; the caller wakes the condvars.
fn cancel_stranded_requests<S: StreamFork + Sync>(st: &mut ClusterState<S>) {
    debug_assert!(st.stop);
    for r in 0..st.replicas.len() {
        let Some(marker) = st.replicas[r]
            .queue
            .iter()
            .position(|w| matches!(w, Work::Swap { .. }))
        else {
            continue;
        };
        let mut i = marker + 1;
        while i < st.replicas[r].queue.len() {
            if matches!(st.replicas[r].queue[i], Work::Request { .. }) {
                if let Some(Work::Request { id, .. }) = st.replicas[r].queue.remove(i) {
                    st.results.insert(id, Outcome::Cancelled);
                    st.replicas[r].pending -= 1;
                    st.queued_total -= 1;
                    st.cancelled += 1;
                }
            } else {
                i += 1;
            }
        }
    }
}

struct ClusterShared<S: StreamFork + Sync> {
    state: Mutex<ClusterState<S>>,
    /// Signalled on new work (and on stop); all dispatchers re-check
    /// their own queue.
    work_ready: Condvar,
    /// Signalled when results are published or a dispatcher exits.
    result_ready: Condvar,
    /// Signalled when a dispatcher applies a swap marker.
    swap_applied: Condvar,
    max_queue: usize,
    max_batch: usize,
    skip_bound: u32,
    spill: bool,
    input_dim: usize,
    /// `ln(classes)` of the founding deployment — the normalizer for the
    /// entropy histogram (hot swaps keep the founding scale so buckets
    /// stay comparable across versions).
    max_entropy: f64,
    /// Seconds a full-budget pass of one request takes on the founding
    /// deployment's accelerator: `Schedule` cycles per sample ×
    /// `mc_samples` at the configured clock — the same cycles a
    /// `Cycle` replica charges. The admission budget gate's prediction.
    full_budget_secs: f64,
}

impl<S: StreamFork + Sync> ClusterShared<S> {
    fn lock(&self) -> MutexGuard<'_, ClusterState<S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Clears the replica's `alive` flag and wakes every waiter when its
/// dispatcher exits — by any path, including unwinding.
struct AliveGuard<'a, S: StreamFork + Sync> {
    shared: &'a ClusterShared<S>,
    replica: usize,
}

impl<S: StreamFork + Sync> Drop for AliveGuard<'_, S> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.replicas[self.replica].alive = false;
        drop(st);
        self.shared.result_ready.notify_all();
        self.shared.swap_applied.notify_all();
    }
}

/// A pool of serving replicas behind one deterministic router.
///
/// Construction clones the deployment into `cfg.replicas` replicas, each
/// with its own dispatcher thread and micro-batching [`ServeEngine`]
/// whose ε source is derived from the cluster source by
/// [`vibnn_bnn::replica_source`]. Submit single-row requests with
/// [`submit`](Self::submit), collect by id with [`wait`](Self::wait) /
/// [`try_take`](Self::try_take), observe with
/// [`metrics`](Self::metrics), and roll out new checkpoints with
/// [`hot_swap`](Self::hot_swap) — see the [module docs](self) for the
/// determinism and swap contracts.
///
/// # Example
///
/// ```
/// use vibnn::bnn::{Bnn, BnnConfig};
/// use vibnn::cluster::{ClusterConfig, ClusterEngine};
/// use vibnn::nn::Matrix;
/// use vibnn::VibnnBuilder;
///
/// let bnn = Bnn::new(BnnConfig::new(&[4, 8, 3]), 7);
/// let vibnn = VibnnBuilder::new(bnn.params())
///     .mc_samples(4)
///     .calibration(Matrix::zeros(2, 4))
///     .build()?;
/// let cluster = ClusterEngine::new(
///     vibnn,
///     ClusterConfig {
///         replicas: 2,
///         ..ClusterConfig::default()
///     },
/// )?;
/// let id = cluster.submit(vec![0.0; 4])?;
/// let result = cluster.wait(id)?;
/// assert_eq!(result.proba.len(), 3);
/// let metrics = cluster.metrics();
/// assert_eq!(metrics.replicas.len(), 2);
/// assert_eq!(metrics.served, 1);
/// cluster.shutdown();
/// # Ok::<(), vibnn::VibnnError>(())
/// ```
pub struct ClusterEngine<S: StreamFork + Sync + Send + 'static = ZigguratGrng> {
    shared: Arc<ClusterShared<S>>,
    /// The cluster ε source; standby engines for hot swaps derive their
    /// substream from it exactly like the founding replicas did.
    eps: S,
    serve_cfg: ServeConfig,
    dispatchers: Vec<JoinHandle<()>>,
}

impl<S: StreamFork + Sync + Send> std::fmt::Debug for ClusterEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterEngine")
            .field("replicas", &self.dispatchers.len())
            .field("max_queue", &self.shared.max_queue)
            .finish_non_exhaustive()
    }
}

impl ClusterEngine<ZigguratGrng> {
    /// Builds a cluster over `cfg.replicas` clones of the deployment with
    /// a default software cluster source (`ZigguratGrng` seeded from a
    /// fixed cluster constant). Use [`with_eps`](Self::with_eps) for a
    /// specific generator.
    ///
    /// # Errors
    ///
    /// [`VibnnError::BadServeConfig`] if `replicas`, `max_batch`, or
    /// `max_queue` is 0.
    pub fn new(vibnn: Vibnn, cfg: ClusterConfig) -> Result<Self, VibnnError> {
        Self::with_eps(vibnn, cfg, ZigguratGrng::new(0xC1D5_5EED))
    }
}

impl<S: StreamFork + Sync + Send + 'static> ClusterEngine<S> {
    /// Builds a cluster with an explicit cluster ε source. Every replica
    /// serves with [`vibnn_bnn::replica_source`]`(&eps)` — identical
    /// streams, independently owned instances (see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`VibnnError::BadServeConfig`] if `replicas`, `max_batch`, or
    /// `max_queue` is 0.
    pub fn with_eps(vibnn: Vibnn, cfg: ClusterConfig, eps: S) -> Result<Self, VibnnError> {
        let kind = cfg.backend.unwrap_or_else(|| vibnn.default_backend());
        let policy = cfg.policy.unwrap_or_else(|| vibnn.default_policy());
        let slots = vec![(kind, policy); cfg.replicas];
        Self::with_slots(vibnn, cfg, eps, slots)
    }

    /// Builds a **mixed pool**: replica `i` dispatches through
    /// `backends[i]`. The router is unchanged (home replica is still
    /// `id mod replicas`), but spill is restricted to replicas of the
    /// same checkpoint fingerprint, backend kind, *and* sampling
    /// policy, so every answer is attributable to exactly one
    /// `(version, backend, policy)` triple. `backends` must have
    /// exactly `cfg.replicas` entries; `cfg.backend` is ignored (every
    /// replica samples under `cfg.policy` / the deployment default).
    ///
    /// # Errors
    ///
    /// [`VibnnError::BadServeConfig`] if `replicas`, `max_batch`, or
    /// `max_queue` is 0, or `backends.len() != cfg.replicas`.
    pub fn with_backends(
        vibnn: Vibnn,
        cfg: ClusterConfig,
        eps: S,
        backends: &[BackendKind],
    ) -> Result<Self, VibnnError> {
        if backends.len() != cfg.replicas {
            return Err(VibnnError::BadServeConfig(
                "one backend kind per replica required",
            ));
        }
        let policy = cfg.policy.unwrap_or_else(|| vibnn.default_policy());
        let slots = backends.iter().map(|&k| (k, policy)).collect();
        Self::with_slots(vibnn, cfg, eps, slots)
    }

    /// Builds a **mixed-policy pool**: replica `i` samples under
    /// `policies[i]` (all through the same backend, `cfg.backend` / the
    /// deployment default). Useful for canarying an adaptive policy on
    /// part of the pool while the rest stays on the pinned
    /// [`PolicySpec::ExactN`] reference. Spill never crosses a policy
    /// boundary, so the two halves stay exactly attributable.
    /// `policies` must have exactly `cfg.replicas` entries;
    /// `cfg.policy` is ignored.
    ///
    /// # Errors
    ///
    /// [`VibnnError::BadServeConfig`] if `replicas`, `max_batch`, or
    /// `max_queue` is 0, `policies.len() != cfg.replicas`, or any
    /// policy fails [`PolicySpec::validate`].
    pub fn with_policies(
        vibnn: Vibnn,
        cfg: ClusterConfig,
        eps: S,
        policies: &[PolicySpec],
    ) -> Result<Self, VibnnError> {
        if policies.len() != cfg.replicas {
            return Err(VibnnError::BadServeConfig(
                "one sampling policy per replica required",
            ));
        }
        let kind = cfg.backend.unwrap_or_else(|| vibnn.default_backend());
        let slots = policies.iter().map(|&p| (kind, p)).collect();
        Self::with_slots(vibnn, cfg, eps, slots)
    }

    fn with_slots(
        vibnn: Vibnn,
        cfg: ClusterConfig,
        eps: S,
        slots: Vec<(BackendKind, PolicySpec)>,
    ) -> Result<Self, VibnnError> {
        if cfg.replicas == 0 {
            return Err(VibnnError::BadServeConfig("replicas must be positive"));
        }
        let serve_cfg = ServeConfig {
            max_batch: cfg.max_batch,
            max_queue: cfg.max_queue,
            workers: cfg.workers,
            backend: None,
            policy: None,
        };
        let input_dim = vibnn.input_dim();
        let max_entropy = (vibnn.classes() as f64).ln();
        let mc_samples = vibnn.mc_samples();
        let full_budget_secs = (cycles_per_sample(&vibnn.sim) * mc_samples as u64) as f64
            / (vibnn.config().clock_mhz * 1e6);
        let fingerprint = checkpoint_fingerprint(&vibnn);
        // Build every replica engine up front so a bad config fails before
        // any thread spawns.
        let mut engines = Vec::with_capacity(cfg.replicas);
        for &(kind, policy) in &slots {
            engines.push(ServeEngine::with_eps(
                vibnn.clone(),
                ServeConfig {
                    backend: Some(kind),
                    policy: Some(policy),
                    ..serve_cfg
                },
                replica_source(&eps),
            )?);
        }
        let shared = Arc::new(ClusterShared {
            state: Mutex::new(ClusterState {
                replicas: slots
                    .iter()
                    .map(|&(kind, policy)| ReplicaState {
                        queue: VecDeque::new(),
                        pending: 0,
                        served: 0,
                        version: 0,
                        queued_version: 0,
                        fingerprint,
                        queued_fingerprint: fingerprint,
                        batch_hist: vec![0; cfg.max_batch],
                        alive: true,
                        backend: kind,
                        cost: BackendCost::default(),
                        policy,
                    })
                    .collect(),
                results: HashMap::new(),
                next_id: 0,
                queued_total: 0,
                submitted: 0,
                served_total: 0,
                served_interactive: 0,
                served_batch: 0,
                spilled: 0,
                rejected: 0,
                deadline_expired: 0,
                cancelled: 0,
                swaps_completed: 0,
                uncertainty_recent: VecDeque::with_capacity(UNCERTAINTY_WINDOW),
                entropy_hist: vec![0; ENTROPY_BUCKETS],
                samples_used_total: 0,
                samples_hist: vec![0; mc_samples],
                abstained: 0,
                budget_shed: 0,
                stop: false,
            }),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
            swap_applied: Condvar::new(),
            max_queue: cfg.max_queue,
            max_batch: cfg.max_batch,
            skip_bound: cfg.batch_skip_bound,
            spill: cfg.spill,
            input_dim,
            max_entropy,
            full_budget_secs,
        });
        let dispatchers = engines
            .into_iter()
            .enumerate()
            .map(|(r, engine)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let _alive = AliveGuard {
                        shared: &shared,
                        replica: r,
                    };
                    dispatcher_loop(r, engine, &shared);
                })
            })
            .collect();
        Ok(Self {
            shared,
            eps,
            serve_cfg,
            dispatchers,
        })
    }

    /// Number of replicas in the pool.
    pub fn replicas(&self) -> usize {
        self.dispatchers.len()
    }

    /// The ε source every replica serves with — the substream
    /// [`vibnn_bnn::replica_source`] derives from the cluster source.
    /// Feed this to a single [`ServeEngine`] or to
    /// [`Vibnn::predict_proba_parallel`] to reproduce the cluster's
    /// results bit for bit.
    pub fn replica_eps(&self) -> S {
        replica_source(&self.eps)
    }

    /// Submits one request (a single feature row) and returns its cluster
    /// request id. The id also determines the home replica
    /// (`id mod replicas`); with [`ClusterConfig::spill`] the request may
    /// be placed on a less-loaded replica of the same checkpoint
    /// fingerprint — which, by the determinism contract, serves it
    /// identically.
    ///
    /// # Errors
    ///
    /// - [`VibnnError::ShapeMismatch`] — the row is not
    ///   [`Vibnn::input_dim`] values wide.
    /// - [`VibnnError::QueueFull`] — cluster-level backpressure; carries
    ///   the observed depth and configured capacity for informed backoff.
    /// - [`VibnnError::EngineStopped`] — the cluster is shut down, or no
    ///   replica equivalent to the home replica is alive.
    pub fn submit(&self, features: Vec<f32>) -> Result<u64, VibnnError> {
        self.submit_with(features, SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with an explicit lane and deadline.
    ///
    /// # Errors
    ///
    /// Everything [`submit`](Self::submit) can return, plus
    /// [`VibnnError::DeadlineExceeded`] when `opts.deadline` has already
    /// passed — the request is refused at the admission gate, before an
    /// id is issued or a replica touched — and
    /// [`VibnnError::BudgetExceeded`] when the target replica is a
    /// [`BackendKind::Cycle`] slot whose closed-form `Schedule` predicts
    /// a full-budget pass longer than the time left until `opts.deadline`
    /// (also refused before an id is issued; counted in
    /// [`SamplingStats::budget_shed`]).
    pub fn submit_with(&self, features: Vec<f32>, opts: SubmitOptions) -> Result<u64, VibnnError> {
        if features.len() != self.shared.input_dim {
            return Err(VibnnError::ShapeMismatch {
                context: "request width",
                expected: self.shared.input_dim,
                got: features.len(),
            });
        }
        let mut st = self.shared.lock();
        if st.stop {
            return Err(VibnnError::EngineStopped);
        }
        if opts
            .deadline
            .is_some_and(|d| d <= std::time::Instant::now())
        {
            st.deadline_expired += 1;
            return Err(VibnnError::DeadlineExceeded);
        }
        if st.queued_total >= self.shared.max_queue {
            st.rejected += 1;
            return Err(VibnnError::QueueFull {
                depth: st.queued_total,
                capacity: self.shared.max_queue,
            });
        }
        let id = st.next_id;
        let home = (id % st.replicas.len() as u64) as usize;
        // Route: home replica, unless spill finds a strictly less-loaded
        // *equivalent* replica (same queued checkpoint fingerprint AND
        // same backend kind AND same sampling policy — never across a
        // checkpoint, backend, or policy boundary, so every answer stays
        // attributable to one `(version, backend, policy)` triple).
        let home_fp = st.replicas[home].queued_fingerprint;
        let home_backend = st.replicas[home].backend;
        let home_policy = st.replicas[home].policy;
        let mut target = if st.replicas[home].alive {
            Some((home, st.replicas[home].pending))
        } else {
            None
        };
        if self.shared.spill || target.is_none() {
            for (i, rep) in st.replicas.iter().enumerate() {
                if i == home
                    || !rep.alive
                    || rep.queued_fingerprint != home_fp
                    || rep.backend != home_backend
                    || rep.policy != home_policy
                {
                    continue;
                }
                if target.map_or(true, |(_, pending)| rep.pending < pending) {
                    target = Some((i, rep.pending));
                }
            }
        }
        let Some((target, _)) = target else {
            // Nothing equivalent to the home replica is alive; serving
            // elsewhere could change the result, so refuse instead.
            return Err(VibnnError::EngineStopped);
        };
        // Cost budget gate: on a cycle-accurate replica, a deadlined
        // request whose remaining time cannot cover a worst-case
        // full-budget pass is shed now — typed, counted, and free of
        // Monte Carlo work — instead of expiring in the queue after
        // burning a dispatch slot. The prediction is the closed-form
        // `Schedule` price of the *full* `mc_samples` budget (adaptive
        // policies may finish earlier, but admission must not bet on
        // it), so it holds from the very first request.
        let on_cycle = st.replicas[target].backend == BackendKind::Cycle;
        if let Some(deadline) = opts.deadline.filter(|_| on_cycle) {
            let predicted = self.shared.full_budget_secs;
            let remaining = deadline
                .saturating_duration_since(std::time::Instant::now())
                .as_secs_f64();
            if predicted > remaining {
                st.budget_shed += 1;
                return Err(VibnnError::BudgetExceeded {
                    predicted_micros: (predicted * 1e6) as u64,
                    remaining_micros: (remaining * 1e6) as u64,
                });
            }
        }
        st.next_id += 1;
        st.submitted += 1;
        st.queued_total += 1;
        st.spilled += u64::from(target != home);
        let rep = &mut st.replicas[target];
        rep.pending += 1;
        rep.queue.push_back(Work::Request {
            id,
            features,
            lane: opts.priority,
            deadline: opts.deadline,
            skips: 0,
        });
        drop(st);
        self.shared.work_ready.notify_all();
        Ok(id)
    }

    /// Takes a finished outcome without blocking, if it is ready:
    /// `Ok` with the result, or the typed failure that consumed the
    /// request ([`VibnnError::DeadlineExceeded`] for in-queue expiry,
    /// [`VibnnError::EngineStopped`] for shutdown cancellation).
    pub fn try_take(&self, id: u64) -> Option<Result<ServeResult, VibnnError>> {
        self.shared
            .lock()
            .results
            .remove(&id)
            .map(Outcome::into_result)
    }

    /// Blocks until the outcome for `id` is ready and takes it.
    ///
    /// # Errors
    ///
    /// - [`VibnnError::UnknownRequest`] — `id` was never issued.
    /// - [`VibnnError::DeadlineExceeded`] — the deadline expired while
    ///   the request was queued.
    /// - [`VibnnError::EngineStopped`] — the request was cancelled at
    ///   shutdown, or a dispatcher exited before the result was
    ///   produced.
    pub fn wait(&self, id: u64) -> Result<ServeResult, VibnnError> {
        let mut st = self.shared.lock();
        if id >= st.next_id {
            return Err(VibnnError::UnknownRequest(id));
        }
        loop {
            if let Some(out) = st.results.remove(&id) {
                return out.into_result();
            }
            // Any dead replica may hold this request forever; error out
            // instead of risking a hang. (Replicas die only on panic or
            // shutdown.)
            if st.replicas.iter().any(|r| !r.alive) {
                return Err(VibnnError::EngineStopped);
            }
            st = self
                .shared
                .result_ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A consistent snapshot of cluster and per-replica state.
    pub fn metrics(&self) -> ClusterMetrics {
        let st = self.shared.lock();
        ClusterMetrics {
            replicas: st
                .replicas
                .iter()
                .map(|r| ReplicaMetrics {
                    queue_depth: r.pending,
                    served: r.served,
                    version: r.version,
                    checkpoint_fingerprint: r.fingerprint,
                    swap_pending: r.queued_version > r.version,
                    alive: r.alive,
                    batch_histogram: r.batch_hist.clone(),
                    backend: r.backend,
                    cost: r.cost,
                    policy: r.policy,
                })
                .collect(),
            cost: st.replicas.iter().fold(BackendCost::default(), |mut acc, r| {
                acc.accumulate(r.cost);
                acc
            }),
            sampling: SamplingStats {
                samples_used_total: st.samples_used_total,
                mean_samples: if st.served_total == 0 {
                    0.0
                } else {
                    st.samples_used_total as f64 / st.served_total as f64
                },
                histogram: st.samples_hist.clone(),
                abstained: st.abstained,
                budget_shed: st.budget_shed,
            },
            queued: st.queued_total,
            capacity: self.shared.max_queue,
            submitted: st.submitted,
            served: st.served_total,
            spilled: st.spilled,
            rejected: st.rejected,
            deadline_expired: st.deadline_expired,
            cancelled: st.cancelled,
            served_interactive: st.served_interactive,
            served_batch: st.served_batch,
            swaps_completed: st.swaps_completed,
            draining: st
                .replicas
                .iter()
                .any(|r| r.queued_version > r.version)
                || (st.stop && st.queued_total > 0),
            uncertainty: {
                let count = st.uncertainty_recent.len();
                let (se, ss) = st
                    .uncertainty_recent
                    .iter()
                    .fold((0.0f64, 0.0f64), |(ae, astd), (e, s)| (ae + e, astd + s));
                UncertaintyStats {
                    window: UNCERTAINTY_WINDOW as u64,
                    count: count as u64,
                    entropy_mean: if count == 0 { 0.0 } else { se / count as f64 },
                    mc_std_mean: if count == 0 { 0.0 } else { ss / count as f64 },
                    entropy_histogram: st.entropy_hist.clone(),
                }
            },
        }
    }

    /// Hot-swaps `replica` to a new deployment: builds a **standby**
    /// engine around `vibnn` (with the cluster's replica ε substream),
    /// enqueues a swap marker, and blocks until the dispatcher has
    /// drained every request queued ahead of the marker through the old
    /// engine and switched to the standby. Requests keep flowing the
    /// whole time — none are dropped, none are served twice; submissions
    /// after this call returns are answered by the new version.
    ///
    /// # Errors
    ///
    /// - [`VibnnError::UnknownReplica`] — `replica` is out of range.
    /// - [`VibnnError::ShapeMismatch`] — the new deployment's input width
    ///   differs from the cluster's.
    /// - [`VibnnError::BadServeConfig`] — never for a cluster-validated
    ///   config (propagated from standby construction).
    /// - [`VibnnError::EngineStopped`] — the cluster is shut down or the
    ///   replica's dispatcher has exited.
    pub fn hot_swap(&self, replica: usize, vibnn: Vibnn) -> Result<SwapReport, VibnnError> {
        if replica >= self.dispatchers.len() {
            return Err(VibnnError::UnknownReplica(replica));
        }
        if vibnn.input_dim() != self.shared.input_dim {
            return Err(VibnnError::ShapeMismatch {
                context: "replica input width",
                expected: self.shared.input_dim,
                got: vibnn.input_dim(),
            });
        }
        // Standby construction (quantization, simulator setup) happens
        // before any queue mutation, so it never stalls the dispatcher.
        // The standby keeps the replica's backend kind and sampling
        // policy: both are properties of the serving slot, not of the
        // checkpoint.
        let (kind, policy) = {
            let st = self.shared.lock();
            (st.replicas[replica].backend, st.replicas[replica].policy)
        };
        let fingerprint = checkpoint_fingerprint(&vibnn);
        let engine = ServeEngine::with_eps(
            vibnn,
            ServeConfig {
                backend: Some(kind),
                policy: Some(policy),
                ..self.serve_cfg
            },
            replica_source(&self.eps),
        )?;
        let mut st = self.shared.lock();
        if st.stop || !st.replicas[replica].alive {
            return Err(VibnnError::EngineStopped);
        }
        let version = st.replicas[replica].queued_version + 1;
        let drained = st.replicas[replica].pending as u64;
        let rep = &mut st.replicas[replica];
        rep.queued_version = version;
        rep.queued_fingerprint = fingerprint;
        rep.queue.push_back(Work::Swap {
            engine: Box::new(engine),
            version,
            fingerprint,
        });
        drop(st);
        self.shared.work_ready.notify_all();
        let mut st = self.shared.lock();
        while st.replicas[replica].version < version {
            if !st.replicas[replica].alive {
                return Err(VibnnError::EngineStopped);
            }
            st = self
                .shared
                .swap_applied
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        Ok(SwapReport {
            replica,
            version,
            drained,
        })
    }

    /// [`hot_swap`](Self::hot_swap) from a kind-3 deployment checkpoint
    /// file (see [`Vibnn::load`]).
    ///
    /// # Errors
    ///
    /// Any [`Vibnn::load`] error, plus every [`hot_swap`](Self::hot_swap)
    /// error.
    pub fn hot_swap_from(
        &self,
        replica: usize,
        path: impl AsRef<Path>,
    ) -> Result<SwapReport, VibnnError> {
        self.hot_swap(replica, Vibnn::load(path)?)
    }

    /// Rolls a new deployment across every replica, one hot swap at a
    /// time (replica 0 first). Traffic keeps flowing throughout; once
    /// this returns, every replica serves the new checkpoint — and since
    /// spill equivalence is judged on the checkpoint fingerprint (not
    /// the per-replica version counters, which may differ), spill is
    /// fully re-enabled across the pool.
    ///
    /// # Errors
    ///
    /// The first [`hot_swap`](Self::hot_swap) error; earlier replicas
    /// stay swapped.
    pub fn rollout(&self, vibnn: Vibnn) -> Result<Vec<SwapReport>, VibnnError> {
        (0..self.dispatchers.len())
            .map(|r| self.hot_swap(r, vibnn.clone()))
            .collect()
    }

    /// Stops every dispatcher after it drains its queue, joins them, and
    /// returns every unclaimed **served** result sorted by request id.
    /// Requests stranded behind a queued swap marker are failed with
    /// [`VibnnError::EngineStopped`] rather than drained (their
    /// submitters learn this from [`wait`](Self::wait) /
    /// [`try_take`](Self::try_take) — or did already, before this call).
    pub fn shutdown(mut self) -> Vec<ServeResult> {
        self.stop_and_join();
        let mut leftover: Vec<ServeResult> = self
            .shared
            .lock()
            .results
            .drain()
            .filter_map(|(_, o)| match o {
                Outcome::Served(r) => Some(r),
                Outcome::Abstained { .. } | Outcome::Expired | Outcome::Cancelled => None,
            })
            .collect();
        leftover.sort_by_key(|r| r.id);
        leftover
    }

    /// Begins a graceful stop **without** consuming the engine: refuses
    /// new submissions, cancels requests stranded behind queued swap
    /// markers, and blocks until every live dispatcher has drained its
    /// queue. Safe to call concurrently with submitters, waiters, and
    /// in-flight [`hot_swap`](Self::hot_swap)s (whose markers still
    /// apply, in order) — this is what makes shutdown-under-rollout
    /// hang-free by construction instead of by dispatcher timing.
    /// Idempotent; [`shutdown`](Self::shutdown) or drop still joins the
    /// dispatcher threads afterwards.
    pub fn drain(&self) {
        self.request_stop();
        let mut st = self.shared.lock();
        while st.replicas.iter().any(|r| r.alive && !r.queue.is_empty()) {
            st = self
                .shared
                .result_ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Sets `stop`, fails stranded requests, and wakes everyone.
    fn request_stop(&self) {
        {
            let mut st = self.shared.lock();
            st.stop = true;
            cancel_stranded_requests(&mut st);
        }
        self.shared.work_ready.notify_all();
        self.shared.result_ready.notify_all();
    }

    fn stop_and_join(&mut self) {
        self.request_stop();
        for worker in self.dispatchers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<S: StreamFork + Sync + Send> Drop for ClusterEngine<S> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One replica's dispatcher: drain own queue → micro-batch through the
/// serving engine → publish into the shared result map; apply swap
/// markers in queue order; exit once asked to stop *and* the queue is
/// fully drained.
fn dispatcher_loop<S: StreamFork + Sync + Send>(
    r: usize,
    mut engine: ServeEngine<S>,
    shared: &ClusterShared<S>,
) {
    loop {
        let mut batch: Vec<(u64, Vec<f32>, Priority)> = Vec::new();
        let mut swap: Option<Box<ServeEngine<S>>> = None;
        let mut expired_any = false;
        {
            let mut st = shared.lock();
            loop {
                if !st.replicas[r].queue.is_empty() {
                    break;
                }
                if st.stop {
                    // Queue fully drained (markers included): exit. The
                    // `AliveGuard` clears `alive` and wakes waiters.
                    return;
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if matches!(st.replicas[r].queue.front(), Some(Work::Swap { .. })) {
                let rep = &mut st.replicas[r];
                if let Some(Work::Swap {
                    engine,
                    version,
                    fingerprint,
                }) = rep.queue.pop_front()
                {
                    rep.version = version;
                    rep.fingerprint = fingerprint;
                    swap = Some(engine);
                }
                st.swaps_completed += 1;
            } else {
                // Expiry and selection are both restricted to the
                // contiguous run of requests ahead of any swap marker, so
                // a micro-batch is always served by one checkpoint
                // version. Expiry first: a late request must never cost
                // Monte Carlo work or a micro-batch slot.
                let now = std::time::Instant::now();
                let stm = &mut *st;
                let rep = &mut stm.replicas[r];
                let mut i = 0;
                while i < rep.queue.len() {
                    let late = match &rep.queue[i] {
                        Work::Swap { .. } => break,
                        Work::Request { deadline, .. } => {
                            (*deadline).is_some_and(|d| d <= now)
                        }
                    };
                    if late {
                        if let Some(Work::Request { id, .. }) = rep.queue.remove(i) {
                            stm.results.insert(id, Outcome::Expired);
                            rep.pending -= 1;
                            stm.queued_total -= 1;
                            stm.deadline_expired += 1;
                            expired_any = true;
                        }
                    } else {
                        i += 1;
                    }
                }
                let lanes: Vec<(Priority, u32)> = rep
                    .queue
                    .iter()
                    .take_while(|w| matches!(w, Work::Request { .. }))
                    .map(|w| match w {
                        Work::Request { lane, skips, .. } => (*lane, *skips),
                        Work::Swap { .. } => unreachable!("take_while excludes markers"),
                    })
                    .collect();
                let take = select_microbatch(&lanes, shared.max_batch, shared.skip_bound);
                // Remove selected entries back-to-front so earlier
                // indices stay valid; every passed-over request in the
                // scan window accrues a skip.
                for i in (0..take.len()).rev() {
                    if take[i] {
                        if let Some(Work::Request {
                            id, features, lane, ..
                        }) = rep.queue.remove(i)
                        {
                            batch.push((id, features, lane));
                        }
                    } else if let Some(Work::Request { skips, .. }) = rep.queue.get_mut(i) {
                        *skips += 1;
                    }
                }
                batch.reverse();
                rep.pending -= batch.len();
                stm.queued_total -= batch.len();
            }
        }
        if expired_any {
            // Waiters on an expired id must learn its fate now, even if
            // this round dispatches nothing else.
            shared.result_ready.notify_all();
        }
        if let Some(standby) = swap {
            engine = *standby;
            shared.swap_applied.notify_all();
            // `drain` watches queue emptiness on `result_ready`.
            shared.result_ready.notify_all();
            continue;
        }
        if batch.is_empty() {
            // Everything eligible this round expired.
            continue;
        }
        let mut x = Matrix::zeros(batch.len(), shared.input_dim);
        for (row, (_, features, _)) in batch.iter().enumerate() {
            x.row_mut(row).copy_from_slice(features);
        }
        // The synchronous serve path: one micro-batch, bit-identical to
        // the one-shot batched inference call under `ExactN` and to the
        // pure per-row adaptive drivers otherwise (row widths were
        // validated at the cluster gate, so this cannot fail).
        let (outcomes, cost) = engine
            .submit_batch_outcomes_costed(&x)
            .expect("validated request width");
        {
            let mut st = shared.lock();
            let n = batch.len();
            let mut served = 0u64;
            for ((id, _, lane), mut outcome) in batch.into_iter().zip(outcomes) {
                outcome.set_id(id);
                match outcome {
                    RowOutcome::Served(result) => {
                        // Uncertainty tap: a deque push + histogram
                        // increments per request under the lock already
                        // held for publishing — no extra synchronization
                        // on the serve path. Early-exit entropies flow
                        // through here unchanged, so the uncertainty
                        // trigger sees whatever the policy computed.
                        if st.uncertainty_recent.len() == UNCERTAINTY_WINDOW {
                            st.uncertainty_recent.pop_front();
                        }
                        st.uncertainty_recent.push_back((result.entropy, result.mc_std));
                        let bucket = if shared.max_entropy > 0.0 {
                            ((result.entropy / shared.max_entropy * ENTROPY_BUCKETS as f64)
                                as usize)
                                .min(ENTROPY_BUCKETS - 1)
                        } else {
                            0
                        };
                        st.entropy_hist[bucket] += 1;
                        st.samples_used_total += u64::from(result.samples_used);
                        let hist_len = st.samples_hist.len();
                        let sb = (result.samples_used as usize)
                            .saturating_sub(1)
                            .min(hist_len - 1);
                        st.samples_hist[sb] += 1;
                        st.results.insert(id, Outcome::Served(result));
                        match lane {
                            Priority::Interactive => st.served_interactive += 1,
                            Priority::Batch => st.served_batch += 1,
                        }
                        served += 1;
                    }
                    RowOutcome::Abstained {
                        samples_used,
                        entropy_milli,
                        ..
                    } => {
                        st.abstained += 1;
                        st.results.insert(
                            id,
                            Outcome::Abstained {
                                samples_used,
                                entropy_milli,
                            },
                        );
                    }
                }
            }
            st.served_total += served;
            let rep = &mut st.replicas[r];
            rep.served += served;
            rep.batch_hist[n - 1] += 1;
            rep.cost.accumulate(cost);
        }
        shared.result_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VibnnBuilder;
    use vibnn_bnn::{Bnn, BnnConfig};

    fn tiny_vibnn(seed: u64) -> Vibnn {
        let bnn = Bnn::new(BnnConfig::new(&[3, 6, 2]).with_sigma_init(0.1), seed);
        VibnnBuilder::new(bnn.params())
            .mc_samples(3)
            .calibration(Matrix::zeros(2, 3))
            .build()
            .unwrap()
    }

    #[test]
    fn zero_sized_configs_are_rejected() {
        for cfg in [
            ClusterConfig {
                replicas: 0,
                ..ClusterConfig::default()
            },
            ClusterConfig {
                max_batch: 0,
                ..ClusterConfig::default()
            },
            ClusterConfig {
                max_queue: 0,
                ..ClusterConfig::default()
            },
        ] {
            assert!(matches!(
                ClusterEngine::new(tiny_vibnn(1), cfg),
                Err(VibnnError::BadServeConfig(_))
            ));
        }
    }

    #[test]
    fn submit_validates_and_routes() {
        let cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 2,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            cluster.submit(vec![0.0; 5]),
            Err(VibnnError::ShapeMismatch {
                expected: 3,
                got: 5,
                ..
            })
        ));
        let a = cluster.submit(vec![0.0; 3]).unwrap();
        let b = cluster.submit(vec![0.5; 3]).unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(cluster.wait(a).is_ok());
        assert!(cluster.wait(b).is_ok());
        assert!(matches!(
            cluster.wait(99),
            Err(VibnnError::UnknownRequest(99))
        ));
        let metrics = cluster.metrics();
        assert_eq!(metrics.submitted, 2);
        assert_eq!(metrics.served, 2);
        assert_eq!(metrics.queued, 0);
        let leftovers = cluster.shutdown();
        assert!(leftovers.is_empty());
    }

    #[test]
    fn uncertainty_tap_aggregates_served_requests() {
        let cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 2,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let before = cluster.metrics().uncertainty;
        assert_eq!(before.count, 0);
        assert_eq!(before.entropy_mean, 0.0);
        assert_eq!(before.entropy_histogram, vec![0; ENTROPY_BUCKETS]);
        let n = 12usize;
        let ids: Vec<u64> = (0..n)
            .map(|i| cluster.submit(vec![0.1 * i as f32; 3]).unwrap())
            .collect();
        let results: Vec<ServeResult> =
            ids.iter().map(|&id| cluster.wait(id).unwrap()).collect();
        let u = cluster.metrics().uncertainty;
        assert_eq!(u.window, UNCERTAINTY_WINDOW as u64);
        assert_eq!(u.count, n as u64);
        assert_eq!(u.entropy_histogram.len(), ENTROPY_BUCKETS);
        assert_eq!(u.entropy_histogram.iter().sum::<u64>(), n as u64);
        // The window holds exactly these n results, so the means match
        // a direct aggregate (same f64 summation length, loose compare
        // to stay order-agnostic).
        let entropy_mean = results.iter().map(|r| r.entropy).sum::<f64>() / n as f64;
        let mc_std_mean = results.iter().map(|r| r.mc_std).sum::<f64>() / n as f64;
        assert!((u.entropy_mean - entropy_mean).abs() < 1e-12);
        assert!((u.mc_std_mean - mc_std_mean).abs() < 1e-12);
        // Entropies are bounded by ln(classes): the histogram never
        // overflows its top bucket's edge case.
        for r in &results {
            assert!(r.entropy <= (2f64).ln() + 1e-9);
        }
        cluster.shutdown();
    }

    #[test]
    fn cluster_queue_full_carries_depth_and_capacity() {
        // One replica, a 2-deep cluster queue, and a fast submit loop:
        // the mutex push is far cheaper than a dispatched micro-batch, so
        // the admission gate trips almost immediately.
        let cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 1,
                max_batch: 1,
                max_queue: 2,
                workers: 1,
                spill: false,
                batch_skip_bound: 4,
                backend: None,
                policy: None,
            },
        )
        .unwrap();
        let mut accepted = Vec::new();
        let mut saw_full = false;
        for _ in 0..2000 {
            match cluster.submit(vec![0.1; 3]) {
                Ok(id) => accepted.push(id),
                Err(VibnnError::QueueFull { depth, capacity }) => {
                    assert_eq!(capacity, 2);
                    assert!(depth >= capacity, "{depth} < {capacity}");
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(saw_full, "queue never filled");
        for id in accepted {
            cluster.wait(id).unwrap();
        }
        assert_eq!(cluster.metrics().rejected, 1);
        cluster.shutdown();
    }

    #[test]
    fn hot_swap_rejects_bad_targets() {
        let cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 2,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            cluster.hot_swap(7, tiny_vibnn(2)),
            Err(VibnnError::UnknownReplica(7))
        ));
        // A deployment with a different input width cannot join the pool.
        let wide = Bnn::new(BnnConfig::new(&[5, 4, 2]), 3);
        let wide = VibnnBuilder::new(wide.params())
            .calibration(Matrix::zeros(2, 5))
            .build()
            .unwrap();
        assert!(matches!(
            cluster.hot_swap(0, wide),
            Err(VibnnError::ShapeMismatch {
                context: "replica input width",
                ..
            })
        ));
        cluster.shutdown();
    }

    #[test]
    fn hot_swap_tracks_versions_and_fingerprint_equivalence() {
        let cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 2,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let m = cluster.metrics();
        assert_eq!(
            m.replicas[0].checkpoint_fingerprint,
            m.replicas[1].checkpoint_fingerprint,
            "founding replicas share one checkpoint"
        );
        let report = cluster.hot_swap(1, tiny_vibnn(9)).unwrap();
        assert_eq!(report.replica, 1);
        assert_eq!(report.version, 1);
        let m = cluster.metrics();
        assert_eq!(m.swaps_completed, 1);
        assert_eq!(m.replicas[0].version, 0);
        assert_eq!(m.replicas[1].version, 1);
        assert!(!m.replicas[1].swap_pending);
        // A different deployment breaks equivalence: spill between the
        // two replicas is now forbidden.
        assert_ne!(
            m.replicas[0].checkpoint_fingerprint,
            m.replicas[1].checkpoint_fingerprint
        );
        // Rolling one deployment across the pool restores equivalence
        // even though the per-replica swap counters diverge — spill is
        // judged on the fingerprint, not the version.
        let reports = cluster.rollout(tiny_vibnn(9)).unwrap();
        assert_eq!(reports.len(), 2);
        let m = cluster.metrics();
        assert_eq!(m.replicas[0].version, 1);
        assert_eq!(m.replicas[1].version, 2);
        assert_eq!(
            m.replicas[0].checkpoint_fingerprint,
            m.replicas[1].checkpoint_fingerprint,
            "same checkpoint => equivalent, whatever the swap history"
        );
        cluster.shutdown();
    }

    #[test]
    fn shutdown_returns_unclaimed_results_in_id_order() {
        let cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 2,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let ids: Vec<u64> = (0..6)
            .map(|i| cluster.submit(vec![i as f32 * 0.1; 3]).unwrap())
            .collect();
        let leftover = cluster.shutdown();
        assert_eq!(
            leftover.iter().map(|r| r.id).collect::<Vec<_>>(),
            ids,
            "graceful shutdown drains every queued request"
        );
    }

    #[test]
    fn submit_after_shutdown_is_engine_stopped() {
        let mut cluster = ClusterEngine::new(tiny_vibnn(1), ClusterConfig::default()).unwrap();
        cluster.stop_and_join();
        assert!(matches!(
            cluster.submit(vec![0.0; 3]),
            Err(VibnnError::EngineStopped)
        ));
    }

    const I: Priority = Priority::Interactive;
    const B: Priority = Priority::Batch;

    #[test]
    fn microbatch_selection_prefers_interactive() {
        // Interactive requests jump fresh batch traffic, in queue order.
        let lanes = [(B, 0), (I, 0), (B, 0), (I, 0)];
        assert_eq!(select_microbatch(&lanes, 2, 4), [false, true, false, true]);
        // Capacity left over goes to fresh batch, earliest first.
        assert_eq!(select_microbatch(&lanes, 3, 4), [true, true, false, true]);
        // Plenty of room: everything goes.
        assert_eq!(select_microbatch(&lanes, 8, 4), [true; 4]);
    }

    #[test]
    fn microbatch_selection_promotes_overdue_batch() {
        // A batch request at the skip bound outranks interactive traffic.
        let lanes = [(I, 0), (B, 4), (I, 0), (B, 3)];
        assert_eq!(select_microbatch(&lanes, 1, 4), [false, true, false, false]);
        assert_eq!(select_microbatch(&lanes, 2, 4), [true, true, false, false]);
        // Bound 0 makes every batch request overdue: queue-position order
        // within the overdue pass, so batch can even outrank interactive.
        assert_eq!(select_microbatch(&lanes, 2, 0), [false, true, false, true]);
        // Empty window selects nothing.
        assert_eq!(select_microbatch(&[], 4, 4), Vec::<bool>::new());
    }

    #[test]
    fn batch_lane_cannot_starve() {
        // However long the interactive backlog, a batch request waits at
        // most `skip_bound` selection rounds: simulate rounds with one
        // slot and a fresh interactive arrival each time.
        let bound = 3u32;
        let mut batch_skips = 0u32;
        let mut rounds_waited = 0;
        loop {
            let lanes = [(B, batch_skips), (I, 0)];
            let take = select_microbatch(&lanes, 1, bound);
            if take[0] {
                break;
            }
            batch_skips += 1; // what the dispatcher does on pass-over
            rounds_waited += 1;
            assert!(rounds_waited <= bound, "batch request starved");
        }
        assert_eq!(rounds_waited, bound);
    }

    #[test]
    fn expired_deadline_is_refused_at_admission() {
        let cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 1,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        assert!(matches!(
            cluster.submit_with(
                vec![0.0; 3],
                SubmitOptions {
                    priority: Priority::Interactive,
                    deadline: Some(past),
                },
            ),
            Err(VibnnError::DeadlineExceeded)
        ));
        let m = cluster.metrics();
        assert_eq!(m.deadline_expired, 1);
        assert_eq!(m.submitted, 0, "no id issued for a dead-on-arrival request");
        // A generous deadline sails through and is served normally.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let id = cluster
            .submit_with(
                vec![0.2; 3],
                SubmitOptions {
                    priority: Priority::Batch,
                    deadline: Some(far),
                },
            )
            .unwrap();
        assert!(cluster.wait(id).is_ok());
        let m = cluster.metrics();
        assert_eq!((m.served_interactive, m.served_batch), (0, 1));
        cluster.shutdown();
    }

    #[test]
    fn in_queue_expiry_fails_request_before_any_replica_work() {
        // Inject an already-expired request directly into the queue while
        // holding the lock — deterministic, no timing dependence: the
        // dispatcher cannot run until we release, and must then expire
        // the request instead of serving it.
        let cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 1,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        {
            let mut st = cluster.shared.lock();
            let id = st.next_id;
            st.next_id += 1;
            st.submitted += 1;
            st.queued_total += 1;
            st.replicas[0].pending += 1;
            st.replicas[0].queue.push_back(Work::Request {
                id,
                features: vec![0.0; 3],
                lane: Priority::Interactive,
                deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
                skips: 0,
            });
        }
        cluster.shared.work_ready.notify_all();
        assert!(matches!(cluster.wait(0), Err(VibnnError::DeadlineExceeded)));
        let m = cluster.metrics();
        assert_eq!(m.deadline_expired, 1);
        assert_eq!(m.served, 0, "an expired request must cost no MC work");
        cluster.shutdown();
    }

    #[test]
    fn shutdown_cancels_requests_stranded_behind_swap_marker() {
        // Regression: requests queued *behind* a swap marker used to be
        // drained only by dispatcher timing at shutdown. Build the exact
        // queue shape [A, marker, B, C] and stop — all under one lock, so
        // no interleaving can perturb it — then check A is served by the
        // old engine, the marker still applies (hot_swap waiters resolve),
        // and B, C fail cleanly instead of hanging or being served.
        let mut cluster = ClusterEngine::new(
            tiny_vibnn(1),
            ClusterConfig {
                replicas: 1,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let standby_vibnn = tiny_vibnn(9);
        let fingerprint = checkpoint_fingerprint(&standby_vibnn);
        let standby = ServeEngine::with_eps(
            standby_vibnn,
            cluster.serve_cfg,
            replica_source(&cluster.eps),
        )
        .unwrap();
        {
            let mut st = cluster.shared.lock();
            let stm = &mut *st;
            let rep = &mut stm.replicas[0];
            let request = |id| Work::Request {
                id,
                features: vec![0.1; 3],
                lane: Priority::Interactive,
                deadline: None,
                skips: 0,
            };
            rep.queue.push_back(request(0));
            rep.queue.push_back(Work::Swap {
                engine: Box::new(standby),
                version: 1,
                fingerprint,
            });
            rep.queue.push_back(request(1));
            rep.queue.push_back(request(2));
            rep.pending = 3;
            rep.queued_version = 1;
            rep.queued_fingerprint = fingerprint;
            stm.queued_total = 3;
            stm.submitted = 3;
            stm.next_id = 3;
            stm.stop = true;
            cancel_stranded_requests(stm);
            assert_eq!(stm.cancelled, 2, "B and C cancelled, A untouched");
            assert_eq!(stm.queued_total, 1);
        }
        cluster.shared.work_ready.notify_all();
        cluster.shared.result_ready.notify_all();
        cluster.stop_and_join();
        // A drained through the old engine; the marker applied; B and C
        // failed cleanly.
        assert!(cluster.wait(0).is_ok());
        assert!(matches!(cluster.wait(1), Err(VibnnError::EngineStopped)));
        assert!(matches!(cluster.wait(2), Err(VibnnError::EngineStopped)));
        let m = cluster.metrics();
        assert_eq!(m.swaps_completed, 1);
        assert_eq!(m.replicas[0].version, 1);
        assert_eq!(m.served, 1);
        assert_eq!(m.cancelled, 2);
    }

    #[test]
    fn cycle_admission_sheds_on_the_schedule_price_from_the_first_request() {
        use std::time::{Duration, Instant};
        use vibnn_hw::{AcceleratorConfig, Schedule};
        // A 1 Hz accelerator clock prices one full-budget pass at
        // minutes of modeled time, far from any scheduling jitter.
        let cfg = AcceleratorConfig {
            clock_mhz: 1e-6,
            ..AcceleratorConfig::paper()
        };
        let full_budget_cycles = Schedule::new(&cfg, &[3, 6, 2]).cycles_per_sample() * 3;
        assert!(full_budget_cycles > 30, "the 30 s deadlines must be short");
        let cluster_on = |kind| {
            let bnn = Bnn::new(BnnConfig::new(&[3, 6, 2]).with_sigma_init(0.1), 5);
            let vibnn = VibnnBuilder::new(bnn.params())
                .config(cfg.clone())
                .mc_samples(3)
                .calibration(Matrix::zeros(2, 3))
                .build()
                .unwrap();
            let cluster_cfg = ClusterConfig {
                backend: Some(kind),
                ..ClusterConfig::default()
            };
            ClusterEngine::new(vibnn, cluster_cfg).unwrap()
        };
        let within = |secs| SubmitOptions {
            deadline: Some(Instant::now() + Duration::from_secs(secs)),
            ..SubmitOptions::default()
        };

        // The very first request on a cycle replica is shed: the price
        // needs no served batch to warm up.
        let cycle = cluster_on(BackendKind::Cycle);
        match cycle.submit_with(vec![0.1; 3], within(30)) {
            Err(VibnnError::BudgetExceeded {
                predicted_micros,
                remaining_micros,
            }) => {
                assert!(predicted_micros.abs_diff(full_budget_cycles * 1_000_000) <= 1);
                assert!(remaining_micros <= 30_000_000);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        let m = cycle.metrics();
        assert_eq!((m.sampling.budget_shed, m.submitted), (1, 0));
        // An ample deadline is served, under the first id ever issued.
        let id = cycle.submit_with(vec![0.1; 3], within(3600)).unwrap();
        assert_eq!(id, 0, "the shed request consumed no id");
        assert_eq!(cycle.wait(id).unwrap().samples_used, 3);

        // A host replica meters no hardware, so it never sheds.
        let quantized = cluster_on(BackendKind::Quantized);
        let id = quantized.submit_with(vec![0.1; 3], within(30)).unwrap();
        assert!(quantized.wait(id).is_ok());
        assert_eq!(quantized.metrics().sampling.budget_shed, 0);
    }
}
