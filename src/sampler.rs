//! Adaptive Monte Carlo sampling: per-request sample-count decisions.
//!
//! Serving cost in this reproduction is linear in MC samples — the
//! paper's central trade-off treats the sample count `N` as a static
//! offline knob (its MC-samples ablation) — yet most requests are
//! decided after a handful of draws. This module turns the count into a
//! **per-request decision**: a [`SamplingPolicy`] watches each request's
//! running prediction sample by sample and decides when to stop.
//!
//! Three policies cover the spectrum:
//!
//! - [`ExactN`] — the pinned reference: always draw every configured
//!   sample. Results are bit-identical to the historical serve path.
//! - [`EarlyExit`] — stop once the running argmax and a quantized
//!   entropy estimate have been stable for `k` consecutive samples
//!   (after a warm-up of `min_samples`).
//! - [`RiskTiered`] — [`EarlyExit`] for confident requests, but a
//!   high-entropy request is *escalated* to the full sample budget, and
//!   (optionally) answered with a typed
//!   [`Abstained`](crate::VibnnError::Abstained) error if it is still
//!   uncertain at the budget.
//!
//! # Determinism
//!
//! A stopping decision is a pure function of the request's feature row
//! and the engine's ε substreams: sample `s` always draws from
//! `eps.fork(s)` (the workspace-wide convention), the decision tracker
//! consumes only that request's own member probabilities, and worker
//! count, batch composition, arrival order, replica count, and spill
//! never enter the decision. Consequently `samples_used` — and the
//! served bits — are reproducible anywhere the request lands, which is
//! what keeps cluster spill policy-safe. The decision accumulator is a
//! separate f64 running sum that never touches the served result's
//! arithmetic: a request that stops at `n` samples returns exactly what
//! the batched path would return for `mc_samples = n`.

use std::fmt;

/// Entropy-quantization levels in the stability signature (the running
/// normalized entropy is bucketed into this many levels; the signature
/// is stable when the bucket and the argmax both repeat).
pub const ENTROPY_QUANT_LEVELS: u32 = 16;

/// A serializable description of a sampling policy — the configuration
/// that travels through `ServeConfig`/`ClusterConfig`/`VibnnBuilder`
/// and shows up in metrics. [`instantiate`](Self::instantiate) turns it
/// into the policy object engines consult.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PolicySpec {
    /// Always draw the full configured sample count (the pinned
    /// reference; bit-identical to the historical serve path).
    #[default]
    ExactN,
    /// Stop when the stability signature repeats `k` consecutive times
    /// (counting the current sample), after at least `min_samples`
    /// draws.
    EarlyExit {
        /// Consecutive stable signatures required to stop (≥ 1).
        k: u32,
        /// Samples always drawn before stopping is considered (≥ 1).
        min_samples: u32,
    },
    /// [`PolicySpec::EarlyExit`], plus risk tiering: a request whose
    /// normalized entropy is at or above `escalate_milli / 1000` when
    /// it would stop is escalated to the full budget; if `abstain` is
    /// set and it is *still* that uncertain at the budget, it is
    /// answered with [`VibnnError::Abstained`](crate::VibnnError::Abstained)
    /// instead of a prediction.
    RiskTiered {
        /// Consecutive stable signatures required to stop (≥ 1).
        k: u32,
        /// Samples always drawn before stopping is considered (≥ 1).
        min_samples: u32,
        /// Escalation threshold in thousandths of the maximum entropy
        /// `ln(classes)` (e.g. `600` escalates requests whose running
        /// normalized entropy is ≥ 0.6).
        escalate_milli: u32,
        /// Abstain (typed error) when still above the threshold at the
        /// full budget; otherwise the full-sample prediction is served.
        abstain: bool,
    },
}

impl PolicySpec {
    /// Stable one-byte tag (metrics display and bench labels).
    pub fn code(self) -> u8 {
        match self {
            PolicySpec::ExactN => 0,
            PolicySpec::EarlyExit { .. } => 1,
            PolicySpec::RiskTiered { .. } => 2,
        }
    }

    /// Validates the knobs; engines call this at construction so a bad
    /// policy is a typed `BadServeConfig`, not a silent never-stop.
    pub fn validate(self) -> Result<(), &'static str> {
        match self {
            PolicySpec::ExactN => Ok(()),
            PolicySpec::EarlyExit { k, min_samples }
            | PolicySpec::RiskTiered { k, min_samples, .. } => {
                if k == 0 {
                    Err("sampling policy k must be positive")
                } else if min_samples == 0 {
                    Err("sampling policy min_samples must be positive")
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Instantiates the policy object a serving engine consults.
    pub fn instantiate(self) -> Box<dyn SamplingPolicy> {
        match self {
            PolicySpec::ExactN => Box::new(ExactN),
            PolicySpec::EarlyExit { k, min_samples } => Box::new(EarlyExit { k, min_samples }),
            PolicySpec::RiskTiered {
                k,
                min_samples,
                escalate_milli,
                abstain,
            } => Box::new(RiskTiered {
                k,
                min_samples,
                escalate_milli,
                abstain,
            }),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::ExactN => write!(f, "exact-n"),
            PolicySpec::EarlyExit { k, min_samples } => {
                write!(f, "early-exit(k={k},min={min_samples})")
            }
            PolicySpec::RiskTiered {
                k,
                min_samples,
                escalate_milli,
                abstain,
            } => write!(
                f,
                "risk-tiered(k={k},min={min_samples},escalate={escalate_milli}m,abstain={abstain})"
            ),
        }
    }
}

/// What a request's [`RowTracker`] reports after folding in one Monte
/// Carlo member: everything a [`SamplingPolicy`] may base its decision
/// on. A pure summary of this request's own samples — nothing about the
/// batch, the queue, or the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleObservation {
    /// Samples drawn so far, including the one just folded in.
    pub drawn: u32,
    /// The full sample budget (the deployment's `mc_samples`).
    pub max_samples: u32,
    /// Argmax of the running mean probabilities (lowest index wins
    /// ties).
    pub argmax: usize,
    /// Predictive entropy of the running mean, normalized to
    /// `ln(classes)` (`0.0` certain … `1.0` uniform).
    pub norm_entropy: f64,
    /// `norm_entropy` bucketed into [`ENTROPY_QUANT_LEVELS`] levels —
    /// half of the stability signature.
    pub entropy_quant: u32,
    /// Consecutive samples (including this one) for which the
    /// `(argmax, entropy_quant)` signature has not changed.
    pub stable: u32,
}

/// A sampling policy's verdict after each Monte Carlo member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleDecision {
    /// Draw another sample.
    Continue,
    /// Keep drawing to the full budget regardless of stability (the
    /// risk-tiered escalation lane). Operationally identical to
    /// [`SampleDecision::Continue`]; reported distinctly so drivers and
    /// tests can attribute the extra work.
    Escalate,
    /// Serve the running mean now.
    Stop,
    /// Decline to answer
    /// ([`VibnnError::Abstained`](crate::VibnnError::Abstained)).
    Abstain,
}

/// The per-sample stopping rule a serving engine consults.
///
/// `decide` must be a pure function of the observation (no interior
/// mutability, no clocks): the engine guarantees the observation stream
/// itself is deterministic, and purity here is what extends that to
/// `samples_used` and the served bits. A policy must return
/// [`SampleDecision::Stop`] or [`SampleDecision::Abstain`] once
/// `obs.drawn == obs.max_samples`; drivers additionally clamp at the
/// budget, treating anything else as `Stop`.
///
/// ```
/// use vibnn::sampler::{EarlyExit, RowTracker, SampleDecision, SamplingPolicy};
///
/// let policy = EarlyExit { k: 2, min_samples: 2 };
/// let mut tracker = RowTracker::new(2, 8);
/// // First confident sample: signature established, but k = 2 stable
/// // observations are required (and min_samples = 2).
/// let first = tracker.observe(&[0.9, 0.1]);
/// assert_eq!(policy.decide(&first), SampleDecision::Continue);
/// // Second agreeing sample: the running mean keeps the same argmax and
/// // quantized entropy, so the signature is 2-stable — stop at 2 of 8.
/// let second = tracker.observe(&[0.9, 0.1]);
/// assert_eq!(second.stable, 2);
/// assert_eq!(policy.decide(&second), SampleDecision::Stop);
/// ```
pub trait SamplingPolicy: Send + Sync {
    /// The serializable description of this policy.
    fn spec(&self) -> PolicySpec;

    /// The stopping verdict after the sample summarized by `obs`.
    fn decide(&self, obs: &SampleObservation) -> SampleDecision;
}

/// The pinned reference policy: always draw the full budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactN;

impl SamplingPolicy for ExactN {
    fn spec(&self) -> PolicySpec {
        PolicySpec::ExactN
    }

    fn decide(&self, obs: &SampleObservation) -> SampleDecision {
        if obs.drawn >= obs.max_samples {
            SampleDecision::Stop
        } else {
            SampleDecision::Continue
        }
    }
}

/// Deterministic early exit: stop once the `(argmax, quantized
/// entropy)` signature of the running mean has held for `k` consecutive
/// samples, after a warm-up of `min_samples`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarlyExit {
    /// Consecutive stable signatures required to stop (≥ 1).
    pub k: u32,
    /// Samples always drawn before stopping is considered (≥ 1).
    pub min_samples: u32,
}

impl SamplingPolicy for EarlyExit {
    fn spec(&self) -> PolicySpec {
        PolicySpec::EarlyExit {
            k: self.k,
            min_samples: self.min_samples,
        }
    }

    fn decide(&self, obs: &SampleObservation) -> SampleDecision {
        let budget_spent = obs.drawn >= obs.max_samples;
        let stable = obs.drawn >= self.min_samples && obs.stable >= self.k;
        if budget_spent || stable {
            SampleDecision::Stop
        } else {
            SampleDecision::Continue
        }
    }
}

/// [`EarlyExit`] with risk tiering: confident requests exit early,
/// uncertain ones are escalated to the full budget, and — with
/// `abstain` — a request still at or above the entropy threshold after
/// every sample is declined with a typed error instead of answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiskTiered {
    /// Consecutive stable signatures required to stop (≥ 1).
    pub k: u32,
    /// Samples always drawn before stopping is considered (≥ 1).
    pub min_samples: u32,
    /// Escalation threshold in thousandths of `ln(classes)`.
    pub escalate_milli: u32,
    /// Abstain at the budget when still above the threshold.
    pub abstain: bool,
}

impl RiskTiered {
    fn high_entropy(&self, obs: &SampleObservation) -> bool {
        obs.norm_entropy >= f64::from(self.escalate_milli) / 1000.0
    }
}

impl SamplingPolicy for RiskTiered {
    fn spec(&self) -> PolicySpec {
        PolicySpec::RiskTiered {
            k: self.k,
            min_samples: self.min_samples,
            escalate_milli: self.escalate_milli,
            abstain: self.abstain,
        }
    }

    fn decide(&self, obs: &SampleObservation) -> SampleDecision {
        if obs.drawn >= obs.max_samples {
            if self.abstain && self.high_entropy(obs) {
                SampleDecision::Abstain
            } else {
                SampleDecision::Stop
            }
        } else if obs.drawn >= self.min_samples && obs.stable >= self.k {
            if self.high_entropy(obs) {
                SampleDecision::Escalate
            } else {
                SampleDecision::Stop
            }
        } else {
            SampleDecision::Continue
        }
    }
}

/// Per-request decision state: folds Monte Carlo members into a running
/// mean (an f64 accumulator used **only** for stopping decisions — the
/// served result is always rebuilt through the backend's own member
/// arithmetic) and tracks the stability of the `(argmax, quantized
/// entropy)` signature.
#[derive(Debug, Clone)]
pub struct RowTracker {
    acc: Vec<f64>,
    drawn: u32,
    max_samples: u32,
    /// `1 / ln(classes)`, or 0 for degenerate single-class outputs.
    inv_max_entropy: f64,
    last_signature: Option<(usize, u32)>,
    stable: u32,
    norm_entropy: f64,
}

impl RowTracker {
    /// A fresh tracker for one request with `classes` output classes
    /// and a budget of `max_samples` draws.
    pub fn new(classes: usize, max_samples: usize) -> Self {
        let max_entropy = (classes as f64).ln();
        Self {
            acc: vec![0.0; classes],
            drawn: 0,
            max_samples: max_samples as u32,
            inv_max_entropy: if max_entropy > 0.0 {
                1.0 / max_entropy
            } else {
                0.0
            },
            last_signature: None,
            stable: 0,
            norm_entropy: 0.0,
        }
    }

    /// Folds one member probability vector (f64, one entry per class)
    /// into the running mean and returns the observation a policy
    /// decides on.
    pub fn observe(&mut self, member: &[f64]) -> SampleObservation {
        debug_assert_eq!(member.len(), self.acc.len(), "member width");
        for (a, &p) in self.acc.iter_mut().zip(member) {
            *a += p;
        }
        self.summarize()
    }

    /// Samples folded in so far.
    pub fn drawn(&self) -> u32 {
        self.drawn
    }

    /// The current running normalized entropy in thousandths, rounded —
    /// the `entropy_milli` payload of abstention errors.
    pub fn entropy_milli(&self) -> u32 {
        (self.norm_entropy.max(0.0) * 1000.0).round() as u32
    }

    fn summarize(&mut self) -> SampleObservation {
        self.drawn += 1;
        let inv_n = 1.0 / f64::from(self.drawn);
        let mut argmax = 0usize;
        let mut best = f64::NEG_INFINITY;
        let mut entropy = 0.0f64;
        for (c, &a) in self.acc.iter().enumerate() {
            let p = a * inv_n;
            if p > best {
                best = p;
                argmax = c;
            }
            if p > 0.0 {
                entropy -= p * p.ln();
            }
        }
        self.norm_entropy = entropy * self.inv_max_entropy;
        let entropy_quant = ((self.norm_entropy * f64::from(ENTROPY_QUANT_LEVELS)) as u32)
            .min(ENTROPY_QUANT_LEVELS - 1);
        let signature = (argmax, entropy_quant);
        self.stable = if self.last_signature == Some(signature) {
            self.stable + 1
        } else {
            1
        };
        self.last_signature = Some(signature);
        SampleObservation {
            drawn: self.drawn,
            max_samples: self.max_samples,
            argmax,
            norm_entropy: self.norm_entropy,
            entropy_quant,
            stable: self.stable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_and_codes() {
        assert_eq!(PolicySpec::default(), PolicySpec::ExactN);
        assert!(PolicySpec::ExactN.validate().is_ok());
        assert!(PolicySpec::EarlyExit { k: 2, min_samples: 2 }.validate().is_ok());
        assert!(PolicySpec::EarlyExit { k: 0, min_samples: 2 }.validate().is_err());
        assert!(PolicySpec::EarlyExit { k: 2, min_samples: 0 }.validate().is_err());
        assert!(PolicySpec::RiskTiered {
            k: 0,
            min_samples: 1,
            escalate_milli: 500,
            abstain: true
        }
        .validate()
        .is_err());
        assert_eq!(PolicySpec::ExactN.code(), 0);
        assert_eq!(PolicySpec::EarlyExit { k: 1, min_samples: 1 }.code(), 1);
        assert_eq!(
            PolicySpec::RiskTiered {
                k: 1,
                min_samples: 1,
                escalate_milli: 0,
                abstain: false
            }
            .code(),
            2
        );
    }

    #[test]
    fn instantiated_policies_report_their_specs() {
        for spec in [
            PolicySpec::ExactN,
            PolicySpec::EarlyExit { k: 3, min_samples: 2 },
            PolicySpec::RiskTiered {
                k: 2,
                min_samples: 2,
                escalate_milli: 700,
                abstain: true,
            },
        ] {
            assert_eq!(spec.instantiate().spec(), spec);
        }
    }

    #[test]
    fn exact_n_runs_to_the_budget() {
        let policy = ExactN;
        let mut tracker = RowTracker::new(3, 4);
        for s in 0..4u32 {
            let obs = tracker.observe(&[0.98, 0.01, 0.01]);
            let want = if s == 3 {
                SampleDecision::Stop
            } else {
                SampleDecision::Continue
            };
            assert_eq!(policy.decide(&obs), want, "sample {s}");
        }
    }

    #[test]
    fn early_exit_stops_on_a_stable_signature() {
        let policy = EarlyExit { k: 2, min_samples: 2 };
        let mut tracker = RowTracker::new(2, 8);
        assert_eq!(
            policy.decide(&tracker.observe(&[0.9, 0.1])),
            SampleDecision::Continue
        );
        let obs = tracker.observe(&[0.9, 0.1]);
        assert_eq!(obs.stable, 2);
        assert_eq!(policy.decide(&obs), SampleDecision::Stop);
    }

    #[test]
    fn early_exit_resets_stability_when_the_argmax_flips() {
        let policy = EarlyExit { k: 2, min_samples: 1 };
        let mut tracker = RowTracker::new(2, 8);
        let _ = tracker.observe(&[0.9, 0.1]);
        // The flip drags the running mean across the argmax boundary —
        // a fresh signature, so stability restarts at 1.
        let obs = tracker.observe(&[0.05, 0.95]);
        assert_eq!(obs.stable, 1);
        assert_eq!(policy.decide(&obs), SampleDecision::Continue);
    }

    #[test]
    fn min_samples_gates_the_exit() {
        let policy = EarlyExit { k: 1, min_samples: 3 };
        let mut tracker = RowTracker::new(2, 8);
        let _ = tracker.observe(&[1.0, 0.0]);
        let obs = tracker.observe(&[1.0, 0.0]);
        // Signature is already stable, but the warm-up floor holds.
        assert!(obs.stable >= 1);
        assert_eq!(policy.decide(&obs), SampleDecision::Continue);
        let obs = tracker.observe(&[1.0, 0.0]);
        assert_eq!(policy.decide(&obs), SampleDecision::Stop);
    }

    #[test]
    fn risk_tiered_escalates_and_abstains_on_high_entropy() {
        let policy = RiskTiered {
            k: 1,
            min_samples: 1,
            escalate_milli: 500,
            abstain: true,
        };
        let mut tracker = RowTracker::new(2, 3);
        // Near-uniform members: normalized entropy ~1.0 ≥ 0.5.
        let obs = tracker.observe(&[0.51, 0.49]);
        assert_eq!(policy.decide(&obs), SampleDecision::Escalate);
        let _ = tracker.observe(&[0.49, 0.51]);
        let obs = tracker.observe(&[0.5, 0.5]);
        assert_eq!(obs.drawn, 3);
        assert_eq!(policy.decide(&obs), SampleDecision::Abstain);
        assert!(tracker.entropy_milli() > 900);

        // Without the abstain flag the budgeted prediction is served.
        let serve_anyway = RiskTiered {
            abstain: false,
            ..policy
        };
        assert_eq!(serve_anyway.decide(&obs), SampleDecision::Stop);
    }

    #[test]
    fn risk_tiered_serves_confident_requests_early() {
        let policy = RiskTiered {
            k: 2,
            min_samples: 2,
            escalate_milli: 600,
            abstain: true,
        };
        let mut tracker = RowTracker::new(2, 8);
        let _ = tracker.observe(&[0.99, 0.01]);
        let obs = tracker.observe(&[0.99, 0.01]);
        assert_eq!(policy.decide(&obs), SampleDecision::Stop);
    }
}
