//! Builds a workload's deployment from its seed: generate the data, train
//! the network with Bayes-by-Backprop, quantize and calibrate it.

use std::time::Instant;

use vibnn::backend::BackendKind;
use vibnn::bnn::{Bnn, BnnConfig, StepPhaseSeconds};
use vibnn::datasets::{mnist_like_with, parkinson_original, MnistLikeSpec};
use vibnn::nn::Matrix;
use vibnn::sampler::PolicySpec;
use vibnn::{Vibnn, VibnnBuilder};

use crate::stats::{fnv, Rng};

/// Which dataset and network a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// The paper's 784-200-200-10 network on the MNIST stand-in.
    Mnist,
    /// A [26, 64, 2] network on the Parkinson (original) stand-in.
    Parkinson,
}

/// MNIST stand-in training rows: enough for real training of the paper
/// network while keeping one set-up near a second on two cores.
const MNIST_TRAIN_ROWS: usize = 2_000;
const MNIST_EPOCHS: usize = 5;
const PARKINSON_EPOCHS: usize = 6;
const BATCH: usize = 64;
const CALIBRATION_ROWS: usize = 256;
const MC_SAMPLES: usize = 8;

/// The deployment every run of a workload serves: its data, training
/// and serving ε seeds are fixed, so accuracy and the simulated cost are
/// properties of the build, not of the workload seed.
const DEPLOYMENT_SEED: u64 = 1;

/// Seeds for every generated input. The workload seed drives the request
/// stream: which rows, in what order, when, and on which lane.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub data: u64,
    pub train: u64,
    pub eps: u64,
    pub schedule: u64,
}

impl Seeds {
    pub fn from_workload_seed(seed: u64) -> Self {
        let mut rng = Rng::new(DEPLOYMENT_SEED);
        Self {
            data: rng.next_u64(),
            train: rng.next_u64(),
            eps: rng.next_u64(),
            schedule: Rng::new(seed ^ 0x5EED_BE4C).next_u64(),
        }
    }
}

/// A trained, quantized deployment plus the request pool it serves.
#[derive(Debug, Clone)]
pub struct Deployment {
    pub vibnn: Vibnn,
    /// Labelled request rows (held-out test rows of the dataset).
    pub pool_x: Matrix,
    pub pool_y: Vec<usize>,
    pub train_s: f64,
    pub phases: StepPhaseSeconds,
    pub build_s: f64,
    /// Fingerprint of the trained float parameters: set-ups at one seed
    /// must agree on it exactly.
    pub params_digest: u64,
}

pub fn deploy(
    net: Net,
    pool: usize,
    backend: BackendKind,
    policy: PolicySpec,
    seeds: Seeds,
) -> Deployment {
    let (ds, cfg, epochs) = match net {
        Net::Mnist => (
            mnist_like_with(
                MnistLikeSpec {
                    train_size: MNIST_TRAIN_ROWS,
                    test_size: pool,
                    ..MnistLikeSpec::default()
                },
                seeds.data,
            ),
            BnnConfig::paper_mnist().with_lr(0.003),
            MNIST_EPOCHS,
        ),
        Net::Parkinson => (
            parkinson_original(seeds.data),
            BnnConfig::new(&[26, 64, 2]).with_lr(0.01),
            PARKINSON_EPOCHS,
        ),
    };
    let t = Instant::now();
    let mut bnn = Bnn::new(cfg, seeds.train);
    for _ in 0..epochs {
        bnn.train_epoch(&ds.train_x, &ds.train_y, BATCH);
    }
    let train_s = t.elapsed().as_secs_f64();
    let params = bnn.params();
    let params_digest = fnv(params
        .weight_mu
        .iter()
        .chain(&params.weight_sigma)
        .flat_map(|m| m.data().iter().map(|v| v.to_bits()))
        .chain(
            params
                .bias_mu
                .iter()
                .chain(&params.bias_sigma)
                .flat_map(|b| b.iter().map(|v| v.to_bits())),
        ));
    let t = Instant::now();
    let calib = ds
        .train_x
        .rows_slice(0, CALIBRATION_ROWS.min(ds.train_x.rows()));
    let vibnn = VibnnBuilder::new(params)
        .mc_samples(MC_SAMPLES)
        .backend(backend)
        .sampling_policy(policy)
        .calibration(calib)
        .build()
        .expect("the benchmark's deployments are valid");
    let build_s = t.elapsed().as_secs_f64();
    let rows = pool.min(ds.test_x.rows());
    Deployment {
        vibnn,
        pool_x: ds.test_x.rows_slice(0, rows),
        pool_y: ds.test_y[..rows].to_vec(),
        train_s,
        phases: bnn.phase_seconds(),
        build_s,
        params_digest,
    }
}
