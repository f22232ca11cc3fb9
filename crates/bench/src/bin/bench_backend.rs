//! Machine-readable backend benchmark: writes `BENCH_backend.json`.
//!
//! Compares the three [`vibnn::backend::InferenceBackend`] implementations
//! — software float, quantized host (the default), and the cycle
//! backend (the quantized kernel priced by the accelerator's `Schedule`)
//! — on the same deployment and request stream, at
//! micro-batch sizes {1, 8, 32}. Reports requests/sec plus the hardware
//! ledger per request: cycles/request, nJ/request and nJ per simulated
//! MAC from the [`vibnn::backend::BackendCost`] the engine accumulates
//! (zero for host backends by contract). The quantized kernel that the
//! `Quantized` and `Cycle` backends share is also timed per phase at each
//! micro-batch size, best of 5: weight sampling in ns per sampled weight
//! (ε draw included) and the integer forward in ns per MAC.
//!
//! Before timing anything it asserts the determinism contract: every
//! backend must be worker-count invariant, the quantized backend must be
//! bit-identical to the historical batched path, and the cycle backend
//! bit-identical to the ticked functional model.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_backend.json` in
//! the working directory. `VIBNN_SCALE=quick` shrinks the workload.

use std::fmt::Write as _;
use std::time::Instant;

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::grng::{StreamFork, ZigguratGrng};
use vibnn::hw::CycleAccelerator;
use vibnn::nn::{GaussianInit, Matrix};
use vibnn::serve::{ServeConfig, ServeEngine};
use vibnn::{BackendKind, Vibnn, VibnnBuilder};
use vibnn_bench::RunScale;

const EPS_SEED: u64 = 0xBACE;

struct Workload {
    features: usize,
    hidden: usize,
    classes: usize,
    requests: usize,
    mc_samples: usize,
    train_epochs: usize,
}

impl Workload {
    fn from_scale(scale: RunScale) -> Self {
        match scale {
            RunScale::Quick => Self {
                features: 8,
                hidden: 16,
                classes: 2,
                requests: 64,
                mc_samples: 4,
                train_epochs: 2,
            },
            RunScale::Default => Self {
                features: 26,
                hidden: 64,
                classes: 2,
                requests: 256,
                mc_samples: 8,
                train_epochs: 6,
            },
            RunScale::Full => Self {
                features: 26,
                hidden: 128,
                classes: 2,
                requests: 1024,
                mc_samples: 8,
                train_epochs: 10,
            },
        }
    }
}

fn synth_rows(n: usize, features: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = GaussianInit::new(seed);
    let mut x = Matrix::zeros(n, features);
    let mut y = Vec::with_capacity(n);
    for r in 0..n {
        let mut s = 0.0;
        for c in 0..features {
            let v = rng.next_gaussian() as f32;
            x[(r, c)] = v;
            s += v;
        }
        y.push(usize::from(s > 0.0));
    }
    (x, y)
}

fn deploy(w: &Workload) -> Vibnn {
    let (x, y) = synth_rows(512, w.features, 3);
    let mut bnn = Bnn::new(
        BnnConfig::new(&[w.features, w.hidden, w.classes]).with_lr(0.01),
        5,
    );
    for _ in 0..w.train_epochs {
        bnn.train_epoch(&x, &y, 64);
    }
    VibnnBuilder::new(bnn.params())
        .mc_samples(w.mc_samples)
        .calibration(x.rows_slice(0, 64))
        .build()
        .expect("valid deployment")
}

fn engine(
    vibnn: Vibnn,
    backend: BackendKind,
    max_batch: usize,
    workers: usize,
) -> ServeEngine<ZigguratGrng> {
    ServeEngine::with_eps(
        vibnn,
        ServeConfig {
            max_batch,
            max_queue: 256,
            workers,
            backend: Some(backend),
            policy: None,
        },
        ZigguratGrng::new(EPS_SEED),
    )
    .expect("valid serve config")
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

fn served_bits(vibnn: Vibnn, backend: BackendKind, x: &Matrix, workers: usize) -> Vec<Vec<u32>> {
    engine(vibnn, backend, 8, workers)
        .submit_batch(x)
        .expect("serve")
        .iter()
        .map(|res| bits(&res.proba))
        .collect()
}

/// Pre-timing determinism gate: worker-count invariance for every
/// backend, quantized == historical batched path, cycle == ticked model.
fn assert_determinism(vibnn: &Vibnn, x: &Matrix) {
    for backend in [
        BackendKind::Software,
        BackendKind::Quantized,
        BackendKind::Cycle,
    ] {
        let one = served_bits(vibnn.clone(), backend, x, 1);
        let four = served_bits(vibnn.clone(), backend, x, 4);
        assert_eq!(one, four, "{backend:?} not worker-count invariant");
    }
    let quant = served_bits(vibnn.clone(), BackendKind::Quantized, x, 2);
    let reference = vibnn.predict_proba_parallel(x, &ZigguratGrng::new(EPS_SEED), 1);
    for (r, row) in quant.iter().enumerate() {
        assert_eq!(
            row,
            &bits(reference.row(r)),
            "quantized backend diverged from the batched path at row {r}"
        );
    }
    let cycle = served_bits(vibnn.clone(), BackendKind::Cycle, x, 2);
    let mut sim = CycleAccelerator::new(vibnn.config().clone(), vibnn.network().clone());
    let eps = ZigguratGrng::new(EPS_SEED);
    for (r, row) in cycle.iter().enumerate() {
        let ticked = sim.infer_forked(x.row(r), &eps).0;
        assert_eq!(
            row,
            &bits(&ticked),
            "cycle backend diverged from the ticked model at row {r}"
        );
    }
}

struct Sample {
    backend: BackendKind,
    max_batch: usize,
    rps: f64,
    cycles_per_request: f64,
    energy_nj_per_request: f64,
    energy_nj_per_mac: f64,
}

/// MACs of one forward of one row through every layer.
fn macs_per_row(vibnn: &Vibnn) -> usize {
    let sizes = vibnn.network().layer_sizes();
    sizes.windows(2).map(|w| w[0] * w[1]).sum()
}

fn measure(vibnn: Vibnn, backend: BackendKind, x: &Matrix, max_batch: usize) -> Sample {
    let macs_per_request = (macs_per_row(&vibnn) * vibnn.mc_samples()) as f64;
    let eng = engine(vibnn, backend, max_batch, 2);
    let start = Instant::now();
    let (results, cost) = eng.submit_batch_costed(x).expect("serve");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(results.len(), x.rows());
    let n = x.rows() as f64;
    Sample {
        backend,
        max_batch,
        rps: n / elapsed,
        cycles_per_request: cost.cycles as f64 / n,
        energy_nj_per_request: cost.energy_nj / n,
        energy_nj_per_mac: cost.energy_nj / n / macs_per_request,
    }
}

struct KernelPhases {
    max_batch: usize,
    sample_ns_per_weight: f64,
    forward_ns_per_mac: f64,
}

/// Times the two phases of the quantized kernel on `max_batch` rows:
/// `sample_weights_with` (ε draw included, fork construction not) and
/// `forward_with_weights`, once per MC sample from the sample's own ε
/// fork, best of 5.
fn measure_kernel(vibnn: &Vibnn, x: &Matrix, max_batch: usize) -> KernelPhases {
    let net = vibnn.network();
    let rows = x.rows_slice(0, max_batch);
    let samples = vibnn.mc_samples();
    let sizes = net.layer_sizes();
    let weights: usize = sizes.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
    let macs = macs_per_row(vibnn) * rows.rows();
    let eps = ZigguratGrng::new(EPS_SEED);
    let mut scratch = Vec::new();
    let (mut sample_s, mut forward_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let (mut ts, mut tf) = (0.0, 0.0);
        for s in 0..samples {
            let mut src = eps.fork(s as u64);
            let start = Instant::now();
            let w = net.sample_weights_with(&mut src, &mut scratch);
            ts += start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::hint::black_box(net.forward_with_weights(&rows, &w));
            tf += start.elapsed().as_secs_f64();
        }
        sample_s = sample_s.min(ts);
        forward_s = forward_s.min(tf);
    }
    KernelPhases {
        max_batch,
        sample_ns_per_weight: sample_s * 1e9 / (samples * weights) as f64,
        forward_ns_per_mac: forward_s * 1e9 / (samples * macs) as f64,
    }
}

fn main() {
    let scale = RunScale::from_env();
    let w = Workload::from_scale(scale);
    let (x, _) = synth_rows(w.requests, w.features, 17);
    let vibnn = deploy(&w);

    assert_determinism(&vibnn, &x);

    let backends = [
        BackendKind::Software,
        BackendKind::Quantized,
        BackendKind::Cycle,
    ];
    let max_batches = [1usize, 8, 32];
    let mut samples = Vec::new();
    for &backend in &backends {
        for &mb in &max_batches {
            // Warm-up pass, then measure.
            let _ = measure(vibnn.clone(), backend, &x, mb);
            let s = measure(vibnn.clone(), backend, &x, mb);
            println!(
                "{:>9?}  max_batch {mb:3}  {:10.1} req/s  {:12.1} cycles/req  {:10.2} nJ/req",
                s.backend, s.rps, s.cycles_per_request, s.energy_nj_per_request
            );
            samples.push(s);
        }
    }
    let kernel: Vec<KernelPhases> = max_batches
        .iter()
        .map(|&mb| measure_kernel(&vibnn, &x, mb))
        .collect();
    for k in &kernel {
        println!(
            "   kernel  max_batch {:3}  {:8.2} ns/weight sampled  {:8.3} ns/MAC forward",
            k.max_batch, k.sample_ns_per_weight, k.forward_ns_per_mac
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(
        json,
        "  \"arch\": [{}, {}, {}],",
        w.features, w.hidden, w.classes
    );
    let _ = writeln!(json, "  \"requests\": {},", w.requests);
    let _ = writeln!(json, "  \"mc_samples\": {},", w.mc_samples);
    let _ = writeln!(json, "  \"determinism_asserted_before_timing\": true,");
    json.push_str("  \"grid\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{:?}\", \"max_batch\": {}, \
             \"requests_per_sec\": {:.1}, \
             \"cycles_per_request\": {:.1}, \
             \"energy_nj_per_request\": {:.3}, \
             \"energy_nj_per_mac\": {:.6}}}{}",
            s.backend,
            s.max_batch,
            s.rps,
            s.cycles_per_request,
            s.energy_nj_per_request,
            s.energy_nj_per_mac,
            if i + 1 < samples.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"quantized_kernel\": [\n");
    for (i, k) in kernel.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"max_batch\": {}, \"weight_sample_ns_per_weight\": {:.2}, \
             \"forward_ns_per_mac\": {:.3}}}{}",
            k.max_batch,
            k.sample_ns_per_weight,
            k.forward_ns_per_mac,
            if i + 1 < kernel.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    let path =
        std::env::var("VIBNN_BENCH_OUT").unwrap_or_else(|_| "BENCH_backend.json".to_owned());
    std::fs::write(&path, &json).expect("write benchmark output");
    println!("wrote {path}");
}
