//! `mnist_offline` and `cycle_hil`: one caller submits batches of the
//! paper's MNIST network straight into a `ServeEngine`. No queue, no
//! socket: the kernel (or, for `cycle_hil`, the ticked simulator) does
//! nearly all the work.

use std::time::Instant;

use vibnn::backend::BackendKind;
use vibnn::cluster::ClusterConfig;
use vibnn::grng::{RlfGrng, StreamFork, ZigguratGrng};
use vibnn::hw::{CycleAccelerator, Schedule};
use vibnn::nn::Matrix;
use vibnn::sampler::PolicySpec;
use vibnn::serve::{ServeConfig, ServeEngine, ServeResult};

use crate::common::{accuracy, end_to_end, per_layer, set_up, LayerSources, Phase, SimCost};
use crate::deploy::{deploy, Deployment, Net, Seeds};
use crate::layers::{cluster_and_wire_probes, walk};
use crate::stats::{peak_rss_mb, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Set-ups per untraced run (each trains the paper network).
const SETUPS_MNIST: usize = 3;

/// One offline workload: closed-loop callers, each with its own engine.
#[derive(Debug, Clone, Copy)]
pub struct OfflineSpec {
    pub backend: BackendKind,
    /// Concurrent callers, each submitting to its own `ServeEngine`.
    pub callers: usize,
    /// Labelled request rows; the gate serves and checks all of them.
    pub pool: usize,
    /// Rows per `submit_batch_costed` call.
    pub call_rows: usize,
    /// Worker threads of each caller's engine.
    pub workers: usize,
    /// Rows replayed by the traced layer walk, and its chunk size.
    pub walk_rows: usize,
    pub walk_chunk: usize,
    /// Rows run through the ticked simulator in the walk.
    pub sim_rows: usize,
    /// Requests in each closed-loop cluster and wire probe.
    pub probe_requests: usize,
}

/// The paper's network through the quantized host kernel, ε from the
/// software Ziggurat.
pub const MNIST_OFFLINE: OfflineSpec = OfflineSpec {
    backend: BackendKind::Quantized,
    callers: 1,
    pool: 256,
    call_rows: 32,
    workers: 2,
    walk_rows: 64,
    walk_chunk: 32,
    sim_rows: 2,
    probe_requests: 16,
};

/// The same deployment served through the ticked accelerator model with
/// the paper's RLF-GRNG as the ε source. The simulator runs one row at a
/// time on one thread, so two callers, each with its own one-worker
/// engine, keep both cores busy. With one caller the figure depends on
/// which core the scheduler picked, and on a shared host the two can
/// differ by a third. With two workers per engine, four simulator threads
/// share two cores and each call waits for its slower row.
pub const CYCLE_HIL: OfflineSpec = OfflineSpec {
    backend: BackendKind::Cycle,
    callers: 2,
    pool: 32,
    call_rows: 2,
    workers: 1,
    walk_rows: 8,
    walk_chunk: 1,
    sim_rows: 4,
    probe_requests: 8,
};

const MAX_BATCH: usize = 32;

pub fn run(args: &Args, spec: OfflineSpec) -> Report {
    match spec.backend {
        BackendKind::Cycle => run_with(args, spec, RlfGrng::from_seed),
        _ => run_with(args, spec, ZigguratGrng::new),
    }
}

/// Two answers agree when every served field matches bit for bit (ids
/// differ by construction).
pub fn same_answer(a: &ServeResult, b: &ServeResult) -> bool {
    a.argmax == b.argmax
        && a.samples_used == b.samples_used
        && a.entropy.to_bits() == b.entropy.to_bits()
        && a.mc_std.to_bits() == b.mc_std.to_bits()
        && a.proba.len() == b.proba.len()
        && a.proba
            .iter()
            .zip(&b.proba)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn run_with<S, F>(args: &Args, spec: OfflineSpec, make_eps: F) -> Report
where
    S: StreamFork + Sync + Send + Clone + 'static,
    F: Fn(u64) -> S,
{
    let mut r = Report::default();
    let seeds = Seeds::from_workload_seed(args.seed);
    let start = || {
        let dep = deploy(
            Net::Mnist,
            spec.pool,
            spec.backend,
            PolicySpec::ExactN,
            seeds,
        );
        let engines = (0..spec.callers)
            .map(|_| {
                ServeEngine::with_eps(
                    dep.vibnn.clone(),
                    ServeConfig {
                        max_batch: MAX_BATCH,
                        max_queue: 1024,
                        workers: spec.workers,
                        backend: Some(spec.backend),
                        policy: Some(PolicySpec::ExactN),
                    },
                    make_eps(seeds.eps),
                )
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((dep, engines))
    };
    let digest = |(dep, _): &(Deployment, _)| dep.params_digest;
    let Some((mut setup_s, (dep, engines))) =
        set_up(&mut r, args, SETUPS_MNIST, start, digest, drop)
    else {
        return r;
    };

    // Correctness gate: every pool row served, checked against the
    // reference path under the same ε.
    let eps = make_eps(seeds.eps);
    let (expected, cost) = match engines[0].submit_batch_costed(&dep.pool_x) {
        Ok(v) => v,
        Err(e) => {
            r.problems.push(format!("gate batch failed: {e}"));
            return r;
        }
    };
    let n = dep.pool_x.rows();
    let schedule = Schedule::new(dep.vibnn.config(), &dep.vibnn.network().layer_sizes());
    let sim = match spec.backend {
        BackendKind::Cycle => {
            let mut oracle =
                CycleAccelerator::new(dep.vibnn.config().clone(), dep.vibnn.network().clone());
            for (row, got) in expected.iter().enumerate() {
                let (proba, _, _) = oracle.infer_forked(dep.pool_x.row(row), &eps);
                r.check(bits_equal(&proba, &got.proba), || {
                    format!("row {row}: served bits differ from CycleAccelerator::infer_forked")
                });
            }
            let per_image = schedule.cycles_per_image();
            r.check(cost.cycles == n as u64 * per_image, || {
                format!(
                    "served {} cycles for {n} images, closed-form schedule says {per_image} each",
                    cost.cycles
                )
            });
            let sim = SimCost {
                images: n as u64,
                cycles: cost.cycles,
                energy_nj: cost.energy_nj,
                clock_mhz: dep.vibnn.config().clock_mhz,
            };
            let modelled = dep.vibnn.images_per_second();
            let served = dep.vibnn.config().clock_mhz * 1e6 / (cost.cycles / n as u64) as f64;
            r.check(served == modelled, || {
                format!("served {served} img/s, Vibnn::images_per_second says {modelled}")
            });
            sim
        }
        _ => {
            let reference = dep
                .vibnn
                .predict_proba_parallel(&dep.pool_x, &eps, spec.workers);
            for (row, got) in expected.iter().enumerate() {
                r.check(bits_equal(reference.row(row), &got.proba), || {
                    format!("row {row}: served bits differ from Vibnn::predict_proba_parallel")
                });
            }
            SimCost::from_samples(&dep.vibnn, n as u64, cost.samples)
        }
    };
    let acc = accuracy(expected.iter().map(|e| e.argmax), &dep.pool_y);
    if !r.problems.is_empty() {
        return r;
    }

    let mut rng = Rng::new(seeds.schedule);
    let order = rng.permutation(n);
    let cycles_per_image =
        (spec.backend == BackendKind::Cycle).then(|| schedule.cycles_per_image());
    // Each caller walks the same seeded order from its own offset.
    let mut positions: Vec<usize> = (0..spec.callers).map(|c| c * n / spec.callers).collect();
    let mut drive = |secs: f64, r: &mut Report| {
        let start = Instant::now();
        let per_caller: Vec<Calls> = std::thread::scope(|scope| {
            let handles: Vec<_> = engines
                .iter()
                .zip(positions.iter_mut())
                .map(|(engine, pos)| {
                    let (pool, expected, order) = (&dep.pool_x, &expected, &order);
                    scope.spawn(move || {
                        run_loop(
                            engine,
                            pool,
                            expected,
                            order,
                            pos,
                            spec.call_rows,
                            start,
                            secs,
                            cycles_per_image,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        let mut phase = Phase::default();
        let mut calls = Vec::new();
        for (p, problems, c) in per_caller {
            phase.merge(p);
            r.problems.extend(problems);
            calls.extend(c);
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        (phase, calls)
    };
    // Warm-up: one call per caller, not timed.
    drive(0.0, &mut r);

    if !args.trace {
        let (mut phase, _) = drive(args.seconds, &mut r);
        end_to_end(
            &mut r,
            &mut setup_s,
            &mut phase,
            acc,
            n as u64,
            sim,
            peak_rss_mb(),
        );
        return r;
    }

    let mut tr = Tracer::new(Instant::now());
    let (untraced, _) = drive(args.seconds / 2.0, &mut r);
    let (traced, calls) = drive(args.seconds / 2.0, &mut r);
    for (i, (t0, t1)) in calls.into_iter().enumerate() {
        tr.record("serve.call", t0, t1, None, i as u64);
    }
    let overhead = traced.throughput() / untraced.throughput().max(1e-9);
    r.attempted = untraced.attempted + traced.attempted;
    r.failed = untraced.failed + traced.failed;
    let rows = dep.pool_x.rows_slice(0, spec.walk_rows.min(n));
    let counts = match walk(
        &dep.vibnn,
        spec.backend,
        PolicySpec::ExactN,
        &eps,
        &rows,
        spec.walk_chunk,
        spec.workers,
        spec.sim_rows,
        &mut tr,
    ) {
        Ok(c) => c,
        Err(e) => {
            r.problems.push(e);
            return r;
        }
    };
    let cfg = ClusterConfig {
        replicas: 2,
        max_batch: MAX_BATCH,
        workers: 1,
        backend: Some(spec.backend),
        policy: Some(PolicySpec::ExactN),
        ..ClusterConfig::default()
    };
    let Some((cluster, wire)) = cluster_and_wire_probes(
        &dep.vibnn,
        cfg,
        &eps,
        &rows,
        spec.probe_requests,
        &mut tr,
        &mut r,
    ) else {
        return r;
    };
    let src = LayerSources {
        cluster: &cluster,
        cluster_probe: &cluster,
        wire: &wire,
    };
    per_layer(&mut r, counts, &tr, src, &dep, overhead, false);
    r.tracer = Some(tr);
    r
}

/// One caller's phase, the problems it saw, and each call's start and end.
type Calls = (Phase, Vec<String>, Vec<(Instant, Instant)>);

/// One caller's closed loop until `secs` after `start` (at least one
/// call). Every answer must equal the gate's answer for its row.
#[allow(clippy::too_many_arguments)]
fn run_loop<S: StreamFork + Sync>(
    engine: &ServeEngine<S>,
    pool: &Matrix,
    expected: &[ServeResult],
    order: &[usize],
    pos: &mut usize,
    call_rows: usize,
    start: Instant,
    secs: f64,
    cycles_per_image: Option<u64>,
) -> Calls {
    let mut phase = Phase::default();
    let mut problems = Vec::new();
    let mut calls = Vec::new();
    let mut x = Matrix::zeros(call_rows, pool.cols());
    let mut idx = vec![0usize; call_rows];
    loop {
        for (i, slot) in idx.iter_mut().enumerate() {
            *slot = order[(*pos + i) % order.len()];
            x.row_mut(i).copy_from_slice(pool.row(*slot));
        }
        *pos += call_rows;
        let t0 = Instant::now();
        let out = engine.submit_batch_costed(&x);
        let t1 = Instant::now();
        calls.push((t0, t1));
        phase.attempted += call_rows as u64;
        let at = (t1 - start).as_secs_f64();
        let latency = (t1 - t0).as_secs_f64() * 1e6;
        match out {
            Ok((results, cost)) => {
                for (res, &i) in results.iter().zip(&idx) {
                    if !same_answer(res, &expected[i]) {
                        problems.push(format!("pool row {i}: served answer changed between calls"));
                    }
                }
                if let Some(per_image) = cycles_per_image {
                    if cost.cycles != per_image * call_rows as u64 {
                        problems.push(format!(
                            "call charged {} cycles for {call_rows} images",
                            cost.cycles
                        ));
                    }
                }
                phase.served(at, latency, call_rows as u64);
            }
            Err(e) => {
                phase.refused(at, latency, call_rows as u64);
                problems.push(format!("offline call failed: {e}"));
            }
        }
        if start.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
    (phase, problems, calls)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
