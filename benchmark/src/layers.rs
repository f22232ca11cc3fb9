//! The traced layer walk: replays a workload's own request rows through
//! each layer's public calls, one span per call.
//!
//! - `kernel` re-does the backend's work one public call at a time:
//!   `grng` (the ε the sample draws, filled layer by layer into a
//!   scratch buffer from the same fork), `hw.quantized.sample`
//!   (`QuantizedBnn::sample_weights_with`, ε generation included),
//!   `hw.quantized.forward` (`forward_with_weights`) and `softmax`.
//! - `backend` is `InferenceBackend::serve_microbatch` (or
//!   `serve_adaptive` under an adaptive policy) on the same chunk.
//! - `serve` is `ServeEngine::submit_batch_outcomes_costed` on the same
//!   chunk.
//! - `hw.sim` is `CycleAccelerator::infer_forked`, one row per span.
//! - `ingest.codec` runs one request and its reply through
//!   `encode_*`/`decode_*`.
//!
//! The probes drive the cluster and the wire with two closed-loop callers
//! on the workload's deployment, for the layers a workload's own loop
//! does not cross.

use std::time::Instant;

use vibnn::backend::{BackendKind, RowOutcome};
use vibnn::cluster::{ClusterConfig, ClusterEngine, Priority, SubmitOptions};
use vibnn::grng::StreamFork;
use vibnn::hw::CycleAccelerator;
use vibnn::ingest::{decode_reply, decode_request, encode_reply, encode_request, Reply, Request};
use vibnn::nn::{softmax_rows, Matrix};
use vibnn::sampler::PolicySpec;
use vibnn::serve::{ServeConfig, ServeEngine, ServeResult};
use vibnn::{IngestClient, IngestConfig, IngestServer, Vibnn, VibnnError};

use crate::trace::Tracer;
use crate::Report;

/// Exact work counts of one walk; they depend only on the deployment,
/// the rows and the chunking, so they must repeat exactly at one seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkCounts {
    pub eps_drawn: u64,
    pub weights_sampled: u64,
    pub macs: u64,
    pub bytes_moved: u64,
    pub microbatches: u64,
    pub rows: u64,
    pub samples_used: u64,
    pub full_budget_rows: u64,
    pub sim_cycles: u64,
    pub codec_bytes: u64,
    pub codec_requests: u64,
}

/// Lane for request `i` of a stream: every third is interactive.
pub fn lane(i: u64) -> Priority {
    if i.is_multiple_of(3) {
        Priority::Interactive
    } else {
        Priority::Batch
    }
}

/// Runs the walk over `x` in chunks of `chunk` rows. Returns the exact
/// counts, or a description of the first disagreement between the
/// backend and the engine on a chunk.
#[allow(clippy::too_many_arguments)]
pub fn walk<S: StreamFork + Sync + Send + Clone + 'static>(
    vibnn: &Vibnn,
    kind: BackendKind,
    policy: PolicySpec,
    eps: &S,
    x: &Matrix,
    chunk: usize,
    workers: usize,
    sim_rows: usize,
    tr: &mut Tracer,
) -> Result<WalkCounts, String> {
    let net = vibnn.network();
    let sizes = net.layer_sizes();
    let max_samples = vibnn.mc_samples();
    let mut backend = kind.instantiate::<S>(vibnn);
    let policy_exec = policy.instantiate();
    let engine = ServeEngine::with_eps(
        vibnn.clone(),
        ServeConfig {
            max_batch: chunk,
            max_queue: chunk.max(1),
            workers,
            backend: Some(kind),
            policy: Some(policy),
        },
        eps.clone(),
    )
    .map_err(|e| e.to_string())?;
    let mut c = WalkCounts::default();
    let mut replies: Vec<ServeResult> = Vec::with_capacity(x.rows());
    let mut eps_scratch: Vec<f64> = Vec::new();
    let mut fill_scratch: Vec<f64> = Vec::new();
    let mut start = 0;
    let mut chunk_id = 0u64;
    while start < x.rows() {
        let end = (start + chunk).min(x.rows());
        let rows = x.rows_slice(start, end);
        let root = tr.open("walk.chunk", None, chunk_id);

        let sp = tr.open("backend", Some(root), chunk_id);
        let outcomes: Vec<RowOutcome> = if policy == PolicySpec::ExactN {
            let (res, _) = backend.serve_microbatch(&rows, max_samples, eps, workers);
            res.into_iter().map(RowOutcome::Served).collect()
        } else {
            backend
                .serve_adaptive(&rows, policy_exec.as_ref(), max_samples, eps, workers)
                .0
        };
        tr.close(sp);

        let sp = tr.open("serve", Some(root), chunk_id);
        let (served, _) = engine
            .submit_batch_outcomes_costed(&rows)
            .map_err(|e| e.to_string())?;
        tr.close(sp);
        for (a, b) in outcomes.iter().zip(&served) {
            if a != b {
                return Err(format!(
                    "chunk {chunk_id}: backend and engine disagree ({a:?} vs {b:?})"
                ));
            }
        }

        for o in &served {
            match o {
                RowOutcome::Served(r) => replies.push(r.clone()),
                RowOutcome::Abstained { .. } => {
                    return Err(format!("chunk {chunk_id}: unexpected abstention"))
                }
            }
        }
        let used: Vec<usize> = outcomes.iter().map(|o| o.samples_used() as usize).collect();
        let steps = used.iter().copied().max().unwrap_or(0);
        let k = tr.open("kernel", Some(root), chunk_id);
        let mut active = Matrix::zeros(0, 0);
        for s in 0..steps {
            let live: Vec<usize> = (0..rows.rows()).filter(|&r| used[r] > s).collect();
            let input = if live.len() == rows.rows() {
                &rows
            } else {
                active.resize(live.len(), rows.cols());
                for (i, &r) in live.iter().enumerate() {
                    active.row_mut(i).copy_from_slice(rows.row(r));
                }
                &active
            };
            let sp = tr.open("grng", Some(k), chunk_id);
            let mut src = eps.fork(s as u64);
            for w in sizes.windows(2) {
                for n in [w[0] * w[1], w[1]] {
                    fill_scratch.resize(n, 0.0);
                    src.fill(&mut fill_scratch);
                }
            }
            tr.close(sp);
            let sp = tr.open("hw.quantized.sample", Some(k), chunk_id);
            let weights = net.sample_weights_with(&mut eps.fork(s as u64), &mut eps_scratch);
            tr.close(sp);
            let sp = tr.open("hw.quantized.forward", Some(k), chunk_id);
            let mut probs = net.forward_with_weights(input, &weights);
            tr.close(sp);
            let sp = tr.open("softmax", Some(k), chunk_id);
            softmax_rows(&mut probs);
            tr.close(sp);
            std::hint::black_box(&probs);
            let n = input.rows() as u64;
            for w in sizes.windows(2) {
                let (i, o) = (w[0] as u64, w[1] as u64);
                c.eps_drawn += i * o + o;
                c.macs += n * i * o;
                // Computed from tensor sizes: the i32 weight table and
                // bias read once, input and output activations once per row.
                c.bytes_moved += 4 * (i * o + o + n * (i + o));
            }
        }
        tr.close(k);
        tr.close(root);
        c.microbatches += 1;
        c.rows += rows.rows() as u64;
        c.samples_used += used.iter().map(|&u| u as u64).sum::<u64>();
        c.full_budget_rows += used.iter().filter(|&&u| u == max_samples).count() as u64;
        start = end;
        chunk_id += 1;
    }
    c.weights_sampled = c.eps_drawn;

    let mut sim = CycleAccelerator::new(vibnn.config().clone(), net.clone());
    for r in 0..sim_rows.min(x.rows()) {
        let sp = tr.open("hw.sim", None, r as u64);
        let (_, _, cost) = sim.infer_forked(x.row(r), eps);
        tr.close(sp);
        c.sim_cycles += cost.cycles;
    }

    for (r, served) in replies.into_iter().enumerate() {
        let sp = tr.open("ingest.codec", None, r as u64);
        let request = Request::Predict {
            tag: r as u64 + 1,
            priority: lane(r as u64),
            deadline_micros: 0,
            features: x.row(r).to_vec(),
        };
        let req_bytes = encode_request(&request);
        let decoded = decode_request(&req_bytes).map_err(|e| e.to_string())?;
        let reply = Reply::Predict {
            tag: decoded.tag(),
            result: served,
        };
        let rep_bytes = encode_reply(&reply);
        let back = decode_reply(&rep_bytes).map_err(|e| e.to_string())?;
        tr.close(sp);
        if back != reply || decoded != request {
            return Err(format!("codec round trip changed request {r}"));
        }
        // Each message travels in a frame with a 4-byte length prefix.
        c.codec_bytes += (req_bytes.len() + rep_bytes.len() + 8) as u64;
        c.codec_requests += 1;
    }
    Ok(c)
}

/// Latencies and admission times from a closed-loop probe.
#[derive(Debug, Default)]
pub struct Probe {
    pub admit_us: Vec<f64>,
    pub residence_us: Vec<f64>,
    pub roundtrip_us: Vec<f64>,
    pub failed: u64,
    pub mean_microbatch: f64,
    pub spill_share: f64,
    pub deadline_expired: u64,
    pub rejected: u64,
    pub protocol_errors: u64,
}

/// Mean micro-batch size from a replica batch histogram summed over
/// replicas (bucket `i` counts batches of `i + 1` rows).
pub fn mean_microbatch(hists: &[Vec<u64>]) -> f64 {
    let (mut batches, mut rows) = (0u64, 0u64);
    for h in hists {
        for (i, &n) in h.iter().enumerate() {
            batches += n;
            rows += n * (i as u64 + 1);
        }
    }
    rows as f64 / batches.max(1) as f64
}

/// Two in-process callers, each submitting one row and waiting for it
/// before the next, `requests` in total, against a fresh cluster.
pub fn cluster_probe<S: StreamFork + Sync + Send + Clone + 'static>(
    vibnn: &Vibnn,
    cfg: ClusterConfig,
    eps: &S,
    x: &Matrix,
    requests: usize,
    tr: &mut Tracer,
) -> Result<Probe, VibnnError> {
    let cluster = ClusterEngine::with_eps(vibnn.clone(), cfg, eps.clone())?;
    // Per caller: (submitted, accepted, answered, request) and failures.
    type Calls = (Vec<(Instant, Instant, Instant, u64)>, u64);
    let per_caller: Vec<Calls> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|caller| {
                let cluster = &cluster;
                scope.spawn(move || {
                    let mut spans = Vec::new();
                    let mut failed = 0u64;
                    let mut i = caller;
                    while (i as usize) < requests {
                        let row = x.row(i as usize % x.rows()).to_vec();
                        let t0 = Instant::now();
                        let opts = SubmitOptions {
                            priority: lane(i),
                            deadline: None,
                        };
                        match cluster.submit_with(row, opts) {
                            Ok(id) => {
                                let t1 = Instant::now();
                                let ok = cluster.wait(id).is_ok();
                                spans.push((t0, t1, Instant::now(), i));
                                failed += u64::from(!ok);
                            }
                            Err(_) => failed += 1,
                        }
                        i += 2;
                    }
                    (spans, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe caller panicked"))
            .collect()
    });
    let mut probe = Probe::default();
    for (spans, failed) in per_caller {
        probe.failed += failed;
        for (t0, t1, t2, i) in spans {
            let root = tr.record("probe.request", t0, t2, None, i);
            tr.record("cluster.admit", t0, t1, Some(root), i);
            tr.record("cluster.residence", t1, t2, Some(root), i);
            probe.admit_us.push((t1 - t0).as_secs_f64() * 1e6);
            probe.residence_us.push((t2 - t1).as_secs_f64() * 1e6);
        }
    }
    let m = cluster.metrics();
    probe.mean_microbatch = mean_microbatch(
        &m.replicas
            .iter()
            .map(|r| r.batch_histogram.clone())
            .collect::<Vec<_>>(),
    );
    probe.spill_share = m.spilled as f64 / m.submitted.max(1) as f64;
    probe.deadline_expired = m.deadline_expired;
    probe.rejected = m.rejected;
    cluster.shutdown();
    Ok(probe)
}

/// Runs [`cluster_probe`] and then [`wire_probe`] with the same rows and
/// request count, recording a problem unless both serve every request
/// without a protocol error.
pub fn cluster_and_wire_probes<S: StreamFork + Sync + Send + Clone + 'static>(
    vibnn: &Vibnn,
    cfg: ClusterConfig,
    eps: &S,
    x: &Matrix,
    requests: usize,
    tr: &mut Tracer,
    r: &mut Report,
) -> Option<(Probe, Probe)> {
    let probes = cluster_probe(vibnn, cfg, eps, x, requests, tr)
        .and_then(|c| Ok((c, wire_probe(vibnn, cfg, eps, x, requests, tr)?)));
    match probes {
        Ok((cluster, wire)) => {
            r.check(cluster.failed == 0 && wire.failed == 0, || {
                "probe requests failed".into()
            });
            r.check(wire.protocol_errors == 0, || {
                "protocol errors on the wire probe".into()
            });
            Some((cluster, wire))
        }
        Err(e) => {
            r.problems.push(format!("probe failed: {e}"));
            None
        }
    }
}

/// Two closed-loop TCP connections to a fresh server over a fresh
/// cluster, `requests` single-row `Predict` frames in total.
pub fn wire_probe<S: StreamFork + Sync + Send + Clone + 'static>(
    vibnn: &Vibnn,
    cfg: ClusterConfig,
    eps: &S,
    x: &Matrix,
    requests: usize,
    tr: &mut Tracer,
) -> Result<Probe, VibnnError> {
    let cluster = ClusterEngine::with_eps(vibnn.clone(), cfg, eps.clone())?;
    let server = IngestServer::bind(cluster, "127.0.0.1:0", IngestConfig::default())?;
    let addr = server.local_addr();
    // Per connection: (sent, answered, request) and failures.
    type Calls = (Vec<(Instant, Instant, u64)>, u64);
    let per_conn: Vec<Result<Calls, VibnnError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = IngestClient::connect(addr)?;
                    let mut spans = Vec::new();
                    let mut failed = 0u64;
                    let mut i = conn;
                    while (i as usize) < requests {
                        let row = x.row(i as usize % x.rows());
                        let t0 = Instant::now();
                        let ok = client.predict_with(row, lane(i), 0).is_ok();
                        spans.push((t0, Instant::now(), i));
                        failed += u64::from(!ok);
                        i += 2;
                    }
                    Ok((spans, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe connection panicked"))
            .collect()
    });
    let mut probe = Probe::default();
    for r in per_conn {
        let (spans, failed) = r?;
        probe.failed += failed;
        for (t0, t1, i) in spans {
            tr.record("ingest.roundtrip", t0, t1, None, i);
            probe.roundtrip_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
    }
    probe.protocol_errors = server.metrics().protocol_errors;
    server.shutdown().shutdown();
    Ok(probe)
}
