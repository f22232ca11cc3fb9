//! `wire_closed`: two closed-loop `IngestClient` connections over
//! loopback to an `IngestServer` in front of a 2-replica cluster serving
//! the [26, 64, 2] network under `ExactN`. Every request is one `Predict`
//! frame, lanes mixed. Per-request fixed costs dominate: codec,
//! connection thread and cluster hand-off.

use std::time::{Duration, Instant};

use vibnn::backend::BackendKind;
use vibnn::cluster::{ClusterEngine, SubmitOptions};
use vibnn::grng::ZigguratGrng;
use vibnn::ingest::IngestMetrics;
use vibnn::nn::Matrix;
use vibnn::sampler::PolicySpec;
use vibnn::serve::ServeResult;
use vibnn::{IngestClient, IngestConfig, IngestServer, VibnnError};

use crate::common::{accuracy, end_to_end, per_layer, set_up, LayerSources, Phase, SimCost};
use crate::deploy::{deploy, Deployment, Net, Seeds};
use crate::layers::{cluster_probe, lane, walk, Probe};
use crate::offline::same_answer;
use crate::open_loop::{cluster_config, SETUPS_SMALL};
use crate::stats::{peak_rss_mb, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};

const POOL: usize = 208;
const CONNECTIONS: u64 = 2;
const PROBE_REQUESTS: usize = 4_000;

struct Live {
    dep: Deployment,
    server: IngestServer,
    clients: Vec<IngestClient>,
}

fn start(seeds: Seeds) -> Result<Live, VibnnError> {
    let dep = deploy(
        Net::Parkinson,
        POOL,
        BackendKind::Quantized,
        PolicySpec::ExactN,
        seeds,
    );
    let cluster = ClusterEngine::with_eps(
        dep.vibnn.clone(),
        cluster_config(PolicySpec::ExactN),
        ZigguratGrng::new(seeds.eps),
    )?;
    let server = IngestServer::bind(cluster, "127.0.0.1:0", IngestConfig::default())?;
    let clients = (0..CONNECTIONS)
        .map(|_| IngestClient::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Live {
        dep,
        server,
        clients,
    })
}

fn stop(live: Live) {
    drop(live.clients);
    live.server.shutdown().shutdown();
}

/// Closed loop on every connection for `secs`.
fn closed_loop(
    clients: &mut [IngestClient],
    pool: &Matrix,
    expected: &[ServeResult],
    secs: f64,
    seeds: &mut Rng,
    traced: bool,
) -> (Phase, Vec<String>, Vec<(Instant, Instant, u64)>) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let per_conn: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let mut rng = Rng::new(seeds.next_u64());
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut problems = Vec::new();
                    let mut spans = Vec::new();
                    let mut seq = conn as u64;
                    while Instant::now() < end {
                        let row = rng.below(pool.rows());
                        let t0 = Instant::now();
                        let res = client.predict_with(pool.row(row), lane(seq), 0);
                        let t1 = Instant::now();
                        phase.attempted += 1;
                        match res {
                            Ok(got) if same_answer(&got, &expected[row]) => {
                                let at = (t1 - start).as_secs_f64();
                                phase.served(at, (t1 - t0).as_secs_f64() * 1e6, 1);
                            }
                            Ok(_) => {
                                phase.refused(
                                    (t1 - start).as_secs_f64(),
                                    (t1 - t0).as_secs_f64() * 1e6,
                                    1,
                                );
                                problems.push(format!("pool row {row}: wire answer differs"));
                            }
                            Err(e) => {
                                phase.refused(
                                    (t1 - start).as_secs_f64(),
                                    (t1 - t0).as_secs_f64() * 1e6,
                                    1,
                                );
                                problems.push(format!("request failed: {e}"));
                            }
                        }
                        if traced {
                            spans.push((t0, t1, seq));
                        }
                        seq += CONNECTIONS;
                    }
                    (phase, problems, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let mut problems = Vec::new();
    let mut spans = Vec::new();
    for (p, pr, sp) in per_conn {
        phase.merge(p);
        problems.extend(pr);
        spans.extend(sp);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    (phase, problems, spans)
}

/// Books: every request sent was decoded, and served or refused; the
/// server saw no protocol errors.
fn check_books(r: &mut Report, p: &Phase, before: &IngestMetrics, after: &IngestMetrics) {
    r.check(p.attempted == p.ok + p.failed, || {
        format!("books do not close: {p:?}")
    });
    r.check(
        after.requests_decoded - before.requests_decoded == p.attempted,
        || "server decoded a different number of requests than were sent".into(),
    );
    r.check(after.served - before.served == p.ok, || {
        "cluster served count disagrees with replies received".into()
    });
    r.check(after.protocol_errors == 0, || {
        format!("{} protocol errors", after.protocol_errors)
    });
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let seeds = Seeds::from_workload_seed(args.seed);
    let begin = || start(seeds).map_err(|e| format!("could not start the server: {e}"));
    let digest = |live: &Live| live.dep.params_digest;
    let Some((mut setup_s, mut live)) = set_up(&mut r, args, SETUPS_SMALL, begin, digest, stop)
    else {
        return r;
    };

    // Gate: every pool row over the wire equals a direct submit to an
    // identically seeded cluster.
    let n = live.dep.pool_x.rows();
    let reference = ClusterEngine::with_eps(
        live.dep.vibnn.clone(),
        cluster_config(PolicySpec::ExactN),
        ZigguratGrng::new(seeds.eps),
    )
    .expect("valid cluster config");
    let mut expected = Vec::with_capacity(n);
    for i in 0..n {
        let row = live.dep.pool_x.row(i);
        let wire = live.clients[0].predict_with(row, lane(i as u64), 0);
        let direct = reference
            .submit_with(
                row.to_vec(),
                SubmitOptions {
                    priority: lane(i as u64),
                    deadline: None,
                },
            )
            .and_then(|id| reference.wait(id));
        match (wire, direct) {
            (Ok(w), Ok(d)) if same_answer(&w, &d) => expected.push(w),
            (w, d) => {
                r.problems
                    .push(format!("row {i}: wire {w:?} vs direct {d:?}"));
                stop(live);
                return r;
            }
        }
    }
    let cost = reference.metrics().cost;
    reference.shutdown();
    let gate_metrics = live.server.metrics();
    r.check(gate_metrics.protocol_errors == 0, || {
        "protocol errors in the gate".into()
    });
    let acc = accuracy(expected.iter().map(|e| e.argmax), &live.dep.pool_y);
    let sim = SimCost::from_samples(&live.dep.vibnn, n as u64, cost.samples);

    let mut rng = Rng::new(seeds.schedule);
    let pool = live.dep.pool_x.clone();
    closed_loop(&mut live.clients, &pool, &expected, 0.5, &mut rng, false);

    if !args.trace {
        let before = live.server.metrics();
        let (mut phase, problems, _) = closed_loop(
            &mut live.clients,
            &pool,
            &expected,
            args.seconds,
            &mut rng,
            false,
        );
        check_books(&mut r, &phase, &before, &live.server.metrics());
        r.problems.extend(problems);
        end_to_end(
            &mut r,
            &mut setup_s,
            &mut phase,
            acc,
            n as u64,
            sim,
            peak_rss_mb(),
        );
        stop(live);
        return r;
    }

    let mut tr = Tracer::new(Instant::now());
    let (u, pu, _) = closed_loop(
        &mut live.clients,
        &pool,
        &expected,
        args.seconds / 2.0,
        &mut rng,
        false,
    );
    let before = live.server.metrics();
    let (t, pt, spans) = closed_loop(
        &mut live.clients,
        &pool,
        &expected,
        args.seconds / 2.0,
        &mut rng,
        true,
    );
    let after = live.server.metrics();
    check_books(&mut r, &t, &before, &after);
    r.problems.extend(pu);
    r.problems.extend(pt);
    let overhead = t.throughput() / u.throughput().max(1e-9);
    r.attempted = u.attempted + t.attempted;
    r.failed = u.failed + t.failed;
    let mut own = Probe {
        protocol_errors: after.protocol_errors,
        ..Probe::default()
    };
    for (t0, t1, seq) in spans {
        tr.record("ingest.roundtrip", t0, t1, None, seq);
        own.roundtrip_us.push((t1 - t0).as_secs_f64() * 1e6);
    }
    let dep = live.dep.clone();
    stop(live);

    let eps = ZigguratGrng::new(seeds.eps);
    let replica_eps = vibnn::bnn::replica_source(&eps);
    let counts = match walk(
        &dep.vibnn,
        BackendKind::Quantized,
        PolicySpec::ExactN,
        &replica_eps,
        &dep.pool_x,
        1,
        1,
        n,
        &mut tr,
    ) {
        Ok(c) => c,
        Err(e) => {
            r.problems.push(e);
            return r;
        }
    };
    let probe = match cluster_probe(
        &dep.vibnn,
        cluster_config(PolicySpec::ExactN),
        &eps,
        &dep.pool_x,
        PROBE_REQUESTS,
        &mut tr,
    ) {
        Ok(p) => p,
        Err(e) => {
            r.problems.push(format!("cluster probe failed: {e}"));
            return r;
        }
    };
    r.check(probe.failed == 0, || "cluster probe requests failed".into());
    let src = LayerSources {
        cluster: &probe,
        cluster_probe: &probe,
        wire: &own,
    };
    per_layer(&mut r, counts, &tr, src, &dep, overhead, true);
    r.tracer = Some(tr);
    r
}
