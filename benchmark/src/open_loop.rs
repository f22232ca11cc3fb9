//! `open_adaptive`: open-loop Poisson arrivals into a 2-replica
//! `ClusterEngine` serving a small [26, 64, 2] network under the
//! `EarlyExit` sampling policy. One request in three is interactive and
//! carries a deadline.
//!
//! A single generator thread both submits (on a precomputed seeded
//! schedule) and collects (sweeping its outstanding requests with
//! `try_take`). Latency runs from when a request was *due*, so a stalled
//! generator or a full queue is charged to the system; each request's
//! completion is observed on its own, never behind another request's
//! wait.

use std::time::{Duration, Instant};

use vibnn::backend::{BackendKind, RowOutcome};
use vibnn::cluster::{ClusterConfig, ClusterEngine, ClusterMetrics, Priority, SubmitOptions};
use vibnn::grng::ZigguratGrng;
use vibnn::nn::Matrix;
use vibnn::sampler::PolicySpec;
use vibnn::serve::{ServeConfig, ServeEngine, ServeResult};
use vibnn::VibnnError;

use crate::common::{accuracy, end_to_end, per_layer, set_up, LayerSources, Phase, SimCost};
use crate::deploy::{deploy, Deployment, Net, Seeds};
use crate::layers::{cluster_and_wire_probes, lane, mean_microbatch, walk, Probe};
use crate::offline::same_answer;
use crate::stats::{peak_rss_mb, quantile, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Offered rate at which latency is reported. From 10k req/s up, each
/// replica on a 2-core host is busy most of the time, so queueing
/// multiplies every change in host speed and the run-to-run spread of
/// latency outgrows a bound; 10k and 20k stay rungs of the ladder.
pub const RATE: f64 = 5_000.0;
/// Fixed absolute rates for `slo_rate_rps`, never derived from a
/// measurement of the build under test.
const LADDER: [f64; 8] = [
    5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0, 80_000.0,
];
/// The latency limit on p99 for `slo_rate_rps`.
const LIMIT: Duration = Duration::from_millis(10);
/// The interactive lane's deadline, counted from when a request is due.
/// At 10 ms a few requests in 100,000 expired whenever a neighbour on the
/// shared host stalled the process, so the count of failed requests
/// differed between runs of the same code. Half a second keeps every
/// deadline checked at admission and dequeue, and expires a request only
/// on a real hang.
const DEADLINE: Duration = Duration::from_millis(500);
/// How often the generator looks for finished requests.
const SWEEP: Duration = Duration::from_micros(50);
/// A request unanswered this long after arrivals stop is a hang.
const HANG: Duration = Duration::from_secs(5);
const POOL: usize = 208;
/// Set-ups per untraced run: one takes tens of milliseconds, so take
/// the median of many.
pub const SETUPS_SMALL: usize = 25;
const WALK_CHUNK: usize = 2;
const PROBE_REQUESTS: usize = 2_000;
const POLICY: PolicySpec = PolicySpec::EarlyExit {
    k: 2,
    min_samples: 2,
};

pub fn cluster_config(policy: PolicySpec) -> ClusterConfig {
    ClusterConfig {
        replicas: 2,
        max_batch: 32,
        // Room for more than `DEADLINE` of arrivals at `RATE`, so a stall
        // expires deadlines before it fills the queue.
        max_queue: 16_384,
        workers: 1,
        spill: true,
        backend: Some(BackendKind::Quantized),
        policy: Some(policy),
        ..ClusterConfig::default()
    }
}

/// Typed refusals, by kind.
#[derive(Debug, Default, Clone, Copy)]
struct Refusals {
    deadline: u64,
    queue_full: u64,
    other: u64,
}

#[derive(Debug, Default)]
struct OpenStats {
    phase: Phase,
    late_us: Vec<f64>,
    refusals: Refusals,
    /// Requests still outstanding when arrivals stopped.
    backlog: usize,
    /// Traced runs only: admission time and residence per request.
    admit_us: Vec<f64>,
    residence_us: Vec<f64>,
}

struct Pending {
    id: u64,
    seq: u64,
    pool_row: usize,
    due: Instant,
    submitted: Instant,
    accepted: Instant,
}

/// The single generator thread: it submits on the seeded schedule and
/// collects answers, checking each against the gate.
struct Generator<'a> {
    cluster: &'a ClusterEngine,
    pool: &'a Matrix,
    expected: &'a [ServeResult],
    rng: Rng,
    /// Requests generated so far; request `i` is on lane `lane(i)`.
    seq: u64,
}

impl Generator<'_> {
    /// Offers Poisson arrivals at `rate` for `secs`, then waits for every
    /// accepted request to finish.
    fn run(
        &mut self,
        rate: f64,
        secs: f64,
        mut tr: Option<&mut Tracer>,
        r: &mut Report,
    ) -> OpenStats {
        let Self {
            cluster,
            pool,
            expected,
            rng,
            seq,
        } = self;
        // Sized up front: growing these while measuring would move the
        // peak resident set from run to run.
        let expected_requests = (rate * secs * 1.25) as usize + 64;
        let mut s = OpenStats {
            late_us: Vec::with_capacity(expected_requests),
            ..OpenStats::default()
        };
        s.phase.events.reserve(expected_requests);
        if tr.is_some() {
            s.admit_us.reserve(expected_requests);
            s.residence_us.reserve(expected_requests);
        }
        let mut outstanding: Vec<Pending> = Vec::with_capacity(4096);
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let gap = |rng: &mut Rng| Duration::from_secs_f64(-rng.unit().ln() / rate);
        let mut due = start + gap(rng);
        let mut last_sweep = start;
        let mut arrivals_done = false;
        let mut last_done = start;
        loop {
            let now = Instant::now();
            if due < end && now >= due {
                let i = *seq;
                *seq += 1;
                let pool_row = rng.below(pool.rows());
                let priority = lane(i);
                let opts = SubmitOptions {
                    priority,
                    deadline: (priority == Priority::Interactive).then(|| due + DEADLINE),
                };
                let submitted = Instant::now();
                let res = cluster.submit_with(pool.row(pool_row).to_vec(), opts);
                let accepted = Instant::now();
                s.phase.attempted += 1;
                s.late_us.push((submitted - due).as_secs_f64() * 1e6);
                match res {
                    Ok(id) => outstanding.push(Pending {
                        id,
                        seq: i,
                        pool_row,
                        due,
                        submitted,
                        accepted,
                    }),
                    Err(e) => refuse(&mut s, start, due, accepted, e, r),
                }
                due += gap(rng);
                continue;
            }
            if !arrivals_done && due >= end {
                arrivals_done = true;
                s.backlog = outstanding.len();
            }
            if arrivals_done && outstanding.is_empty() {
                break;
            }
            if now - last_sweep >= SWEEP || arrivals_done {
                last_sweep = now;
                let mut k = 0;
                while k < outstanding.len() {
                    let Some(out) = cluster.try_take(outstanding[k].id) else {
                        k += 1;
                        continue;
                    };
                    let done = Instant::now();
                    let p = outstanding.swap_remove(k);
                    last_done = done;
                    match out {
                        Ok(res) => {
                            r.check(same_answer(&res, &expected[p.pool_row]), || {
                                format!(
                                    "pool row {}: served answer differs from the gate",
                                    p.pool_row
                                )
                            });
                            let at = (done - start).as_secs_f64();
                            s.phase.served(at, (done - p.due).as_secs_f64() * 1e6, 1);
                            if let Some(tr) = tr.as_deref_mut() {
                                s.admit_us
                                    .push((p.accepted - p.submitted).as_secs_f64() * 1e6);
                                s.residence_us.push((done - p.accepted).as_secs_f64() * 1e6);
                                let root = tr.record("request", p.due, done, None, p.seq);
                                tr.record("generator.late", p.due, p.submitted, Some(root), p.seq);
                                tr.record(
                                    "cluster.admit",
                                    p.submitted,
                                    p.accepted,
                                    Some(root),
                                    p.seq,
                                );
                                tr.record("cluster.residence", p.accepted, done, Some(root), p.seq);
                            }
                        }
                        Err(e) => refuse(&mut s, start, p.due, done, e, r),
                    }
                }
                if arrivals_done && now > end + HANG {
                    r.problems.push(format!(
                        "{} requests unanswered {HANG:?} after arrivals stopped",
                        outstanding.len()
                    ));
                    let at = (now - start).as_secs_f64();
                    s.phase
                        .refused(at, HANG.as_secs_f64() * 1e6, outstanding.len() as u64);
                    break;
                }
            }
            // On a small host the generator shares cores with the
            // dispatchers. It sleeps until the next arrival or sweep rather
            // than spin or yield: the dispatchers keep the CPU, and the
            // scheduler wakes a sleeper promptly, so lateness stays bounded
            // by the sleep granularity.
            let next = if arrivals_done {
                now + SWEEP
            } else {
                due.min(now + SWEEP)
            };
            let wait = next.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        s.phase.elapsed_s = (last_done.max(end) - start).as_secs_f64();
        s
    }
}

/// Books a typed refusal seen at `when` for a request due at `due`,
/// charged at least the latency limit.
fn refuse(
    s: &mut OpenStats,
    start: Instant,
    due: Instant,
    when: Instant,
    e: VibnnError,
    r: &mut Report,
) {
    let latency = when.saturating_duration_since(due).max(LIMIT).as_secs_f64() * 1e6;
    s.phase.refused((when - start).as_secs_f64(), latency, 1);
    match e {
        VibnnError::DeadlineExceeded => s.refusals.deadline += 1,
        VibnnError::QueueFull { .. } => s.refusals.queue_full += 1,
        other => {
            s.refusals.other += 1;
            r.problems.push(format!("unexpected refusal: {other}"));
        }
    }
}

/// Request books: every attempt is served or refused with a typed error,
/// and the cluster's own counters agree.
fn check_books(r: &mut Report, s: &OpenStats, before: &ClusterMetrics, after: &ClusterMetrics) {
    let f = s.refusals;
    r.check(
        s.phase.attempted == s.phase.ok + f.deadline + f.queue_full + f.other
            && s.phase.failed == f.deadline + f.queue_full + f.other,
        || format!("books do not close: {:?} {f:?}", s.phase),
    );
    r.check(after.served - before.served == s.phase.ok, || {
        format!(
            "cluster served {} but {} were observed",
            after.served - before.served,
            s.phase.ok
        )
    });
    r.check(
        after.deadline_expired - before.deadline_expired == f.deadline,
        || "cluster deadline count disagrees with refusals seen".into(),
    );
    r.check(after.rejected - before.rejected == f.queue_full, || {
        "cluster rejection count disagrees with refusals seen".into()
    });
}

fn hist_delta(before: &ClusterMetrics, after: &ClusterMetrics) -> Vec<Vec<u64>> {
    after
        .replicas
        .iter()
        .zip(&before.replicas)
        .map(|(a, b)| {
            a.batch_histogram
                .iter()
                .zip(&b.batch_histogram)
                .map(|(x, y)| x - y)
                .collect()
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let seeds = Seeds::from_workload_seed(args.seed);
    let start = || {
        let dep = deploy(Net::Parkinson, POOL, BackendKind::Quantized, POLICY, seeds);
        let cluster = ClusterEngine::with_eps(
            dep.vibnn.clone(),
            cluster_config(POLICY),
            ZigguratGrng::new(seeds.eps),
        )
        .map_err(|e| e.to_string())?;
        Ok((dep, cluster))
    };
    let digest = |(dep, _): &(Deployment, ClusterEngine)| dep.params_digest;
    let stop = |(_, cluster): (Deployment, ClusterEngine)| {
        cluster.shutdown();
    };
    let Some((mut setup_s, (dep, cluster))) =
        set_up(&mut r, args, SETUPS_SMALL, start, digest, stop)
    else {
        return r;
    };

    // Gate: the cluster's answers and samples_used equal a direct engine
    // under the same policy and ε.
    let n = dep.pool_x.rows();
    let ids: Vec<Result<u64, VibnnError>> = (0..n)
        .map(|i| {
            cluster.submit_with(
                dep.pool_x.row(i).to_vec(),
                SubmitOptions {
                    priority: lane(i as u64),
                    deadline: None,
                },
            )
        })
        .collect();
    let served: Vec<Result<ServeResult, VibnnError>> = ids
        .into_iter()
        .map(|id| id.and_then(|id| cluster.wait(id)))
        .collect();
    let direct = ServeEngine::with_eps(
        dep.vibnn.clone(),
        ServeConfig {
            max_batch: 32,
            max_queue: 1024,
            workers: 1,
            backend: Some(BackendKind::Quantized),
            policy: Some(POLICY),
        },
        cluster.replica_eps(),
    )
    .and_then(|e| e.submit_batch_outcomes_costed(&dep.pool_x));
    let Ok((outcomes, cost)) = direct else {
        r.problems.push("direct engine failed".into());
        return r;
    };
    let mut expected = Vec::with_capacity(n);
    for (i, (got, want)) in served.into_iter().zip(outcomes).enumerate() {
        match (got, want) {
            (Ok(got), RowOutcome::Served(want)) if same_answer(&got, &want) => expected.push(got),
            (got, want) => {
                r.problems
                    .push(format!("row {i}: cluster {got:?} vs direct {want:?}"));
                return r;
            }
        }
    }
    let acc = accuracy(expected.iter().map(|e| e.argmax), &dep.pool_y);
    let sim = SimCost::from_samples(&dep.vibnn, n as u64, cost.samples);

    let mut gen = Generator {
        cluster: &cluster,
        pool: &dep.pool_x,
        expected: &expected,
        rng: Rng::new(seeds.schedule),
        seq: 0,
    };
    gen.run(RATE, 0.5, None, &mut r);

    if !args.trace {
        let before = cluster.metrics();
        let mut s = gen.run(RATE, args.seconds * 2.0 / 3.0, None, &mut r);
        let after = cluster.metrics();
        // Read before the ladder: its top rungs overload the cluster on
        // purpose, and how far the backlog grows there varies run to run.
        let rss_mb = peak_rss_mb();
        check_books(&mut r, &s, &before, &after);
        r.notes.push(format!(
            "generator lateness p50 {:.1} us p99 {:.1} us; refusals {:?}; backlog at end {}",
            quantile(&mut s.late_us, 0.5),
            quantile(&mut s.late_us, 0.99),
            s.refusals,
            s.backlog
        ));
        let rung_s = args.seconds / 3.0 / LADDER.len() as f64;
        let mut slo_rate = 0.0;
        for rate in LADDER {
            let before = cluster.metrics();
            let mut rung = gen.run(rate, rung_s, None, &mut r);
            check_books(&mut r, &rung, &before, &cluster.metrics());
            let p99 = rung.phase.quantile(0.99);
            let pass = p99 <= LIMIT.as_secs_f64() * 1e6
                && rung.backlog as f64 <= rate * LIMIT.as_secs_f64();
            r.notes.push(format!(
                "ladder {rate:>7} req/s: p99 {p99:>9.1} us, backlog {:>5}, lateness p99 {:>8.1} us, {} of {} served -> {}",
                rung.backlog,
                quantile(&mut rung.late_us, 0.99),
                rung.phase.ok,
                rung.phase.attempted,
                if pass { "meets 10 ms" } else { "misses" }
            ));
            if !pass {
                break;
            }
            slo_rate = rate;
        }
        r.notes.push(format!(
            "slo_rate_rps {slo_rate} req/s (p99 <= 10 ms, no growing backlog)"
        ));
        end_to_end(
            &mut r,
            &mut setup_s,
            &mut s.phase,
            acc,
            n as u64,
            sim,
            rss_mb,
        );
        cluster.shutdown();
        return r;
    }

    let mut tr = Tracer::new(Instant::now());
    let u = gen.run(RATE, args.seconds / 2.0, None, &mut r);
    let before = cluster.metrics();
    let t = gen.run(RATE, args.seconds / 2.0, Some(&mut tr), &mut r);
    let after = cluster.metrics();
    check_books(&mut r, &t, &before, &after);
    cluster.shutdown();
    let overhead = t.phase.throughput() / u.phase.throughput().max(1e-9);
    r.attempted = u.phase.attempted + t.phase.attempted;
    r.failed = u.phase.failed + t.phase.failed;
    let submitted = (after.submitted - before.submitted).max(1);
    let own = Probe {
        admit_us: t.admit_us,
        residence_us: t.residence_us,
        mean_microbatch: mean_microbatch(&hist_delta(&before, &after)),
        spill_share: (after.spilled - before.spilled) as f64 / submitted as f64,
        deadline_expired: after.deadline_expired - before.deadline_expired,
        rejected: after.rejected - before.rejected,
        ..Probe::default()
    };
    let eps = ZigguratGrng::new(seeds.eps);
    let replica_eps = vibnn::bnn::replica_source(&eps);
    let counts = match walk(
        &dep.vibnn,
        BackendKind::Quantized,
        POLICY,
        &replica_eps,
        &dep.pool_x,
        WALK_CHUNK,
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
    let cfg = cluster_config(POLICY);
    let Some((probe, wire)) = cluster_and_wire_probes(
        &dep.vibnn,
        cfg,
        &eps,
        &dep.pool_x,
        PROBE_REQUESTS,
        &mut tr,
        &mut r,
    ) else {
        return r;
    };
    let src = LayerSources {
        cluster: &own,
        cluster_probe: &probe,
        wire: &wire,
    };
    per_layer(&mut r, counts, &tr, src, &dep, overhead, false);
    r.tracer = Some(tr);
    r
}
