//! Metric assembly shared by the workloads: the end-to-end set of the
//! untraced run and the per-layer set of the traced run.

use std::time::Instant;

use vibnn::hw::Schedule;
use vibnn::Vibnn;

use crate::deploy::Deployment;
use crate::layers::{Probe, WalkCounts};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Sets the workload up `n` times (once when traced) and keeps the last
/// set-up, tearing earlier ones down with `stop`. Returns each set-up's
/// wall time, the first counted from process start. Every set-up must
/// train bit-identical parameters, as `digest` reports them.
pub fn set_up<T>(
    r: &mut Report,
    args: &Args,
    n: usize,
    mut start: impl FnMut() -> Result<T, String>,
    digest: impl Fn(&T) -> u64,
    mut stop: impl FnMut(T),
) -> Option<(Vec<f64>, T)> {
    let n = if args.trace { 1 } else { n };
    let mut times = Vec::with_capacity(n);
    let mut digests = Vec::with_capacity(n);
    let mut live = None;
    for i in 0..n {
        let t = if i == 0 { args.started } else { Instant::now() };
        let next = match start() {
            Ok(next) => next,
            Err(e) => {
                r.problems.push(e);
                return None;
            }
        };
        times.push(t.elapsed().as_secs_f64());
        digests.push(digest(&next));
        if let Some(old) = live.replace(next) {
            stop(old);
        }
    }
    r.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("training is not deterministic at one seed: {digests:x?}")
    });
    live.map(|l| (times, l))
}

/// Simulated accelerator cost of a fixed set of served images.
#[derive(Debug, Clone, Copy)]
pub struct SimCost {
    pub images: u64,
    pub cycles: u64,
    pub energy_nj: f64,
    pub clock_mhz: f64,
}

impl SimCost {
    /// The cost a host backend's served samples would take on the
    /// accelerator: closed-form cycles per Monte Carlo sample, energy at
    /// the deployment's modelled power. Host backends charge no cycles
    /// themselves.
    pub fn from_samples(vibnn: &Vibnn, images: u64, samples: u64) -> Self {
        let schedule = Schedule::new(vibnn.config(), &vibnn.network().layer_sizes());
        let clock_mhz = vibnn.config().clock_mhz;
        let cycles = samples * schedule.cycles_per_sample();
        Self {
            images,
            cycles,
            energy_nj: cycles as f64 * vibnn.power_w() * 1e3 / clock_mhz,
            clock_mhz,
        }
    }

    pub fn images_per_s(&self) -> f64 {
        self.images as f64 * self.clock_mhz * 1e6 / self.cycles as f64
    }

    pub fn images_per_j(&self) -> f64 {
        self.images as f64 * 1e9 / self.energy_nj
    }
}

/// One completion seen by a load loop: `rows` requests that finished
/// (or were refused) together.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Seconds since the phase started.
    pub at_s: f64,
    /// Latency of each request.
    pub latency_us: f64,
    pub ok: u64,
    pub failed: u64,
}

/// Measured-phase results of a load loop.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub events: Vec<Event>,
    pub elapsed_s: f64,
}

impl Phase {
    pub fn served(&mut self, at_s: f64, latency_us: f64, rows: u64) {
        self.ok += rows;
        self.events.push(Event {
            at_s,
            latency_us,
            ok: rows,
            failed: 0,
        });
    }

    /// A refused or failed request. The caller charges it at least the
    /// workload's latency limit, so it always misses that limit.
    pub fn refused(&mut self, at_s: f64, latency_us: f64, rows: u64) {
        self.failed += rows;
        self.events.push(Event {
            at_s,
            latency_us,
            ok: 0,
            failed: rows,
        });
    }

    /// Folds in a phase measured against the same start instant.
    pub fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.events.extend(other.events);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Served requests per second over the whole phase.
    pub fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed_s.max(1e-9)
    }

    /// Per-request latencies, served and refused alike.
    fn latencies(events: &[Event]) -> Vec<f64> {
        let mut v = Vec::new();
        for e in events {
            v.extend(std::iter::repeat_n(
                e.latency_us,
                (e.ok + e.failed) as usize,
            ));
        }
        v
    }

    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&mut Self::latencies(&self.events), q)
    }

    /// Splits the completions, in time order, into about one window per
    /// second with equal numbers of completions, and returns each
    /// window's served rate, p50 and p99 latency.
    pub fn windows(&mut self) -> Vec<Window> {
        self.events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        let n = (self.elapsed_s.round() as usize).clamp(1, self.events.len().max(1));
        let per = (self.events.len() / n).max(1);
        let mut out = Vec::with_capacity(n);
        let mut prev = 0.0;
        for (w, win) in self.events.chunks(per).enumerate().take(n) {
            // The last window takes any remainder.
            let win = if w + 1 == n {
                &self.events[w * per..]
            } else {
                win
            };
            let last = win.last().map_or(prev, |e| e.at_s);
            let ok: u64 = win.iter().map(|e| e.ok).sum();
            let mut latencies = Self::latencies(win);
            out.push(Window {
                rate: ok as f64 / (last - prev).max(1e-9),
                p50_us: quantile(&mut latencies, 0.5),
                p99_us: quantile(&mut latencies, 0.99),
            });
            prev = last;
        }
        out
    }
}

/// One window of a phase: about a second of completions.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Served requests per second.
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Accuracy of served argmaxes against labels.
pub fn accuracy(argmax: impl IntoIterator<Item = usize>, labels: &[usize]) -> f64 {
    let hits = argmax
        .into_iter()
        .zip(labels)
        .filter(|(a, &y)| *a == y)
        .count();
    hits as f64 / labels.len().max(1) as f64
}

/// The end-to-end metric set, in `BENCHMARK.json` order. `rss_mb` is
/// the peak resident set read when the measured phase ended.
pub fn end_to_end(
    r: &mut Report,
    setup_s: &mut [f64],
    phase: &mut Phase,
    accuracy: f64,
    accuracy_rows: u64,
    sim: SimCost,
    rss_mb: f64,
) {
    let n = phase.ok + phase.failed;
    let windows = phase.windows();
    r.notes.push(format!(
        "windows (req/s, p50 us, p99 us): {}",
        windows
            .iter()
            .map(|w| format!("{:.0}/{:.0}/{:.0}", w.rate, w.p50_us, w.p99_us))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // Medians over about one-second windows: a neighbour on a shared host
    // that slows a few windows does not move them.
    let mut rates: Vec<f64> = windows.iter().map(|w| w.rate).collect();
    let mut p50s: Vec<f64> = windows.iter().map(|w| w.p50_us).collect();
    let setups = setup_s.len() as u64;
    r.metric("setup_s", median(setup_s), "s", setups);
    r.metric("throughput_rps", median(&mut rates), "req/s", phase.ok);
    r.metric("latency_p50_us", median(&mut p50s), "us", n);
    let served_share = phase.ok as f64 / phase.attempted.max(1) as f64;
    r.metric("served_share", served_share, "ratio", phase.attempted);
    r.metric("accuracy", accuracy, "ratio", accuracy_rows);
    r.metric("sim_images_per_s", sim.images_per_s(), "img/s", sim.images);
    r.metric("sim_images_per_j", sim.images_per_j(), "img/J", sim.images);
    r.metric("peak_rss_mb", rss_mb, "MB", 1);
    r.attempted = phase.attempted;
    r.failed = phase.failed;
    // Printed, not gated: on a shared 2-core host the tail follows
    // time stolen by neighbours more than the code under test.
    r.notes.push(format!(
        "latency_p99_us {} us, p50 over all requests {} us, n={n}",
        phase.quantile(0.99),
        phase.quantile(0.5)
    ));
    r.notes.push(format!(
        "error_share {} ({} failed of {} attempted); throughput_rps and latency_p50_us are medians over {} windows",
        phase.failed as f64 / phase.attempted.max(1) as f64,
        phase.failed,
        phase.attempted,
        windows.len()
    ));
    r.exact.push(("accuracy", accuracy));
    r.exact.push(("sim_images_per_s", sim.images_per_s()));
    r.exact.push(("sim_images_per_j", sim.images_per_j()));
}

/// Where the traced run's cluster and wire figures come from.
pub struct LayerSources<'a> {
    /// The workload's own cluster loop, or the closed-loop cluster probe.
    pub cluster: &'a Probe,
    /// The closed-loop cluster probe (2 callers), the in-process twin of
    /// the wire probe: `ingest.overhead_us_p50` subtracts its residence.
    pub cluster_probe: &'a Probe,
    /// The workload's own wire loop, or the closed-loop wire probe.
    pub wire: &'a Probe,
}

/// The per-layer metric set, in `BENCHMARK.json` order.
pub fn per_layer(
    r: &mut Report,
    c: WalkCounts,
    tr: &Tracer,
    src: LayerSources<'_>,
    dep: &Deployment,
    overhead_ratio: f64,
    print_split: bool,
) {
    let per = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let sample_s = tr.total_s("hw.quantized.sample");
    let forward_s = tr.total_s("hw.quantized.forward");
    let backend_s = tr.total_s("backend");
    let mb = c.microbatches;
    r.metric(
        "hw.quantized.sample_ns_per_weight",
        per(sample_s, c.weights_sampled),
        "ns",
        c.weights_sampled,
    );
    r.metric(
        "hw.quantized.weights_sampled",
        c.weights_sampled as f64,
        "count",
        1,
    );
    r.metric(
        "hw.quantized.forward_ns_per_mac",
        per(forward_s, c.macs),
        "ns",
        c.macs,
    );
    r.metric("hw.quantized.macs", c.macs as f64, "count", 1);
    r.metric("hw.quantized.bytes_moved", c.bytes_moved as f64, "B", 1);
    r.metric(
        "grng.ns_per_eps",
        per(tr.total_s("grng"), c.eps_drawn),
        "ns",
        c.eps_drawn,
    );
    r.metric("grng.eps_drawn", c.eps_drawn as f64, "count", 1);
    r.metric(
        "hw.sim.host_ns_per_cycle",
        per(tr.total_s("hw.sim"), c.sim_cycles),
        "ns",
        c.sim_cycles,
    );
    r.metric("hw.sim.cycles", c.sim_cycles as f64, "count", 1);
    r.metric("backend.busy_s", backend_s, "s", mb);
    r.metric("backend.microbatches", mb as f64, "count", 1);
    r.metric(
        "backend.rows_per_microbatch",
        c.rows as f64 / mb.max(1) as f64,
        "rows",
        mb,
    );
    r.metric(
        "backend.us_per_row",
        backend_s * 1e6 / c.rows.max(1) as f64,
        "us",
        c.rows,
    );
    let samples_per_request = c.samples_used as f64 / c.rows.max(1) as f64;
    let full_budget_share = c.full_budget_rows as f64 / c.rows.max(1) as f64;
    r.metric(
        "sampler.samples_per_request",
        samples_per_request,
        "samples",
        c.rows,
    );
    r.metric(
        "sampler.full_budget_share",
        full_budget_share,
        "ratio",
        c.rows,
    );
    r.metric("serve.overhead_s", tr.total_s("serve") - backend_s, "s", mb);

    let cl = src.cluster;
    let residence_p50 = quantile(&mut cl.residence_us.clone(), 0.5);
    let nres = cl.residence_us.len() as u64;
    r.metric(
        "cluster.admit_us_p50",
        quantile(&mut cl.admit_us.clone(), 0.5),
        "us",
        cl.admit_us.len() as u64,
    );
    r.metric("cluster.residence_us_p50", residence_p50, "us", nres);
    r.metric(
        "cluster.residence_us_p99",
        quantile(&mut cl.residence_us.clone(), 0.99),
        "us",
        nres,
    );
    r.metric("cluster.mean_microbatch", cl.mean_microbatch, "rows", nres);
    r.metric("cluster.spill_share", cl.spill_share, "ratio", nres);
    r.metric(
        "cluster.deadline_expired",
        cl.deadline_expired as f64,
        "count",
        1,
    );
    r.metric("cluster.rejected", cl.rejected as f64, "count", 1);

    let codec_ns = per(tr.total_s("ingest.codec"), c.codec_requests);
    let roundtrip_p50 = quantile(&mut src.wire.roundtrip_us.clone(), 0.5);
    let probe_residence_p50 = quantile(&mut src.cluster_probe.residence_us.clone(), 0.5);
    let nrt = src.wire.roundtrip_us.len() as u64;
    r.metric("ingest.codec_ns", codec_ns, "ns", c.codec_requests);
    r.metric(
        "ingest.bytes_per_request",
        c.codec_bytes as f64 / c.codec_requests.max(1) as f64,
        "B",
        c.codec_requests,
    );
    r.metric("ingest.roundtrip_us_p50", roundtrip_p50, "us", nrt);
    r.metric(
        "ingest.overhead_us_p50",
        roundtrip_p50 - probe_residence_p50,
        "us",
        nrt,
    );
    r.metric(
        "ingest.protocol_errors",
        src.wire.protocol_errors as f64,
        "count",
        1,
    );

    let p = dep.phases;
    r.metric("bnn.train_s", dep.train_s, "s", p.steps);
    r.metric("bnn.draw_s", p.draw, "s", p.steps);
    r.metric("bnn.shards_s", p.shards, "s", p.steps);
    r.metric("bnn.reduce_s", p.reduce, "s", p.steps);
    r.metric("bnn.tail_s", p.tail, "s", p.steps);
    r.metric("accelerator.build_s", dep.build_s, "s", 1);
    r.metric("trace.overhead_ratio", overhead_ratio, "ratio", 2);

    r.exact
        .push(("hw.quantized.weights_sampled", c.weights_sampled as f64));
    r.exact.push(("hw.quantized.macs", c.macs as f64));
    r.exact
        .push(("hw.quantized.bytes_moved", c.bytes_moved as f64));
    r.exact.push(("grng.eps_drawn", c.eps_drawn as f64));
    r.exact.push(("hw.sim.cycles", c.sim_cycles as f64));
    r.exact
        .push(("sampler.samples_per_request", samples_per_request));
    r.exact
        .push(("sampler.full_budget_share", full_budget_share));
    r.exact.push((
        "ingest.bytes_per_request",
        c.codec_bytes as f64 / c.codec_requests.max(1) as f64,
    ));

    if print_split {
        wire_split(r, tr, roundtrip_p50, probe_residence_p50, codec_ns / 1e3);
    }
}

/// Splits the wire's median round trip into the layers it crosses. Each
/// kernel and backend figure is the median over single-row micro-batches
/// of that layer's time on one micro-batch; `residence` is the cluster
/// probe's median and `roundtrip` the wire's.
fn wire_split(r: &mut Report, tr: &Tracer, roundtrip: f64, residence: f64, codec: f64) {
    let sample = tr.median_per_request_us("hw.quantized.sample");
    let forward = tr.median_per_request_us("hw.quantized.forward");
    let backend = tr.median_per_request_us("backend");
    let split = [
        ("weight sampling (eps included)", sample),
        ("forward", forward),
        ("rest of backend", backend - sample - forward),
        ("cluster residence beyond backend", residence - backend),
        ("codec", codec),
        (
            "socket and connection remainder",
            roundtrip - residence - codec,
        ),
    ];
    r.notes.push(format!(
        "latency_p50_us split, round trip p50 {roundtrip:.1} us:"
    ));
    for (name, v) in split {
        r.notes.push(format!(
            "  {name:<34} {v:>10.1} us {:>6.1}%",
            100.0 * v / roundtrip.max(1e-9)
        ));
    }
}
