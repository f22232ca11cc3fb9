//! The VIBNN stack's benchmark: four workloads, from the paper's MNIST
//! network in one process to single requests over TCP.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <mnist_offline|cycle_hil|open_adaptive|wire_closed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up its workload from the seed, checks served outputs
//! against the reference paths before any timing, measures, and prints one
//! line per metric followed by a JSON summary as the last line of stdout.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! workload with spans around each layer call and reports the per-layer
//! metrics. See `README.md` beside this crate for the metric definitions.

mod common;
mod deploy;
mod layers;
mod offline;
mod open_loop;
mod stats;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use trace::Tracer;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started; `setup_s` counts from here.
    pub started: Instant,
}

fn parse_args() -> Result<Args, String> {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        started,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: u64,
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (workload-specific figures).
    pub notes: Vec<String>,
    /// Values that must repeat bit for bit at one seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "mnist_offline" => offline::run(&args, offline::MNIST_OFFLINE),
        "cycle_hil" => offline::run(&args, offline::CYCLE_HIL),
        "open_adaptive" => open_loop::run(&args),
        "wire_closed" => wire::run(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    check_exact(&args, &mut report);
    if let Some(tr) = &report.tracer {
        write_spans(&args, tr);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "{:<36} {:>18} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &report.problems {
        eprintln!("INCORRECT: {p}");
    }
    let correct = report.problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}

/// Where exact values are remembered between runs in one checkout.
const EXACT_DIR: &str = ".bench_exact";

/// Compares this run's exact values with those an earlier run at the same
/// workload, seed and mode left behind; any difference is a failure.
/// The first run at a seed records them.
fn check_exact(args: &Args, report: &mut Report) {
    if !report.problems.is_empty() {
        return;
    }
    let mut text = String::new();
    for (name, v) in &report.exact {
        let _ = writeln!(text, "{name} {:016x} {v:?}", v.to_bits());
    }
    let path = Path::new(EXACT_DIR).join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != text => report.problems.push(format!(
            "exact values drifted from an earlier run at this seed ({}):\nbefore:\n{previous}now:\n{text}",
            path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(EXACT_DIR);
            let _ = std::fs::write(&path, text);
        }
    }
}

/// Writes the traced run's spans as TSV under `.bench_trace/`.
fn write_spans(args: &Args, tr: &Tracer) {
    let dir = Path::new(".bench_trace");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    if std::fs::write(&path, tr.to_tsv()).is_ok() {
        println!(
            "# spans: {} written to {}",
            tr.spans().len(),
            path.display()
        );
    }
    for (name, t) in tr.totals() {
        println!(
            "# span {name:<24} count={:<8} total_s={:.6} self_s={:.6}",
            t.count, t.total_s, t.self_s
        );
    }
}
