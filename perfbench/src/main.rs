//! The repository's benchmark: end-to-end and per-layer numbers for the
//! three things the system's users wait on — a fresh measurement
//! (`measure`), a re-analysis of a stored crawl (`reanalyze`) and a
//! served job (`serve-mix`).
//!
//! ```text
//! perfbench --workload measure|reanalyze|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! It drives the system from outside, through public entry points
//! only, checks every output, and prints one line per metric followed
//! by one JSON object as the last line of standard output. With
//! `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced run (see
//! [`layers::LAYER_METRICS`]) and the spans are written to
//! `.bench_run/trace-<workload>-<seed>.json`. Latencies and set-up
//! times are read at reference speed (see [`speed`]), with the wall
//! clock's values printed beside them. Run it from the repository root;
//! see `perfbench/README.md` for the metric definitions.

mod closed;
mod layers;
mod plan;
mod serve_mix;
mod speed;
mod stats;
mod trace;

use speed::RefClock;
use std::path::PathBuf;
use trace::Tracer;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ref_latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

const WORKLOADS: [&str; 3] = ["measure", "reanalyze", "serve-mix"];

/// Where runs keep their temporary stores and traces, relative to the
/// working directory.
const RUN_DIR: &str = ".bench_run";

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each set-up unit's time at reference speed and on the wall
    /// clock, s.
    pub setup_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    /// Latency samples of untraced operations at reference speed (see
    /// [`speed`]), ms, tagged with the operation's class (closed loops
    /// have one class).
    pub latency_ms: Vec<(usize, f64)>,
    /// The same for traced operations (traced runs).
    pub traced_ms: Vec<(usize, f64)>,
    /// The untraced latencies on the wall clock, ms.
    pub wall_ms: Vec<(usize, f64)>,
    /// CPU time the process spent on the untraced operations, s, and
    /// how many operations that was.
    pub cpu_s: f64,
    pub cpu_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Every failure, refusal or mismatch, for the log.
    pub problems: Vec<String>,
    /// The workload's own metric names for the printed table.
    pub notes: Vec<(String, Option<f64>, &'static str)>,
    /// Computed per-layer ratios (traced runs).
    pub ratios: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn setup_unit(&mut self, ref_s: f64, wall_s: f64) {
        self.setup_s.push(ref_s);
        self.setup_wall_s.push(wall_s);
    }

    pub fn note(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        self.notes.push((name.to_owned(), value, unit));
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Clock ticks per second of the `/proc` CPU times (`USER_HZ`, 100 on
/// every Linux architecture the benchmark runs on).
pub const CLOCK_TICKS: f64 = 100.0;

/// CPU time this process has used so far, s: user and system time of
/// every thread, ended threads included, from `/proc/self/stat`, to the
/// 10 ms tick. The kernel leaves out the time a shared host takes from
/// the virtual CPUs (steal), which wall time cannot.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLOCK_TICKS
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn run(args: &Args, tracer: &Tracer, tmp: &std::path::Path) -> Result<Outcome, String> {
    let clock = RefClock::start();
    match args.workload.as_str() {
        "measure" => closed::measure(args, tracer, &clock, tmp),
        "reanalyze" => closed::reanalyze(args, tracer, &clock, tmp),
        _ => serve_mix::serve_mix(args, tracer, &clock, tmp),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let tmp = PathBuf::from(RUN_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let tracer = Tracer::new(false);
    let result = run(&args, &tracer, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for p in &out.problems {
        println!("problem: {p}");
    }
    let peak_rss_mb = proc_status_kb("VmHWM").unwrap_or(0.0) / 1024.0;
    let p50 = stats::class_weighted_median(&out.latency_ms).unwrap_or(f64::NAN);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "samples {} attempted {} failed {}",
        out.latency_ms.len(),
        out.attempted,
        out.failed
    );
    for (name, value, unit) in &out.notes {
        match value {
            Some(v) => println!("{name} {v:.3} {unit}"),
            None => println!("{name} n/a {unit} (too few samples)"),
        }
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("failed_ratio {failed_ratio:.4} ratio");
    let wall_p50 = stats::class_weighted_median(&out.wall_ms).unwrap_or(f64::NAN);
    println!("wall_latency_ms_p50 {wall_p50:.3} ms");
    let setup_s = stats::median(&out.setup_s).unwrap_or(f64::NAN);
    let setup_wall_s = stats::median(&out.setup_wall_s).unwrap_or(f64::NAN);
    println!("setup_wall_s {setup_wall_s:.4} s");
    let cpu_ms_per_op = out.cpu_s * 1e3 / out.cpu_ops.max(1) as f64;
    println!("cpu_ms_per_op {cpu_ms_per_op:.3} ms");

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let traced_p50 = stats::class_weighted_median(&out.traced_ms).unwrap_or(f64::NAN);
        let mut ratios = out.ratios.clone();
        ratios.push(("trace.overhead_ms", traced_p50 - p50));
        ratios.push(("trace.overhead_ratio", (traced_p50 - p50) / p50));
        println!("traced_latency_ms_p50 {traced_p50:.3} ms (untraced {p50:.3} ms)");
        let path =
            PathBuf::from(RUN_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = tracer.write_json(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        layers::layer_metrics(&tracer, &ratios)
    } else {
        let values = [setup_s, p50, peak_rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_owned(), value, unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("{name} {value:.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
}
