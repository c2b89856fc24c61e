//! The closed-loop workloads: one client, the next iteration starts
//! when the previous one ends.
//!
//! * `measure` — the `paper` scenario at the `medium` profile on a
//!   fresh engine with 2 executor threads, then a binary store saved to
//!   a fresh directory. Seeds rotate over a set derived from the
//!   workload seed; each report must be byte-identical to a 1-thread
//!   reference built in set-up.
//! * `reanalyze` — what each `pd rerun` process does:
//!   `Engine::from_plan` + `load_artifacts` + `analyze` (fresh frame
//!   cache) over a binary `paper`/`medium` store written in set-up. Each
//!   report must be byte-identical to the in-memory report of the run
//!   that wrote the store.

use crate::layers::{self, Counters};
use crate::plan::{derive, seed_set};
use crate::speed::RefClock;
use crate::stats::{median, reportable_quantile};
use crate::trace::Tracer;
use crate::{cpu_s, Args, Outcome};
use pd_core::{Engine, Executor, Experiment, ExperimentBuilder, Profile, StoreFormat};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Executor threads of a timed iteration.
const THREADS: usize = 2;
/// Seeds `measure` rotates over.
const MEASURE_SEEDS: usize = 3;
/// Set-up repetitions of `reanalyze` (the median is reported).
const SETUP_REPS: usize = 3;

fn paper(seed: u64, threads: usize) -> ExperimentBuilder {
    Experiment::builder()
        .scenario("paper")
        .profile(Profile::Medium)
        .seed(seed)
        .threads(threads)
}

/// Extracted prices (crowd and crawl) an engine's artifacts hold.
fn extracted_prices(engine: &mut Engine) -> usize {
    let crowd: usize = engine
        .crowd()
        .raw
        .records()
        .iter()
        .map(|m| m.prices().len())
        .sum();
    let crawl: usize = engine
        .crawl()
        .store
        .records()
        .iter()
        .map(|m| m.prices().len())
        .sum();
    crowd + crawl
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What one iteration reports: its times, its report JSON and the
/// prices it produced or analysed.
struct Iteration {
    times: Times,
    json: String,
    prices: usize,
    /// Index of the reference it must equal.
    reference: usize,
}

/// Times `work` as one iteration, inside a `loop.iteration_ms` span:
/// its time at reference speed and on the wall clock, and the process's
/// CPU time over it, s.
fn timed<T>(tracer: &Tracer, clock: &RefClock, work: impl FnOnce() -> T) -> (Times, T) {
    let cpu = cpu_s();
    let (out, ref_s, wall_s) = clock.time(|| tracer.span("loop.iteration_ms", work));
    let times = Times {
        ref_s,
        wall_s,
        cpu_s: cpu_s() - cpu,
    };
    (times, out)
}

/// An iteration's times, s.
struct Times {
    ref_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// Runs `iteration` until `seconds` have passed and returns the median
/// of prices per reference second over the untraced iterations. In a traced run
/// the odd iterations are traced and the even ones are not, so the two
/// latency series measure the tracing overhead side by side.
fn closed_loop(
    args: &Args,
    tracer: &Tracer,
    references: &[String],
    out: &mut Outcome,
    mut iteration: impl FnMut(usize) -> Result<Iteration, String>,
) -> Option<f64> {
    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    let mut per_s = Vec::new();
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let traced = args.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        let result = iteration(i);
        tracer.set_enabled(false);
        out.attempted += 1;
        match result {
            Ok(it) if it.json == references[it.reference] => {
                let t = &it.times;
                if traced {
                    out.traced_ms.push((0, t.ref_s * 1e3));
                } else {
                    out.latency_ms.push((0, t.ref_s * 1e3));
                    out.wall_ms.push((0, t.wall_s * 1e3));
                    out.cpu_s += t.cpu_s;
                    out.cpu_ops += 1;
                    per_s.push(it.prices as f64 / t.ref_s);
                }
            }
            Ok(it) => {
                out.failed += 1;
                out.problems.push(format!(
                    "iteration {i}: report differs from reference {} ({} vs {} bytes)",
                    it.reference,
                    it.json.len(),
                    references[it.reference].len()
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("iteration {i}: {e}"));
            }
        }
        i += 1;
    }
    median(&per_s)
}

pub fn fresh_dir(tmp: &Path, name: &str) -> PathBuf {
    let dir = tmp.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn measure(
    args: &Args,
    tracer: &Tracer,
    clock: &RefClock,
    tmp: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = seed_set(args.seed, "measure", MEASURE_SEEDS);
    // Set-up: one 1-thread reference report per seed; each is one
    // set-up unit, and the median unit time is reported.
    let mut references = Vec::new();
    let mut prices = Vec::new();
    let mut subject = None;
    for &seed in &seeds {
        let (start, at) = (Instant::now(), clock.now_s());
        let mut engine = paper(seed, 1).build().map_err(|e| e.to_string())?;
        references.push(engine.run().to_json());
        out.setup_unit(clock.now_s() - at, start.elapsed().as_secs_f64());
        prices.push(extracted_prices(&mut engine));
        if args.trace && subject.is_none() {
            subject = Some(engine);
        }
    }

    let counters = Arc::new(Counters::default());
    let prices_per_s = closed_loop(args, tracer, &references, &mut out, |i| {
        let k = i % seeds.len();
        let dir = fresh_dir(tmp, &format!("measure-{i}"));
        let (times, report) = timed(tracer, clock, || -> Result<_, String> {
            let mut engine = tracer
                .span("core.world_build_ms", || {
                    paper(seeds[k], THREADS)
                        .store_format(StoreFormat::Binary)
                        .observer(counters.clone())
                        .build()
                })
                .map_err(|e| e.to_string())?;
            tracer.span("core.crowd_stage_ms", || {
                engine.crowd();
            });
            tracer.span("core.crawl_stage_ms", || {
                engine.crawl();
            });
            tracer.span("core.persona_stage_ms", || {
                engine.personas();
            });
            let analysis = tracer.span("core.analysis_stage_ms", || engine.analyze());
            tracer
                .span("core.store_save_ms", || {
                    engine.save_artifacts(&dir)?;
                    engine.save_analysis(&dir, &analysis)
                })
                .map_err(|e| format!("saving the store: {e}"))?;
            Ok(analysis.report)
        });
        counters.drain_into(tracer);
        tracer.value("core.store_bytes", dir_bytes(&dir) as f64);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Iteration {
            times,
            json: report?.to_json(),
            prices: prices[k],
            reference: k,
        })
    });
    let run_ms: Vec<f64> = out.latency_ms.iter().map(|s| s.1).collect();
    out.note("run_ms_p50", median(&run_ms), "ms");
    out.note("run_ms_p90", reportable_quantile(&run_ms, 0.9), "ms");
    out.note("prices_per_s", prices_per_s, "1/s");
    if let Some(mut engine) = subject {
        tracer.set_enabled(true);
        out.ratios.push((
            "extract.ok_ratio",
            layers::replay_all(tracer, &mut engine, derive(args.seed, "replay")),
        ));
    }
    Ok(out)
}

pub fn reanalyze(
    args: &Args,
    tracer: &Tracer,
    clock: &RefClock,
    tmp: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = seed_set(args.seed, "reanalyze", 1)[0];
    // Set-up, repeated: measure once, save the binary store, keep the
    // in-memory report as the reference.
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let (start, at) = (Instant::now(), clock.now_s());
        let dir = fresh_dir(tmp, &format!("reanalyze-store-{rep}"));
        let mut engine = paper(seed, THREADS)
            .store_format(StoreFormat::Binary)
            .build()
            .map_err(|e| e.to_string())?;
        let analysis = engine.analyze();
        engine
            .save_artifacts(&dir)
            .and_then(|_| engine.save_analysis(&dir, &analysis))
            .map_err(|e| format!("saving the store: {e}"))?;
        let reference = analysis.report.to_json();
        out.setup_unit(clock.now_s() - at, start.elapsed().as_secs_f64());
        if let Some((old_dir, _, _)) = kept.replace((dir, reference, engine)) {
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (dir, reference, mut engine) = kept.expect("at least one set-up");
    let plan = engine.plan().clone();
    let prices = extracted_prices(&mut engine);
    let references = [reference];

    let counters = Arc::new(Counters::default());
    let prices_per_s = closed_loop(args, tracer, &references, &mut out, |_| {
        let (times, report) = timed(tracer, clock, || -> Result<_, String> {
            let mut rerun = tracer.span("core.world_build_ms", || {
                Engine::from_plan(plan.clone(), Executor::new(THREADS), counters.clone())
            });
            let loaded = tracer
                .span("core.store_load_ms", || rerun.load_artifacts(&dir))
                .map_err(|e| format!("loading the store: {e}"))?;
            if !loaded.complete() {
                return Err(format!("store incomplete: {loaded:?}"));
            }
            Ok(tracer
                .span("core.analysis_stage_ms", || rerun.analyze())
                .report)
        });
        counters.drain_into(tracer);
        Ok(Iteration {
            times,
            json: report?.to_json(),
            prices,
            reference: 0,
        })
    });
    let run_ms: Vec<f64> = out.latency_ms.iter().map(|s| s.1).collect();
    out.note("run_ms_p50", median(&run_ms), "ms");
    out.note("run_ms_p90", reportable_quantile(&run_ms, 0.9), "ms");
    out.note("analysed_prices_per_s", prices_per_s, "1/s");
    if args.trace {
        tracer.set_enabled(true);
        out.ratios.push((
            "extract.ok_ratio",
            layers::replay_all(tracer, &mut engine, derive(args.seed, "replay")),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
