//! The `serve-mix` workload: an in-process `pd serve` daemon driven
//! open-loop over loopback HTTP.
//!
//! The daemon runs 2 runners at 1 executor thread each and reads
//! through a binary `paper`/`smoke` store of one seed. One driving
//! thread submits on a seeded schedule (see [`crate::plan::schedule`])
//! at a few fixed arrival rates, polls its outstanding jobs every
//! [`POLL_EVERY`], fetches every finished job's report and checks it
//! byte for byte against the offline `reports_to_json` of the same
//! (scenario, seed, profile), and scrapes `/metrics` and `GET /runs`
//! about once a second. It uses two client connections: one for jobs,
//! one for scrapes. A job's latency runs from its due time to its
//! fetched report.
//!
//! The schedule runs on a [`RefClock`]: arrival times and latencies are
//! in reference seconds (see [`crate::speed`]), so when the host slows
//! down the offered load slows with it, the daemon stays at the same
//! share of its capacity, and a job's latency reads the same.

use crate::closed::fresh_dir;
use crate::layers;
use crate::plan::{derive, schedule, Arrival, Kind, Rng, ServeSeeds, BURST_SIZE};
use crate::speed::RefClock;
use crate::stats::{max_jobs_per_s, median, quantile, reportable_quantile, Phase};
use crate::trace::{SpanId, Tracer};
use crate::{cpu_s, Args, Outcome};
use pd_core::{reports_to_json, Experiment, ExperimentBuilder, Profile, StoreFormat};
use pd_serve::{Client, ServeConfig, Server, SubmitRequest};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The tested phases in order: offered submission rate (jobs per
/// second) and share of `--seconds`. The first is the reference rate,
/// about half of capacity on 2 cores (queueing there amplifies any
/// slowdown of the jobs, so it is kept low), and runs long enough for
/// 100 jobs at 30 seconds.
const RATES: [(f64, f64); 2] = [(4.5, 0.8), (9.0, 0.2)];
const RUNNERS: usize = 2;
const HTTP_THREADS: usize = 4;
const QUEUE: usize = 16;
/// Poll interval for outstanding jobs.
const POLL_EVERY: Duration = Duration::from_millis(5);
/// Outstanding jobs polled per tick, oldest first: the runners take
/// jobs in queue order, so a finished job is almost always among the
/// oldest.
const POLL_WINDOW: usize = RUNNERS + 2;
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
/// How long a phase may take to drain after its last submission.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 3;

/// Expected submissions per arrival event of the mix (bursts add
/// `BURST_SIZE - 1` to one event in 15).
fn submissions_per_event() -> f64 {
    1.0 + (BURST_SIZE - 1) as f64 / 15.0
}

fn smoke(seed: u64) -> ExperimentBuilder {
    Experiment::builder()
        .scenario("paper")
        .profile(Profile::Smoke)
        .seed(seed)
        .threads(2)
}

/// The offline report a served job must equal, byte for byte.
fn offline_json(seed: u64) -> Result<String, String> {
    let arms = smoke(seed).run_sweep().map_err(|e| e.to_string())?;
    let reports: Vec<(String, pd_core::Report)> = arms
        .into_iter()
        .map(|arm| (arm.label, arm.analysis.report))
        .collect();
    Ok(reports_to_json(&reports))
}

fn submission(seed: u64) -> SubmitRequest {
    SubmitRequest {
        scenario: Some("paper".to_owned()),
        seed: Some(seed),
        profile: Some("smoke".to_owned()),
        ..SubmitRequest::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `key value` lines of `/metrics`.
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|line| {
            let (k, v) = line.split_once(' ')?;
            Some((k.to_owned(), v.trim().parse().ok()?))
        })
        .collect()
}

/// Resident set size of this process, kB.
fn rss_kb() -> f64 {
    crate::proc_status_kb("VmRSS").unwrap_or(0.0)
}

struct Job {
    id: String,
    seed: u64,
    kind: Kind,
    /// Due time on the reference clock, s, and on the wall clock.
    due_s: f64,
    due: Instant,
    /// The traced job's span (odd jobs of a traced run).
    span: Option<SpanId>,
    trace: u64,
}

/// One phase's observations plus its failure accounting.
#[derive(Default)]
struct PhaseRun {
    phase: Phase,
    submitted: u64,
    /// Refused (503), failed, mismatching or unfinished submissions.
    failed: u64,
    /// Every submission's latency at reference speed and on the wall
    /// clock (infinite for a miss), the part of the mix it is, and
    /// whether it was traced.
    samples: Vec<(Kind, f64, f64, bool)>,
    /// When the last report was fetched, reference s.
    last_done_s: Option<f64>,
}

impl PhaseRun {
    /// Records a settled submission; an infinite latency is a miss.
    fn settle(&mut self, kind: Kind, latency_ms: f64, wall_ms: f64, traced: bool) {
        self.phase.latencies_ms.push(latency_ms);
        self.samples.push((kind, latency_ms, wall_ms, traced));
        if latency_ms.is_finite() {
            self.phase.completed += 1;
        } else {
            self.failed += 1;
        }
    }

    /// `(class, latency)` samples of the traced or untraced jobs, at
    /// reference speed or on the wall clock. A job's class is the seed
    /// it asks for: the stored seed (bursts included), a hot seed or a
    /// fresh one.
    fn classed(&self, traced: bool, wall: bool) -> Vec<(usize, f64)> {
        self.samples
            .iter()
            .filter(|s| s.3 == traced)
            .map(|&(kind, latency, wall_ms, _)| {
                let latency = if wall { wall_ms } else { latency };
                let class = match kind {
                    Kind::Stored | Kind::Burst => 0,
                    Kind::Hot => 1,
                    Kind::Fresh => 2,
                };
                (class, latency)
            })
            .collect()
    }
}

/// The load generator's state (one thread).
struct LoadGen<'a> {
    tracer: &'a Tracer,
    clock: &'a RefClock,
    jobs: Client,
    scrape: Client,
    /// Reference report per seed (the stored and hot seeds).
    references: HashMap<u64, String>,
    /// Where reports of seeds without a reference yet are parked until
    /// the run ends (on disk, so they do not weigh on the process's
    /// memory).
    parked: PathBuf,
    /// Seeds with a parked report, and whether it was served at the
    /// reference rate.
    unverified: HashMap<u64, bool>,
    problems: Vec<String>,
    submitted: u64,
    /// Accepted submissions of never-seen seeds.
    fresh_submitted: u64,
    next_scrape: Instant,
    in_reference_phase: bool,
}

impl LoadGen<'_> {
    fn submit(
        &mut self,
        arrival: &Arrival,
        due_s: f64,
        pending: &mut VecDeque<Job>,
        run: &mut PhaseRun,
    ) {
        let sent = Instant::now();
        let due = self.clock.wall_at(due_s);
        self.tracer
            .value("loadgen.lateness_ms", (self.clock.now_s() - due_s) * 1e3);
        let traced = self.tracer.enabled() && self.submitted % 2 == 1;
        self.submitted += 1;
        run.submitted += 1;
        let trace = self.tracer.new_trace();
        let span = traced.then(|| self.tracer.open("serve.job_ms", due, None, trace));
        let reply = self.jobs.submit(&submission(arrival.seed));
        if let Some(parent) = span {
            self.tracer.record(
                "serve.http_rtt_us",
                sent,
                Instant::now(),
                Some(parent),
                trace,
            );
        }
        match reply {
            Ok(id) => {
                if arrival.kind == Kind::Fresh {
                    self.fresh_submitted += 1;
                }
                pending.push_back(Job {
                    id,
                    seed: arrival.seed,
                    kind: arrival.kind,
                    due_s,
                    due,
                    span,
                    trace,
                });
            }
            Err(e) => {
                if e.contains("status 503") {
                    self.tracer.value("serve.rejected", 1.0);
                    if self.in_reference_phase {
                        self.problems
                            .push(format!("refused at the reference rate: {e}"));
                    }
                } else {
                    self.problems.push(format!("submit failed: {e}"));
                }
                run.settle(arrival.kind, f64::INFINITY, f64::INFINITY, traced);
                if let Some(s) = span {
                    self.tracer.close(s, Instant::now());
                }
            }
        }
    }

    fn parked_path(&self, seed: u64) -> PathBuf {
        self.parked.join(format!("served-{seed}.json"))
    }

    /// Checks a served report against its reference, or against the
    /// first report served for the same seed; a seed's first report is
    /// parked until its reference is computed after the run.
    fn verify(&mut self, job: &Job, body: &str) -> bool {
        let same = match self.references.get(&job.seed) {
            Some(reference) => reference == body,
            None if self.unverified.contains_key(&job.seed) => {
                std::fs::read_to_string(self.parked_path(job.seed)).is_ok_and(|first| first == body)
            }
            None => {
                if let Err(e) = std::fs::write(self.parked_path(job.seed), body) {
                    self.problems.push(format!("parking {}: {e}", job.id));
                    return false;
                }
                self.unverified.insert(job.seed, self.in_reference_phase);
                return true;
            }
        };
        if !same {
            self.problems.push(format!(
                "{} (seed {}): served report differs from offline",
                job.id, job.seed
            ));
        }
        same
    }

    /// Polls the oldest outstanding jobs; settles those that finished.
    fn poll(&mut self, pending: &mut VecDeque<Job>, run: &mut PhaseRun) {
        let mut settled = Vec::new();
        for (idx, job) in pending.iter().take(POLL_WINDOW).enumerate() {
            let t0 = Instant::now();
            let snapshot = self.jobs.job(&job.id);
            if let Some(parent) = job.span {
                self.tracer.record(
                    "serve.http_rtt_us",
                    t0,
                    Instant::now(),
                    Some(parent),
                    job.trace,
                );
            }
            let snapshot = match snapshot {
                Ok(s) => s,
                Err(e) => {
                    self.problems.push(format!("polling {}: {e}", job.id));
                    settled.push((idx, None));
                    continue;
                }
            };
            match snapshot.status.as_str() {
                "done" => {
                    let r0 = Instant::now();
                    let report = self.jobs.report(&job.id);
                    let fetched = Instant::now();
                    if let Some(parent) = job.span {
                        self.tracer.record(
                            "serve.report_fetch_us",
                            r0,
                            fetched,
                            Some(parent),
                            job.trace,
                        );
                        self.tracer.close(parent, fetched);
                    }
                    match snapshot.coalesced_into {
                        None => {
                            self.tracer.value(
                                "serve.queue_wait_ms",
                                snapshot.queued_ms.unwrap_or(0) as f64,
                            );
                            self.tracer
                                .value("serve.run_ms", snapshot.run_ms.unwrap_or(0) as f64);
                        }
                        Some(_) => self.tracer.value("serve.coalesced", 1.0),
                    }
                    match report {
                        Ok(body) => settled.push((idx, Some((fetched, self.clock.now_s(), body)))),
                        Err(e) => {
                            self.problems.push(format!("fetching {}: {e}", job.id));
                            settled.push((idx, None));
                        }
                    }
                }
                "failed" => {
                    self.problems.push(format!(
                        "{} failed: {}",
                        job.id,
                        snapshot.error.unwrap_or_default()
                    ));
                    settled.push((idx, None));
                }
                _ => {}
            }
        }
        for (idx, outcome) in settled.into_iter().rev() {
            let job = pending.remove(idx).expect("settled index is pending");
            match outcome {
                Some((fetched, fetched_s, body)) if self.verify(&job, &body) => {
                    let latency_ms = (fetched_s - job.due_s) * 1e3;
                    let wall_ms = ms(fetched.saturating_duration_since(job.due));
                    run.settle(job.kind, latency_ms, wall_ms, job.span.is_some());
                    run.last_done_s = Some(run.last_done_s.map_or(fetched_s, |t| t.max(fetched_s)));
                }
                _ => run.settle(job.kind, f64::INFINITY, f64::INFINITY, job.span.is_some()),
            }
        }
    }

    /// Scrapes `/metrics` and `GET /runs` once the interval has passed.
    fn maybe_scrape(&mut self, now: Instant) {
        if now < self.next_scrape {
            return;
        }
        self.next_scrape = now + SCRAPE_EVERY;
        if let Err(e) = self.scrape_once() {
            self.problems.push(e);
        }
    }

    fn scrape_once(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let t0 = Instant::now();
        let text = self.scrape.metrics()?;
        let t1 = Instant::now();
        let runs = self.scrape.runs()?;
        let t2 = Instant::now();
        if self.tracer.enabled() {
            let trace = self.tracer.new_trace();
            self.tracer.record("serve.http_rtt_us", t0, t1, None, trace);
            self.tracer.record("serve.http_rtt_us", t1, t2, None, trace);
        }
        let metrics = parse_metrics(&text);
        if !metrics.contains_key("jobs_done") || runs.runs.is_empty() {
            return Err("scrape returned no job metrics".to_owned());
        }
        Ok(metrics)
    }

    /// Runs one phase: submits `arrivals` on schedule, settles every job
    /// (or gives up [`DRAIN_LIMIT`] after the schedule has ended).
    fn run_phase(&mut self, rate: f64, seconds: f64, arrivals: &[Arrival]) -> PhaseRun {
        let mut run = PhaseRun {
            phase: Phase {
                rate,
                ..Phase::default()
            },
            ..PhaseRun::default()
        };
        let start_s = self.clock.now_s() + 0.01;
        let send_end_s = start_s + seconds;
        let first_due_s = start_s + arrivals.first().map_or(0.0, |a| a.due_s);
        let mut pending: VecDeque<Job> = VecDeque::new();
        let mut next = 0;
        let mut next_poll = Instant::now();
        let mut ended: Option<Instant> = None;
        loop {
            let now_s = self.clock.now_s();
            while let Some(arrival) = arrivals.get(next) {
                let due_s = start_s + arrival.due_s;
                if due_s > now_s {
                    break;
                }
                self.submit(arrival, due_s, &mut pending, &mut run);
                next += 1;
            }
            let now = Instant::now();
            if now >= next_poll {
                self.poll(&mut pending, &mut run);
                if self.clock.now_s() < send_end_s {
                    run.phase.depths.push(pending.len() as f64);
                }
                next_poll = now + POLL_EVERY;
            }
            self.maybe_scrape(now);
            if next == arrivals.len() && pending.is_empty() {
                break;
            }
            if ended.is_none() && self.clock.now_s() >= send_end_s {
                ended = Some(now);
            }
            if ended.is_some_and(|t| now >= t + DRAIN_LIMIT) {
                for job in pending.drain(..) {
                    self.problems
                        .push(format!("{} unfinished after the drain limit", job.id));
                    run.settle(job.kind, f64::INFINITY, f64::INFINITY, job.span.is_some());
                }
                break;
            }
            let next_due = arrivals.get(next).map_or(next_poll, |a| {
                self.clock.wall_at(start_s + a.due_s).min(next_poll)
            });
            let now = Instant::now();
            if next_due > now {
                std::thread::sleep(next_due - now);
            }
        }
        run.phase.span_s = run.last_done_s.map_or(0.0, |t| (t - first_due_s).max(0.0));
        run
    }
}

/// A daemon with its store, references and warm caches.
struct Fixture {
    server: Server,
    dir: PathBuf,
    references: HashMap<u64, String>,
    /// The stored seed's engine (the traced run replays its layers).
    engine: pd_core::Engine,
}

fn set_up(seeds: &ServeSeeds, dir: PathBuf) -> Result<Fixture, String> {
    let mut engine = smoke(seeds.stored)
        .store_format(StoreFormat::Binary)
        .build()
        .map_err(|e| e.to_string())?;
    let analysis = engine.analyze();
    engine
        .save_artifacts(&dir)
        .and_then(|_| engine.save_analysis(&dir, &analysis))
        .map_err(|e| format!("saving the store: {e}"))?;
    let warm: Vec<u64> = std::iter::once(seeds.stored)
        .chain(seeds.hot.iter().copied())
        .collect();
    let mut references = HashMap::new();
    for &seed in &warm {
        references.insert(seed, offline_json(seed)?);
    }
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: HTTP_THREADS,
        job_threads: 1,
        runners: RUNNERS,
        artifacts: Some(dir.clone()),
        queue_capacity: QUEUE,
        enable_shutdown: true,
        paused: false,
    })?;
    let client = Client::new(&server.addr().to_string());
    client.wait_ready(Duration::from_secs(10))?;
    // Warm the stored seed's store and every hot seed's frames.
    let mut ids = Vec::new();
    for &seed in &warm {
        ids.push((seed, client.submit(&submission(seed))?));
    }
    for (seed, id) in ids {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let snapshot = client.job(&id)?;
            match snapshot.status.as_str() {
                "done" => break,
                "failed" => return Err(format!("warm-up job {id} failed")),
                _ if Instant::now() > deadline => {
                    return Err(format!("warm-up job {id} timed out"))
                }
                _ => std::thread::sleep(POLL_EVERY),
            }
        }
        if client.report(&id)? != references[&seed] {
            return Err(format!(
                "warm-up job {id} (seed {seed}) differs from offline"
            ));
        }
    }
    Ok(Fixture {
        server,
        dir,
        references,
        engine,
    })
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

pub fn serve_mix(
    args: &Args,
    tracer: &Tracer,
    clock: &RefClock,
    tmp: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = ServeSeeds::new(args.seed);
    let mut fixture: Option<Fixture> = None;
    for rep in 0..SETUP_REPS {
        let (next, ref_s, wall_s) =
            clock.time(|| set_up(&seeds, fresh_dir(tmp, &format!("serve-store-{rep}"))));
        out.setup_unit(ref_s, wall_s);
        if let Some(old) = fixture.replace(next?) {
            stop(old.server);
            let _ = std::fs::remove_dir_all(old.dir);
        }
    }
    let Fixture {
        server,
        dir,
        references,
        mut engine,
    } = fixture.expect("at least one set-up");

    tracer.set_enabled(args.trace);
    let addr = server.addr().to_string();
    let mut load = LoadGen {
        tracer,
        clock,
        jobs: Client::new(&addr),
        scrape: Client::new(&addr),
        references,
        parked: tmp.to_path_buf(),
        unverified: HashMap::new(),
        problems: Vec::new(),
        submitted: 0,
        fresh_submitted: 0,
        next_scrape: Instant::now(),
        in_reference_phase: true,
    };
    let before = load.scrape_once()?;
    let rss_before = rss_kb();
    let mut rng = Rng::new(derive(args.seed, "serve-mix/schedule"));
    let mut fresh = 0;
    let mut phases = Vec::new();
    let mut reference = PhaseRun::default();
    for (k, &(rate, share)) in RATES.iter().enumerate() {
        let seconds = args.seconds as f64 * share;
        let events = (rate * seconds / submissions_per_event()).round() as usize;
        let arrivals = schedule(&mut rng, &seeds, events.max(1), seconds, &mut fresh);
        load.in_reference_phase = k == 0;
        let cpu = cpu_s();
        let run = load.run_phase(rate, seconds, &arrivals);
        if k == 0 {
            out.cpu_s = cpu_s() - cpu;
            out.cpu_ops = run.submitted;
        }
        out.note(
            &format!("rate_{rate}_job_ms_p90"),
            quantile(&run.phase.latencies_ms, 0.9),
            "ms",
        );
        out.note(
            &format!("rate_{rate}_meets_limit"),
            Some(f64::from(u8::from(run.phase.passes()))),
            "bool",
        );
        phases.push(run.phase.clone());
        if k == 0 {
            reference = run;
        }
    }
    let after = load.scrape_once()?;
    let rss_after = rss_kb();
    stop(server);

    // Seeds first served in the run: compare with their offline report.
    let mut unverified: Vec<(u64, bool)> = load.unverified.drain().collect();
    unverified.sort_unstable();
    for (seed, at_reference) in unverified {
        let served = std::fs::read_to_string(load.parked_path(seed)).map_err(|e| e.to_string())?;
        if offline_json(seed)? != served {
            load.problems
                .push(format!("seed {seed}: served report differs from offline"));
            if at_reference {
                reference.failed += 1;
            }
        }
    }

    if args.trace {
        let delta = |key: &str| {
            after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
        };
        let executions = (delta("jobs_done") - delta("jobs_coalesced")).max(0.0) as u64;
        for (stage, name) in [
            ("build", "core.world_build_ms"),
            ("crowd", "core.crowd_stage_ms"),
            ("crawl", "core.crawl_stage_ms"),
            ("personas", "core.persona_stage_ms"),
            ("analysis", "core.analysis_stage_ms"),
        ] {
            tracer.add_series(name, executions, delta(&format!("stage_ms_{stage}")));
        }
        for (key, name) in [
            ("frames_built", "core.frames_built"),
            ("frames_reused", "core.frames_reused"),
            ("frames_chunks_loaded", "core.chunks_loaded"),
            ("store_hits", "serve.store_hits"),
        ] {
            tracer.value(name, delta(key));
        }
        let frames = delta("frames_built") + delta("frames_reused");
        if frames > 0.0 {
            out.ratios
                .push(("serve.frame_reuse_ratio", delta("frames_reused") / frames));
        }
        if load.fresh_submitted > 0 {
            out.ratios.push((
                "serve.rss_per_fresh_job_kb",
                (rss_after - rss_before) / load.fresh_submitted as f64,
            ));
        }
        out.ratios.push((
            "extract.ok_ratio",
            layers::replay_all(tracer, &mut engine, derive(args.seed, "replay")),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    out.attempted = reference.submitted;
    out.failed = reference.failed;
    out.problems = load.problems;
    out.latency_ms = reference.classed(false, false);
    out.traced_ms = reference.classed(true, false);
    out.wall_ms = reference.classed(false, true);
    out.note("job_ms_p50", median(&reference.phase.latencies_ms), "ms");
    out.note(
        "job_ms_p90",
        reportable_quantile(&reference.phase.latencies_ms, 0.9),
        "ms",
    );
    for (kind, name) in [
        (Kind::Stored, "job_ms_p50_stored"),
        (Kind::Hot, "job_ms_p50_hot"),
        (Kind::Fresh, "job_ms_p50_fresh"),
        (Kind::Burst, "job_ms_p50_burst"),
    ] {
        let of_kind: Vec<f64> = reference
            .samples
            .iter()
            .filter(|s| s.0 == kind)
            .map(|s| s.1)
            .collect();
        out.note(name, median(&of_kind), "ms");
    }
    out.note("max_jobs_per_s", Some(max_jobs_per_s(&phases)), "1/s");
    out.note("fresh_jobs", Some(load.fresh_submitted as f64), "count");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_parses_to_numbers() {
        let m = parse_metrics("jobs_done 3\nqueue_depth 0\nbogus\nstage_ms_build 12\n");
        assert_eq!(m["jobs_done"], 3.0);
        assert_eq!(m["stage_ms_build"], 12.0);
        assert!(!m.contains_key("bogus"));
    }

    #[test]
    fn arrival_kinds_cover_the_mix() {
        let seeds = ServeSeeds::new(3);
        let mut rng = Rng::new(1);
        let mut fresh = 0;
        let plan = schedule(&mut rng, &seeds, 200, 10.0, &mut fresh);
        for kind in [Kind::Stored, Kind::Hot, Kind::Fresh, Kind::Burst] {
            assert!(plan.iter().any(|a| a.kind == kind), "{kind:?}");
        }
        assert_eq!(
            fresh as usize,
            plan.iter().filter(|a| a.kind == Kind::Fresh).count()
        );
    }
}
