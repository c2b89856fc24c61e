//! Per-layer measurement: the metric table, the engine-counter
//! observer, and the layer replays of a traced run.
//!
//! Replays call each layer's public entry points on the data of the
//! workload's own run (its world and artifacts), one call per span, so
//! a layer's cost shows without instrumenting the program: the crowd
//! checks and cleaning (pd-sheriff), the per-retailer crawl
//! (pd-crawler), the page path on a seeded sample of crawled checks
//! (`WebWorld::fetch` → `pd_html::parse` → `HighlightExtractor`), and
//! the analysis steps (frame build, summary, figures, attribution,
//! third-party scan).

use crate::plan::Rng;
use crate::trace::Tracer;
use pd_core::analysis::{self, summary::SummaryScan, CheckFrame};
use pd_core::currency::Locale;
use pd_core::extract::HighlightExtractor;
use pd_core::net::clock::SimTime;
use pd_core::sheriff::cleaning::clean;
use pd_core::web::template::price_selector;
use pd_core::web::Request;
use pd_core::{Engine, RunObserver, StageKind};
use std::hint::black_box;
use std::sync::Mutex;

/// How a per-layer metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A span or value series: `.count`, `.total` and `.max`.
    Series,
    /// A span with child spans: `.count`, `.total` and `.self` (the
    /// part of its time no child covers).
    Parent,
    /// A summed count: one value.
    Sum,
    /// A computed ratio: one value.
    Ratio,
}

/// Every per-layer metric: base name, unit, shape. Span names are the
/// base names; a `_ms`/`_us` suffix gives the unit spans convert to.
pub const LAYER_METRICS: &[(&str, &str, Shape)] = &[
    ("loop.iteration_ms", "ms", Shape::Parent),
    ("core.world_build_ms", "ms", Shape::Series),
    ("core.crowd_stage_ms", "ms", Shape::Series),
    ("core.crawl_stage_ms", "ms", Shape::Series),
    ("core.persona_stage_ms", "ms", Shape::Series),
    ("core.analysis_stage_ms", "ms", Shape::Series),
    ("core.store_save_ms", "ms", Shape::Series),
    ("core.store_bytes", "B", Shape::Series),
    ("core.store_load_ms", "ms", Shape::Series),
    ("core.chunks_loaded", "count", Shape::Sum),
    ("core.frames_built", "count", Shape::Sum),
    ("core.frames_reused", "count", Shape::Sum),
    ("replay.crowd_ms", "ms", Shape::Parent),
    ("sheriff.check_us", "us", Shape::Series),
    ("sheriff.clean_ms", "ms", Shape::Series),
    ("replay.crawl_ms", "ms", Shape::Parent),
    ("crawler.retailer_ms", "ms", Shape::Series),
    ("crawler.retries", "count", Shape::Sum),
    ("replay.page_us", "us", Shape::Parent),
    ("web.fetch_us", "us", Shape::Series),
    ("web.fetch_failed", "count", Shape::Sum),
    ("html.parse_us", "us", Shape::Series),
    ("html.bytes", "B", Shape::Series),
    ("extract.us", "us", Shape::Series),
    ("extract.ok_ratio", "ratio", Shape::Ratio),
    ("replay.analysis_ms", "ms", Shape::Parent),
    ("analysis.frame_build_ms", "ms", Shape::Series),
    ("analysis.summary_ms", "ms", Shape::Series),
    ("analysis.figures_ms", "ms", Shape::Series),
    ("analysis.attribution_ms", "ms", Shape::Series),
    ("analysis.thirdparty_ms", "ms", Shape::Series),
    ("serve.job_ms", "ms", Shape::Parent),
    ("serve.queue_wait_ms", "ms", Shape::Series),
    ("serve.run_ms", "ms", Shape::Series),
    ("serve.rejected", "count", Shape::Sum),
    ("serve.coalesced", "count", Shape::Sum),
    ("serve.store_hits", "count", Shape::Sum),
    ("serve.frame_reuse_ratio", "ratio", Shape::Ratio),
    ("serve.http_rtt_us", "us", Shape::Series),
    ("serve.report_fetch_us", "us", Shape::Series),
    ("serve.rss_per_fresh_job_kb", "kB", Shape::Ratio),
    ("loadgen.lateness_ms", "ms", Shape::Series),
    ("trace.overhead_ms", "ms", Shape::Ratio),
    ("trace.overhead_ratio", "ratio", Shape::Ratio),
];

/// The reported metric names with their units, in table order.
#[cfg(test)]
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for &(base, unit, shape) in LAYER_METRICS {
        let suffixes: &[(&str, &str)] = match shape {
            Shape::Series => &[(".count", "count"), (".total", unit), (".max", unit)],
            Shape::Parent => &[(".count", "count"), (".total", unit), (".self", unit)],
            Shape::Sum | Shape::Ratio => &[("", unit)],
        };
        for &(suffix, u) in suffixes {
            out.push((format!("{base}{suffix}"), u));
        }
    }
    out
}

/// Every per-layer metric's value from a traced run: span aggregates
/// first, then recorded values; `ratios` supplies the computed ones.
/// A layer the workload never reached reads 0.
pub fn layer_metrics(tracer: &Tracer, ratios: &[(&str, f64)]) -> Vec<(String, f64, &'static str)> {
    let spans = tracer.span_aggregates();
    let values = tracer.values();
    let mut out = Vec::new();
    for &(base, unit, shape) in LAYER_METRICS {
        let per_ns = match unit {
            "us" => 1e3,
            _ => 1e6,
        };
        let (count, total, max, self_time) = match (spans.get(base), values.get(base)) {
            (Some(s), _) => (
                s.count as f64,
                s.total_ns as f64 / per_ns,
                s.max_ns as f64 / per_ns,
                s.self_ns as f64 / per_ns,
            ),
            (None, Some(v)) => (v.count as f64, v.total, v.max, 0.0),
            (None, None) => (0.0, 0.0, 0.0, 0.0),
        };
        match shape {
            Shape::Series => {
                out.push((format!("{base}.count"), count, "count"));
                out.push((format!("{base}.total"), total, unit));
                out.push((format!("{base}.max"), max, unit));
            }
            Shape::Parent => {
                out.push((format!("{base}.count"), count, "count"));
                out.push((format!("{base}.total"), total, unit));
                out.push((format!("{base}.self"), self_time, unit));
            }
            Shape::Sum => out.push((base.to_owned(), total, unit)),
            Shape::Ratio => {
                let v = ratios.iter().find(|(n, _)| *n == base).map_or(0.0, |r| r.1);
                out.push((base.to_owned(), v, unit));
            }
        }
    }
    out
}

/// Collects the engine's own counters (frames built and reused, chunks
/// streamed, crawl retries) at the stage boundaries where it emits them.
#[derive(Debug, Default)]
pub struct Counters(Mutex<Vec<(&'static str, u64)>>);

impl RunObserver for Counters {
    fn counter(&self, _stage: StageKind, name: &str, value: u64) {
        let key = match name {
            "frames_built" => "core.frames_built",
            "frames_reused" => "core.frames_reused",
            "frames_chunks_loaded" => "core.chunks_loaded",
            "retries" => "crawler.retries",
            _ => return,
        };
        self.0.lock().expect("counter lock").push((key, value));
    }
}

impl Counters {
    /// Moves the collected counters into the tracer (dropping them when
    /// it is disabled).
    pub fn drain_into(&self, tracer: &Tracer) {
        let drained = std::mem::take(&mut *self.0.lock().expect("counter lock"));
        for (name, value) in drained {
            tracer.value(name, value as f64);
        }
    }
}

/// Crowd checks replayed per traced run.
const CHECK_SAMPLE: usize = 64;
/// Crawled pages replayed per traced run.
const PAGE_SAMPLE: usize = 256;

/// Replays every layer on `engine`'s world and artifacts (computed or
/// loaded), drawing samples from `seed`. Returns the share of replayed
/// pages whose price was extracted.
pub fn replay_all(tracer: &Tracer, engine: &mut Engine, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    replay_crowd(tracer, engine, &mut rng);
    replay_crawl(tracer, engine);
    let ok_ratio = replay_pages(tracer, engine, &mut rng);
    replay_analysis(tracer, engine);
    ok_ratio
}

/// pd-sheriff: a sample of the planned crowd checks, then the cleaning
/// pass over the whole raw crowd store.
fn replay_crowd(tracer: &Tracer, engine: &mut Engine, rng: &mut Rng) {
    let raw = engine.crowd().raw.clone();
    let world = engine.world();
    let (web, crowd) = (&world.web, &world.crowd);
    tracer.span("replay.crowd_ms", || {
        let plans = crowd.plan_campaign(web);
        for _ in 0..CHECK_SAMPLE.min(plans.len()) {
            let plan = &plans[rng.below(plans.len())];
            tracer.span("sheriff.check_us", || {
                black_box(crowd.execute_check(web, &world.sheriff, plan));
            });
        }
        tracer.span("sheriff.clean_ms", || {
            black_box(clean(&raw, web.fx(), |m| {
                let user = crowd.users().get(m.user.index())?;
                let server = web.server_by_domain(&m.domain)?;
                let path = format!("/product/{}", m.product_slug);
                let resp = web.fetch(&Request::get(&m.domain, &path, user.addr(), m.time));
                if resp.status.code() != 200 {
                    return None;
                }
                let doc = pd_core::html::parse(&resp.body);
                let ex = HighlightExtractor::from_highlight(
                    &doc,
                    &price_selector(server.spec().template_style),
                )?;
                ex.extract(&doc, Some(Locale::of_country(user.location.country)))
                    .ok()
                    .map(|e| e.price)
            }));
        });
    });
}

/// pd-crawler: every crawl target, one `crawl_one` span each (serial,
/// so each span is one retailer's own cost).
fn replay_crawl(tracer: &Tracer, engine: &Engine) {
    let world = engine.world();
    let config = engine.config();
    let crawler = pd_core::crawler::Crawler::new(config.seed, config.crawl.clone());
    tracer.span("replay.crawl_ms", || {
        for target in world.paper_crawl_targets() {
            tracer.span("crawler.retailer_ms", || {
                black_box(crawler.crawl_one(&world.web, &world.sheriff, &target));
            });
        }
    });
}

/// The page path on a seeded sample of crawled (check, vantage) pairs:
/// the same request the fan-out sends, parsed and extracted with the
/// retailer's template highlight.
fn replay_pages(tracer: &Tracer, engine: &mut Engine, rng: &mut Rng) -> f64 {
    let store = engine.crawl().store.clone();
    let world = engine.world();
    let records = store.records();
    if records.is_empty() {
        return 0.0;
    }
    let vantages = world.sheriff.vantage_points();
    let mut ok = 0usize;
    let mut tried = 0usize;
    for _ in 0..PAGE_SAMPLE {
        let m = &records[rng.below(records.len())];
        let Some(obs) = m.observations.get(rng.below(m.observations.len().max(1))) else {
            continue;
        };
        let Some(vp) = vantages.iter().find(|v| v.id == obs.vantage) else {
            continue;
        };
        let Some(server) = world.web.server_by_domain(&m.domain) else {
            continue;
        };
        let req = Request::get(
            &m.domain,
            &format!("/product/{}", m.product_slug),
            vp.addr,
            m.time,
        )
        .with_header("user-agent", &vp.platform.user_agent());
        tried += 1;
        let extracted = tracer.span("replay.page_us", || {
            let resp = tracer.span("web.fetch_us", || world.web.fetch(&req));
            if resp.status.code() != 200 {
                tracer.value("web.fetch_failed", 1.0);
                return false;
            }
            tracer.value("html.bytes", resp.body.len() as f64);
            let doc = tracer.span("html.parse_us", || pd_core::html::parse(&resp.body));
            tracer.span("extract.us", || {
                HighlightExtractor::from_highlight(
                    &doc,
                    &price_selector(server.spec().template_style),
                )
                .and_then(|ex| {
                    ex.extract(&doc, Some(Locale::of_country(vp.location.country)))
                        .ok()
                })
                .is_some()
            })
        });
        ok += usize::from(extracted);
    }
    ok as f64 / tried.max(1) as f64
}

/// pd-analysis: the steps of the analysis stage, each a span, over the
/// engine's crowd, crawl and persona artifacts.
fn replay_analysis(tracer: &Tracer, engine: &mut Engine) {
    let crowd = engine.crowd().clone();
    let crawl = engine.crawl().clone();
    let personas = engine.personas().clone();
    let world = engine.world();
    let config = engine.config();
    let fx = world.web.fx();
    tracer.span("replay.analysis_ms", || {
        let (crowd_frame, crawl_frame) = tracer.span("analysis.frame_build_ms", || {
            (
                CheckFrame::build(&crowd.cleaned, fx),
                CheckFrame::build(&crawl.store, fx),
            )
        });
        tracer.span("analysis.summary_ms", || {
            let mut scan = SummaryScan::new();
            crowd.raw.records().iter().for_each(|m| scan.crowd_row(m));
            crawl.store.records().iter().for_each(|m| scan.crawl_row(m));
            black_box(scan.finish(&world.crowd));
        });
        tracer.span("analysis.figures_ms", || {
            let labels = world.vantage_labels();
            let fig1 = analysis::crowd::fig1_ranking(&crowd_frame, config.analysis.fig1_domains);
            let domains: Vec<String> = fig1.iter().map(|b| b.domain.clone()).collect();
            black_box(analysis::crowd::fig2_ratio_boxes(&crowd_frame, &domains));
            black_box(analysis::crawl::fig3_extent(&crawl_frame));
            black_box(analysis::crawl::fig4_magnitude(&crawl_frame));
            black_box(analysis::crawl::fig5_scatter(&crawl_frame));
            for domain in ["www.digitalrev.com", "www.energie.it"] {
                black_box(analysis::strategy::fig6_curves(
                    &crawl_frame,
                    domain,
                    &labels[..3],
                ));
            }
            black_box(analysis::location::fig7_location_boxes(
                &crawl_frame,
                &labels,
            ));
            for domain in ["www.homedepot.com", "www.amazon.com", "store.killah.com"] {
                black_box(analysis::location::fig8_pairwise(
                    &crawl_frame,
                    domain,
                    &labels[..6],
                ));
            }
            if let Some(finland) = world.vantage_by_label("Finland - Tampere") {
                black_box(analysis::location::fig9_finland(&crawl_frame, finland.id));
            }
            black_box(analysis::login::fig10(&personas.login));
            black_box(analysis::login::persona_summary(&personas.persona));
        });
        let targets = world.paper_crawl_targets();
        tracer.span("analysis.attribution_ms", || {
            for target in &targets {
                black_box(pd_core::stage::attribute_factors(
                    world,
                    config,
                    target,
                    config.analysis.attribution_products,
                ));
            }
        });
        // The persona site: Boston, noon of the day after the crawl.
        let day = config.crawl.start_day + config.crawl.days + 1;
        let time = SimTime::from_millis(day * 24 * 3_600_000 + 12 * 3_600_000);
        if let Some(boston) = world.vantage_by_label("USA - Boston") {
            tracer.span("analysis.thirdparty_ms", || {
                black_box(analysis::thirdparty::scan_third_parties(
                    &world.web,
                    &targets,
                    boston.addr,
                    time,
                ));
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads a top-level array of `{"name": .., "unit": ..}` objects out
    /// of the committed `BENCHMARK.json` (a minimal scan: names and
    /// units are plain strings there).
    fn committed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes") + open;
            rest[open..close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_layer_metrics() {
        let reported: Vec<(String, String)> = layer_metric_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(committed("per_layer"), reported);
        assert!(reported.len() <= 128);
        assert!(reported.iter().all(|(n, _)| n.len() <= 64));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_end_to_end_metrics() {
        let reported: Vec<(String, String)> = crate::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(committed("end_to_end"), reported);
    }

    #[test]
    fn unreached_layers_read_zero_and_spans_convert_units() {
        let t = Tracer::new(true);
        t.span("replay.page_us", || {
            t.span("web.fetch_us", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let m = layer_metrics(&t, &[("extract.ok_ratio", 0.5)]);
        let get = |name: &str| m.iter().find(|(n, _, _)| n == name).expect(name).1;
        assert_eq!(get("web.fetch_us.count"), 1.0);
        assert!(get("web.fetch_us.total") >= 2000.0, "microseconds");
        assert!(get("replay.page_us.self") < get("replay.page_us.total"));
        assert_eq!(get("core.crowd_stage_ms.count"), 0.0);
        assert_eq!(get("extract.ok_ratio"), 0.5);
        assert_eq!(m.len(), layer_metric_names().len());
    }
}
