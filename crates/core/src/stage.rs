//! Typed stage artifacts and the stage functions that produce them.
//!
//! The paper's study is a funnel of four stages; each one now has an
//! explicit, serializable artifact so callers can run, cache, reuse and
//! inspect intermediate results instead of re-running the whole world:
//!
//! * [`CrowdArtifact`] — the crowd campaign: raw store, cleaned store,
//!   [`CleaningReport`],
//! * [`CrawlArtifact`] — the systematic crawl: store + per-retailer stats,
//! * [`PersonaArtifact`] — the Sec. 4.4 login and persona probes,
//! * [`AnalysisArtifact`] — every figure and table ([`Report`]).
//!
//! The stage functions are free functions over `(&World, plan/config,
//! &Executor, &dyn RunObserver)`; the caching engine ([`crate::Engine`])
//! calls them, so a stage behaves identically whether it is cached,
//! re-run, loaded from an on-disk store ([`crate::store`]), sequential
//! or fanned across worker threads.
//!
//! ```
//! use pd_core::{Executor, ExperimentConfig, NullObserver, RunPlan, World};
//!
//! // A stage is just a function of the world and its plan.
//! let plan = RunPlan::new(ExperimentConfig::smoke(7));
//! let world = World::build(&plan.config);
//! let crowd = pd_core::stage::crowd_stage(&world, &plan, &Executor::serial(), &NullObserver);
//! assert!(crowd.cleaned.len() <= crowd.raw.len(), "cleaning only drops");
//! ```

use crate::config::ExperimentConfig;
use crate::executor::Executor;
use crate::frames::{FrameCache, StageRows, StoreSource};
use crate::observer::{RunObserver, StageKind};
use crate::report::{Fig8Grid, Report};
use crate::scenario::RunPlan;
use crate::store::StoreError;
use crate::world::World;
use pd_analysis::{crawl, crowd as crowd_figs, location, login, strategy, thirdparty};
use pd_crawler::crawl::RetailerCrawlStats;
use pd_crawler::{select_targets, Crawler};
use pd_currency::Locale;
use pd_extract::HighlightExtractor;
use pd_net::clock::SimTime;
use pd_net::geo::{Country, Location};
use pd_sheriff::cleaning::{clean, CleaningReport};
use pd_sheriff::personas::{self, LoginExperiment, PersonaExperiment};
use pd_sheriff::MeasurementStore;
use pd_web::template::price_selector;
use pd_web::Request;
use serde::{Deserialize, Serialize};

/// The crowd-stage artifact: the raw campaign, the cleaned store and the
/// cleaning accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrowdArtifact {
    /// Every measurement the campaign produced, noise included.
    pub raw: MeasurementStore,
    /// The store after the Sec. 3.2 cleaning rules and the automated tax
    /// check (equal to `raw` when the plan disables cleaning).
    pub cleaned: MeasurementStore,
    /// What the cleaning pass did.
    pub cleaning: CleaningReport,
}

/// The crawl-stage artifact: the crawled dataset plus bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlArtifact {
    /// Every crawl probe.
    pub store: MeasurementStore,
    /// Per-retailer bookkeeping, in target order.
    pub stats: Vec<RetailerCrawlStats>,
}

/// The persona-stage artifact: the Sec. 4.4 controlled probes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersonaArtifact {
    /// The Fig. 10 login experiment.
    pub login: LoginExperiment,
    /// The affluent-vs-budget persona experiment.
    pub persona: PersonaExperiment,
}

/// The analysis-stage artifact: the full report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisArtifact {
    /// Every figure and table of the paper's evaluation.
    pub report: Report,
}

/// Runs a stage under observer start/finish events, timing it.
pub(crate) fn observed<T>(obs: &dyn RunObserver, stage: StageKind, f: impl FnOnce() -> T) -> T {
    obs.stage_started(stage);
    let start = std::time::Instant::now();
    let result = f();
    obs.stage_finished(stage, start.elapsed());
    result
}

/// Stage 2: the crowd campaign plus cleaning. The campaign is planned
/// sequentially (one RNG stream) and the planned checks are fanned
/// across the executor; plan-order merging keeps the store identical to
/// a sequential run.
#[must_use]
pub fn crowd_stage(
    world: &World,
    plan: &RunPlan,
    exec: &Executor,
    obs: &dyn RunObserver,
) -> CrowdArtifact {
    observed(obs, StageKind::Crowd, || {
        let plans = world.crowd.plan_campaign(&world.web);
        obs.counter(StageKind::Crowd, "planned_checks", plans.len() as u64);
        let results = exec.map_indexed(plans.len(), |i| {
            world
                .crowd
                .execute_check(&world.web, &world.sheriff, &plans[i])
        });
        let mut raw = MeasurementStore::new();
        for m in results.into_iter().flatten() {
            raw.push(m);
        }
        obs.counter(StageKind::Crowd, "measurements", raw.len() as u64);

        let (cleaned, cleaning) = if plan.cleaning {
            clean_crowd_store(world, &plan.config, &raw, exec)
        } else {
            skip_cleaning(&raw)
        };
        obs.counter(StageKind::Crowd, "kept", cleaning.kept as u64);
        CrowdArtifact {
            raw,
            cleaned,
            cleaning,
        }
    })
}

/// The Sec. 3.2 cleaning rules plus the automated per-domain tax check.
fn clean_crowd_store(
    world: &World,
    config: &ExperimentConfig,
    raw: &MeasurementStore,
    exec: &Executor,
) -> (MeasurementStore, CleaningReport) {
    let web = &world.web;
    let crowd = &world.crowd;
    let fx = web.fx();
    let (mut cleaned, mut report) = clean(raw, fx, |m| {
        // Refetch the URI as the user's own browser would and re-extract
        // with the retailer's template highlight.
        let user = crowd.users().get(m.user.index())?;
        let server = web.server_by_domain(&m.domain)?;
        let req = Request::get(
            &m.domain,
            &format!("/product/{}", m.product_slug),
            user.addr(),
            m.time,
        );
        let resp = web.fetch(&req);
        if resp.status.code() != 200 {
            return None;
        }
        let doc = pd_html::parse(&resp.body);
        let ex = HighlightExtractor::from_highlight(
            &doc,
            &price_selector(server.spec().template_style),
        )?;
        ex.extract(&doc, Some(Locale::of_country(user.location.country)))
            .ok()
            .map(|e| e.price)
    });
    // The paper's manual tax check, automated: drop domains whose
    // variation is explained by inlined taxes (pre-tax checkout items
    // agree across locations while displayed prices differ). Pure per
    // domain, so it fans across the executor.
    let domains = cleaned.domains();
    let verdicts = exec.map_indexed(domains.len(), |i| {
        is_tax_explained(world, config, &domains[i])
    });
    let tax_explained: std::collections::HashSet<&str> = domains
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| **v)
        .map(|(d, _)| d.as_str())
        .collect();
    let dropped = cleaned.retain(|m| !tax_explained.contains(m.domain.as_str()));
    report.dropped_tax_explained += dropped;
    report.kept -= dropped;
    (cleaned, report)
}

/// The `no-cleaning` ablation: keep everything, account honestly.
fn skip_cleaning(raw: &MeasurementStore) -> (MeasurementStore, CleaningReport) {
    let kept_truly_noisy = raw
        .records()
        .iter()
        .filter(|m| m.noise_truth != pd_sheriff::measurement::NoiseTruth::Clean)
        .count();
    (
        raw.clone(),
        CleaningReport {
            kept: raw.len(),
            dropped_inconsistent: 0,
            dropped_unhealthy: 0,
            dropped_tax_explained: 0,
            dropped_truly_noisy: 0,
            kept_truly_noisy,
        },
    )
}

/// The automated version of the paper's manual tax/shipping check: fetch
/// the same product's *checkout* from two countries with the same
/// session; if the pre-tax item lines agree (within the exchange band)
/// while the displayed product prices genuinely differ, the variation is
/// tax inlining, not discrimination.
#[must_use]
pub fn is_tax_explained(world: &World, config: &ExperimentConfig, domain: &str) -> bool {
    let web = &world.web;
    let fx = web.fx();
    let Some(server) = web.server_by_domain(domain) else {
        return false;
    };
    let Some(product) = server.catalog().iter().next() else {
        return false;
    };
    let style = server.spec().template_style;
    let probe_a = world.vantage_by_label("USA - Boston");
    let probe_b = world.vantage_by_label("Germany - Berlin");
    let (Some(a), Some(b)) = (probe_a, probe_b) else {
        return false;
    };
    let time = SimTime::from_millis(config.crowd.window_days * 24 * 3_600_000 + 9 * 3_600_000);
    let day = (time.day_index() as usize).min(fx.days().saturating_sub(1));

    let page_price = |addr, country| {
        let req = Request::get(domain, &format!("/product/{}", product.slug), addr, time)
            .with_cookie("sid", "424242");
        let resp = web.fetch(&req);
        if resp.status.code() != 200 {
            return None;
        }
        let doc = pd_html::parse(&resp.body);
        let ex = HighlightExtractor::from_highlight(&doc, &price_selector(style))?;
        ex.extract(&doc, Some(Locale::of_country(country)))
            .ok()
            .map(|e| e.price)
    };
    let item_price = |addr, country| {
        let req = Request::get(domain, &format!("/checkout/{}", product.slug), addr, time)
            .with_cookie("sid", "424242");
        let resp = web.fetch(&req);
        if resp.status.code() != 200 {
            return None;
        }
        let doc = pd_html::parse(&resp.body);
        let cells = pd_html::Selector::parse("td.line-amount")
            .expect("static selector")
            .query_all(&doc);
        let first = cells.first()?;
        Locale::of_country(country)
            .parse(doc.text_content(*first).trim())
            .ok()
    };

    let (Some(pa), Some(pb)) = (
        page_price(a.addr, a.location.country),
        page_price(b.addr, b.location.country),
    ) else {
        return false;
    };
    let (Some(ia), Some(ib)) = (
        item_price(a.addr, a.location.country),
        item_price(b.addr, b.location.country),
    ) else {
        return false;
    };
    let page_differs = pd_currency::band_filter(fx, &[pa, pb], day)
        .map(|v| v.genuine)
        .unwrap_or(false);
    let item_differs = pd_currency::band_filter(fx, &[ia, ib], day)
        .map(|v| v.genuine)
        .unwrap_or(false);
    page_differs && !item_differs
}

/// Stage 3: the systematic crawl of the given `targets` (the paper's 21
/// retailers, or a crowd-ranked list when the plan sets
/// [`crate::RunPlan::targets_from_crowd`]), fanned per retailer and
/// merged in target order.
#[must_use]
pub fn crawl_stage(
    world: &World,
    config: &ExperimentConfig,
    targets: &[String],
    exec: &Executor,
    obs: &dyn RunObserver,
) -> CrawlArtifact {
    observed(obs, StageKind::Crawl, || {
        let crawler = Crawler::new(config.seed, config.crawl.clone());
        obs.counter(StageKind::Crawl, "retailers", targets.len() as u64);
        let shards = exec.map_indexed(targets.len(), |i| {
            crawler.crawl_one(&world.web, &world.sheriff, &targets[i])
        });
        let mut store = MeasurementStore::new();
        let mut stats = Vec::with_capacity(shards.len());
        for (shard, s) in shards {
            store.extend(shard);
            stats.push(s);
        }
        obs.counter(
            StageKind::Crawl,
            "checks",
            stats.iter().map(|s| s.checks as u64).sum(),
        );
        obs.counter(
            StageKind::Crawl,
            "retries",
            stats.iter().map(|s| s.retries as u64).sum(),
        );
        CrawlArtifact { store, stats }
    })
}

/// The fixed persona/login experiment site: Boston, the day after the
/// crawl ends, noon.
fn persona_site(
    world: &World,
    config: &ExperimentConfig,
) -> (Location, std::net::Ipv4Addr, SimTime) {
    let boston = Location::new(Country::UnitedStates, "Boston");
    let boston_vp = world
        .vantage_by_label("USA - Boston")
        .expect("Boston probe exists");
    let exp_time = SimTime::from_millis(
        (config.crawl.start_day + config.crawl.days + 1) * 24 * 3_600_000 + 12 * 3_600_000,
    );
    (boston, boston_vp.addr, exp_time)
}

/// The retailers the persona experiment probes.
const PERSONA_DOMAINS: [&str; 4] = [
    "www.amazon.com",
    "www.digitalrev.com",
    "www.hotels.com",
    "www.energie.it",
];

/// Stage 4a: the Sec. 4.4 persona and login probes, holding location and
/// time fixed. Login rows fan per product, persona pairs per domain.
#[must_use]
pub fn persona_stage(
    world: &World,
    config: &ExperimentConfig,
    exec: &Executor,
    obs: &dyn RunObserver,
) -> PersonaArtifact {
    observed(obs, StageKind::Personas, || {
        let (boston, addr, exp_time) = persona_site(world, config);
        let slugs = personas::login_slugs(&world.web, "www.amazon.com", config.login_products);
        let rows = exec.map_indexed(slugs.len(), |i| {
            personas::login_row(
                &world.web,
                config.seed,
                "www.amazon.com",
                &boston,
                addr,
                exp_time,
                i,
                &slugs[i],
            )
        });
        let login = LoginExperiment {
            domain: "www.amazon.com".to_owned(),
            rows,
        };
        obs.counter(
            StageKind::Personas,
            "login_products",
            login.rows.len() as u64,
        );

        let pairs = exec.map_indexed(PERSONA_DOMAINS.len(), |i| {
            personas::persona_pairs(
                &world.web,
                PERSONA_DOMAINS[i],
                &boston,
                addr,
                exp_time,
                config.persona_products,
            )
        });
        let (differing, total) = pairs
            .into_iter()
            .fold((0, 0), |(d, t), (pd, pt)| (d + pd, t + pt));
        let persona = PersonaExperiment {
            domains: PERSONA_DOMAINS.iter().map(|d| (*d).to_owned()).collect(),
            products_per_retailer: config.persona_products,
            differing_pairs: differing,
            total_pairs: total,
        };
        obs.counter(
            StageKind::Personas,
            "persona_pairs",
            persona.total_pairs as u64,
        );
        PersonaArtifact { login, persona }
    })
}

/// The paper's stated future work, implemented: attribute a retailer's
/// price variation to specific request factors (country, city, session,
/// day, login) by controlled probing. Returns `None` for unknown domains
/// or when a required probe is missing from the fleet.
#[must_use]
pub fn attribute_factors(
    world: &World,
    config: &ExperimentConfig,
    domain: &str,
    products: usize,
) -> Option<pd_analysis::Attribution> {
    let vp = |label: &str| {
        let v = world.vantage_by_label(label)?;
        Some((v.addr, v.location.clone()))
    };
    let probes = pd_analysis::ProbeSet {
        us_a: vp("USA - Boston")?,
        us_b: vp("USA - Chicago")?,
        us_c: vp("USA - New York")?,
        foreign: vp("Finland - Tampere")?,
    };
    let base_day = config.crawl.start_day + config.crawl.days + 2;
    pd_analysis::attribute(&world.web, &probes, domain, products, base_day)
}

/// Data-driven variant of target selection (used by the
/// `crawl_retailers` example and the crowd-value ablation): rank domains
/// by confirmed crowd variation instead of taking the paper's list.
#[must_use]
pub fn targets_from_crowd(
    world: &World,
    cleaned: &MeasurementStore,
    min_confirmed: usize,
) -> Vec<String> {
    select_targets(cleaned, world.web.fx(), min_confirmed)
        .into_iter()
        .map(|t| t.domain)
        .collect()
}

/// How [`analysis_over`] obtains its frames: through a [`FrameCache`]
/// under the plan's measurement fingerprints.
pub(crate) struct FrameKeys<'a> {
    /// The shared cache.
    pub cache: &'a FrameCache,
    /// The crowd-stage fingerprint (keys the cleaned-crowd frame).
    pub crowd: u64,
    /// The crawl-stage fingerprint (keys the crawl frame).
    pub crawl: u64,
}

/// Stage 5: every figure and table, from the upstream rows wherever they
/// live ([`StoreSource`]: memory, or domain chunks streamed off disk).
/// The check frames and the Sec. 3.2 summary facts come from the
/// [`FrameCache`] — cut from the same per-domain reads, in parallel, on
/// the first call, and reused (`frames_built = 0`, no row read, no
/// chunk decoded) by every later analysis of the same measurement
/// fingerprints, including `pd rerun` and sweep arms sharing an
/// upstream crawl. There is no second streaming pass for the summary:
/// each stored row chunk is decoded at most once per analysis. The
/// per-retailer attribution probes fan across the executor.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when a chunked source fails mid-read
/// (memory sources never fail).
#[allow(clippy::too_many_arguments)]
pub(crate) fn analysis_over(
    world: &World,
    config: &ExperimentConfig,
    crowd_raw: StoreSource<'_>,
    crowd_clean: StoreSource<'_>,
    cleaning: CleaningReport,
    crawl_store: StoreSource<'_>,
    persona_art: &PersonaArtifact,
    frames: FrameKeys<'_>,
    exec: &Executor,
    obs: &dyn RunObserver,
) -> Result<AnalysisArtifact, StoreError> {
    observed(obs, StageKind::Analysis, || {
        let fx = world.web.fx();
        let crowd_rows = StageRows::Crowd {
            raw: crowd_raw,
            cleaned: crowd_clean,
        };
        let crawl_rows = StageRows::Crawl(crawl_store);
        let (crowd, crowd_stats) = frames.cache.frame(frames.crowd, crowd_rows, fx, exec)?;
        let (crawl, crawl_stats) = frames.cache.frame(frames.crawl, crawl_rows, fx, exec)?;
        obs.counter(
            StageKind::Analysis,
            "frames_built",
            (crowd_stats.built + crawl_stats.built) as u64,
        );
        obs.counter(
            StageKind::Analysis,
            "frames_reused",
            (crowd_stats.reused + crawl_stats.reused) as u64,
        );
        obs.counter(
            StageKind::Analysis,
            "frames_chunks_loaded",
            (crowd_stats.chunks_loaded + crawl_stats.chunks_loaded) as u64,
        );
        let crowd_frame = &crowd.frame;
        let crawl_frame = &crawl.frame;
        let labels = world.vantage_labels();

        // Fig. 1 + Fig. 2 (crowd view).
        let fig1 = crowd_figs::fig1_ranking(crowd_frame, config.analysis.fig1_domains);
        let fig1_domains: Vec<String> = fig1.iter().map(|b| b.domain.clone()).collect();
        let fig2 = crowd_figs::fig2_ratio_boxes(crowd_frame, &fig1_domains);

        // Figs. 3–5 (crawl view).
        let fig3 = crawl::fig3_extent(crawl_frame);
        let fig4 = crawl::fig4_magnitude(crawl_frame);
        let (fig5_points, fig5_envelope) = crawl::fig5_scatter(crawl_frame);

        // Fig. 6: digitalrev (multiplicative) and energie (additive), at
        // the paper's three locations: New York, UK, Finland.
        let fig6_locs: Vec<_> = ["USA - New York", "UK - London", "Finland - Tampere"]
            .iter()
            .filter_map(|l| world.vantage_by_label(l).map(|vp| (vp.id, vp.label())))
            .collect();
        let fig6a = strategy::fig6_curves(crawl_frame, "www.digitalrev.com", &fig6_locs);
        let fig6b = strategy::fig6_curves(crawl_frame, "www.energie.it", &fig6_locs);

        // Fig. 7 over the full fleet.
        let fig7 = location::fig7_location_boxes(crawl_frame, &labels);

        // Fig. 8 grids.
        let grid = |domain: &str, labels: &[&str]| {
            let vps: Vec<_> = labels
                .iter()
                .filter_map(|l| world.vantage_by_label(l).map(|vp| (vp.id, vp.label())))
                .collect();
            Fig8Grid {
                domain: domain.to_owned(),
                cells: location::fig8_pairwise(crawl_frame, domain, &vps),
            }
        };
        let fig8a = grid(
            "www.homedepot.com",
            &[
                "USA - Albany",
                "USA - Boston",
                "USA - Los Angeles",
                "USA - Chicago",
                "USA - Lincoln",
                "USA - New York",
            ],
        );
        let fig8b = grid(
            "www.amazon.com",
            &[
                "Belgium - Liege",
                "Brazil - Sao Paulo",
                "Finland - Tampere",
                "Germany - Berlin",
                "Spain (Linux,FF)",
                "USA - New York",
            ],
        );
        let fig8c = grid(
            "store.killah.com",
            &[
                "Brazil - Sao Paulo",
                "Finland - Tampere",
                "Germany - Berlin",
                "Spain (Linux,FF)",
                "UK - London",
                "USA - New York",
            ],
        );

        // Fig. 9: Finland vs min.
        let finland = world
            .vantage_by_label("Finland - Tampere")
            .expect("Finland probe exists")
            .id;
        let fig9 = location::fig9_finland(crawl_frame, finland);

        // Fig. 10 + persona summary, from the persona artifact.
        let fig10 = login::fig10(&persona_art.login);
        let persona = login::persona_summary(&persona_art.persona);

        // Third-party presence over the crawled set.
        let targets = world.paper_crawl_targets();
        let boston_vp = world
            .vantage_by_label("USA - Boston")
            .expect("Boston probe exists");
        let (_, _, exp_time) = persona_site(world, config);
        let third_party =
            thirdparty::scan_third_parties(&world.web, &targets, boston_vp.addr, exp_time);

        // The Sec. 3.2 summary folds the facts memoized beside the two
        // frames: no second pass over the rows.
        let mut facts = crowd.facts.clone();
        facts.merge(&crawl.facts);
        let summary = facts.finish(&world.crowd);

        // Extension: per-retailer factor attribution over the crawled
        // set, fanned per retailer.
        let attribution: Vec<pd_analysis::Attribution> = exec
            .map_indexed(targets.len(), |i| {
                attribute_factors(
                    world,
                    config,
                    &targets[i],
                    config.analysis.attribution_products,
                )
            })
            .into_iter()
            .flatten()
            .collect();
        obs.counter(
            StageKind::Analysis,
            "attributed_retailers",
            attribution.len() as u64,
        );

        Ok(AnalysisArtifact {
            report: Report {
                summary,
                cleaning,
                fig1,
                fig2,
                fig3,
                fig4,
                fig5_points,
                fig5_envelope,
                fig6a,
                fig6b,
                fig7,
                fig8a,
                fig8b,
                fig8c,
                fig9,
                fig10,
                persona,
                third_party,
                attribution,
            },
        })
    })
}
