//! Detector vs ground truth: the evaluation the original paper could not
//! run. The simulator knows exactly which retailers discriminate and
//! how; the measurement pipeline must rediscover that — no more, no
//! less.

use pd_core::{Engine, Executor, ExperimentConfig, NullObserver, RunPlan};
use std::sync::Arc;

/// A serial, unobserved engine over a bare config.
fn engine(config: ExperimentConfig) -> Engine {
    Engine::from_plan(
        RunPlan::new(config),
        Executor::serial(),
        Arc::new(NullObserver),
    )
}
use pd_crawler::{CrawlConfig, Crawler};
use pd_util::Seed;

#[test]
fn every_crawled_discriminator_is_detected() {
    let exp = engine(ExperimentConfig::small(1307));
    let world = exp.world();
    let targets = world.paper_crawl_targets();
    let crawler = Crawler::new(
        Seed::new(1),
        CrawlConfig {
            products_per_retailer: 15,
            days: 2,
            start_day: 45,
            ..CrawlConfig::default()
        },
    );
    let (store, _) = crawler.crawl(&world.web, &world.sheriff, &targets);
    let frame = pd_analysis::CheckFrame::build(&store, world.web.fx());
    let extents = pd_analysis::crawl::fig3_extent(&frame);
    for bar in &extents {
        assert!(
            bar.extent > 0.0,
            "{} discriminates (ground truth) but was never flagged",
            bar.domain
        );
    }
    assert_eq!(extents.len(), 21);
}

#[test]
fn uniform_retailers_are_never_flagged() {
    // Zero false positives: crawling non-discriminating long-tail
    // domains must yield zero confirmed variations, across currencies.
    let exp = engine(ExperimentConfig::small(1307));
    let world = exp.world();
    let uniform: Vec<String> = world
        .web
        .servers()
        .iter()
        .filter(|s| !s.spec().is_discriminating() && !s.spec().inlines_tax)
        .take(8)
        .map(|s| s.spec().domain.clone())
        .collect();
    assert!(!uniform.is_empty());
    let crawler = Crawler::new(
        Seed::new(2),
        CrawlConfig {
            products_per_retailer: 10,
            days: 2,
            start_day: 45,
            ..CrawlConfig::default()
        },
    );
    let (store, _) = crawler.crawl(&world.web, &world.sheriff, &uniform);
    let frame = pd_analysis::CheckFrame::build(&store, world.web.fx());
    let false_positives: Vec<_> = frame.rows().iter().filter(|r| r.genuine).collect();
    assert!(
        false_positives.is_empty(),
        "uniform retailers flagged: {:?}",
        false_positives
            .iter()
            .map(|r| (&r.domain, &r.slug, r.ratio))
            .collect::<Vec<_>>()
    );
}

#[test]
fn measured_ratios_match_ground_truth_factors() {
    // For a pure multiplicative retailer the measured per-location ratio
    // must equal the configured factor to within cent rounding and FX
    // noise.
    let exp = engine(ExperimentConfig::small(1307));
    let world = exp.world();
    let crawler = Crawler::new(
        Seed::new(3),
        CrawlConfig {
            products_per_retailer: 20,
            days: 1,
            start_day: 45,
            ..CrawlConfig::default()
        },
    );
    let (store, _) = crawler.crawl(
        &world.web,
        &world.sheriff,
        &["www.digitalrev.com".to_owned()],
    );
    let frame = pd_analysis::CheckFrame::build(&store, world.web.fx());
    let finland = world.vantage_by_label("Finland - Tampere").unwrap().id;
    let ny = world.vantage_by_label("USA - New York").unwrap().id;
    for row in frame.rows() {
        let fi = row.usd_at(finland).expect("Finland extraction");
        let base = row.usd_at(ny).expect("NY extraction");
        let ratio = fi / base;
        assert!(
            (ratio - 1.26).abs() < 0.01,
            "{}: measured {ratio}, ground truth 1.26",
            row.slug
        );
    }
}

#[test]
fn cleaning_catches_injected_noise_with_high_recall() {
    let mut config = ExperimentConfig::small(11);
    config.crowd.checks = 250;
    config.crowd.customization_noise = 0.15;
    config.crowd.mis_highlight_noise = 0.0;
    let mut exp = engine(config);
    let crowd = exp.crowd();
    let (raw, report) = (&crowd.raw, crowd.cleaning);
    let truly_noisy = raw
        .records()
        .iter()
        .filter(|m| m.noise_truth != pd_sheriff::measurement::NoiseTruth::Clean)
        .count();
    assert!(truly_noisy > 10, "noise injection too weak: {truly_noisy}");
    let recall = report.dropped_truly_noisy as f64 / truly_noisy as f64;
    assert!(
        recall > 0.9,
        "cleaning recall {recall:.2} ({}/{truly_noisy})",
        report.dropped_truly_noisy
    );
}

#[test]
fn tax_inliners_are_excluded_from_crowd_analysis() {
    // The injected tax-confound domains must not survive into the
    // cleaned crowd dataset (the paper's manual tax check).
    let mut config = ExperimentConfig::small(13);
    config.crowd.checks = 300;
    let mut exp = engine(config);
    let cleaned = exp.crowd().cleaned.clone();
    let inliners: Vec<String> = exp
        .world()
        .web
        .servers()
        .iter()
        .filter(|s| s.spec().inlines_tax)
        .map(|s| s.spec().domain.clone())
        .collect();
    assert!(!inliners.is_empty(), "confound must exist in the world");
    for domain in &inliners {
        assert_eq!(
            cleaned.by_domain(domain).count(),
            0,
            "{domain} (tax inliner) survived cleaning"
        );
    }
}
