//! The attribution extension (the paper's Sec. 6 future work) validated
//! end to end against ground truth across the whole crawled set.

use pd_core::{stage, Engine, Executor, ExperimentConfig, NullObserver, RunPlan};
use pd_pricing::StrategyComponent;
use std::sync::Arc;

/// A serial, unobserved engine over a bare config.
fn engine(config: ExperimentConfig) -> Engine {
    Engine::from_plan(
        RunPlan::new(config),
        Executor::serial(),
        Arc::new(NullObserver),
    )
}

/// Factor attribution for `domain` over the engine's world.
fn attribute(exp: &Engine, domain: &str, products: usize) -> Option<pd_analysis::Attribution> {
    stage::attribute_factors(exp.world(), exp.config(), domain, products)
}

#[test]
fn attribution_table_matches_ground_truth_for_all_crawled_retailers() {
    let exp = engine(ExperimentConfig::small(1307));
    for domain in exp.world().paper_crawl_targets() {
        let attribution = attribute(&exp, &domain, 12).expect("crawled domain exists");
        let spec = exp
            .world()
            .web
            .server_by_domain(&domain)
            .unwrap()
            .spec()
            .clone();

        // Ground truth: which factor *kinds* the strategy pipeline uses.
        let has = |f: &dyn Fn(&StrategyComponent) -> bool| spec.components.iter().any(f);
        let truth_session = has(&|c| {
            matches!(
                c,
                StrategyComponent::SessionJitter { .. } | StrategyComponent::AbTest { .. }
            )
        });
        let truth_day = has(&|c| matches!(c, StrategyComponent::TemporalDrift { .. }));

        // Session and day attribution must agree with ground truth
        // exactly (these probes are same-currency and same-product, so
        // there is no statistical slack).
        assert_eq!(
            attribution.effect(pd_analysis::Factor::Session).varies,
            truth_session,
            "{domain}: session attribution"
        );
        assert_eq!(
            attribution.effect(pd_analysis::Factor::Day).varies,
            truth_day,
            "{domain}: day attribution"
        );
        // Login never varies anything — the paper's null result, now
        // verified per retailer.
        assert!(
            !attribution.effect(pd_analysis::Factor::Login).varies,
            "{domain}: login must not move prices"
        );
    }
}

#[test]
fn location_attribution_flags_only_location_keyed_retailers() {
    let exp = engine(ExperimentConfig::small(1307));
    // Location-keyed retailers must attribute to Country (probed with a
    // US/Finland pair; every crawled spec prices Finland or US away from
    // base except the pure city-level one).
    for domain in ["www.digitalrev.com", "www.energie.it", "www.hotels.com"] {
        let a = attribute(&exp, domain, 12).unwrap();
        assert!(
            a.effect(pd_analysis::Factor::Country).varies,
            "{domain} must vary by country"
        );
    }
    // homedepot's country-level Finland factor is small (1.06) but real;
    // its city factor must *also* fire — the unique city-keyed retailer.
    let hd = attribute(&exp, "www.homedepot.com", 12).unwrap();
    assert!(hd.effect(pd_analysis::Factor::CityWithinCountry).varies);
    // And a non-city retailer must not fire the city probe.
    let dr = attribute(&exp, "www.digitalrev.com", 12).unwrap();
    assert!(!dr.effect(pd_analysis::Factor::CityWithinCountry).varies);
}
