//! Reproducibility guarantees: the whole study is a deterministic
//! function of the seed.

use pd_core::{stage, Engine, Executor, ExperimentConfig, NullObserver, Report, RunPlan};
use std::sync::Arc;

/// A serial, unobserved engine over a bare config.
fn engine(config: ExperimentConfig) -> Engine {
    Engine::from_plan(
        RunPlan::new(config),
        Executor::serial(),
        Arc::new(NullObserver),
    )
}

fn run(config: ExperimentConfig) -> Report {
    engine(config).run()
}

#[test]
fn same_seed_same_report() {
    let a = run(ExperimentConfig::small(77));
    let b = run(ExperimentConfig::small(77));
    // JSON is the strictest practical equality over the whole report.
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn different_seed_different_data() {
    let a = run(ExperimentConfig::small(77));
    let b = run(ExperimentConfig::small(78));
    assert_ne!(a.to_json(), b.to_json());
    // ...but the qualitative conclusions are seed-independent:
    for r in [&a, &b] {
        assert!(r.persona.null_result, "persona null must hold at any seed");
        assert!(!r.fig1.is_empty());
        let cheap: Vec<&str> = r
            .fig9
            .iter()
            .filter(|x| x.finland_cheapest)
            .map(|x| x.domain.as_str())
            .collect();
        // The two structural exceptions hold at any seed; the strongly
        // Finland-dear retailers never appear. (Gated retailers may
        // flicker in at tiny sample sizes, which is fine.)
        assert!(cheap.contains(&"www.mauijim.com"), "{cheap:?}");
        assert!(cheap.contains(&"www.tuscanyleather.it"), "{cheap:?}");
        for dear in [
            "www.digitalrev.com",
            "store.refrigiwear.it",
            "www.scitec-nutrition.es",
        ] {
            assert!(!cheap.contains(&dear), "{dear} misclassified: {cheap:?}");
        }
    }
}

#[test]
fn same_seed_same_rendered_reports_across_runs() {
    // `to_json` equality (above) covers the data; this covers the whole
    // human-facing rendering path — every figure renderer and the table
    // renderer must be a pure function of the seed, with no iteration-order
    // or formatting nondeterminism.
    let a = run(ExperimentConfig::small(1307));
    let b = run(ExperimentConfig::small(1307));
    assert_eq!(a.render_all(), b.render_all());
    // Spot-check individual renderers too, so a failure names the figure.
    assert_eq!(a.render_summary(), b.render_summary());
    assert_eq!(a.render_fig1(), b.render_fig1());
    assert_eq!(a.render_fig7(), b.render_fig7());
    assert_eq!(a.render_tables(), b.render_tables());
}

#[test]
fn different_seeds_render_different_reports() {
    let a = run(ExperimentConfig::small(1307));
    let b = run(ExperimentConfig::small(2024));
    assert_ne!(
        a.render_all(),
        b.render_all(),
        "two seeds producing identical full renderings means the seed is ignored"
    );
}

#[test]
fn phases_are_independently_rerunnable() {
    // Re-running a phase over the same world must not change results
    // (no hidden RNG state is consumed across calls). The stage function
    // is called directly: `Engine::crawl` caches, which would make this
    // test vacuous.
    let engine = engine(ExperimentConfig::small(5));
    let crawl = || {
        let art = stage::crawl_stage(
            engine.world(),
            engine.config(),
            &engine.world().paper_crawl_targets(),
            engine.executor(),
            &NullObserver,
        );
        (art.store, art.stats)
    };
    let (s1, st1) = crawl();
    let (s2, st2) = crawl();
    assert_eq!(st1, st2);
    assert_eq!(s1.len(), s2.len());
    for (a, b) in s1.records().iter().zip(s2.records()) {
        assert_eq!(a.prices(), b.prices());
    }
}
