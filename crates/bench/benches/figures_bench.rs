//! One Criterion group per paper artifact: measures the cost of
//! regenerating each figure's data from a prebuilt measurement dataset,
//! plus the two pipeline phases that produce the datasets.
//!
//! Figure shapes are validated by tests; these benches track the cost of
//! the *analyses* so regressions in the hot reduction paths (frame
//! building, per-product grouping, box statistics) are visible.

use criterion::{criterion_group, criterion_main, Criterion};
use pd_bench::Scale;
use pd_core::{stage, Engine, Executor, ExperimentConfig, NullObserver, RunPlan};
use std::hint::black_box;
use std::sync::Arc;

/// A serial, unobserved engine over a bare config.
fn engine(config: ExperimentConfig) -> Engine {
    Engine::from_plan(
        RunPlan::new(config),
        Executor::serial(),
        Arc::new(NullObserver),
    )
}

struct Prebuilt {
    engine: Engine,
    crowd_raw: pd_sheriff::MeasurementStore,
    crowd_clean: pd_sheriff::MeasurementStore,
    cleaning: pd_sheriff::cleaning::CleaningReport,
    crawl_store: pd_sheriff::MeasurementStore,
    crowd_frame: pd_analysis::CheckFrame,
    crawl_frame: pd_analysis::CheckFrame,
}

fn prebuild() -> Prebuilt {
    let mut engine = engine(Scale::Small.config(1307));
    let pd_core::CrowdArtifact {
        raw: crowd_raw,
        cleaned: crowd_clean,
        cleaning,
    } = engine.crowd().clone();
    let crawl_store = engine.crawl().store.clone();
    let fx = engine.world().web.fx();
    let crowd_frame = pd_analysis::CheckFrame::build(&crowd_clean, fx);
    let crawl_frame = pd_analysis::CheckFrame::build(&crawl_store, fx);
    Prebuilt {
        engine,
        crowd_raw,
        crowd_clean,
        cleaning,
        crawl_store,
        crowd_frame,
        crawl_frame,
    }
}

fn bench_pipeline_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("t0_dataset_summary_full_small_run", |b| {
        b.iter(|| {
            let report = engine(ExperimentConfig::small(1307)).run();
            black_box(report.summary.crowd_requests)
        });
    });
    group.bench_function("crowd_phase", |b| {
        b.iter(|| {
            let mut engine = engine(Scale::Small.config(7));
            let crowd = engine.crowd();
            black_box((crowd.raw.len(), crowd.cleaned.len()))
        });
    });
    group.bench_function("crawl_phase", |b| {
        // The stage function itself: `Engine::crawl` would cache.
        let engine = engine(Scale::Small.config(7));
        let targets = engine.world().paper_crawl_targets();
        b.iter(|| {
            let crawl = stage::crawl_stage(
                engine.world(),
                engine.config(),
                &targets,
                engine.executor(),
                &NullObserver,
            );
            black_box((crawl.store.len(), crawl.stats.len()))
        });
    });
    group.finish();
}

fn bench_figures(c: &mut Criterion) {
    let pre = prebuild();
    let labels = pre.engine.world().vantage_labels();
    let finland = pre
        .engine
        .world()
        .vantage_by_label("Finland - Tampere")
        .unwrap()
        .id;

    let mut group = c.benchmark_group("figures");
    group.bench_function("fig1_crowd_ranking", |b| {
        b.iter(|| black_box(pd_analysis::crowd::fig1_ranking(&pre.crowd_frame, 27)));
    });
    group.bench_function("fig2_crowd_ratios", |b| {
        let domains: Vec<String> = pre
            .crowd_frame
            .domains()
            .iter()
            .map(|d| d.to_string())
            .collect();
        b.iter(|| {
            black_box(pd_analysis::crowd::fig2_ratio_boxes(
                &pre.crowd_frame,
                &domains,
            ))
        });
    });
    group.bench_function("fig3_extent", |b| {
        b.iter(|| black_box(pd_analysis::crawl::fig3_extent(&pre.crawl_frame)));
    });
    group.bench_function("fig4_magnitude", |b| {
        b.iter(|| black_box(pd_analysis::crawl::fig4_magnitude(&pre.crawl_frame)));
    });
    group.bench_function("fig5_price_vs_ratio", |b| {
        b.iter(|| black_box(pd_analysis::crawl::fig5_scatter(&pre.crawl_frame)));
    });
    group.bench_function("fig6_strategy_curves", |b| {
        let locs: Vec<_> = labels.iter().take(3).cloned().collect();
        b.iter(|| {
            black_box(pd_analysis::strategy::fig6_curves(
                &pre.crawl_frame,
                "www.digitalrev.com",
                &locs,
            ))
        });
    });
    group.bench_function("fig7_location", |b| {
        b.iter(|| {
            black_box(pd_analysis::location::fig7_location_boxes(
                &pre.crawl_frame,
                &labels,
            ))
        });
    });
    group.bench_function("fig8_pairwise", |b| {
        let six: Vec<_> = labels.iter().take(6).cloned().collect();
        b.iter(|| {
            black_box(pd_analysis::location::fig8_pairwise(
                &pre.crawl_frame,
                "www.amazon.com",
                &six,
            ))
        });
    });
    group.bench_function("fig9_finland", |b| {
        b.iter(|| {
            black_box(pd_analysis::location::fig9_finland(
                &pre.crawl_frame,
                finland,
            ))
        });
    });
    group.finish();

    let mut heavy = c.benchmark_group("figure_harnesses");
    heavy.sample_size(10);
    heavy.bench_function("fig10_login", |b| {
        let world = pre.engine.world();
        let boston = world.vantage_by_label("USA - Boston").unwrap().clone();
        b.iter(|| {
            let exp = pd_sheriff::personas::login_experiment(
                &world.web,
                pd_util::Seed::new(1307),
                "www.amazon.com",
                &boston.location,
                boston.addr,
                pd_net::clock::SimTime::from_millis(50 * 24 * 3_600_000),
                15,
            );
            black_box(pd_analysis::login::fig10(&exp))
        });
    });
    heavy.bench_function("t1_thirdparty", |b| {
        let world = pre.engine.world();
        let boston = world.vantage_by_label("USA - Boston").unwrap().clone();
        let targets = world.paper_crawl_targets();
        b.iter(|| {
            black_box(pd_analysis::thirdparty::scan_third_parties(
                &world.web,
                &targets,
                boston.addr,
                pd_net::clock::SimTime::from_millis(50 * 24 * 3_600_000),
            ))
        });
    });
    heavy.bench_function("cleaning", |b| {
        let fx = pre.engine.world().web.fx();
        b.iter(|| {
            let (kept, report) = pd_sheriff::cleaning::clean(&pre.crowd_raw, fx, |m| m.user_price);
            black_box((kept.len(), report))
        });
    });
    heavy.finish();

    // Keep the prebuilt artifacts alive and visibly used.
    black_box((pre.crowd_clean.len(), pre.cleaning, pre.crawl_store.len()));
}

criterion_group!(benches, bench_pipeline_phases, bench_figures);
criterion_main!(benches);
