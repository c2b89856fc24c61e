//! Contracts of the incremental per-domain analysis layer:
//!
//! * **Shard-union property** — for *any* measurement store, the union
//!   of `CheckFrame::build_domain` shards over all of its domains,
//!   spliced with `CheckFrame::merge_shards`, equals
//!   `CheckFrame::build` on the full store row-for-row. This is the
//!   invariant that lets the engine build frames one retailer at a time
//!   (in parallel, cached) without perturbing a single figure.
//! * **Summary-fold property** — the Sec. 3.2 summary facts of any
//!   split of a store into whole-domain parts fold, in any order, to
//!   the numbers of one whole-store `SummaryScan`. This is what lets
//!   the cache cut the summary from the same per-domain reads as the
//!   frame.
//! * **FrameCache reuse** — a second `analyze()` on the same engine
//!   rebuilds zero domain frames, proven by the `frames_built` /
//!   `frames_reused` observer counters.

use pd_analysis::summary::{SummaryFacts, SummaryScan};
use pd_core::{
    Executor, Experiment, FrameCache, Profile, StageKind, StageRows, StoreSource, TimingObserver,
};
use pd_currency::{Currency, FxSeries, Price};
use pd_net::clock::SimTime;
use pd_sheriff::measurement::NoiseTruth;
use pd_sheriff::{Measurement, MeasurementStore, PriceObservation};
use pd_util::{Money, RequestId, Seed, UserId, VantageId};
use proptest::prelude::*;
use std::sync::Arc;

/// A measurement whose domain, slug, observation count and prices come
/// from flat random draws; some observations fail so some rows drop out
/// of the frame entirely (the merge must cope with gaps).
#[allow(clippy::cast_possible_truncation)]
fn measurement(domain_idx: u8, slug_idx: u8, obs: u8, minor: i64, fail_first: bool) -> Measurement {
    let price = |v: i64| Price::new(Money::from_minor(minor + v * 137), Currency::Usd);
    Measurement {
        request: RequestId::new(0), // reassigned by push
        user: UserId::new(u32::from(domain_idx)),
        domain: format!("shard-{domain_idx}.example"),
        product_slug: format!("slug-{slug_idx}"),
        time: SimTime::from_millis(u64::from(obs) * 3_600_000),
        user_price: None,
        observations: (0..obs)
            .map(|v| {
                if fail_first && v == 0 {
                    PriceObservation::failed(VantageId::new(u32::from(v)), "down".into())
                } else {
                    PriceObservation::ok(
                        VantageId::new(u32::from(v)),
                        price(i64::from(v)),
                        String::new(),
                    )
                }
            })
            .collect(),
        noise_truth: NoiseTruth::Clean,
    }
}

fn fx() -> FxSeries {
    FxSeries::generate(Seed::new(1307), 160)
}

proptest! {
    /// The satellite property: union-of-shards ≡ full build, row for
    /// row, over stores with interleaved domains, duplicate products,
    /// and rows the frame skips (too few extractions).
    #[test]
    fn prop_domain_shard_union_equals_full_build(
        draws in proptest::collection::vec((0u8..5, 0u8..4, 0u8..5, -50_000i64..500_000), 0..40),
        fail_stride in 1usize..5,
    ) {
        let fx = fx();
        let mut store = MeasurementStore::new();
        for (i, (domain_idx, slug_idx, obs, minor)) in draws.iter().enumerate() {
            store.push(measurement(*domain_idx, *slug_idx, *obs, *minor, i % fail_stride == 0));
        }
        let full = pd_analysis::CheckFrame::build(&store, &fx);
        let shards: Vec<pd_analysis::CheckFrame> = store
            .domains()
            .iter()
            .map(|d| pd_analysis::CheckFrame::build_domain(&store, &fx, d))
            .collect();
        // The shards partition the frame...
        prop_assert_eq!(shards.iter().map(pd_analysis::CheckFrame::len).sum::<usize>(), full.len());
        // ...and splice back into the exact full frame.
        let merged = pd_analysis::CheckFrame::merge_shards(&shards);
        prop_assert_eq!(merged.rows(), full.rows());
    }

    /// The cache returns that same frame at any thread count, and a
    /// second call under the same key builds nothing.
    #[test]
    fn prop_frame_cache_equals_direct_build(
        draws in proptest::collection::vec((0u8..4, 0u8..3, 2u8..5, 1_000i64..400_000), 1..24),
        key in 0u64..u64::MAX,
        threads in 1usize..5,
    ) {
        let fx = fx();
        let mut store = MeasurementStore::new();
        for (domain_idx, slug_idx, obs, minor) in &draws {
            store.push(measurement(*domain_idx, *slug_idx, *obs, *minor, false));
        }
        let cache = FrameCache::new();
        let exec = Executor::new(threads);
        let rows = StageRows::Crawl(StoreSource::Memory(&store));
        let (cached, first) = cache.frame(key, rows, &fx, &exec).unwrap();
        let direct = pd_analysis::CheckFrame::build(&store, &fx);
        prop_assert_eq!(cached.frame.rows(), direct.rows());
        prop_assert_eq!(first.built + first.reused, store.domains().len());
        let (again, second) = cache.frame(key, rows, &fx, &exec).unwrap();
        prop_assert!(Arc::ptr_eq(&cached, &again), "second call must be a cache hit");
        prop_assert_eq!(second.built, 0);
        prop_assert_eq!(second.reused, store.domains().len());
    }
}

/// A crowd to finish summaries against (only its country count is read).
fn crowd() -> &'static pd_sheriff::Crowd {
    static WORLD: std::sync::OnceLock<pd_core::World> = std::sync::OnceLock::new();
    &WORLD
        .get_or_init(|| pd_core::World::build(&pd_core::ExperimentConfig::smoke(7)))
        .crowd
}

/// Splits `store` into parts of whole domains: `shard-<i>.example`
/// goes to part `part_of[i]`.
fn whole_domain_parts<'a>(
    store: &'a MeasurementStore,
    part_of: &[usize],
) -> Vec<Vec<&'a Measurement>> {
    let mut parts = vec![Vec::new(); part_of.len()];
    for m in store.records() {
        let domain_idx: usize = m.domain["shard-".len()..m.domain.len() - ".example".len()]
            .parse()
            .expect("generated domain");
        parts[part_of[domain_idx]].push(m);
    }
    parts
}

proptest! {
    /// The Sec. 3.2 summary folds from per-part facts: for any store
    /// and any split of its domains into parts (each part holding whole
    /// domains), the facts of the parts, folded in any order, finish to
    /// the numbers of one whole-store `SummaryScan`.
    #[test]
    fn prop_folded_summary_facts_equal_whole_store_scan(
        crowd_draws in proptest::collection::vec((0u8..6, 0u8..4, 0u8..5, 0u32..9, 0u64..6), 0..40),
        crawl_draws in proptest::collection::vec((0u8..6, 0u8..4, 0u8..5, 0u32..9, 0u64..6), 0..40),
        part_of in proptest::collection::vec(0usize..4, 6),
        fail_stride in 1usize..5,
    ) {
        let store = |draws: &[(u8, u8, u8, u32, u64)]| {
            let mut store = MeasurementStore::new();
            for (i, (domain_idx, slug_idx, obs, user, day)) in draws.iter().enumerate() {
                let mut m = measurement(*domain_idx, *slug_idx, *obs, 10_000, i % fail_stride == 0);
                m.user = UserId::new(*user);
                m.time = SimTime::from_millis(day * 24 * 3_600_000);
                store.push(m);
            }
            store
        };
        let (crowd_store, crawl_store) = (store(&crowd_draws), store(&crawl_draws));
        let mut scan = SummaryScan::new();
        crowd_store.records().iter().for_each(|m| scan.crowd_row(m));
        crawl_store.records().iter().for_each(|m| scan.crawl_row(m));
        let whole = scan.finish(crowd());

        let mut facts = SummaryFacts::default();
        for part in whole_domain_parts(&crawl_store, &part_of) {
            facts.merge(&SummaryFacts::crawl(part));
        }
        for part in whole_domain_parts(&crowd_store, &part_of).into_iter().rev() {
            facts.merge(&SummaryFacts::crowd(part));
        }
        prop_assert_eq!(facts.finish(crowd()), whole);
    }
}

/// Reads the `name` counter off the `idx`-th analysis timing.
fn analysis_counter(observer: &TimingObserver, idx: usize, name: &str) -> u64 {
    let timings: Vec<_> = observer
        .timings()
        .into_iter()
        .filter(|t| t.stage == StageKind::Analysis)
        .collect();
    timings[idx]
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("analysis run {idx} has no {name} counter"))
        .1
}

/// The acceptance criterion: a second `analyze()` on the same crawl
/// rebuilds zero domain frames — everything comes from the engine's
/// `FrameCache`.
#[test]
fn second_analyze_rebuilds_zero_domain_frames() {
    let observer = Arc::new(TimingObserver::new());
    let mut engine = Experiment::builder()
        .scenario("paper")
        .profile(Profile::Smoke)
        .seed(1307)
        .observer(observer.clone())
        .build()
        .expect("paper scenario builds");

    let first = engine.analyze();
    let built_first = analysis_counter(&observer, 0, "frames_built");
    let reused_first = analysis_counter(&observer, 0, "frames_reused");
    assert!(built_first > 0, "first analysis must build domain frames");
    assert_eq!(reused_first, 0, "nothing to reuse on a cold cache");

    let second = engine.analyze();
    assert_eq!(first.report.to_json(), second.report.to_json());
    assert_eq!(
        analysis_counter(&observer, 1, "frames_built"),
        0,
        "second analysis must rebuild nothing"
    );
    assert_eq!(
        analysis_counter(&observer, 1, "frames_reused"),
        built_first,
        "every frame the first analysis built must be served from cache"
    );
}

/// `pd rerun`'s in-process equivalent: an engine that loads measurement
/// artifacts from a store still reuses cached frames across analyses,
/// because the cache keys on the same fingerprints the store validated.
#[test]
fn rerun_on_loaded_artifacts_hits_the_frame_cache() {
    let dir = std::env::temp_dir().join(format!("pd-frames-rerun-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(11)
        .build()
        .expect("smoke builds");
    producer.analyze();
    producer.save_artifacts(&dir).expect("save");

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(11)
        .observer(observer.clone())
        .build()
        .expect("smoke builds");
    let summary = consumer.load_artifacts(&dir).expect("store opens");
    assert!(summary.complete());
    consumer.analyze();
    consumer.analyze();
    assert_eq!(
        analysis_counter(&observer, 1, "frames_built"),
        0,
        "re-analysis of a loaded store must reuse cached frames"
    );
    std::fs::remove_dir_all(&dir).ok();
}
