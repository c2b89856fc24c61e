//! The incremental per-domain analysis cache.
//!
//! Every `analyze()` call used to rebuild the full [`CheckFrame`] from
//! the measurement stores — at paper scale that is hundreds of
//! thousands of band-filter evaluations repeated for every re-analysis,
//! every `pd rerun`, and every sweep arm. The [`FrameCache`] memoizes
//! one [`FrameEntry`] per stage — the assembled frame **and** the
//! stage's Sec. 3.2 [`SummaryFacts`] — keyed by the **measurement
//! fingerprint** of the store they were cut from ([`crate::store`]). A
//! miss reads each domain's rows once, in parallel (one task per domain
//! part) on the deterministic [`Executor`], and cuts both the domain's
//! frame shard and its summary facts from those rows; the shards splice
//! back into exact store order with [`CheckFrame::merge_shards`] and the
//! facts fold in any order. The crowd entry reads two stores in that one
//! fan-out: the cleaned rows give the frame, the raw rows the crowd
//! facts. A hit reads nothing: no row is scanned and no chunk decoded.
//!
//! Because the key is the fingerprint — a digest of everything that can
//! reshape the store — a cache hit is exactly as trustworthy as the
//! artifact store's read-through: same plan, same bytes. The cache pays
//! off on *repeated analysis of the same measurements*: a second
//! `analyze()`, a `pd rerun` under different figure knobs. Engines
//! built from one [`crate::ExperimentBuilder`] also share a cache, but
//! note the built-in sweeps never collide on a key (their arms differ
//! through seed, config or engine knobs, all part of the fingerprint) —
//! cross-arm reuse only materializes for custom sweeps whose arms vary
//! nothing but [`crate::AnalysisConfig`]. If two such arms do race on a
//! key, both may build the same entry; results are unaffected (equal
//! values, first insert wins) and only the per-arm `frames_built`
//! counters over-report.
//!
//! ```
//! use pd_core::{Executor, FrameCache, StageRows, StoreSource};
//! use pd_currency::FxSeries;
//! use pd_sheriff::MeasurementStore;
//! use pd_util::Seed;
//!
//! let cache = FrameCache::new();
//! let fx = FxSeries::generate(Seed::new(1), 10);
//! let store = MeasurementStore::new();
//! let exec = Executor::serial();
//! let rows = StageRows::Crawl(StoreSource::Memory(&store));
//! let (entry, stats) = cache.frame(7, rows, &fx, &exec).unwrap();
//! assert_eq!((stats.built, stats.reused), (0, 0), "empty store, no shards");
//! let (again, stats) = cache.frame(7, rows, &fx, &exec).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&entry, &again), "second call is a hit");
//! assert_eq!(stats.built, 0);
//! ```

use crate::executor::Executor;
use crate::observer::StageKind;
use crate::store::{ChunkedPayload, StoreError};
use pd_analysis::summary::SummaryFacts;
use pd_analysis::{CheckFrame, CheckRow};
use pd_currency::FxSeries;
use pd_sheriff::{Measurement, MeasurementStore};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What one [`FrameCache::frame`] call did: how many per-domain frames
/// it had to build versus how many it served from the cache, and how
/// many binary chunks it decoded to do so. Surfaced as the
/// `frames_built` / `frames_reused` / `frames_chunks_loaded` analysis
/// counters on [`crate::RunObserver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Domain frames built by this call.
    pub built: usize,
    /// Domain frames served from cache (a whole assembled frame).
    pub reused: usize,
    /// Binary store chunks decoded from a [`ChunkedPayload`] by this
    /// call — every row chunk the entry needs (for the crowd, the raw
    /// chunks behind its summary facts too), each exactly once. Zero on
    /// the in-memory path and on every cache hit — a non-zero value
    /// proves the call streamed rows from disk without materializing
    /// the whole payload.
    pub chunks_loaded: usize,
}

/// Where an analysis input store's rows come from: memory, or a chunked
/// binary payload on disk that is decoded one domain chunk at a time
/// (never materialized whole). Both variants yield row-identical frames
/// and summaries; only the `frames_chunks_loaded` counter tells them
/// apart.
#[derive(Debug, Clone, Copy)]
pub enum StoreSource<'a> {
    /// Rows already in memory.
    Memory(&'a MeasurementStore),
    /// Rows on disk under the named row section of a chunked payload.
    Chunked(&'a ChunkedPayload, &'static str),
}

/// The stores behind one [`FrameCache`] entry.
#[derive(Debug, Clone, Copy)]
pub enum StageRows<'a> {
    /// The crowd stage: the frame comes from the `cleaned` store, the
    /// summary facts from the `raw` one.
    Crowd {
        /// Every campaign measurement (the crowd facts).
        raw: StoreSource<'a>,
        /// The cleaned measurements (the crowd frame).
        cleaned: StoreSource<'a>,
    },
    /// The crawl stage: frame and crawl facts from one store, cut from
    /// the same rows.
    Crawl(StoreSource<'a>),
}

/// One memoized analysis input: a stage's check frame and its Sec. 3.2
/// summary facts.
#[derive(Debug)]
pub struct FrameEntry {
    /// The analysis-ready frame, in store order.
    pub frame: CheckFrame,
    /// The stage's summary facts (crowd or crawl fields only).
    pub facts: SummaryFacts,
}

/// A store cut into per-domain parts, each readable on its own.
enum Parts<'a> {
    /// In-memory rows partitioned by domain in one pass (rescanning the
    /// store once per domain would be quadratic at paper scale).
    Memory(Vec<Vec<&'a Measurement>>),
    /// One chunk per domain, decoded on demand.
    Chunked(&'a ChunkedPayload, &'static str, Vec<&'a str>),
}

impl<'a> Parts<'a> {
    /// Cuts `source` into parts in first-seen domain order — chunks
    /// follow that order and keep store order inside, so both sources
    /// yield the same parts.
    fn of(source: StoreSource<'a>) -> Self {
        match source {
            StoreSource::Memory(store) => {
                let domains = store.domains();
                let slot_of: HashMap<&str, usize> = domains
                    .iter()
                    .enumerate()
                    .map(|(slot, domain)| (domain.as_str(), slot))
                    .collect();
                let mut parts = vec![Vec::new(); domains.len()];
                for m in store.records() {
                    parts[slot_of[m.domain.as_str()]].push(m);
                }
                Self::Memory(parts)
            }
            StoreSource::Chunked(payload, section) => {
                Self::Chunked(payload, section, payload.chunk_names(section))
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Memory(parts) => parts.len(),
            Self::Chunked(_, _, names) => names.len(),
        }
    }

    /// Chunks a full read of these parts decodes.
    fn chunks(&self) -> usize {
        match self {
            Self::Memory(_) => 0,
            Self::Chunked(_, _, names) => names.len(),
        }
    }

    /// Runs `f` over part `j`'s rows in store order, decoding its chunk
    /// for a chunked source.
    fn with_rows<T>(
        &self,
        j: usize,
        f: impl FnOnce(&[&Measurement]) -> T,
    ) -> Result<T, StoreError> {
        match self {
            Self::Memory(parts) => Ok(f(&parts[j])),
            Self::Chunked(payload, section, names) => {
                let rows: Vec<Measurement> = payload.read_chunk_rows(section, names[j])?;
                Ok(f(&rows.iter().collect::<Vec<_>>()))
            }
        }
    }
}

/// One domain's frame shard, from that domain's rows in store order.
fn shard(rows: &[&Measurement], fx: &FxSeries) -> CheckFrame {
    CheckFrame::from_rows(
        rows.iter()
            .filter_map(|m| CheckRow::from_measurement(m, fx))
            .collect(),
    )
}

/// Shared, thread-safe cache of [`FrameEntry`]s keyed by store
/// fingerprint. See the [module docs](self).
#[derive(Debug, Default)]
pub struct FrameCache {
    /// `store fingerprint → (entry, number of domain shards)`.
    assembled: Mutex<HashMap<u64, (Arc<FrameEntry>, usize)>>,
}

impl FrameCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The analysis-ready frame and summary facts for `rows`, identified
    /// by `key` (the producing stage's fingerprint). A hit returns the
    /// memoized entry and reads no rows. A miss reads every domain part
    /// once in one parallel fan-out on `exec` — for the crowd, the
    /// cleaned parts (frame shards) and the raw parts (facts) side by
    /// side; for the crawl, shard and facts from the same rows — then
    /// splices the shards into store order and folds the facts. The
    /// frame is row-for-row identical to `CheckFrame::build` over the
    /// frame rows at any thread count, whichever the source, and the
    /// facts finish to the numbers of a whole-store
    /// [`pd_analysis::summary::SummaryScan`].
    ///
    /// Correctness rests on the fingerprint contract: `key` must change
    /// whenever the stores' content could ([`crate::store`] derives it
    /// from the full measurement configuration).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a chunk is missing, fails its
    /// checksum, or a row does not deserialize as a [`Measurement`]
    /// (memory sources never fail).
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned (a frame build panicked).
    pub fn frame(
        &self,
        key: u64,
        rows: StageRows<'_>,
        fx: &FxSeries,
        exec: &Executor,
    ) -> Result<(Arc<FrameEntry>, FrameStats), StoreError> {
        if let Some((entry, shards)) = self.assembled.lock().expect("frame cache lock").get(&key) {
            let stats = FrameStats {
                reused: *shards,
                ..FrameStats::default()
            };
            return Ok((Arc::clone(entry), stats));
        }
        let (frame_parts, raw_parts) = match rows {
            StageRows::Crowd { raw, cleaned } => (Parts::of(cleaned), Some(Parts::of(raw))),
            StageRows::Crawl(store) => (Parts::of(store), None),
        };
        let shards = frame_parts.len();
        let raw_len = raw_parts.as_ref().map_or(0, Parts::len);
        // Frame parts first, then raw crowd parts; the executor's
        // index-ordered merge keeps the build deterministic.
        let parts = exec
            .map_indexed(shards + raw_len, |j| match &raw_parts {
                Some(raw) if j >= shards => raw.with_rows(j - shards, |rows| {
                    (None, SummaryFacts::crowd(rows.iter().copied()))
                }),
                Some(_) => frame_parts
                    .with_rows(j, |rows| (Some(shard(rows, fx)), SummaryFacts::default())),
                None => frame_parts.with_rows(j, |rows| {
                    (
                        Some(shard(rows, fx)),
                        SummaryFacts::crawl(rows.iter().copied()),
                    )
                }),
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let mut frame_shards = Vec::with_capacity(shards);
        let mut facts = SummaryFacts::default();
        for (shard, part) in parts {
            frame_shards.extend(shard);
            facts.merge(&part);
        }
        let entry = Arc::new(FrameEntry {
            frame: CheckFrame::merge_shards(&frame_shards),
            facts,
        });
        self.assembled
            .lock()
            .expect("frame cache lock")
            .entry(key)
            .or_insert_with(|| (Arc::clone(&entry), shards));
        let stats = FrameStats {
            built: shards,
            reused: 0,
            chunks_loaded: frame_parts.chunks() + raw_parts.as_ref().map_or(0, Parts::chunks),
        };
        Ok((entry, stats))
    }
}

/// Shared, thread-safe cache of **loaded measurement artifacts**, keyed
/// by `(stage, measurement fingerprint)` — the store-level sibling of
/// [`FrameCache`]. Where the frame cache memoizes the analysis-ready
/// frames cut *from* a store, this cache memoizes the deserialized
/// store artifact itself (`CrowdArtifact`, `CrawlArtifact`, …), so N
/// concurrent re-analyses of one crawl share a single `Arc` instead of
/// each paying a disk load and holding its own copy.
///
/// Only artifacts that came off disk are cached (the fingerprint then
/// certifies the bytes); computed artifacts stay engine-private. Values
/// are type-erased as `Arc<dyn Any>` so one cache covers every stage's
/// artifact type — the typed accessors downcast, and a key can never
/// alias across types because the [`StageKind`] half of the key pins
/// the artifact type stored under it.
#[derive(Default)]
pub struct StoreCache {
    entries: Mutex<HashMap<(StageKind, u64), Arc<dyn Any + Send + Sync>>>,
}

impl std::fmt::Debug for StoreCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl StoreCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached artifacts.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("store cache lock").len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached artifact for `(stage, fingerprint)`, if present and of
    /// type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn get<T: Send + Sync + 'static>(
        &self,
        stage: StageKind,
        fingerprint: u64,
    ) -> Option<Arc<T>> {
        self.entries
            .lock()
            .expect("store cache lock")
            .get(&(stage, fingerprint))
            .and_then(|any| Arc::clone(any).downcast::<T>().ok())
    }

    /// Caches `artifact` under `(stage, fingerprint)` and returns the
    /// canonical `Arc` — on a racing double-load the first insert wins
    /// and the loser's copy is dropped, so every holder of a key shares
    /// one allocation.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    pub fn insert<T: Send + Sync + 'static>(
        &self,
        stage: StageKind,
        fingerprint: u64,
        artifact: Arc<T>,
    ) -> Arc<T> {
        let mut entries = self.entries.lock().expect("store cache lock");
        let slot = entries
            .entry((stage, fingerprint))
            .or_insert_with(|| artifact.clone() as Arc<dyn Any + Send + Sync>);
        Arc::clone(slot)
            .downcast::<T>()
            .unwrap_or_else(|_| unreachable!("StageKind key pins the artifact type"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_currency::{Currency, Price};
    use pd_net::clock::SimTime;
    use pd_sheriff::measurement::NoiseTruth;
    use pd_sheriff::PriceObservation;
    use pd_util::{Money, RequestId, Seed, UserId, VantageId};

    fn fx() -> FxSeries {
        FxSeries::generate(Seed::new(1307), 160)
    }

    fn meas(domain: &str, slug: &str, prices_minor: &[i64]) -> Measurement {
        Measurement {
            request: RequestId::new(0),
            user: UserId::new(0),
            domain: domain.into(),
            product_slug: slug.into(),
            time: SimTime::from_millis(2 * 24 * 3_600_000),
            user_price: None,
            observations: prices_minor
                .iter()
                .enumerate()
                .map(|(i, minor)| {
                    PriceObservation::ok(
                        VantageId::new(u32::try_from(i).expect("small index")),
                        Price::new(Money::from_minor(*minor), Currency::Usd),
                        String::new(),
                    )
                })
                .collect(),
            noise_truth: NoiseTruth::Clean,
        }
    }

    fn sample_store() -> MeasurementStore {
        let mut store = MeasurementStore::new();
        store.push(meas("a.example", "p1", &[10_000, 13_000]));
        store.push(meas("b.example", "q", &[20_000, 30_000]));
        store.push(meas("a.example", "p2", &[10_000, 10_000]));
        store.push(meas("c.example", "r", &[5_000, 5_500]));
        store
    }

    #[test]
    fn cached_frame_equals_direct_build_and_counts_reuse() {
        let cache = FrameCache::new();
        let store = sample_store();
        let fx = fx();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let (frame, stats) = cache
                .frame(
                    42,
                    StageRows::Crawl(StoreSource::Memory(&store)),
                    &fx,
                    &exec,
                )
                .expect("memory sources cannot fail");
            let direct = CheckFrame::build(&store, &fx);
            assert_eq!(frame.frame.rows(), direct.rows(), "{threads} threads");
            if threads == 1 {
                assert_eq!(
                    stats,
                    FrameStats {
                        built: 3,
                        reused: 0,
                        chunks_loaded: 0
                    }
                );
            } else {
                assert_eq!(
                    stats,
                    FrameStats {
                        built: 0,
                        reused: 3,
                        chunks_loaded: 0
                    }
                );
            }
        }
    }

    #[test]
    fn chunked_frames_match_in_memory_frames() {
        use crate::config::ExperimentConfig;
        use crate::scenario::RunPlan;
        use crate::stage::CrawlArtifact;
        use crate::store::{self, ArtifactStore, Provenance, StoreFormat};

        let dir = std::env::temp_dir().join(format!("pd-frames-chunked-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let plan = RunPlan::new(ExperimentConfig::smoke(7));
        let mut artifacts = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("store creates");
        artifacts.set_format(StoreFormat::Binary);
        let store = sample_store();
        let fp = store::crawl_fingerprint(&plan);
        let art = CrawlArtifact {
            store: sample_store(),
            stats: vec![],
        };
        artifacts
            .save("crawl", fp, &[], &art)
            .expect("saves binary");
        let payload = artifacts.open_chunked("crawl", fp).expect("opens chunked");
        let chunked = StageRows::Crawl(StoreSource::Chunked(&payload, "store"));

        let fx = fx();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let memory = FrameCache::new();
            let (direct, _) = memory
                .frame(
                    11,
                    StageRows::Crawl(StoreSource::Memory(&store)),
                    &fx,
                    &exec,
                )
                .expect("memory build");
            let cache = FrameCache::new();
            let (streamed, stats) = cache.frame(11, chunked, &fx, &exec).expect("chunked build");
            assert_eq!(
                streamed.frame.rows(),
                direct.frame.rows(),
                "{threads} threads"
            );
            assert_eq!(streamed.facts, direct.facts, "{threads} threads");
            assert_eq!(stats.built, 3);
            assert_eq!(stats.chunks_loaded, 3, "one chunk decoded per domain");
            // Second call is an assembled-frame hit: no disk reads.
            let (again, hit) = cache.frame(11, chunked, &fx, &exec).expect("cache hit");
            assert!(Arc::ptr_eq(&streamed, &again));
            assert_eq!((hit.chunks_loaded, hit.reused), (0, 3));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_cache_shares_one_arc_and_keeps_types_apart() {
        let cache = StoreCache::new();
        assert!(cache.is_empty());
        let first = cache.insert(StageKind::Crowd, 7, Arc::new(vec![1u64, 2]));
        // A racing second load of the same key: first insert wins.
        let second = cache.insert(StageKind::Crowd, 7, Arc::new(vec![9u64]));
        assert!(Arc::ptr_eq(&first, &second), "losers adopt the winner");
        let hit = cache
            .get::<Vec<u64>>(StageKind::Crowd, 7)
            .expect("cached artifact");
        assert!(Arc::ptr_eq(&first, &hit));
        // Same fingerprint under a different stage is a distinct entry.
        assert!(cache.get::<Vec<u64>>(StageKind::Crawl, 7).is_none());
        // A type mismatch is a miss, never a panic.
        assert!(cache.get::<String>(StageKind::Crowd, 7).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = FrameCache::new();
        let store = sample_store();
        let mut other = MeasurementStore::new();
        other.push(meas("a.example", "p1", &[99_000, 99_000]));
        let fx = fx();
        let exec = Executor::serial();
        let (full, _) = cache
            .frame(1, StageRows::Crawl(StoreSource::Memory(&store)), &fx, &exec)
            .expect("memory build");
        let (small, stats) = cache
            .frame(2, StageRows::Crawl(StoreSource::Memory(&other)), &fx, &exec)
            .expect("memory build");
        assert_eq!(stats.built, 1, "same domain under a new key rebuilds");
        assert_eq!(full.frame.len(), 4);
        assert_eq!(small.frame.len(), 1);
    }

    #[test]
    fn crowd_entry_cuts_frame_from_cleaned_and_facts_from_raw() {
        let raw = sample_store();
        let mut cleaned = sample_store();
        cleaned.retain(|m| m.domain != "b.example");
        let fx = fx();
        for threads in [1, 3] {
            let rows = StageRows::Crowd {
                raw: StoreSource::Memory(&raw),
                cleaned: StoreSource::Memory(&cleaned),
            };
            let (entry, stats) = FrameCache::new()
                .frame(5, rows, &fx, &Executor::new(threads))
                .expect("memory build");
            assert_eq!(entry.frame.rows(), CheckFrame::build(&cleaned, &fx).rows());
            assert_eq!(stats.built, 2, "one shard per cleaned domain");
            // Per-domain facts fold to the whole raw store's facts.
            let whole = SummaryFacts::crowd(raw.records());
            assert_eq!(entry.facts, whole, "{threads} threads");
        }
    }
}
