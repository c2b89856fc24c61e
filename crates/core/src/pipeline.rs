//! The experiment engine: scenario-driven, staged, deterministic.
//!
//! Two layers:
//!
//! * [`ExperimentBuilder`] (also reached as [`Experiment::builder`]) —
//!   the entry point: pick a named scenario (or a raw config), a seed, a
//!   profile, a thread count and an observer, and get an [`Engine`].
//! * [`Engine`] — runs the typed stages ([`crate::stage`]) with artifact
//!   caching: `crowd()` runs the campaign once and every later call
//!   (including `analyze()`) reuses the artifact. All parallel sections
//!   go through the deterministic [`Executor`], so the report is
//!   byte-identical at any thread count. A bare config runs through
//!   `Engine::from_plan(RunPlan::new(config), Executor::serial(), ..)`.

use crate::config::ExperimentConfig;
use crate::executor::Executor;
use crate::frames::{FrameCache, StoreCache, StoreSource};
use crate::observer::{BufferedObserver, NullObserver, RunObserver, StageKind};
use crate::report::Report;
use crate::scenario::{Profile, RunPlan, ScenarioParams, ScenarioRegistry};
use crate::spec::ScenarioSpec;
use crate::stage::{self, AnalysisArtifact, CrawlArtifact, CrowdArtifact, PersonaArtifact};
use crate::store::{
    self, ArtifactStore, ChunkedPayload, EntryHealth, Fingerprint, Provenance, StoreError,
    StoreFormat,
};
use crate::world::World;
use pd_sheriff::cleaning::CleaningReport;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The staged, artifact-caching experiment engine.
pub struct Engine {
    plan: RunPlan,
    world: World,
    executor: Executor,
    observer: Arc<dyn RunObserver>,
    /// Read-through artifact store directory (see [`Engine::with_artifacts`]).
    artifacts_dir: Option<PathBuf>,
    /// Provenance stamped into manifests this engine writes.
    provenance: Provenance,
    /// The declarative spec that produced this engine's plan, if any
    /// (recorded verbatim in manifests this engine writes).
    spec: Option<ScenarioSpec>,
    /// Stages whose artifact came off disk rather than being computed
    /// (such stages are skipped by [`Engine::save_artifacts`] — their
    /// bytes are already in the store). A stage recomputed after a
    /// failed chunk read leaves this list again.
    loaded_stages: Vec<StageKind>,
    /// Per-domain frame cache the analysis stage reuses across repeated
    /// `analyze()` calls; shared across sweep arms built by one builder.
    frames: Arc<FrameCache>,
    /// Payload format for artifacts this engine saves.
    store_format: StoreFormat,
    /// Shared cache of loaded (deserialized) store artifacts, when one
    /// is attached: concurrent engines whose fingerprints coincide share
    /// one `Arc` per artifact instead of each paying a disk load.
    stores: Option<Arc<StoreCache>>,
    crowd: Option<Arc<CrowdArtifact>>,
    crawl: Option<Arc<CrawlArtifact>>,
    personas: Option<Arc<PersonaArtifact>>,
    /// Chunked handle onto an on-disk binary crowd payload, with the
    /// cleaning report from its meta chunk: analysis streams its rows
    /// per domain instead of materializing `crowd`.
    crowd_chunked: Option<(ChunkedPayload, CleaningReport)>,
    /// Chunked handle onto an on-disk binary crawl payload.
    crawl_chunked: Option<ChunkedPayload>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("plan", &self.plan)
            .field("executor", &self.executor)
            .field("artifacts_dir", &self.artifacts_dir)
            .field("crowd_cached", &self.crowd.is_some())
            .field("crawl_cached", &self.crawl.is_some())
            .field("personas_cached", &self.personas.is_some())
            .finish()
    }
}

/// What [`Engine::load_artifacts`] found in a store, per measurement
/// stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadSummary {
    /// Stages loaded into the engine's cache.
    pub loaded: Vec<StageKind>,
    /// Stages the manifest does not list.
    pub missing: Vec<StageKind>,
    /// Stages stored under a different fingerprint (produced by another
    /// plan).
    pub stale: Vec<StageKind>,
    /// Stages whose files are corrupt or unreadable.
    pub corrupt: Vec<StageKind>,
}

impl LoadSummary {
    /// True when every measurement stage (crowd, crawl, personas) loaded.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.loaded.len() == 3
    }
}

/// What [`Engine::save_artifacts`] wrote, per stage name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SaveSummary {
    /// Stages serialized to the store in this call.
    pub saved: Vec<&'static str>,
    /// Cached stages that were already in the store under the same
    /// fingerprint (e.g. because they were loaded from it).
    pub fresh: Vec<&'static str>,
}

impl Engine {
    /// Builds an engine for a run plan: assembles the world, then
    /// applies the plan's vantage subset and desynchronization skew to
    /// the fan-out engine (the only moment they can be set).
    #[must_use]
    pub fn from_plan(plan: RunPlan, executor: Executor, observer: Arc<dyn RunObserver>) -> Self {
        let world = stage::observed(observer.as_ref(), StageKind::Build, || {
            let mut world = World::build(&plan.config);
            if let Some(labels) = &plan.vantage_labels {
                world.sheriff = world.sheriff.clone().with_vantage_subset(labels);
            }
            if plan.desync != pd_net::clock::SimDuration::ZERO {
                world.sheriff = world.sheriff.clone().with_desync(plan.desync);
            }
            // Emitted inside the stage window so observers attribute it
            // to this run's build stage.
            observer.counter(
                StageKind::Build,
                "vantage_points",
                world.sheriff.vantage_points().len() as u64,
            );
            world
        });
        let provenance = Provenance::new(
            "custom",
            "",
            "custom",
            plan.config.seed.value(),
            executor.threads(),
        );
        Engine {
            plan,
            world,
            executor,
            observer,
            artifacts_dir: None,
            provenance,
            spec: None,
            loaded_stages: Vec::new(),
            frames: Arc::new(FrameCache::new()),
            store_format: StoreFormat::Json,
            stores: None,
            crowd: None,
            crawl: None,
            personas: None,
            crowd_chunked: None,
            crawl_chunked: None,
        }
    }

    /// Attaches an artifact-store directory as a transparent
    /// read-through cache: every stage checks the store (by fingerprint,
    /// see [`crate::store`]) before computing. Loads are reported
    /// through [`RunObserver::stage_loaded`]; nothing is written until
    /// [`Engine::save_artifacts`].
    #[must_use]
    pub fn with_artifacts(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifacts_dir = Some(dir.into());
        self
    }

    /// Overrides the provenance stamped into manifests this engine
    /// writes (the builder does this with the scenario name, sweep-arm
    /// label and profile).
    #[must_use]
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// Records the declarative spec this engine's plan was lowered from;
    /// manifests the engine writes then carry the exact spec, so a store
    /// is reproducible from its own metadata (`pd artifacts ls`).
    #[must_use]
    pub fn with_spec(mut self, spec: ScenarioSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The spec this engine was built from, if it came from one.
    #[must_use]
    pub fn spec(&self) -> Option<&ScenarioSpec> {
        self.spec.as_ref()
    }

    /// Replaces the engine's frame cache with a shared one (the builder
    /// does this so every sweep arm reuses per-domain frames keyed by
    /// the same upstream fingerprints).
    #[must_use]
    pub fn with_frame_cache(mut self, frames: Arc<FrameCache>) -> Self {
        self.frames = frames;
        self
    }

    /// The per-domain frame cache in force.
    #[must_use]
    pub fn frame_cache(&self) -> &Arc<FrameCache> {
        &self.frames
    }

    /// Attaches a shared [`StoreCache`]: artifacts this engine loads
    /// from disk are parked there (keyed by stage + measurement
    /// fingerprint), and loads check it before touching disk — so
    /// concurrent engines re-analyzing the same measurements share one
    /// `Arc` per artifact. Computed artifacts stay engine-private.
    #[must_use]
    pub fn with_store_cache(mut self, stores: Arc<StoreCache>) -> Self {
        self.stores = Some(stores);
        self
    }

    /// The shared store cache in force, if any.
    #[must_use]
    pub fn store_cache(&self) -> Option<&Arc<StoreCache>> {
        self.stores.as_ref()
    }

    /// Sets the payload format artifacts are saved in (default
    /// [`StoreFormat::Json`]; [`StoreFormat::Binary`] for the compact
    /// chunked encoding). Loading auto-detects per entry, so this only
    /// shapes what [`Engine::save_artifacts`] and
    /// [`Engine::save_analysis`] write.
    #[must_use]
    pub fn with_store_format(mut self, format: StoreFormat) -> Self {
        self.store_format = format;
        self
    }

    /// The payload format in force for saves.
    #[must_use]
    pub fn store_format(&self) -> StoreFormat {
        self.store_format
    }

    /// The attached read-through store directory, if any.
    #[must_use]
    pub fn artifacts_dir(&self) -> Option<&Path> {
        self.artifacts_dir.as_deref()
    }

    /// Stages whose artifacts were satisfied from a store instead of
    /// computed, in load order.
    #[must_use]
    pub fn loaded_stages(&self) -> &[StageKind] {
        &self.loaded_stages
    }

    /// The assembled world (read access for examples and diagnostics).
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The plan in force.
    #[must_use]
    pub fn plan(&self) -> &RunPlan {
        &self.plan
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.plan.config
    }

    /// The scheduler in force.
    #[must_use]
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Probes the attached read-through store for one stage; a validated
    /// hit is reported via [`RunObserver::stage_loaded`] and remembered
    /// so [`Engine::save_artifacts`] does not rewrite it. Any failure
    /// (no store, stale fingerprint, corrupt file) is a cache miss: the
    /// caller computes. `pd artifacts ls` is the diagnostic surface for
    /// unhealthy stores.
    fn probe_store<T: serde::Deserialize + Send + Sync + 'static>(
        &mut self,
        kind: StageKind,
    ) -> Option<Arc<T>> {
        // Read-through (shared cache included) needs an attached store.
        self.artifacts_dir.as_ref()?;
        let fp = measurement_fp(kind, &self.plan);
        // A shared-cache hit is as trustworthy as the disk load that
        // populated it: the fingerprint key certifies the bytes.
        if let Some(hit) = self
            .stores
            .as_ref()
            .and_then(|s| s.get::<T>(kind, fp.as_u64()))
        {
            self.mark_loaded(kind, fp);
            return Some(hit);
        }
        let store = self.attached_store()?;
        self.load_whole(&store, kind).ok()
    }

    /// The attached read-through store, when it exists and opens.
    fn attached_store(&self) -> Option<ArtifactStore> {
        let dir = self.artifacts_dir.as_deref()?;
        if !ArtifactStore::is_store(dir) {
            return None;
        }
        ArtifactStore::open(dir).ok()
    }

    /// Reports a stage as satisfied from a store.
    fn mark_loaded(&mut self, kind: StageKind, fp: Fingerprint) {
        self.observer.stage_loaded(kind, &fp.to_string());
        self.loaded_stages.push(kind);
    }

    /// Deserializes `kind`'s whole artifact from `store` and parks it in
    /// the shared [`StoreCache`] (when one is attached). Under a racing
    /// double-load the first insert wins, so every engine ends up holding
    /// the same allocation.
    fn load_whole<T: serde::Deserialize + Send + Sync + 'static>(
        &mut self,
        store: &ArtifactStore,
        kind: StageKind,
    ) -> Result<Arc<T>, StoreError> {
        let fp = measurement_fp(kind, &self.plan);
        let mut artifact = Arc::new(store.load::<T>(kind.as_str(), fp)?);
        if let Some(stores) = &self.stores {
            artifact = stores.insert(kind, fp.as_u64(), artifact);
        }
        self.mark_loaded(kind, fp);
        Ok(artifact)
    }

    /// Opens `kind`'s (crowd or crawl) **binary** entry in `store` as a
    /// chunked handle — fingerprint- and checksum-checked, rows left on
    /// disk — so analysis streams it one domain chunk at a time. The
    /// crowd handle also takes the cleaning report from its meta chunk.
    fn open_chunked(&mut self, store: &ArtifactStore, kind: StageKind) -> Result<(), StoreError> {
        let fp = measurement_fp(kind, &self.plan);
        let payload = store.open_chunked(kind.as_str(), fp)?;
        if kind == StageKind::Crowd {
            // The meta chunk is the artifact with its row arrays emptied.
            let cleaning = payload.meta::<CrowdArtifact>()?.cleaning;
            self.crowd_chunked = Some((payload, cleaning));
        } else {
            self.crawl_chunked = Some(payload);
        }
        self.mark_loaded(kind, fp);
        Ok(())
    }

    /// Whether the engine already holds `kind`'s rows, in memory or as a
    /// chunked handle.
    fn holds(&self, kind: StageKind) -> bool {
        match kind {
            StageKind::Crowd => self.crowd.is_some() || self.crowd_chunked.is_some(),
            StageKind::Crawl => self.crawl.is_some() || self.crawl_chunked.is_some(),
            _ => self.personas.is_some(),
        }
    }

    /// The crowd campaign artifact: from the in-memory cache, else from
    /// the attached artifact store (fingerprint permitting), else
    /// computed by running the stage.
    pub fn crowd(&mut self) -> &CrowdArtifact {
        if self.crowd.is_none() {
            self.crowd = self.probe_store(StageKind::Crowd);
        }
        if self.crowd.is_none() {
            self.crowd = Some(Arc::new(stage::crowd_stage(
                &self.world,
                &self.plan,
                &self.executor,
                self.observer.as_ref(),
            )));
        }
        self.crowd.as_deref().expect("just computed")
    }

    /// The crawl artifact, cached after the first call (store-backed
    /// like [`Engine::crowd`]). With [`RunPlan::targets_from_crowd`]
    /// set, the crowd stage runs (or loads) first and the crawl targets
    /// are the domains with confirmed crowd variation instead of the
    /// paper's fixed list.
    pub fn crawl(&mut self) -> &CrawlArtifact {
        if self.crawl.is_none() {
            self.crawl = self.probe_store(StageKind::Crawl);
        }
        if self.crawl.is_none() {
            let targets = match self.plan.targets_from_crowd {
                Some(min_confirmed) => {
                    self.crowd();
                    stage::targets_from_crowd(
                        &self.world,
                        &self.crowd.as_ref().expect("crowd cached above").cleaned,
                        min_confirmed,
                    )
                }
                None => self.world.paper_crawl_targets(),
            };
            self.crawl = Some(Arc::new(stage::crawl_stage(
                &self.world,
                &self.plan.config,
                &targets,
                &self.executor,
                self.observer.as_ref(),
            )));
        }
        self.crawl.as_deref().expect("just computed")
    }

    /// The persona/login artifact, cached after the first call
    /// (store-backed like [`Engine::crowd`]).
    pub fn personas(&mut self) -> &PersonaArtifact {
        if self.personas.is_none() {
            self.personas = self.probe_store(StageKind::Personas);
        }
        if self.personas.is_none() {
            self.personas = Some(Arc::new(stage::persona_stage(
                &self.world,
                &self.plan.config,
                &self.executor,
                self.observer.as_ref(),
            )));
        }
        self.personas.as_deref().expect("just computed")
    }

    /// Eagerly loads every measurement artifact the store holds for this
    /// engine's plan, reporting per-stage outcomes. Unlike the passive
    /// read-through of [`Engine::with_artifacts`], this distinguishes
    /// *why* a stage did not load — `pd rerun` uses it to refuse
    /// incomplete or stale stores instead of silently re-measuring.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoManifest`] (or another open failure) when `dir`
    /// is not a readable artifact store.
    pub fn load_artifacts(&mut self, dir: &Path) -> Result<LoadSummary, StoreError> {
        let store = ArtifactStore::open(dir)?;
        let mut summary = LoadSummary::default();
        for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
            match self.load_stage(&store, kind) {
                Ok(()) => summary.loaded.push(kind),
                Err(StoreError::MissingStage { .. }) => summary.missing.push(kind),
                Err(StoreError::StaleFingerprint { .. }) => summary.stale.push(kind),
                Err(_) => summary.corrupt.push(kind),
            }
        }
        Ok(summary)
    }

    /// Loads one measurement stage from `store` unless the engine already
    /// holds it (which counts as loaded). Binary crowd/crawl entries open
    /// as chunked handles: the rows stay on disk and `analyze()` streams
    /// them one domain chunk at a time instead of materializing the
    /// whole payload.
    fn load_stage(&mut self, store: &ArtifactStore, kind: StageKind) -> Result<(), StoreError> {
        if self.holds(kind) {
            return Ok(());
        }
        match kind {
            StageKind::Crowd | StageKind::Crawl if is_binary(store, kind) => {
                self.open_chunked(store, kind)?;
            }
            StageKind::Crowd => self.crowd = Some(self.load_whole(store, kind)?),
            StageKind::Crawl => self.crawl = Some(self.load_whole(store, kind)?),
            _ => self.personas = Some(self.load_whole(store, kind)?),
        }
        Ok(())
    }

    /// Persists every cached measurement artifact to `dir`, creating the
    /// store (with this engine's provenance and plan) if needed. An entry
    /// already stored under the current fingerprint is skipped when this
    /// engine loaded that stage or the entry still verifies; a corrupt
    /// one is overwritten.
    ///
    /// # Errors
    ///
    /// [`StoreError::PlanMismatch`] when `dir` already holds artifacts
    /// produced by a different plan (delete the directory first if you
    /// really mean to replace them); [`StoreError::Io`] (or a manifest
    /// parse error) when the store cannot be created or written.
    pub fn save_artifacts(&self, dir: &Path) -> Result<SaveSummary, StoreError> {
        let mut store = self.open_or_create_store(dir)?;
        let mut summary = SaveSummary::default();
        macro_rules! save_stage {
            ($kind:expr, $slot:ident) => {
                if let Some(artifact) = &self.$slot {
                    let fp = measurement_fp($kind, &self.plan);
                    let name = $kind.as_str();
                    let fresh = store.entry(name).is_some_and(|e| {
                        e.fingerprint == fp.to_string()
                            && (self.loaded_stages.contains(&$kind)
                                || store.health(e) == EntryHealth::Ok)
                    });
                    if fresh {
                        summary.fresh.push(name);
                    } else {
                        store.save(name, fp, &[], artifact.as_ref())?;
                        summary.saved.push(name);
                    }
                }
            };
        }
        save_stage!(StageKind::Crowd, crowd);
        save_stage!(StageKind::Crawl, crawl);
        save_stage!(StageKind::Personas, personas);
        Ok(summary)
    }

    /// Persists an analysis artifact to `dir`, recording the three
    /// measurement fingerprints as its upstream lineage. Call after
    /// [`Engine::save_artifacts`] so the manifest lists the full funnel.
    /// Like `save_artifacts`, an entry already stored under the current
    /// fingerprint is left untouched (returns its existing size).
    ///
    /// # Errors
    ///
    /// [`StoreError::PlanMismatch`] when `dir` holds another plan's
    /// artifacts; [`StoreError::Io`] (or a manifest parse error) when
    /// the store cannot be created or written.
    pub fn save_analysis(
        &self,
        dir: &Path,
        artifact: &AnalysisArtifact,
    ) -> Result<u64, StoreError> {
        let mut store = self.open_or_create_store(dir)?;
        let name = StageKind::Analysis.as_str();
        let fp = store::analysis_fingerprint(&self.plan);
        if let Some(entry) = store.entry(name) {
            if entry.fingerprint == fp.to_string() {
                return Ok(entry.bytes);
            }
        }
        let upstream = [
            store::crowd_fingerprint(&self.plan),
            store::crawl_fingerprint(&self.plan),
            store::personas_fingerprint(&self.plan),
        ];
        store.save(name, fp, &upstream, artifact)
    }

    /// Opens the store at `dir` if it was produced by this engine's
    /// plan, or creates it fresh if the directory is not a store yet.
    /// A store produced by a *different* plan (or one whose manifest is
    /// unreadable) is never clobbered: a paper-scale dataset must not
    /// die to a seed typo. The caller decides whether to delete the
    /// directory and retry (the CLI's `--overwrite-artifacts`).
    fn open_or_create_store(&self, dir: &Path) -> Result<ArtifactStore, StoreError> {
        let mut store = match ArtifactStore::open(dir) {
            Ok(existing) => {
                if existing.manifest().plan == store::PlanRecord::from_plan(&self.plan) {
                    existing
                } else {
                    return Err(StoreError::PlanMismatch {
                        dir: dir.display().to_string(),
                    });
                }
            }
            Err(StoreError::NoManifest { .. }) => {
                ArtifactStore::create(dir, self.provenance.clone(), &self.plan, self.spec.clone())?
            }
            Err(e) => return Err(e),
        };
        store.set_format(self.store_format);
        Ok(store)
    }

    /// Runs the analysis over the (cached) upstream artifacts and
    /// returns the analysis artifact. Upstream stages run at most once;
    /// calling this twice re-analyzes but does not re-measure.
    ///
    /// Crowd and crawl rows each come from the in-memory artifact, else a
    /// chunked handle (a **binary** entry in the attached store, or one
    /// opened by [`Engine::load_artifacts`]), else computing the stage.
    /// Chunked rows are streamed one domain chunk at a time, each chunk
    /// decoded at most once and none on a frame-cache hit (the
    /// `frames_chunks_loaded` counter reports how many), instead of
    /// deserializing the whole payload; a chunk that fails mid-read
    /// drops the handles and falls back to computing in memory.
    pub fn analyze(&mut self) -> AnalysisArtifact {
        self.personas();
        if let Some(store) = self.attached_store() {
            for kind in [StageKind::Crowd, StageKind::Crawl] {
                if is_binary(&store, kind) && !self.holds(kind) {
                    // A failed open is a cache miss: the stage computes.
                    let _ = self.open_chunked(&store, kind);
                }
            }
        }
        if !self.holds(StageKind::Crowd) {
            self.crowd();
        }
        if !self.holds(StageKind::Crawl) {
            self.crawl();
        }
        match self.analysis_over_held() {
            Ok(analysis) => analysis,
            Err(_) => {
                // A chunk rotted between open and read: recompute from
                // scratch rather than serve a partial analysis. The
                // dropped stages no longer count as loaded.
                for (kind, dropped) in [
                    (StageKind::Crowd, self.crowd_chunked.take().is_some()),
                    (StageKind::Crawl, self.crawl_chunked.take().is_some()),
                ] {
                    if dropped {
                        self.loaded_stages.retain(|k| *k != kind);
                    }
                }
                self.crowd();
                self.crawl();
                self.analysis_over_held()
                    .expect("in-memory analysis sources cannot fail")
            }
        }
    }

    /// [`stage::analysis_over`] on whatever mix of in-memory artifacts
    /// and chunked handles the engine holds (in-memory wins), keyed in
    /// the frame cache by the plan's measurement fingerprints.
    fn analysis_over_held(&self) -> Result<AnalysisArtifact, StoreError> {
        let (crowd_raw, crowd_clean, cleaning) = match (&self.crowd, &self.crowd_chunked) {
            (Some(art), _) => (
                StoreSource::Memory(&art.raw),
                StoreSource::Memory(&art.cleaned),
                art.cleaning,
            ),
            (None, Some((payload, cleaning))) => (
                StoreSource::Chunked(payload, "raw"),
                StoreSource::Chunked(payload, "cleaned"),
                *cleaning,
            ),
            (None, None) => unreachable!("analyze resolves the crowd first"),
        };
        let crawl_store = match (&self.crawl, &self.crawl_chunked) {
            (Some(art), _) => StoreSource::Memory(&art.store),
            (None, Some(payload)) => StoreSource::Chunked(payload, "store"),
            (None, None) => unreachable!("analyze resolves the crawl first"),
        };
        let keys = stage::FrameKeys {
            cache: self.frames.as_ref(),
            crowd: store::crowd_fingerprint(&self.plan).as_u64(),
            crawl: store::crawl_fingerprint(&self.plan).as_u64(),
        };
        stage::analysis_over(
            &self.world,
            &self.plan.config,
            crowd_raw,
            crowd_clean,
            cleaning,
            crawl_store,
            self.personas
                .as_deref()
                .expect("analyze resolves personas first"),
            keys,
            &self.executor,
            self.observer.as_ref(),
        )
    }

    /// Runs the full pipeline and returns the report.
    pub fn run(&mut self) -> Report {
        self.analyze().report
    }
}

/// Whether `store` holds `kind` in the binary chunked format.
fn is_binary(store: &ArtifactStore, kind: StageKind) -> bool {
    store
        .entry(kind.as_str())
        .is_some_and(|e| e.store_format() == StoreFormat::Binary)
}

/// The fingerprint of a measurement stage (crowd, crawl or personas).
fn measurement_fp(kind: StageKind, plan: &RunPlan) -> Fingerprint {
    store::measurement_fingerprint(kind, plan).expect("measurement stage has a fingerprint")
}

/// Why a builder could not produce an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The requested scenario name is not registered.
    UnknownScenario(String),
    /// The supplied [`ScenarioSpec`] failed validation.
    InvalidSpec {
        /// The spec's name (possibly empty).
        name: String,
        /// The validation failure, rendered.
        detail: String,
    },
    /// `build()` was called on a sweep scenario; use
    /// [`ExperimentBuilder::build_variants`].
    SweepScenario(String),
    /// A config override was combined with a scenario whose sweep arms
    /// differ *through* their configs (e.g. `seed-sweep`,
    /// `locale-sweep`); overriding would erase the arm differences.
    ConfigOverridesSweep(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownScenario(name) => write!(f, "unknown scenario {name:?}"),
            BuildError::InvalidSpec { name, detail } => {
                write!(f, "invalid scenario spec {name:?}: {detail}")
            }
            BuildError::SweepScenario(name) => write!(
                f,
                "scenario {name:?} is a sweep; use build_variants() to get every arm"
            ),
            BuildError::ConfigOverridesSweep(name) => write!(
                f,
                "scenario {name:?} sweeps over its config; a config override would \
                 make every arm identical"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Engine`]s: scenario + seed + profile + threads +
/// observer.
///
/// ```
/// use pd_core::{Experiment, Profile};
///
/// let mut engine = Experiment::builder()
///     .scenario("paper")
///     .profile(Profile::Smoke)
///     .seed(42)
///     .threads(2)
///     .build()
///     .expect("paper is a registered single-run scenario");
/// let report = engine.run();
/// assert!(report.summary.crowd_requests > 0);
/// ```
pub struct ExperimentBuilder {
    registry: ScenarioRegistry,
    scenario: Option<String>,
    spec: Option<ScenarioSpec>,
    config: Option<ExperimentConfig>,
    seed: Option<u64>,
    profile: Profile,
    threads: usize,
    observer: Arc<dyn RunObserver>,
    artifacts: Option<PathBuf>,
    store_format: StoreFormat,
    frame_cache: Option<Arc<FrameCache>>,
    store_cache: Option<Arc<StoreCache>>,
}

impl std::fmt::Debug for ExperimentBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentBuilder")
            .field("scenario", &self.scenario)
            .field("seed", &self.seed)
            .field("profile", &self.profile)
            .field("threads", &self.threads)
            .finish()
    }
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            registry: ScenarioRegistry::builtin(),
            scenario: None,
            spec: None,
            config: None,
            seed: None,
            profile: Profile::Paper,
            threads: 1,
            observer: Arc::new(NullObserver),
            artifacts: None,
            store_format: StoreFormat::Json,
            frame_cache: None,
            store_cache: None,
        }
    }
}

impl ExperimentBuilder {
    /// A builder with the built-in scenario registry, the `paper`
    /// scenario, the paper seed and profile, one thread, no observer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects a scenario by registry name (default: `paper`).
    #[must_use]
    pub fn scenario(mut self, name: &str) -> Self {
        self.scenario = Some(name.to_owned());
        self
    }

    /// Runs a one-off declarative spec instead of a registered scenario
    /// (what `pd run --spec FILE.json` does). Wins over
    /// [`ExperimentBuilder::scenario`]; the spec is validated at build
    /// time and recorded in any artifact manifest the run writes.
    #[must_use]
    pub fn spec(mut self, spec: ScenarioSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Replaces the scenario registry (to add custom scenarios before
    /// selecting one by name).
    #[must_use]
    pub fn registry(mut self, registry: ScenarioRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Overrides the experiment configuration. The selected scenario
    /// still applies its engine knobs (desync, cleaning, vantage subset)
    /// on top of this config, and an explicit [`ExperimentBuilder::seed`]
    /// still wins over the override's seed. Scenarios whose sweep arms
    /// differ through their configs (`seed-sweep`, `locale-sweep`)
    /// reject an override at build time.
    #[must_use]
    pub fn config(mut self, config: ExperimentConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the root seed (default: the paper seed, 1307).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the workload profile (default: [`Profile::Paper`]).
    #[must_use]
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the worker-thread count (default 1 = sequential; 0 = the
    /// machine's available parallelism). The report is byte-identical at
    /// any value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a run observer (keep a clone of the `Arc` to read
    /// timings afterwards).
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn RunObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches an artifact-store directory as a read-through cache
    /// (see [`Engine::with_artifacts`]). Sweep scenarios get one store
    /// per arm, in a subdirectory named after the arm label.
    #[must_use]
    pub fn artifacts(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifacts = Some(dir.into());
        self
    }

    /// Sets the payload format for artifacts the built engines save
    /// (default [`StoreFormat::Json`]; what `pd run --format` drives).
    #[must_use]
    pub fn store_format(mut self, format: StoreFormat) -> Self {
        self.store_format = format;
        self
    }

    /// Shares a caller-owned [`FrameCache`] with every engine this
    /// builder produces, instead of the per-build cache it would
    /// otherwise create. Long-lived callers (the `pd serve` daemon) pass
    /// one process-wide cache here so repeated runs over the same
    /// measurements reuse assembled frames across builds — frames are
    /// keyed by measurement fingerprint, so unrelated workloads never
    /// collide.
    #[must_use]
    pub fn frame_cache(mut self, frames: Arc<FrameCache>) -> Self {
        self.frame_cache = Some(frames);
        self
    }

    /// Shares a caller-owned [`StoreCache`] with every engine this
    /// builder produces: measurement artifacts loaded from the attached
    /// store are parked in (and served from) the shared cache, so
    /// concurrent runs over the same on-disk crawl hold one `Arc` per
    /// artifact instead of N deserialized copies. Like the frame cache,
    /// entries are keyed by measurement fingerprint — unrelated
    /// workloads never collide.
    #[must_use]
    pub fn store_cache(mut self, stores: Arc<StoreCache>) -> Self {
        self.store_cache = Some(stores);
        self
    }

    /// The frame cache the built engines will share: the injected one,
    /// or a fresh per-build cache.
    fn shared_frames(&self) -> Arc<FrameCache> {
        self.frame_cache
            .clone()
            .unwrap_or_else(|| Arc::new(FrameCache::new()))
    }

    /// Resolves the scenario (an explicit spec, or a registry name) into
    /// the producing spec and its labeled run plans.
    fn resolve(&self) -> Result<(ScenarioSpec, Vec<(String, RunPlan)>), BuildError> {
        let spec: &ScenarioSpec = match &self.spec {
            Some(spec) => spec,
            None => {
                let name = self.scenario.as_deref().unwrap_or("paper");
                self.registry
                    .get(name)
                    .ok_or_else(|| BuildError::UnknownScenario(name.to_owned()))?
            }
        };
        let name = spec.name.clone();
        let params = ScenarioParams {
            seed: self
                .seed
                .unwrap_or_else(|| pd_util::seed::EXPERIMENT_SEED.value()),
            profile: self.profile,
        };
        let mut variants = spec
            .lower(&params)
            .map_err(|e| BuildError::InvalidSpec {
                name: name.clone(),
                detail: e.to_string(),
            })?
            .into_variants();
        if let Some(config) = &self.config {
            // A config override is only meaningful when the arms do not
            // differ through their configs — otherwise it would silently
            // flatten the sweep.
            if variants
                .iter()
                .any(|(_, plan)| plan.config != variants[0].1.config)
            {
                return Err(BuildError::ConfigOverridesSweep(name));
            }
            // An explicit .seed() composes with the override instead of
            // being silently discarded by it.
            let mut config = config.clone();
            if let Some(seed) = self.seed {
                config.seed = pd_util::Seed::new(seed);
            }
            for (_, plan) in &mut variants {
                plan.config = config.clone();
            }
        }
        Ok((spec.clone(), variants))
    }

    /// Assembles one arm's engine: provenance from the scenario/label,
    /// the shared frame cache, and (with
    /// [`ExperimentBuilder::artifacts`]) the arm's store subdirectory.
    /// The single place this wiring exists — `build`, `build_variants`
    /// and `run_sweep` all go through it, so they cannot drift.
    /// `executor` is the executor the engine will actually run on (the
    /// full budget, or the intra-arm share under `run_sweep`); its
    /// thread count is what the provenance records.
    fn arm_engine(
        &self,
        spec: &ScenarioSpec,
        label: &str,
        plan: RunPlan,
        executor: Executor,
        observer: Arc<dyn RunObserver>,
        frames: &Arc<FrameCache>,
    ) -> Engine {
        let provenance = Provenance::new(
            &spec.name,
            label,
            self.profile.name(),
            plan.config.seed.value(),
            executor.threads(),
        );
        let mut engine = Engine::from_plan(plan, executor, observer)
            .with_provenance(provenance)
            .with_spec(spec.clone())
            .with_frame_cache(Arc::clone(frames))
            .with_store_format(self.store_format);
        if let Some(stores) = &self.store_cache {
            engine = engine.with_store_cache(Arc::clone(stores));
        }
        if let Some(dir) = &self.artifacts {
            let arm_dir = if label.is_empty() {
                dir.clone()
            } else {
                dir.join(label)
            };
            engine = engine.with_artifacts(arm_dir);
        }
        engine
    }

    /// Builds the engine for a single-run scenario.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScenario`] if the name is not registered;
    /// [`BuildError::SweepScenario`] if the scenario expands to more
    /// than one run (use [`ExperimentBuilder::build_variants`]).
    pub fn build(self) -> Result<Engine, BuildError> {
        let (spec, mut variants) = self.resolve()?;
        if variants.len() != 1 {
            return Err(BuildError::SweepScenario(spec.name));
        }
        let (label, plan) = variants.remove(0);
        let frames = self.shared_frames();
        Ok(self.arm_engine(
            &spec,
            &label,
            plan,
            Executor::new(self.threads),
            Arc::clone(&self.observer),
            &frames,
        ))
    }

    /// Builds one engine per scenario variant (a single-run scenario
    /// yields one engine labeled `""`). With [`ExperimentBuilder::artifacts`],
    /// each labeled arm gets its own store subdirectory.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScenario`] if the name is not registered.
    pub fn build_variants(self) -> Result<Vec<(String, Engine)>, BuildError> {
        let (spec, variants) = self.resolve()?;
        let executor = Executor::new(self.threads);
        // One frame cache for the whole sweep: arms whose upstream
        // measurement fingerprints coincide reuse each other's frames.
        let frames = self.shared_frames();
        Ok(variants
            .into_iter()
            .map(|(label, plan)| {
                let engine = self.arm_engine(
                    &spec,
                    &label,
                    plan,
                    executor,
                    Arc::clone(&self.observer),
                    &frames,
                );
                (label, engine)
            })
            .collect())
    }

    /// Runs every scenario arm to completion, **fanning the arms across
    /// the deterministic executor**. This is the engine's sweep hot
    /// path: the thread budget is split arm-level × intra-arm
    /// ([`Executor::split`], never oversubscribing `threads`), every arm
    /// runs its full pipeline under an arm-scoped [`BufferedObserver`],
    /// and when all arms have joined the buffers are replayed into the
    /// builder's observer in label order — so observers see the exact
    /// event stream a serial sweep would have produced, and reports stay
    /// byte-identical at any thread count.
    ///
    /// Single-run scenarios work too (one arm labeled `""`, the whole
    /// budget intra-arm), so callers like the `pd` CLI can treat every
    /// scenario uniformly.
    ///
    /// Arms share the builder's [`FrameCache`]; with
    /// [`ExperimentBuilder::artifacts`], each labeled arm reads (and its
    /// returned engine later writes) its own store subdirectory.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScenario`] if the name is not registered;
    /// [`BuildError::ConfigOverridesSweep`] under the same conditions as
    /// [`ExperimentBuilder::build_variants`].
    ///
    /// # Panics
    ///
    /// Propagates a panic from any arm.
    pub fn run_sweep(self) -> Result<Vec<SweepArmRun>, BuildError> {
        let (spec, variants) = self.resolve()?;
        let total = Executor::new(self.threads);
        let (arm_exec, intra) = total.split(variants.len());
        let frames = self.shared_frames();
        let buffers: Vec<Arc<BufferedObserver>> = variants
            .iter()
            .map(|_| Arc::new(BufferedObserver::new()))
            .collect();
        let runs = arm_exec.map_indexed(variants.len(), |i| {
            let (label, plan) = &variants[i];
            let observer = Arc::clone(&buffers[i]);
            if !label.is_empty() {
                observer.arm_started(label);
            }
            let mut engine = self.arm_engine(&spec, label, plan.clone(), intra, observer, &frames);
            let analysis = engine.analyze();
            // Between arms: drop interned strings only this arm's
            // transient frame builds were holding, so a long multi-arm
            // sweep does not accumulate every arm's domain set for the
            // process lifetime.
            pd_util::intern::purge_unreferenced();
            SweepArmRun {
                label: label.clone(),
                engine,
                analysis,
            }
        });
        // Arms may have finished in any order; the observer stream is
        // re-serialized in arm (label) order.
        for buffer in &buffers {
            buffer.replay(self.observer.as_ref());
        }
        // The arm buffers are done for: re-attach the builder's
        // observer so post-sweep engine calls (a re-analyze under new
        // knobs, a store probe) report live instead of into a buffer
        // nobody will replay.
        let mut runs = runs;
        for run in &mut runs {
            run.engine.observer = Arc::clone(&self.observer);
        }
        Ok(runs)
    }
}

/// One completed arm of [`ExperimentBuilder::run_sweep`]: its label, the
/// engine that ran it (still holding the cached stage artifacts, ready
/// for [`Engine::save_artifacts`]) and the analysis it produced.
#[derive(Debug)]
pub struct SweepArmRun {
    /// The scenario's arm label (`""` for single-run scenarios).
    pub label: String,
    /// The arm's engine, post-analysis.
    pub engine: Engine,
    /// The arm's analysis artifact (report included).
    pub analysis: AnalysisArtifact,
}

/// The namespace of the redesigned entry point: [`Experiment::builder`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment;

impl Experiment {
    /// The scenario/engine builder.
    #[must_use]
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine over a bare config: serial, unobserved, no store.
    fn config_engine(config: ExperimentConfig) -> Engine {
        Engine::from_plan(
            RunPlan::new(config),
            Executor::serial(),
            Arc::new(NullObserver),
        )
    }

    #[test]
    fn full_small_pipeline_runs() {
        let report = config_engine(ExperimentConfig::small(1307)).run();
        assert!(report.summary.crowd_requests > 100);
        assert!(report.summary.crawled_retailers == 21);
        assert!(!report.fig1.is_empty());
        assert!(!report.fig3.is_empty());
        assert!(!report.fig5_points.is_empty());
        assert_eq!(report.fig8a.cells.len(), 30, "6×6 grid minus diagonal");
        assert!(report.persona.null_result);
    }

    #[test]
    fn crowd_phase_cleaning_drops_noise() {
        let mut engine = config_engine(ExperimentConfig::small(2));
        let CrowdArtifact {
            raw,
            cleaned,
            cleaning: report,
        } = engine.crowd();
        assert!(cleaned.len() <= raw.len());
        assert_eq!(report.kept, cleaned.len());
        // Default noise rates (7 %) over 150 checks: some drops expected.
        assert!(report.dropped_inconsistent > 0, "{report:?}");
    }

    #[test]
    fn tax_check_catches_the_inliner_confound() {
        let engine = config_engine(ExperimentConfig::small(3));
        let is_tax_explained =
            |domain: &str| stage::is_tax_explained(engine.world(), engine.config(), domain);
        // Filler #0 inlines tax by construction (the injected confound).
        assert!(is_tax_explained("www.shop-000.example"));
        // Real discriminators are not explained away by taxes.
        assert!(!is_tax_explained("www.digitalrev.com"));
        assert!(!is_tax_explained("www.energie.it"));
        // Unknown domains are trivially not tax-explained.
        assert!(!is_tax_explained("gone.example"));
    }

    #[test]
    fn targets_from_crowd_rank_real_discriminators() {
        let mut engine = config_engine(ExperimentConfig::small(3));
        let cleaned = engine.crowd().cleaned.clone();
        let targets = stage::targets_from_crowd(engine.world(), &cleaned, 1);
        assert!(!targets.is_empty());
        // Every selected target must actually be discriminating (no
        // false positives at threshold 1 thanks to the band filter).
        for t in &targets {
            let spec = engine
                .world()
                .web
                .server_by_domain(t)
                .map(|s| s.spec().clone());
            if let Some(spec) = spec {
                assert!(
                    spec.is_discriminating(),
                    "{t} selected but not discriminating"
                );
            }
        }
    }

    #[test]
    fn legacy_run_equals_builder_paper_scenario() {
        let legacy = config_engine(ExperimentConfig::smoke(1307)).run();
        let mut engine = Experiment::builder()
            .scenario("paper")
            .profile(Profile::Smoke)
            .seed(1307)
            .build()
            .expect("paper scenario builds");
        assert_eq!(legacy.to_json(), engine.run().to_json());
    }

    #[test]
    fn builder_rejects_unknown_and_sweep_scenarios() {
        assert!(matches!(
            Experiment::builder().scenario("nope").build(),
            Err(BuildError::UnknownScenario(_))
        ));
        assert!(matches!(
            Experiment::builder().scenario("seed-sweep").build(),
            Err(BuildError::SweepScenario(_))
        ));
        let variants = Experiment::builder()
            .scenario("seed-sweep")
            .profile(Profile::Smoke)
            .build_variants()
            .expect("sweep builds variants");
        assert_eq!(variants.len(), 3);
    }

    #[test]
    fn config_override_rejected_on_config_driven_sweeps() {
        // seed-sweep arms differ through their configs: a wholesale
        // override would silently run the same experiment three times.
        assert!(matches!(
            Experiment::builder()
                .scenario("seed-sweep")
                .config(ExperimentConfig::smoke(1))
                .build_variants(),
            Err(BuildError::ConfigOverridesSweep(_))
        ));
        // desync-ablation arms differ through an engine knob, not the
        // config — the override composes fine.
        let arms = Experiment::builder()
            .scenario("desync-ablation")
            .config(ExperimentConfig::smoke(1))
            .build_variants()
            .expect("engine-knob sweep accepts a config override");
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].1.config().crowd.checks, 60);
    }

    #[test]
    fn explicit_seed_wins_over_config_override() {
        let engine = Experiment::builder()
            .config(ExperimentConfig::smoke(1))
            .seed(42)
            .build()
            .expect("paper scenario with explicit config");
        assert_eq!(engine.config().seed.value(), 42);
    }

    fn tmp_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pd-engine-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_then_load_artifacts_skips_measurement_stages() {
        use crate::observer::TimingObserver;
        let dir = tmp_store("round-trip");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let report = producer.run();
        let saved = producer.save_artifacts(&dir).expect("save");
        assert_eq!(saved.saved, vec!["crowd", "crawl", "personas"]);

        let observer = Arc::new(TimingObserver::new());
        let mut consumer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .observer(observer.clone())
            .artifacts(dir.clone())
            .build()
            .expect("smoke builds");
        let reloaded = consumer.run();
        assert_eq!(report.to_json(), reloaded.to_json());
        assert_eq!(report.render_all(), reloaded.render_all());
        for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
            assert_eq!(observer.starts(kind), 0, "{kind} must come from disk");
            assert_eq!(observer.loads(kind), 1, "{kind} load must be observed");
        }
        assert_eq!(
            observer.starts(StageKind::Analysis),
            1,
            "analysis recomputes"
        );

        // Saving again is a no-op: every cached artifact is fresh.
        let resaved = consumer.save_artifacts(&dir).expect("re-save");
        assert!(resaved.saved.is_empty(), "{resaved:?}");
        assert_eq!(resaved.fresh, vec!["crowd", "crawl", "personas"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_store_round_trip_streams_chunks() {
        use crate::observer::TimingObserver;
        let dir = tmp_store("binary-stream");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .store_format(StoreFormat::Binary)
            .build()
            .expect("smoke builds");
        let report = producer.run();
        producer.save_artifacts(&dir).expect("save binary");

        let observer = Arc::new(TimingObserver::new());
        let mut consumer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .observer(observer.clone())
            .artifacts(dir.clone())
            .build()
            .expect("smoke builds");
        let reloaded = consumer.run();
        assert_eq!(
            report.to_json(),
            reloaded.to_json(),
            "streamed binary chunks must reproduce the report byte-for-byte"
        );
        for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
            assert_eq!(observer.starts(kind), 0, "{kind} must come from disk");
            assert_eq!(observer.loads(kind), 1, "{kind} load must be observed");
        }
        let chunks: u64 = observer
            .timings()
            .iter()
            .flat_map(|t| t.counters.iter())
            .filter(|(name, _)| name == "frames_chunks_loaded")
            .map(|(_, value)| *value)
            .sum();
        assert!(
            chunks > 0,
            "analysis must stream domain chunks instead of whole payloads"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_store_forces_recompute() {
        use crate::observer::TimingObserver;
        let dir = tmp_store("stale");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        producer.crowd();
        producer.save_artifacts(&dir).expect("save");

        let observer = Arc::new(TimingObserver::new());
        let mut consumer = Experiment::builder()
            .scenario("smoke")
            .seed(8) // different seed → different fingerprint
            .observer(observer.clone())
            .artifacts(dir.clone())
            .build()
            .expect("smoke builds");
        consumer.crowd();
        assert_eq!(observer.loads(StageKind::Crowd), 0, "stale must not load");
        assert_eq!(observer.starts(StageKind::Crowd), 1, "stale must recompute");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_refuses_to_clobber_another_plans_store() {
        let dir = tmp_store("clobber");
        let mut seed7 = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        seed7.crowd();
        seed7.save_artifacts(&dir).expect("save");

        let mut seed8 = Experiment::builder()
            .scenario("smoke")
            .seed(8)
            .build()
            .expect("smoke builds");
        seed8.crowd();
        assert!(matches!(
            seed8.save_artifacts(&dir),
            Err(crate::store::StoreError::PlanMismatch { .. })
        ));
        // The seed-7 artifacts must have survived the refusal.
        let mut check = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        assert!(
            check
                .load_artifacts(&dir)
                .expect("store intact")
                .loaded
                .len()
                == 1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_analysis_skips_when_already_fresh() {
        let dir = tmp_store("analysis-fresh");
        let mut engine = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let analysis = engine.analyze();
        engine.save_artifacts(&dir).expect("save");
        let first = engine
            .save_analysis(&dir, &analysis)
            .expect("save analysis");
        let written = std::fs::read(dir.join("analysis.json")).expect("file exists");
        // A second save under the same fingerprint must not rewrite.
        std::fs::write(dir.join("analysis.json"), b"sentinel").expect("scribble");
        let second = engine.save_analysis(&dir, &analysis).expect("fresh skip");
        assert_eq!(first, second, "reported size must be the stored size");
        assert_eq!(
            std::fs::read(dir.join("analysis.json")).expect("file exists"),
            b"sentinel",
            "a fresh entry must be left untouched"
        );
        let _ = written;
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_artifacts_reports_per_stage_outcomes() {
        let dir = tmp_store("outcomes");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        producer.crowd();
        producer.save_artifacts(&dir).expect("save crowd only");

        let mut same_plan = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let summary = same_plan.load_artifacts(&dir).expect("store opens");
        assert_eq!(summary.loaded, vec![StageKind::Crowd]);
        assert_eq!(summary.missing, vec![StageKind::Crawl, StageKind::Personas]);
        assert!(!summary.complete());

        let mut other_plan = Experiment::builder()
            .scenario("smoke")
            .seed(9)
            .build()
            .expect("smoke builds");
        let summary = other_plan.load_artifacts(&dir).expect("store opens");
        assert_eq!(summary.stale, vec![StageKind::Crowd]);
        assert!(summary.loaded.is_empty());

        assert!(matches!(
            other_plan.load_artifacts(&tmp_store("not-a-store")),
            Err(crate::store::StoreError::NoManifest { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_caches_stage_artifacts() {
        let mut engine = Experiment::builder()
            .scenario("paper")
            .profile(Profile::Smoke)
            .build()
            .unwrap();
        let first_len = engine.crowd().raw.len();
        // Second call must hand back the same artifact without rerunning.
        assert_eq!(engine.crowd().raw.len(), first_len);
    }
}
