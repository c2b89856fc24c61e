//! The on-disk artifact store: crawl once, re-analyze forever.
//!
//! The paper's methodology is "measure once, analyze many ways": one
//! months-long crowd + crawl dataset feeds every figure of the
//! evaluation. This module gives the engine the same property across
//! process lifetimes. Each stage artifact ([`crate::CrowdArtifact`],
//! [`crate::CrawlArtifact`], [`crate::PersonaArtifact`],
//! [`crate::AnalysisArtifact`]) is written as versioned JSON under a
//! directory, and a `manifest.json` records provenance: which scenario
//! produced it, at which seed, profile and thread count, under which
//! [`RunPlan`], and with which upstream fingerprints.
//!
//! ## Fingerprints, not file names
//!
//! An artifact is only ever trusted if its **fingerprint** matches the
//! plan asking for it. A [`Fingerprint`] is a stable 64-bit FNV-1a hash
//! over the canonical JSON of everything the producing stage depends on:
//! the schema version, the stage name, the [`ExperimentConfig`] (minus
//! the analysis-only section for measurement stages), and the plan's
//! engine knobs (desync skew, cleaning, vantage subset). The analysis
//! fingerprint additionally chains the three upstream measurement
//! fingerprints. File names are just locators; a renamed, stale or
//! hand-edited file fails its fingerprint check and the stage recomputes.
//!
//! Because measurement fingerprints exclude [`ExperimentConfig::analysis`],
//! a stored crawl stays valid when only figure parameters change — which
//! is exactly what `pd rerun` exploits to re-analyze without re-measuring.
//!
//! ## Example
//!
//! ```
//! use pd_core::store::{self, ArtifactStore, Provenance};
//! use pd_core::{CrawlArtifact, RunPlan, ExperimentConfig, StageKind};
//!
//! let dir = std::env::temp_dir().join(format!("pd-store-doc-{}", std::process::id()));
//! let plan = RunPlan::new(ExperimentConfig::smoke(7));
//! let mut s = ArtifactStore::create(&dir, Provenance::new("smoke", "", "smoke", 7, 1), &plan, None)
//!     .expect("store creates");
//!
//! // Save an (empty) crawl artifact under its plan fingerprint...
//! let fp = store::crawl_fingerprint(&plan);
//! let art = CrawlArtifact { store: pd_sheriff::MeasurementStore::new(), stats: vec![] };
//! s.save(StageKind::Crawl.as_str(), fp, &[], &art).expect("saves");
//!
//! // ...and it only loads back under the *same* plan.
//! let reopened = ArtifactStore::open(&dir).expect("store opens");
//! assert!(reopened.load::<CrawlArtifact>("crawl", fp).is_ok());
//! let other = store::crawl_fingerprint(&RunPlan::new(ExperimentConfig::smoke(8)));
//! assert!(reopened.load::<CrawlArtifact>("crawl", other).is_err());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::binfmt;
use crate::config::ExperimentConfig;
use crate::observer::StageKind;
use crate::scenario::RunPlan;
use crate::spec::ScenarioSpec;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::path::{Path, PathBuf};

/// On-disk schema version. Bump whenever an artifact's serialized shape
/// changes; every envelope and manifest records it, and a version this
/// build cannot read is a hard rejection (never a silent misparse).
///
/// v2: `ExperimentConfig` grew the `world` section (failure injection),
/// `RunPlan` grew `targets_from_crowd`, and the manifest records the
/// producing [`ScenarioSpec`].
///
/// v3: the store learned the compact binary payload format
/// ([`StoreFormat::Binary`]) and the manifest entries record a format
/// and chunk count. The *artifact shapes* did not change, so v2 stores
/// remain fully readable ([`MIN_SCHEMA_VERSION`]) and their
/// fingerprints stay valid (the fingerprint basis carries its own
/// schema revision, `FINGERPRINT_SCHEMA`, which did not move).
pub const SCHEMA_VERSION: u32 = 3;

/// Oldest on-disk schema version this build still reads. v2 stores are
/// plain-JSON-only but shape-identical, so they load as-is.
pub const MIN_SCHEMA_VERSION: u32 = 2;

/// The schema revision folded into every fingerprint basis. This is
/// *not* bumped in lockstep with [`SCHEMA_VERSION`]: a container-level
/// change (v2→v3 added a payload encoding, not new artifact semantics)
/// must not invalidate every previously measured store. Bump this only
/// when the meaning of a stored artifact changes.
const FINGERPRINT_SCHEMA: u32 = 2;

/// The manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// A stable 64-bit digest of everything a stage's output depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The raw 64-bit digest.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Parses the 16-hex-digit form produced by [`Display`](fmt::Display).
    #[must_use]
    pub fn parse(s: &str) -> Option<Fingerprint> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a over a byte string (the same construction the vendored
/// proptest uses for test seeds; stable across platforms and runs).
/// Also the digest behind [`ScenarioSpec::fingerprint`].
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// How a stage payload is laid out on disk.
///
/// Both formats sit behind the exact same schema + fingerprint checks;
/// the format decides only how the payload bytes are produced and
/// consumed. JSON (`<stage>.json`) is the human-inspectable default;
/// binary (`<stage>.bin`) is the compact v3 encoding: framed rows in
/// domain-partitioned chunks behind a chunk index, so a single domain
/// loads without deserializing the whole payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFormat {
    /// One JSON envelope per stage, payload inline.
    Json,
    /// Length-prefixed framed-rows binary envelope with a chunk index.
    Binary,
}

impl StoreFormat {
    /// The flag spelling (`json` / `binary`).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            StoreFormat::Json => "json",
            StoreFormat::Binary => "binary",
        }
    }

    /// Parses the flag spelling produced by [`Self::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<StoreFormat> {
        match s {
            "json" => Some(StoreFormat::Json),
            "binary" => Some(StoreFormat::Binary),
            _ => None,
        }
    }

    /// The artifact file name for a stage in this format.
    fn file_name(self, stage: &str) -> String {
        match self {
            StoreFormat::Json => format!("{stage}.json"),
            StoreFormat::Binary => format!("{stage}.bin"),
        }
    }
}

impl fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for StoreFormat {
    fn serialize(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for StoreFormat {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some(s) => {
                StoreFormat::parse(s).ok_or_else(|| serde::Error::unknown_variant(s, "StoreFormat"))
            }
            None => Err(serde::Error::expected("string", "StoreFormat")),
        }
    }
}

/// The canonical fingerprint basis of a plan: config (optionally with
/// the analysis-only section removed), engine knobs, schema version.
fn basis_value(plan: &RunPlan, include_analysis: bool) -> Value {
    let mut config = serde_json::to_value(&plan.config);
    if !include_analysis {
        if let Value::Object(map) = &mut config {
            map.remove("analysis");
        }
    }
    let mut m = serde::Map::new();
    m.insert(
        "schema".to_owned(),
        serde_json::to_value(&FINGERPRINT_SCHEMA),
    );
    m.insert("config".to_owned(), config);
    m.insert(
        "desync_ms".to_owned(),
        serde_json::to_value(&plan.desync.as_millis()),
    );
    m.insert("cleaning".to_owned(), serde_json::to_value(&plan.cleaning));
    m.insert(
        "vantage_labels".to_owned(),
        serde_json::to_value(&plan.vantage_labels),
    );
    m.insert(
        "targets_from_crowd".to_owned(),
        serde_json::to_value(&plan.targets_from_crowd),
    );
    Value::Object(m)
}

fn fingerprint_of(stage: &str, basis: &Value, upstream: &[Fingerprint]) -> Fingerprint {
    let mut m = serde::Map::new();
    m.insert("stage".to_owned(), Value::String(stage.to_owned()));
    m.insert("basis".to_owned(), basis.clone());
    m.insert(
        "upstream".to_owned(),
        Value::Array(
            upstream
                .iter()
                .map(|fp| Value::String(fp.to_string()))
                .collect(),
        ),
    );
    let text = serde_json::to_string(&Value::Object(m)).expect("value serializes");
    Fingerprint(fnv1a64(text.as_bytes()))
}

/// The crowd-stage fingerprint of a plan.
///
/// Measurement fingerprints are deliberately conservative: they cover
/// the full configuration except the analysis-only section, so any
/// change that *could* reshape the measured world invalidates the
/// artifact, while figure-parameter changes never do.
#[must_use]
pub fn crowd_fingerprint(plan: &RunPlan) -> Fingerprint {
    fingerprint_of(StageKind::Crowd.as_str(), &basis_value(plan, false), &[])
}

/// The crawl-stage fingerprint of a plan (same conservative basis).
#[must_use]
pub fn crawl_fingerprint(plan: &RunPlan) -> Fingerprint {
    fingerprint_of(StageKind::Crawl.as_str(), &basis_value(plan, false), &[])
}

/// The persona-stage fingerprint of a plan (same conservative basis).
#[must_use]
pub fn personas_fingerprint(plan: &RunPlan) -> Fingerprint {
    fingerprint_of(StageKind::Personas.as_str(), &basis_value(plan, false), &[])
}

/// The analysis fingerprint: the full config (including the analysis
/// knobs) chained with the three upstream measurement fingerprints.
#[must_use]
pub fn analysis_fingerprint(plan: &RunPlan) -> Fingerprint {
    let upstream = [
        crowd_fingerprint(plan),
        crawl_fingerprint(plan),
        personas_fingerprint(plan),
    ];
    fingerprint_of(
        StageKind::Analysis.as_str(),
        &basis_value(plan, true),
        &upstream,
    )
}

/// The fingerprint of a measurement stage, by kind. Returns `None` for
/// stages the store does not persist standalone ([`StageKind::Build`])
/// or whose fingerprint chains upstreams ([`StageKind::Analysis`] — use
/// [`analysis_fingerprint`]).
#[must_use]
pub fn measurement_fingerprint(stage: StageKind, plan: &RunPlan) -> Option<Fingerprint> {
    match stage {
        StageKind::Crowd => Some(crowd_fingerprint(plan)),
        StageKind::Crawl => Some(crawl_fingerprint(plan)),
        StageKind::Personas => Some(personas_fingerprint(plan)),
        StageKind::Build | StageKind::Analysis => None,
    }
}

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (create, read, write, rename).
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// The directory has no `manifest.json` — it is not an artifact store.
    NoManifest {
        /// The directory probed.
        dir: String,
    },
    /// A file exists but cannot be parsed, or contradicts the manifest.
    Corrupt {
        /// The offending file.
        path: String,
        /// What went wrong.
        detail: String,
    },
    /// The file was written by a different on-disk schema version.
    SchemaMismatch {
        /// The offending file.
        path: String,
        /// The version found on disk (ours is [`SCHEMA_VERSION`]).
        found: u32,
    },
    /// The stored artifact's fingerprint does not match the requesting
    /// plan — the artifact was produced under a different configuration.
    StaleFingerprint {
        /// The stage asked for.
        stage: String,
        /// The fingerprint the current plan requires.
        expected: String,
        /// The fingerprint found in the store.
        found: String,
    },
    /// The manifest has no entry for the requested stage.
    MissingStage {
        /// The stage asked for.
        stage: String,
    },
    /// The directory already holds artifacts produced by a different
    /// run plan; writing would destroy them, so the save refuses.
    PlanMismatch {
        /// The store directory.
        dir: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => write!(f, "artifact store I/O on {path}: {detail}"),
            StoreError::NoManifest { dir } => {
                write!(f, "{dir} is not an artifact store (no {MANIFEST_FILE})")
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt artifact file {path}: {detail}")
            }
            StoreError::SchemaMismatch { path, found } => write!(
                f,
                "{path} uses on-disk schema v{found}, this build reads \
                 v{MIN_SCHEMA_VERSION}..v{SCHEMA_VERSION}"
            ),
            StoreError::StaleFingerprint {
                stage,
                expected,
                found,
            } => write!(
                f,
                "stale {stage} artifact: plan requires fingerprint {expected}, store has {found}"
            ),
            StoreError::MissingStage { stage } => {
                write!(f, "artifact store has no {stage} artifact")
            }
            StoreError::PlanMismatch { dir } => write!(
                f,
                "{dir} holds artifacts from a different run plan; refusing to overwrite \
                 (inspect with `pd artifacts ls {dir}`, or choose another directory)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Who produced a store: the scenario, variant label, profile, seed and
/// thread count of the run (descriptive only — the fingerprints, not the
/// provenance, decide reuse).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// Registry name of the scenario (`"custom"` for raw-config runs).
    pub scenario: String,
    /// Sweep-arm label (empty for single runs).
    pub label: String,
    /// Profile flag spelling (`smoke`/`small`/`medium`/`paper`).
    pub profile: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Worker threads the producing run used (reports are identical at
    /// any thread count; recorded for performance archaeology).
    pub threads: u64,
    /// Unix milliseconds when the store was created.
    pub created_unix_ms: u64,
}

impl Provenance {
    /// A provenance record stamped with the current wall-clock time.
    #[must_use]
    pub fn new(scenario: &str, label: &str, profile: &str, seed: u64, threads: usize) -> Self {
        let created_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        Provenance {
            scenario: scenario.to_owned(),
            label: label.to_owned(),
            profile: profile.to_owned(),
            seed,
            threads: threads as u64,
            created_unix_ms,
        }
    }
}

/// The serialized form of a [`RunPlan`] (the manifest must be able to
/// reconstruct the exact producing plan for `pd rerun`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Fan-out desynchronization skew, in simulated milliseconds.
    pub desync_ms: u64,
    /// Whether the Sec. 3.2 cleaning pass ran.
    pub cleaning: bool,
    /// The vantage subset, if the plan restricted the fleet.
    pub vantage_labels: Option<Vec<String>>,
    /// The minimum confirmed-variation count when the plan crawled
    /// crowd-ranked targets instead of the paper's list.
    pub targets_from_crowd: Option<usize>,
}

impl PlanRecord {
    /// Records a plan.
    #[must_use]
    pub fn from_plan(plan: &RunPlan) -> Self {
        PlanRecord {
            config: plan.config.clone(),
            desync_ms: plan.desync.as_millis(),
            cleaning: plan.cleaning,
            vantage_labels: plan.vantage_labels.clone(),
            targets_from_crowd: plan.targets_from_crowd,
        }
    }

    /// Reconstructs the plan.
    #[must_use]
    pub fn to_plan(&self) -> RunPlan {
        RunPlan {
            config: self.config.clone(),
            desync: pd_net::clock::SimDuration::from_millis(self.desync_ms),
            cleaning: self.cleaning,
            vantage_labels: self.vantage_labels.clone(),
            targets_from_crowd: self.targets_from_crowd,
        }
    }
}

/// One stored artifact, as listed by the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Stage name ([`StageKind::as_str`]).
    pub stage: String,
    /// Hex fingerprint the artifact was stored under.
    pub fingerprint: String,
    /// File name inside the store directory (a locator only — the
    /// envelope's own fingerprint is what gets trusted).
    pub file: String,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// Serialized size of the payload alone (the artifact body without
    /// the envelope framing — the number the binary payload encoding
    /// shrinks). `None` in manifests written before this field existed.
    pub payload_bytes: Option<u64>,
    /// Payload layout of the file. `None` in manifests written before
    /// the binary format existed (implied [`StoreFormat::Json`]).
    pub format: Option<StoreFormat>,
    /// Chunk count of a binary file (one meta chunk + one row chunk per
    /// domain per row section). `None` for JSON entries.
    pub chunks: Option<u32>,
    /// Hex fingerprints of the upstream artifacts this one was derived
    /// from (empty for measurement stages).
    pub upstream: Vec<String>,
}

impl ManifestEntry {
    /// The entry's payload layout ([`StoreFormat::Json`] when the
    /// manifest predates the format field).
    #[must_use]
    pub fn store_format(&self) -> StoreFormat {
        self.format.unwrap_or(StoreFormat::Json)
    }
}

/// The store's index: provenance, the producing plan, and every entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// On-disk schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Who produced the store.
    pub provenance: Provenance,
    /// The exact plan the artifacts were measured under.
    pub plan: PlanRecord,
    /// The declarative spec the run was lowered from, verbatim (`None`
    /// for raw-config runs built without a scenario). Descriptive like
    /// the provenance — the fingerprints decide reuse — but it makes a
    /// store reproducible from its own metadata.
    pub spec: Option<ScenarioSpec>,
    /// Stored artifacts, in save order.
    pub entries: Vec<ManifestEntry>,
}

/// The versioned wrapper around every artifact file. The payload is
/// only handed to deserialization after the schema version, stage name
/// and fingerprint all check out.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Envelope {
    schema_version: u32,
    stage: String,
    fingerprint: String,
    payload: Value,
}

/// Health of one manifest entry, as reported by [`ArtifactStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryHealth {
    /// File present, envelope consistent with the manifest.
    Ok,
    /// The manifest references a file that does not exist.
    MissingFile,
    /// The file exists but is unreadable, unparsable, or contradicts
    /// the manifest (wrong stage, fingerprint or schema).
    Corrupt(String),
}

impl fmt::Display for EntryHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryHealth::Ok => f.write_str("ok"),
            EntryHealth::MissingFile => f.write_str("missing file"),
            EntryHealth::Corrupt(detail) => write!(f, "corrupt: {detail}"),
        }
    }
}

/// A directory of fingerprinted, versioned stage artifacts plus the
/// manifest indexing them. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    manifest: Manifest,
    format: StoreFormat,
}

impl ArtifactStore {
    /// Does `dir` look like a store (i.e. hold a manifest)?
    #[must_use]
    pub fn is_store(dir: &Path) -> bool {
        dir.join(MANIFEST_FILE).is_file()
    }

    /// Creates (or wipes and re-creates) a store at `dir` for the given
    /// producer. The directory is created if missing; an existing
    /// manifest is replaced, and superseded stage files are overwritten
    /// lazily as stages save.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory or manifest cannot be
    /// written.
    pub fn create(
        dir: &Path,
        provenance: Provenance,
        plan: &RunPlan,
        spec: Option<ScenarioSpec>,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let store = ArtifactStore {
            dir: dir.to_path_buf(),
            manifest: Manifest {
                schema_version: SCHEMA_VERSION,
                provenance,
                plan: PlanRecord::from_plan(plan),
                spec,
                entries: Vec::new(),
            },
            format: StoreFormat::Json,
        };
        store.write_manifest()?;
        Ok(store)
    }

    /// Opens an existing store.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoManifest`] when `dir` has no manifest;
    /// [`StoreError::Corrupt`] when the manifest does not parse;
    /// [`StoreError::SchemaMismatch`] when it was written by a
    /// different schema version; [`StoreError::Io`] on read failure.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        if !path.is_file() {
            return Err(StoreError::NoManifest {
                dir: dir.display().to_string(),
            });
        }
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
        let manifest: Manifest = serde_json::from_str(&text).map_err(|e| StoreError::Corrupt {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&manifest.schema_version) {
            return Err(StoreError::SchemaMismatch {
                path: path.display().to_string(),
                found: manifest.schema_version,
            });
        }
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
            manifest,
            format: StoreFormat::Json,
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The payload format subsequent [`save`](Self::save) calls write.
    /// Loads always auto-detect from the manifest entry, so a store can
    /// hold mixed formats.
    #[must_use]
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// Sets the payload format for subsequent saves.
    pub fn set_format(&mut self, format: StoreFormat) {
        self.format = format;
    }

    /// The manifest (provenance, plan, entries).
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The manifest entry for a stage, if one was saved.
    #[must_use]
    pub fn entry(&self, stage: &str) -> Option<&ManifestEntry> {
        self.manifest.entries.iter().find(|e| e.stage == stage)
    }

    /// Saves an artifact under its fingerprint, replacing any previous
    /// entry for the same stage. The file is written atomically (unique
    /// temp file + fsync + rename) in the store's current
    /// [`format`](Self::format) and the manifest is updated on disk
    /// before the call returns. Returns the serialized size in bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the artifact or manifest cannot be
    /// written.
    pub fn save<T: Serialize>(
        &mut self,
        stage: &str,
        fingerprint: Fingerprint,
        upstream: &[Fingerprint],
        artifact: &T,
    ) -> Result<u64, StoreError> {
        self.save_value(stage, fingerprint, upstream, serde_json::to_value(artifact))
    }

    /// Format-dispatching core of [`save`](Self::save); also the target
    /// of [`migrate`](Self::migrate), which re-saves decoded payloads.
    fn save_value(
        &mut self,
        stage: &str,
        fingerprint: Fingerprint,
        upstream: &[Fingerprint],
        payload: Value,
    ) -> Result<u64, StoreError> {
        let (bytes, payload_bytes, chunks) = match self.format {
            StoreFormat::Json => {
                let envelope = Envelope {
                    schema_version: SCHEMA_VERSION,
                    stage: stage.to_owned(),
                    fingerprint: fingerprint.to_string(),
                    payload,
                };
                let text = serde_json::to_string(&envelope).expect("envelope serializes");
                // Payload size without re-serializing the payload:
                // render the same envelope around a `null` payload and
                // subtract the framing (rendering is deterministic —
                // sorted keys, no whitespace — so the framing length is
                // exact).
                let framing = {
                    let hollow = Envelope {
                        payload: Value::Null,
                        ..envelope
                    };
                    serde_json::to_string(&hollow)
                        .expect("envelope serializes")
                        .len()
                        - "null".len()
                };
                let payload_bytes = (text.len() - framing) as u64;
                (text.into_bytes(), payload_bytes, None)
            }
            StoreFormat::Binary => {
                let (bytes, payload_bytes, chunks) = encode_binary(stage, fingerprint, payload);
                (bytes, payload_bytes, Some(chunks))
            }
        };
        let file = self.format.file_name(stage);
        let path = self.dir.join(&file);
        write_atomic(&path, &bytes)?;
        // A format switch leaves the stage's old file under the other
        // extension; drop it so the directory never holds two
        // generations of one stage.
        if let Some(old) = self.entry(stage).map(|e| e.file.clone()) {
            if old != file {
                let _ = std::fs::remove_file(self.dir.join(old));
            }
        }
        let entry = ManifestEntry {
            stage: stage.to_owned(),
            fingerprint: fingerprint.to_string(),
            file,
            bytes: bytes.len() as u64,
            payload_bytes: Some(payload_bytes),
            format: Some(self.format),
            chunks,
            upstream: upstream.iter().map(Fingerprint::to_string).collect(),
        };
        match self.manifest.entries.iter_mut().find(|e| e.stage == stage) {
            Some(existing) => *existing = entry,
            None => self.manifest.entries.push(entry),
        }
        // Any save from this build upgrades the container version (the
        // artifact shapes are unchanged; see SCHEMA_VERSION docs).
        self.manifest.schema_version = SCHEMA_VERSION;
        self.write_manifest()?;
        Ok(bytes.len() as u64)
    }

    /// Loads a stage artifact, trusting nothing: the manifest must list
    /// the stage, the manifest's fingerprint and the envelope's own
    /// fingerprint must both equal `expected`, the schema version must
    /// match, and only then is the payload deserialized.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingStage`] when the manifest has no such stage;
    /// [`StoreError::StaleFingerprint`] when the stored artifact was
    /// produced under a different plan; [`StoreError::SchemaMismatch`],
    /// [`StoreError::Corrupt`] or [`StoreError::Io`] when the file is
    /// unusable.
    pub fn load<T: Deserialize>(
        &self,
        stage: &str,
        expected: Fingerprint,
    ) -> Result<T, StoreError> {
        let entry = self.entry(stage).ok_or_else(|| StoreError::MissingStage {
            stage: stage.to_owned(),
        })?;
        if entry.fingerprint != expected.to_string() {
            return Err(StoreError::StaleFingerprint {
                stage: stage.to_owned(),
                expected: expected.to_string(),
                found: entry.fingerprint.clone(),
            });
        }
        let payload = match entry.store_format() {
            StoreFormat::Json => {
                let envelope = self.read_envelope(entry)?;
                if envelope.fingerprint != expected.to_string() {
                    return Err(StoreError::StaleFingerprint {
                        stage: stage.to_owned(),
                        expected: expected.to_string(),
                        found: envelope.fingerprint,
                    });
                }
                envelope.payload
            }
            StoreFormat::Binary => self.open_chunked_entry(entry)?.assemble_value()?,
        };
        let path = self.dir.join(&entry.file);
        serde_json::from_value(payload).map_err(|e| StoreError::Corrupt {
            path: path.display().to_string(),
            detail: format!("payload does not deserialize: {e}"),
        })
    }

    /// Opens a binary stage entry for chunked reads: the header and
    /// every chunk checksum are validated up front (so corruption is
    /// caught here, exactly like a failed JSON parse), but no chunk is
    /// *decoded* — [`ChunkedPayload::read_chunk`] decodes single
    /// domains on demand, which is what lets `pd rerun` re-analyze a
    /// store without materializing whole measurement payloads.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingStage`] / [`StoreError::StaleFingerprint`]
    /// as for [`load`](Self::load); [`StoreError::Corrupt`] when the
    /// entry is stored as JSON (callers check
    /// [`ManifestEntry::store_format`] first) or the file fails
    /// validation.
    pub fn open_chunked(
        &self,
        stage: &str,
        expected: Fingerprint,
    ) -> Result<ChunkedPayload, StoreError> {
        let entry = self.entry(stage).ok_or_else(|| StoreError::MissingStage {
            stage: stage.to_owned(),
        })?;
        if entry.fingerprint != expected.to_string() {
            return Err(StoreError::StaleFingerprint {
                stage: stage.to_owned(),
                expected: expected.to_string(),
                found: entry.fingerprint.clone(),
            });
        }
        self.open_chunked_entry(entry)
    }

    /// Validates and opens an entry's binary file against its manifest
    /// record (magic, schema, stage, fingerprint, every chunk checksum).
    fn open_chunked_entry(&self, entry: &ManifestEntry) -> Result<ChunkedPayload, StoreError> {
        let path = self.dir.join(&entry.file);
        if entry.store_format() != StoreFormat::Binary {
            return Err(StoreError::Corrupt {
                path: path.display().to_string(),
                detail: format!(
                    "stage {} is stored as {}, not binary",
                    entry.stage,
                    entry.store_format()
                ),
            });
        }
        ChunkedPayload::open(&path, &entry.stage, &entry.fingerprint)
    }

    /// Decodes an entry's payload back to its [`Value`] tree regardless
    /// of format (the migration path).
    fn load_payload_value(&self, entry: &ManifestEntry) -> Result<Value, StoreError> {
        match entry.store_format() {
            StoreFormat::Json => Ok(self.read_envelope(entry)?.payload),
            StoreFormat::Binary => self.open_chunked_entry(entry)?.assemble_value(),
        }
    }

    /// Re-encodes every stored artifact in `format`, leaving stages,
    /// fingerprints and payloads untouched. Idempotent: entries already
    /// in the target format are rewritten in place. Returns per-stage
    /// `(stage, old bytes, new bytes)` rows in manifest order.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from decoding an existing entry or writing
    /// the re-encoded one; entries before the failing one are already
    /// migrated (each save is atomic and manifest-consistent).
    pub fn migrate(&mut self, format: StoreFormat) -> Result<Vec<(String, u64, u64)>, StoreError> {
        let entries = self.manifest.entries.clone();
        self.format = format;
        let mut report = Vec::with_capacity(entries.len());
        for entry in entries {
            let payload = self.load_payload_value(&entry)?;
            let fingerprint =
                Fingerprint::parse(&entry.fingerprint).ok_or_else(|| StoreError::Corrupt {
                    path: self.dir.join(MANIFEST_FILE).display().to_string(),
                    detail: format!(
                        "manifest fingerprint {:?} for stage {} is not 16 hex digits",
                        entry.fingerprint, entry.stage
                    ),
                })?;
            let upstream: Vec<Fingerprint> = entry
                .upstream
                .iter()
                .map(|fp| {
                    Fingerprint::parse(fp).ok_or_else(|| StoreError::Corrupt {
                        path: self.dir.join(MANIFEST_FILE).display().to_string(),
                        detail: format!(
                            "manifest upstream fingerprint {fp:?} for stage {} is not 16 hex \
                             digits",
                            entry.stage
                        ),
                    })
                })
                .collect::<Result<_, _>>()?;
            let new_bytes = self.save_value(&entry.stage, fingerprint, &upstream, payload)?;
            report.push((entry.stage, entry.bytes, new_bytes));
        }
        Ok(report)
    }

    /// Checks every manifest entry against its file: existence, parse
    /// (JSON) or header + chunk checksums (binary), schema version,
    /// stage and fingerprint consistency. Used by `pd artifacts ls`
    /// (payload sizes come straight off the manifest —
    /// [`ManifestEntry::payload_bytes`] is recorded at save time).
    #[must_use]
    pub fn verify(&self) -> Vec<(ManifestEntry, EntryHealth)> {
        self.manifest
            .entries
            .iter()
            .map(|entry| (entry.clone(), self.health(entry)))
            .collect()
    }

    /// Checks one manifest entry against its file, as
    /// [`verify`](Self::verify) does for every entry.
    #[must_use]
    pub(crate) fn health(&self, entry: &ManifestEntry) -> EntryHealth {
        let outcome = match entry.store_format() {
            StoreFormat::Json => self.read_envelope(entry).map(|_| ()),
            StoreFormat::Binary => self.open_chunked_entry(entry).map(|_| ()),
        };
        match outcome {
            Ok(()) => EntryHealth::Ok,
            Err(StoreError::Io { .. }) if !self.dir.join(&entry.file).is_file() => {
                EntryHealth::MissingFile
            }
            Err(e) => EntryHealth::Corrupt(e.to_string()),
        }
    }

    /// Reads and validates an entry's envelope (schema, stage name and
    /// fingerprint must agree with the manifest), without touching the
    /// payload.
    fn read_envelope(&self, entry: &ManifestEntry) -> Result<Envelope, StoreError> {
        let path = self.dir.join(&entry.file);
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
        let envelope: Envelope = serde_json::from_str(&text).map_err(|e| StoreError::Corrupt {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&envelope.schema_version) {
            return Err(StoreError::SchemaMismatch {
                path: path.display().to_string(),
                found: envelope.schema_version,
            });
        }
        if envelope.stage != entry.stage || envelope.fingerprint != entry.fingerprint {
            return Err(StoreError::Corrupt {
                path: path.display().to_string(),
                detail: format!(
                    "envelope says stage {} fingerprint {}, manifest says stage {} \
                     fingerprint {}",
                    envelope.stage, envelope.fingerprint, entry.stage, entry.fingerprint
                ),
            });
        }
        Ok(envelope)
    }

    fn write_manifest(&self) -> Result<(), StoreError> {
        let path = self.dir.join(MANIFEST_FILE);
        let text = serde_json::to_string_pretty(&self.manifest).expect("manifest serializes");
        write_atomic(&path, text.as_bytes())
    }
}

/// Magic bytes opening every binary artifact file (`<stage>.bin`).
const BIN_MAGIC: [u8; 4] = *b"PDB3";

/// Where the row arrays live inside a stage payload. Each listed
/// section is pulled out of the payload at save time and partitioned
/// into one chunk per domain (first-seen order, matching
/// `MeasurementStore::domains`); everything else — and every stage not
/// listed — stays in the meta chunk. Row membership is decided by the
/// row's own `domain` field, and every row carries its original array
/// index, so reassembly is exact regardless of chunk order.
fn row_sections(stage: &str) -> &'static [(&'static str, &'static [&'static str])] {
    match stage {
        "crowd" => &[
            ("raw", &["raw", "records"]),
            ("cleaned", &["cleaned", "records"]),
        ],
        "crawl" => &[("store", &["store", "records"])],
        _ => &[],
    }
}

/// Mutable access to the row array at `path` inside a payload tree.
fn rows_slot<'a>(payload: &'a mut Value, path: &[&str]) -> Option<&'a mut Vec<Value>> {
    let mut cur = payload;
    for key in path {
        match cur {
            Value::Object(map) => cur = map.get_mut(*key)?,
            _ => return None,
        }
    }
    match cur {
        Value::Array(rows) => Some(rows),
        _ => None,
    }
}

/// One chunk's entry in the binary file's index: where it lives inside
/// the chunk region and what it holds.
#[derive(Debug, Clone)]
struct ChunkInfo {
    /// Which row section the chunk belongs to (empty for the meta chunk).
    section: String,
    /// The partition key — the domain (empty for the meta chunk).
    name: String,
    /// Byte offset inside the chunk region.
    offset: u64,
    /// Byte length.
    len: u64,
    /// Row count (0 for the meta chunk).
    rows: u64,
    /// FNV-1a64 over the chunk bytes.
    checksum: u64,
}

impl ChunkInfo {
    fn to_value(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("section".to_owned(), Value::String(self.section.clone()));
        m.insert("name".to_owned(), Value::String(self.name.clone()));
        m.insert("offset".to_owned(), Value::UInt(self.offset));
        m.insert("len".to_owned(), Value::UInt(self.len));
        m.insert("rows".to_owned(), Value::UInt(self.rows));
        m.insert(
            "checksum".to_owned(),
            Value::String(format!("{:016x}", self.checksum)),
        );
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Result<ChunkInfo, String> {
        let map = match v {
            Value::Object(map) => map,
            _ => return Err("chunk index entry is not an object".to_owned()),
        };
        let str_field = |key: &str| {
            map.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("chunk index entry missing string field {key:?}"))
        };
        let u64_field = |key: &str| {
            map.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("chunk index entry missing integer field {key:?}"))
        };
        let checksum_hex = str_field("checksum")?;
        let checksum = (checksum_hex.len() == 16)
            .then(|| u64::from_str_radix(&checksum_hex, 16).ok())
            .flatten()
            .ok_or_else(|| format!("bad chunk checksum {checksum_hex:?}"))?;
        Ok(ChunkInfo {
            section: str_field("section")?,
            name: str_field("name")?,
            offset: u64_field("offset")?,
            len: u64_field("len")?,
            rows: u64_field("rows")?,
            checksum,
        })
    }
}

/// Encodes a payload into the binary file layout: magic, u32-LE header
/// length, binfmt-encoded header (schema, stage, fingerprint, chunk
/// index), then the chunk region — the meta chunk (the payload with
/// its row arrays emptied) followed by one framed-rows chunk per
/// domain per row section. Returns the file bytes, the chunk-region
/// size (the payload-only byte count) and the chunk count.
fn encode_binary(stage: &str, fingerprint: Fingerprint, mut payload: Value) -> (Vec<u8>, u64, u32) {
    // Pull each row section out of the payload and partition by domain.
    let mut row_chunks: Vec<(String, String, Vec<u8>, u64)> = Vec::new();
    for (section, path) in row_sections(stage) {
        let Some(rows) = rows_slot(&mut payload, path) else {
            continue;
        };
        let rows = std::mem::take(rows);
        let mut order: Vec<&str> = Vec::new();
        let mut by_domain: std::collections::HashMap<&str, Vec<(u64, &Value)>> =
            std::collections::HashMap::new();
        for (index, row) in rows.iter().enumerate() {
            let domain = match row {
                Value::Object(map) => map.get("domain").and_then(Value::as_str).unwrap_or(""),
                _ => "",
            };
            let bucket = by_domain.entry(domain).or_default();
            if bucket.is_empty() {
                order.push(domain);
            }
            bucket.push((index as u64, row));
        }
        for domain in order {
            let bucket = &by_domain[domain];
            row_chunks.push((
                (*section).to_owned(),
                domain.to_owned(),
                binfmt::encode_rows(bucket),
                bucket.len() as u64,
            ));
        }
    }
    let meta_bytes = binfmt::encode_one(&payload);

    // Lay the chunk region out: meta first, then the row chunks.
    let mut region: Vec<u8> = Vec::new();
    let mut place = |bytes: &[u8]| {
        let offset = region.len() as u64;
        region.extend_from_slice(bytes);
        (offset, bytes.len() as u64, fnv1a64(bytes))
    };
    let (offset, len, checksum) = place(&meta_bytes);
    let meta = ChunkInfo {
        section: String::new(),
        name: String::new(),
        offset,
        len,
        rows: 0,
        checksum,
    };
    let chunks: Vec<ChunkInfo> = row_chunks
        .iter()
        .map(|(section, name, bytes, rows)| {
            let (offset, len, checksum) = place(bytes);
            ChunkInfo {
                section: section.clone(),
                name: name.clone(),
                offset,
                len,
                rows: *rows,
                checksum,
            }
        })
        .collect();

    let mut header = serde::Map::new();
    header.insert(
        "schema_version".to_owned(),
        Value::UInt(u64::from(SCHEMA_VERSION)),
    );
    header.insert("stage".to_owned(), Value::String(stage.to_owned()));
    header.insert(
        "fingerprint".to_owned(),
        Value::String(fingerprint.to_string()),
    );
    header.insert("meta".to_owned(), meta.to_value());
    header.insert(
        "chunks".to_owned(),
        Value::Array(chunks.iter().map(ChunkInfo::to_value).collect()),
    );
    let header_bytes = binfmt::encode_one(&Value::Object(header));

    let mut file = Vec::with_capacity(8 + header_bytes.len() + region.len());
    file.extend_from_slice(&BIN_MAGIC);
    file.extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
    file.extend_from_slice(&header_bytes);
    file.extend_from_slice(&region);
    let payload_bytes = region.len() as u64;
    (file, payload_bytes, 1 + chunks.len() as u32)
}

/// A validated, open binary artifact whose row chunks decode on
/// demand. Produced by [`ArtifactStore::open_chunked`]; every chunk's
/// checksum was verified at open time, so reads fail only on
/// filesystem races. Cheap to keep around: it holds the chunk index,
/// not the payload.
#[derive(Debug, Clone)]
pub struct ChunkedPayload {
    path: PathBuf,
    chunk_base: u64,
    meta: ChunkInfo,
    chunks: Vec<ChunkInfo>,
}

impl ChunkedPayload {
    /// Opens `path` and validates it end to end against the manifest's
    /// expectations: magic, readable schema version, stage name,
    /// fingerprint, and the checksum of every chunk (bytes are read
    /// once and hashed, never decoded).
    fn open(path: &Path, stage: &str, fingerprint: &str) -> Result<ChunkedPayload, StoreError> {
        use std::io::Read;
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.display().to_string(),
            detail,
        };
        let mut file = std::fs::File::open(path).map_err(|e| io_err(path, &e))?;
        let mut prefix = [0u8; 8];
        file.read_exact(&mut prefix)
            .map_err(|e| corrupt(format!("file shorter than its fixed prefix: {e}")))?;
        if prefix[..4] != BIN_MAGIC {
            return Err(corrupt(format!(
                "bad magic {:02x?} (not a binary artifact)",
                &prefix[..4]
            )));
        }
        let header_len = u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes")) as usize;
        let mut header_bytes = vec![0u8; header_len];
        file.read_exact(&mut header_bytes)
            .map_err(|e| corrupt(format!("truncated header: {e}")))?;
        let header = binfmt::decode_one(&header_bytes)
            .map_err(|e| corrupt(format!("header does not decode: {e}")))?;
        let map = match &header {
            Value::Object(map) => map,
            _ => return Err(corrupt("header is not an object".to_owned())),
        };
        let schema = map
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| corrupt("header missing schema_version".to_owned()))?;
        let schema = u32::try_from(schema).unwrap_or(u32::MAX);
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
            return Err(StoreError::SchemaMismatch {
                path: path.display().to_string(),
                found: schema,
            });
        }
        let header_stage = map.get("stage").and_then(Value::as_str).unwrap_or("");
        let header_fp = map.get("fingerprint").and_then(Value::as_str).unwrap_or("");
        if header_stage != stage || header_fp != fingerprint {
            return Err(corrupt(format!(
                "header says stage {header_stage} fingerprint {header_fp}, manifest says stage \
                 {stage} fingerprint {fingerprint}"
            )));
        }
        let meta = ChunkInfo::from_value(
            map.get("meta")
                .ok_or_else(|| corrupt("header missing meta chunk".to_owned()))?,
        )
        .map_err(&corrupt)?;
        let chunks: Vec<ChunkInfo> = map
            .get("chunks")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt("header missing chunk index".to_owned()))?
            .iter()
            .map(ChunkInfo::from_value)
            .collect::<Result<_, _>>()
            .map_err(&corrupt)?;
        let payload = ChunkedPayload {
            path: path.to_path_buf(),
            chunk_base: 8 + header_len as u64,
            meta,
            chunks,
        };
        // Eager integrity pass: read (not decode) every chunk once and
        // verify its checksum, so a bit-flipped or truncated chunk is
        // rejected at open — the same failure point as a JSON parse
        // error — rather than mid-analysis.
        payload.read_chunk_bytes(&payload.meta)?;
        for chunk in &payload.chunks {
            payload.read_chunk_bytes(chunk)?;
        }
        Ok(payload)
    }

    /// Total chunk count (meta + row chunks).
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        1 + self.chunks.len()
    }

    /// The domains of a row section, in chunk (= first-seen) order.
    #[must_use]
    pub fn chunk_names(&self, section: &str) -> Vec<&str> {
        self.chunks
            .iter()
            .filter(|c| c.section == section)
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Reads and verifies one chunk's raw bytes.
    fn read_chunk_bytes(&self, chunk: &ChunkInfo) -> Result<Vec<u8>, StoreError> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = std::fs::File::open(&self.path).map_err(|e| io_err(&self.path, &e))?;
        file.seek(SeekFrom::Start(self.chunk_base + chunk.offset))
            .map_err(|e| io_err(&self.path, &e))?;
        let len = usize::try_from(chunk.len).map_err(|_| StoreError::Corrupt {
            path: self.path.display().to_string(),
            detail: format!("chunk length {} overflows", chunk.len),
        })?;
        let mut bytes = vec![0u8; len];
        file.read_exact(&mut bytes)
            .map_err(|e| StoreError::Corrupt {
                path: self.path.display().to_string(),
                detail: format!(
                    "chunk {}/{} truncated at offset {}: {e}",
                    chunk.section, chunk.name, chunk.offset
                ),
            })?;
        if fnv1a64(&bytes) != chunk.checksum {
            return Err(StoreError::Corrupt {
                path: self.path.display().to_string(),
                detail: format!(
                    "chunk {}/{} fails its checksum (expected {:016x})",
                    chunk.section, chunk.name, chunk.checksum
                ),
            });
        }
        Ok(bytes)
    }

    /// Decodes the meta chunk: the payload tree with every row array
    /// empty (stores deserialize with zero records, stats and cleaning
    /// metadata intact).
    pub(crate) fn meta_value(&self) -> Result<Value, StoreError> {
        let bytes = self.read_chunk_bytes(&self.meta)?;
        binfmt::decode_one(&bytes).map_err(|e| StoreError::Corrupt {
            path: self.path.display().to_string(),
            detail: format!("meta chunk does not decode: {e}"),
        })
    }

    /// The meta chunk deserialized as `T` — the payload's artifact type,
    /// hollowed of its rows.
    pub(crate) fn meta<T: Deserialize>(&self) -> Result<T, StoreError> {
        T::deserialize(&self.meta_value()?).map_err(|e| StoreError::Corrupt {
            path: self.path.display().to_string(),
            detail: format!("meta chunk does not deserialize: {e}"),
        })
    }

    /// Decodes one domain's chunk into `(original row index, row)`
    /// pairs. This is the single-domain streamed read: nothing outside
    /// the chunk is touched.
    pub fn read_chunk(&self, section: &str, name: &str) -> Result<Vec<(u64, Value)>, StoreError> {
        let chunk = self
            .chunks
            .iter()
            .find(|c| c.section == section && c.name == name)
            .ok_or_else(|| StoreError::Corrupt {
                path: self.path.display().to_string(),
                detail: format!("no chunk {section}/{name} in the index"),
            })?;
        let bytes = self.read_chunk_bytes(chunk)?;
        binfmt::decode_rows(&bytes).map_err(|e| StoreError::Corrupt {
            path: self.path.display().to_string(),
            detail: format!("chunk {section}/{name} does not decode: {e}"),
        })
    }

    /// Decodes one domain's chunk and deserializes every row to `T`
    /// (row order inside a chunk is original store order, so the
    /// result needs no re-sorting).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the chunk is missing from the
    /// index, fails to decode, or a row does not deserialize.
    pub fn read_chunk_rows<T: Deserialize>(
        &self,
        section: &str,
        name: &str,
    ) -> Result<Vec<T>, StoreError> {
        self.read_chunk(section, name)?
            .iter()
            .map(|(_, row)| {
                T::deserialize(row).map_err(|e| StoreError::Corrupt {
                    path: self.path.display().to_string(),
                    detail: format!("chunk {section}/{name} row does not deserialize: {e}"),
                })
            })
            .collect()
    }

    /// Reassembles the full payload tree: the meta chunk with every
    /// section's rows spliced back into their original positions.
    pub(crate) fn assemble_value(&self) -> Result<Value, StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            path: self.path.display().to_string(),
            detail,
        };
        let mut payload = self.meta_value()?;
        let sections: Vec<&str> = {
            let mut seen = Vec::new();
            for c in &self.chunks {
                if !seen.contains(&c.section.as_str()) {
                    seen.push(c.section.as_str());
                }
            }
            seen
        };
        for section in sections {
            let mut collected: Vec<(u64, Value)> = Vec::new();
            for name in self.chunk_names(section) {
                collected.extend(self.read_chunk(section, name)?);
            }
            let total = collected.len();
            let mut slots: Vec<Option<Value>> =
                std::iter::repeat_with(|| None).take(total).collect();
            for (index, row) in collected {
                let slot = usize::try_from(index)
                    .ok()
                    .and_then(|i| slots.get_mut(i))
                    .ok_or_else(|| {
                        corrupt(format!(
                            "section {section}: row index {index} out of range 0..{total}"
                        ))
                    })?;
                if slot.is_some() {
                    return Err(corrupt(format!(
                        "section {section}: duplicate row index {index}"
                    )));
                }
                *slot = Some(row);
            }
            let rows: Vec<Value> = slots
                .into_iter()
                .collect::<Option<_>>()
                .ok_or_else(|| corrupt(format!("section {section}: missing row index")))?;
            let path = section_path(&payload, section).ok_or_else(|| {
                corrupt(format!(
                    "section {section} has no row array in the meta payload"
                ))
            })?;
            let slot = rows_slot(&mut payload, path).ok_or_else(|| {
                corrupt(format!(
                    "section {section} has no row array in the meta payload"
                ))
            })?;
            *slot = rows;
        }
        Ok(payload)
    }

    /// Reassembles and deserializes the full artifact (the non-chunked
    /// load path for binary entries).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a chunk fails to decode or the
    /// payload does not deserialize; [`StoreError::Io`] on read races.
    pub fn assemble<T: Deserialize>(&self) -> Result<T, StoreError> {
        let payload = self.assemble_value()?;
        serde_json::from_value(payload).map_err(|e| StoreError::Corrupt {
            path: self.path.display().to_string(),
            detail: format!("payload does not deserialize: {e}"),
        })
    }
}

/// Finds the row-array path for a section by probing the known stage
/// layouts against the payload shape (the stage name is not stored in
/// the chunk index, so reassembly matches on structure).
fn section_path(payload: &Value, section: &str) -> Option<&'static [&'static str]> {
    for stage in ["crowd", "crawl"] {
        for (s, path) in row_sections(stage) {
            if *s != section {
                continue;
            }
            // The path must exist in this payload to be the right one.
            let mut cur = payload;
            let mut ok = true;
            for key in *path {
                match cur {
                    Value::Object(map) => match map.get(*key) {
                        Some(next) => cur = next,
                        None => {
                            ok = false;
                            break;
                        }
                    },
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && matches!(cur, Value::Array(_)) {
                return Some(path);
            }
        }
    }
    None
}

/// Writes via a unique sibling temp file, fsync and rename, so a crash
/// mid-write never leaves a truncated artifact behind a valid-looking
/// name — the data hits the disk before the name does, and the parent
/// directory is fsynced after the rename so the name itself survives a
/// crash. The temp name embeds the pid and a process-wide counter, so
/// concurrent savers (threads or processes sharing one store dir) each
/// write their own temp file and can never publish another writer's
/// partial bytes.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::io::Write;
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
        file.write_all(bytes).map_err(|e| io_err(&tmp, &e))?;
        file.sync_all().map_err(|e| io_err(&tmp, &e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, &e))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // The rename is durable only once the directory entry is synced;
    // opening a directory read-only for fsync works on the Unix
    // platforms we support, and a platform that refuses the open keeps
    // the old (rename-only) guarantee rather than failing the save.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().map_err(|e| io_err(parent, &e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::CrawlArtifact;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pd-store-unit-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn smoke_plan(seed: u64) -> RunPlan {
        RunPlan::new(ExperimentConfig::smoke(seed))
    }

    #[test]
    fn fingerprints_are_stable_and_seed_sensitive() {
        let a = crowd_fingerprint(&smoke_plan(7));
        let b = crowd_fingerprint(&smoke_plan(7));
        let c = crowd_fingerprint(&smoke_plan(8));
        assert_eq!(a, b, "same plan, same fingerprint");
        assert_ne!(a, c, "seed change must invalidate");
        assert_ne!(
            crowd_fingerprint(&smoke_plan(7)),
            crawl_fingerprint(&smoke_plan(7)),
            "stage name is part of the fingerprint"
        );
    }

    #[test]
    fn plan_knobs_invalidate_measurement_fingerprints() {
        let base = smoke_plan(7);
        let mut no_clean = base.clone();
        no_clean.cleaning = false;
        assert_ne!(crowd_fingerprint(&base), crowd_fingerprint(&no_clean));
        let mut skewed = base.clone();
        skewed.desync = pd_net::clock::SimDuration::from_mins(25);
        assert_ne!(crawl_fingerprint(&base), crawl_fingerprint(&skewed));
        let mut subset = base.clone();
        subset.vantage_labels = Some(vec!["USA - Boston".to_owned()]);
        assert_ne!(personas_fingerprint(&base), personas_fingerprint(&subset));
    }

    #[test]
    fn analysis_knobs_spare_measurement_but_change_analysis() {
        let base = smoke_plan(7);
        let mut refigured = base.clone();
        refigured.config.analysis.fig1_domains = 10;
        assert_eq!(
            crowd_fingerprint(&base),
            crowd_fingerprint(&refigured),
            "figure parameters must not invalidate measurements"
        );
        assert_eq!(crawl_fingerprint(&base), crawl_fingerprint(&refigured));
        assert_ne!(
            analysis_fingerprint(&base),
            analysis_fingerprint(&refigured),
            "the analysis artifact does depend on its knobs"
        );
    }

    #[test]
    fn fingerprint_hex_round_trips() {
        let fp = crowd_fingerprint(&smoke_plan(1));
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("nope"), None);
        assert_eq!(Fingerprint::parse(""), None);
    }

    #[test]
    fn save_load_round_trips_and_rejects_other_plans() {
        let dir = tmp_dir("round-trip");
        let plan = smoke_plan(7);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        let art = CrawlArtifact {
            store: pd_sheriff::MeasurementStore::new(),
            stats: vec![],
        };
        let fp = crawl_fingerprint(&plan);
        store.save("crawl", fp, &[], &art).expect("save");

        let reopened = ArtifactStore::open(&dir).expect("open");
        let back: CrawlArtifact = reopened.load("crawl", fp).expect("load");
        assert_eq!(back.store.len(), 0);
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crowd", fp),
            Err(StoreError::MissingStage { .. })
        ));
        let other = crawl_fingerprint(&smoke_plan(8));
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crawl", other),
            Err(StoreError::StaleFingerprint { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_renamed_files_are_rejected() {
        let dir = tmp_dir("corrupt");
        let plan = smoke_plan(7);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        let art = CrawlArtifact {
            store: pd_sheriff::MeasurementStore::new(),
            stats: vec![],
        };
        let fp = crawl_fingerprint(&plan);
        store.save("crawl", fp, &[], &art).expect("save");

        // Truncate the artifact file: load must fail, verify must flag it.
        std::fs::write(dir.join("crawl.json"), b"{ not json").expect("scribble");
        let reopened = ArtifactStore::open(&dir).expect("open");
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crawl", fp),
            Err(StoreError::Corrupt { .. })
        ));
        let verified = reopened.verify();
        assert_eq!(verified.len(), 1);
        assert!(matches!(verified[0].1, EntryHealth::Corrupt(_)));

        // A file renamed over another stage's slot fails the envelope
        // check even though the name looks right.
        store.save("crawl", fp, &[], &art).expect("re-save");
        let crowd_fp = crowd_fingerprint(&plan);
        store
            .save("crowd", crowd_fp, &[], &art)
            .expect("save crowd");
        std::fs::copy(dir.join("crawl.json"), dir.join("crowd.json")).expect("swap");
        let reopened = ArtifactStore::open(&dir).expect("open");
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crowd", crowd_fp),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_records_provenance_and_plan() {
        let dir = tmp_dir("manifest");
        let plan = smoke_plan(9);
        let store = ArtifactStore::create(
            &dir,
            Provenance::new("paper", "arm-1", "medium", 9, 4),
            &plan,
            None,
        )
        .expect("create");
        let m = ArtifactStore::open(&dir).expect("open").manifest().clone();
        assert_eq!(m.schema_version, SCHEMA_VERSION);
        assert_eq!(m.provenance.scenario, "paper");
        assert_eq!(m.provenance.label, "arm-1");
        assert_eq!(m.provenance.threads, 4);
        assert_eq!(m.plan.config.seed.value(), 9);
        assert_eq!(m.plan.to_plan().config, plan.config);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_records_the_producing_spec() {
        let dir = tmp_dir("spec-record");
        let plan = smoke_plan(3);
        let spec = crate::spec::builtin_specs()
            .into_iter()
            .find(|s| s.name == "failure-sweep")
            .expect("builtin");
        ArtifactStore::create(
            &dir,
            Provenance::new("failure-sweep", "fail-0", "smoke", 3, 1),
            &plan,
            Some(spec.clone()),
        )
        .expect("create");
        let m = ArtifactStore::open(&dir).expect("open").manifest().clone();
        let recorded = m.spec.expect("spec recorded");
        assert_eq!(recorded, spec, "spec must round-trip through the manifest");
        assert_eq!(recorded.fingerprint(), spec.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A deterministic measurement for payload-shape tests (the
    /// integration suite randomizes; here we exercise the encoding).
    fn measurement(i: u64, domain: &str) -> pd_sheriff::measurement::Measurement {
        use pd_currency::{Currency, Price};
        use pd_sheriff::measurement::{Measurement, NoiseTruth, PriceObservation};
        use pd_util::{Money, RequestId, UserId, VantageId};
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let price = Price::new(
            Money::from_minor(1000 + i as i64),
            Currency::ALL[(i as usize) % Currency::ALL.len()],
        );
        Measurement {
            request: RequestId::new(0),
            user: UserId::new((i % 7) as u32),
            domain: domain.to_owned(),
            product_slug: format!("prod-{}", i % 3),
            time: pd_net::clock::SimTime::from_millis(1000 * i),
            user_price: Some(price),
            observations: (0..3)
                .map(|v| {
                    PriceObservation::ok(VantageId::new(v), price, format!("{} x", price.amount))
                })
                .collect(),
            noise_truth: NoiseTruth::Clean,
        }
    }

    fn crawl_artifact(domains: &[&str], per_domain: u64) -> CrawlArtifact {
        let mut store = pd_sheriff::MeasurementStore::new();
        for d in domains {
            for i in 0..per_domain {
                store.push(measurement(i, d));
            }
        }
        CrawlArtifact {
            store,
            stats: vec![],
        }
    }

    #[test]
    fn binary_round_trip_matches_json_and_is_smaller() {
        let dir_json = tmp_dir("bin-vs-json-j");
        let dir_bin = tmp_dir("bin-vs-json-b");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        let art = crawl_artifact(&["a.example", "b.example", "c.example"], 40);
        let prov = || Provenance::new("smoke", "", "smoke", 7, 1);

        let mut js = ArtifactStore::create(&dir_json, prov(), &plan, None).expect("create");
        let json_bytes = js.save("crawl", fp, &[], &art).expect("json save");

        let mut bs = ArtifactStore::create(&dir_bin, prov(), &plan, None).expect("create");
        bs.set_format(StoreFormat::Binary);
        let bin_bytes = bs.save("crawl", fp, &[], &art).expect("binary save");
        assert!(dir_bin.join("crawl.bin").is_file());
        assert!(
            bin_bytes * 3 <= json_bytes,
            "binary ({bin_bytes} B) must be ≤ 1/3 of JSON ({json_bytes} B)"
        );

        let from_json: CrawlArtifact = ArtifactStore::open(&dir_json)
            .expect("open")
            .load("crawl", fp)
            .expect("json load");
        let from_bin: CrawlArtifact = ArtifactStore::open(&dir_bin)
            .expect("open")
            .load("crawl", fp)
            .expect("binary load");
        assert_eq!(
            serde_json::to_string(&serde_json::to_value(&from_json)),
            serde_json::to_string(&serde_json::to_value(&from_bin)),
            "the two formats must load identical artifacts"
        );
        assert_eq!(from_bin.store.len(), art.store.len());
        assert_eq!(from_bin.store.records(), art.store.records());

        let entry = bs.entry("crawl").expect("entry").clone();
        assert_eq!(entry.store_format(), StoreFormat::Binary);
        assert_eq!(entry.chunks, Some(4), "meta + one chunk per domain");
        std::fs::remove_dir_all(&dir_json).ok();
        std::fs::remove_dir_all(&dir_bin).ok();
    }

    #[test]
    fn chunked_open_reads_single_domains() {
        let dir = tmp_dir("chunked-read");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        let domains = ["x.example", "y.example", "z.example"];
        let art = crawl_artifact(&domains, 5);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        store.set_format(StoreFormat::Binary);
        store.save("crawl", fp, &[], &art).expect("save");

        let chunked = store.open_chunked("crawl", fp).expect("open chunked");
        assert_eq!(chunked.chunk_count(), 4);
        assert_eq!(chunked.chunk_names("store"), domains.to_vec());
        let rows = chunked.read_chunk("store", "y.example").expect("chunk");
        assert_eq!(rows.len(), 5);
        // The recorded indices are the rows' positions in the original
        // store (domain y holds positions 5..10).
        let indices: Vec<u64> = rows.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![5, 6, 7, 8, 9]);
        for (_, row) in &rows {
            let domain = match row {
                Value::Object(m) => m.get("domain").and_then(Value::as_str),
                _ => None,
            };
            assert_eq!(domain, Some("y.example"));
        }
        let back: CrawlArtifact = chunked.assemble().expect("assemble");
        assert_eq!(back.store.records(), art.store.records());

        assert!(matches!(
            chunked.read_chunk("store", "missing.example"),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            store.open_chunked("crawl", crawl_fingerprint(&smoke_plan(8))),
            Err(StoreError::StaleFingerprint { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_binary_chunks_are_rejected_at_open() {
        let dir = tmp_dir("bin-corrupt");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        store.set_format(StoreFormat::Binary);
        store
            .save(
                "crawl",
                fp,
                &[],
                &crawl_artifact(&["a.example", "b.example"], 10),
            )
            .expect("save");

        // Flip one byte near the end of the file (inside the last row
        // chunk): the open-time checksum pass must reject it.
        let path = dir.join("crawl.bin");
        let mut bytes = std::fs::read(&path).expect("read");
        let at = bytes.len() - 8;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("scribble");

        let reopened = ArtifactStore::open(&dir).expect("open");
        assert!(matches!(
            reopened.open_chunked("crawl", fp),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crawl", fp),
            Err(StoreError::Corrupt { .. })
        ));
        let verified = reopened.verify();
        assert_eq!(verified.len(), 1);
        assert!(matches!(verified[0].1, EntryHealth::Corrupt(_)));

        // Truncation is caught too.
        bytes[at] ^= 0x40; // restore the flipped byte
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).expect("truncate");
        assert!(matches!(
            reopened.open_chunked("crawl", fp),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn migrate_round_trips_byte_identically() {
        let dir = tmp_dir("migrate");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        store
            .save(
                "crawl",
                fp,
                &[],
                &crawl_artifact(&["m.example", "n.example"], 12),
            )
            .expect("save");
        let original = std::fs::read(dir.join("crawl.json")).expect("json bytes");

        let mut store = ArtifactStore::open(&dir).expect("open");
        let report = store.migrate(StoreFormat::Binary).expect("to binary");
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].0, "crawl");
        assert_eq!(report[0].1, original.len() as u64);
        assert!(report[0].2 < report[0].1, "binary must shrink the store");
        assert!(dir.join("crawl.bin").is_file());
        assert!(
            !dir.join("crawl.json").exists(),
            "the superseded JSON file must be removed"
        );
        // The fingerprint is untouched, so the entry still loads.
        let art: CrawlArtifact = store.load("crawl", fp).expect("load after migrate");
        assert_eq!(art.store.len(), 24);

        let report = store.migrate(StoreFormat::Json).expect("back to json");
        let restored = std::fs::read(dir.join("crawl.json")).expect("json bytes");
        assert_eq!(report[0].2, restored.len() as u64);
        assert_eq!(
            original, restored,
            "json → binary → json must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_never_publish_partial_bytes() {
        let dir = tmp_dir("concurrent-save");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");

        // Eight threads, each with its own handle on the same dir,
        // hammer the same stage with payloads of very different sizes.
        // Before the unique-temp-name fix the writers shared one
        // `crawl.json.tmp` and could rename each other's half-written
        // bytes into place.
        let sizes: Vec<u64> = (0..8).map(|i| 5 + 40 * i).collect();
        let threads: Vec<_> = sizes
            .iter()
            .map(|&n| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let mut store = ArtifactStore::open(&dir).expect("open");
                    let art = crawl_artifact(&["c1.example", "c2.example"], n);
                    for _ in 0..4 {
                        store.save("crawl", fp, &[], &art).expect("save");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no saver panics");
        }

        // Whatever interleaving happened, the published file must be a
        // complete, valid envelope holding one of the variants...
        let reopened = ArtifactStore::open(&dir).expect("manifest parses");
        let art: CrawlArtifact = reopened.load("crawl", fp).expect("envelope parses");
        let len = art.store.len() as u64;
        assert!(
            sizes.iter().any(|&n| 2 * n == len),
            "loaded store holds {len} records, not one of the written variants"
        );
        // ...and no temp droppings survive.
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_json_stores_still_load() {
        let dir = tmp_dir("v2-compat");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        let art = crawl_artifact(&["old.example"], 6);

        // Write the store with this build, then rewrite both files the
        // way a v2 build laid them down: schema_version 2 and no
        // format/chunks keys in the manifest entry.
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        store.save("crawl", fp, &[], &art).expect("save");

        let downgrade = |v: &mut Value| {
            if let Value::Object(map) = v {
                map.insert("schema_version".to_owned(), Value::UInt(2));
            }
        };
        let envelope_path = dir.join("crawl.json");
        let mut envelope: Value =
            serde_json::from_str(&std::fs::read_to_string(&envelope_path).expect("read"))
                .expect("parse");
        downgrade(&mut envelope);
        std::fs::write(
            &envelope_path,
            serde_json::to_string(&envelope).expect("render"),
        )
        .expect("write");
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest: Value =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).expect("read"))
                .expect("parse");
        downgrade(&mut manifest);
        if let Value::Object(map) = &mut manifest {
            if let Some(Value::Array(entries)) = map.get_mut("entries") {
                for entry in entries {
                    if let Value::Object(entry) = entry {
                        entry.remove("format");
                        entry.remove("chunks");
                    }
                }
            }
        }
        std::fs::write(
            &manifest_path,
            serde_json::to_string_pretty(&manifest).expect("render"),
        )
        .expect("write");

        // The v2 store opens, reports JSON format, and loads — the
        // fingerprint basis did not move with the container version.
        let reopened = ArtifactStore::open(&dir).expect("v2 store opens");
        assert_eq!(reopened.manifest().schema_version, 2);
        let entry = reopened.entry("crawl").expect("entry");
        assert_eq!(entry.store_format(), StoreFormat::Json);
        let back: CrawlArtifact = reopened.load("crawl", fp).expect("v2 artifact loads");
        assert_eq!(back.store.records(), art.store.records());

        // Saving anything upgrades the container to the current version.
        let mut reopened = reopened;
        reopened.save("crawl", fp, &[], &art).expect("re-save");
        assert_eq!(reopened.manifest().schema_version, SCHEMA_VERSION);
        assert_eq!(
            ArtifactStore::open(&dir)
                .expect("reopen")
                .manifest()
                .schema_version,
            SCHEMA_VERSION
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_non_stores_and_future_schemas() {
        let dir = tmp_dir("no-manifest");
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(
            ArtifactStore::open(&dir),
            Err(StoreError::NoManifest { .. })
        ));
        std::fs::write(dir.join(MANIFEST_FILE), b"]]").expect("write");
        assert!(matches!(
            ArtifactStore::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
