//! The artifact-persistence contracts (ISSUE 3 acceptance):
//!
//! * save → load round-trips are **byte-identical** — property-tested
//!   over randomized measurement artifacts, and end-to-end over a full
//!   smoke `Report`,
//! * corrupted files and stale fingerprints are rejected (the engine
//!   recomputes; it never trusts a file name),
//! * a stored smoke crawl re-analyzes **across processes**: `pd run
//!   --artifacts` then `pd rerun` in a fresh process reproduce the
//!   direct run's JSON exactly, and the CLI's error paths exit nonzero
//!   on stderr.

use pd_core::store::{self, ArtifactStore, EntryHealth, Provenance, StoreError, StoreFormat};
use pd_core::{
    CrawlArtifact, CrowdArtifact, Experiment, ExperimentConfig, RunPlan, StageKind, TimingObserver,
};
use pd_currency::{Currency, Price};
use pd_net::clock::SimTime;
use pd_sheriff::measurement::{Measurement, NoiseTruth, PriceObservation};
use pd_sheriff::MeasurementStore;
use pd_util::{Money, RequestId, UserId, VantageId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pd-artifacts-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Builds a measurement from flat random draws (the property tests
/// randomize the payload, not the pipeline).
#[allow(clippy::cast_possible_truncation)]
fn measurement(i: u64, minor: i64, domain_tag: &str, fail: bool, time_ms: u64) -> Measurement {
    let currency = Currency::ALL[(i as usize) % Currency::ALL.len()];
    let price = Price::new(Money::from_minor(minor), currency);
    let observations = (0..(i % 4))
        .map(|v| {
            if fail && v == 0 {
                PriceObservation::failed(VantageId::new(v as u32), format!("boom {v}"))
            } else {
                PriceObservation::ok(
                    VantageId::new(v as u32),
                    price,
                    format!("{} \"{domain_tag}\"\n€", price.amount),
                )
            }
        })
        .collect();
    Measurement {
        request: RequestId::new(0),
        user: UserId::new((i % 97) as u32),
        domain: format!("www.{domain_tag}.example"),
        product_slug: format!("prod-{i}"),
        time: SimTime::from_millis(time_ms),
        user_price: (!fail).then_some(price),
        observations,
        noise_truth: match i % 3 {
            0 => NoiseTruth::Clean,
            1 => NoiseTruth::Customization,
            _ => NoiseTruth::MisHighlight,
        },
    }
}

proptest! {
    /// Save → load → save again: the second file must be byte-identical
    /// to the first, over randomized artifact contents (prices of every
    /// sign and currency, failure strings with escapes, arbitrary
    /// check times).
    #[test]
    fn prop_store_round_trip_is_byte_identical(
        n in 1usize..12,
        minor in -1_000_000i64..10_000_000,
        tag in "[a-z0-9]{1,12}",
        time_ms in 0u64..10_000_000_000,
        seed in 0u64..1_000_000,
    ) {
        let dir = tmp(&format!("prop-{seed}-{n}"));
        let plan = RunPlan::new(ExperimentConfig::smoke(seed));
        let mut raw = MeasurementStore::new();
        for i in 0..n as u64 {
            raw.push(measurement(i.wrapping_add(seed), minor + i as i64, &tag, i % 5 == 0, time_ms + i));
        }
        let artifact = CrowdArtifact {
            cleaned: raw.clone(),
            raw,
            cleaning: pd_sheriff::cleaning::CleaningReport {
                kept: n,
                dropped_inconsistent: n / 2,
                dropped_unhealthy: 0,
                dropped_tax_explained: 1,
                dropped_truly_noisy: 0,
                kept_truly_noisy: n / 3,
            },
        };
        let fp = store::crowd_fingerprint(&plan);
        let mut s = ArtifactStore::create(&dir, Provenance::new("prop", "", "smoke", seed, 1), &plan, None)
            .expect("store creates");
        s.save("crowd", fp, &[], &artifact).expect("first save");
        let first = std::fs::read(dir.join("crowd.json")).expect("artifact file exists");

        let loaded: CrowdArtifact = ArtifactStore::open(&dir)
            .expect("store reopens")
            .load("crowd", fp)
            .expect("round-trip load");
        prop_assert_eq!(loaded.raw.len(), artifact.raw.len());
        prop_assert_eq!(loaded.raw.records(), artifact.raw.records());
        prop_assert_eq!(loaded.cleaning, artifact.cleaning);

        s.save("crowd", fp, &[], &loaded).expect("re-save");
        let second = std::fs::read(dir.join("crowd.json")).expect("artifact file exists");
        prop_assert_eq!(first, second, "round-trip must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    /// The binary payload format agrees with JSON: the same artifact
    /// saved both ways loads to identical records, and the binary
    /// save → load → save loop is byte-identical on disk — over
    /// randomized contents (prices of every sign and currency, failure
    /// strings with escapes, arbitrary check times).
    #[test]
    fn prop_binary_store_matches_json(
        n in 1usize..12,
        minor in -1_000_000i64..10_000_000,
        tag in "[a-z0-9]{1,12}",
        time_ms in 0u64..10_000_000_000,
        seed in 0u64..1_000_000,
    ) {
        let json_dir = tmp(&format!("prop-fmt-json-{seed}-{n}"));
        let bin_dir = tmp(&format!("prop-fmt-bin-{seed}-{n}"));
        let plan = RunPlan::new(ExperimentConfig::smoke(seed));
        let mut raw = MeasurementStore::new();
        for i in 0..n as u64 {
            raw.push(measurement(i.wrapping_add(seed), minor + i as i64, &tag, i % 5 == 0, time_ms + i));
        }
        let artifact = CrowdArtifact {
            cleaned: raw.clone(),
            raw,
            cleaning: pd_sheriff::cleaning::CleaningReport {
                kept: n,
                dropped_inconsistent: n / 2,
                dropped_unhealthy: 0,
                dropped_tax_explained: 1,
                dropped_truly_noisy: 0,
                kept_truly_noisy: n / 3,
            },
        };
        let fp = store::crowd_fingerprint(&plan);
        let provenance = Provenance::new("prop", "", "smoke", seed, 1);
        let mut json_store = ArtifactStore::create(&json_dir, provenance.clone(), &plan, None)
            .expect("json store creates");
        json_store.save("crowd", fp, &[], &artifact).expect("json save");
        let mut bin_store = ArtifactStore::create(&bin_dir, provenance, &plan, None)
            .expect("binary store creates");
        bin_store.set_format(StoreFormat::Binary);
        bin_store.save("crowd", fp, &[], &artifact).expect("binary save");
        let first = std::fs::read(bin_dir.join("crowd.bin")).expect("binary file exists");

        let from_json: CrowdArtifact = ArtifactStore::open(&json_dir)
            .expect("json store reopens")
            .load("crowd", fp)
            .expect("json load");
        let from_bin: CrowdArtifact = ArtifactStore::open(&bin_dir)
            .expect("binary store reopens")
            .load("crowd", fp)
            .expect("binary load");
        prop_assert_eq!(from_bin.raw.records(), from_json.raw.records());
        prop_assert_eq!(from_bin.cleaned.records(), from_json.cleaned.records());
        prop_assert_eq!(from_bin.cleaning, from_json.cleaning);

        bin_store.save("crowd", fp, &[], &from_bin).expect("binary re-save");
        let second = std::fs::read(bin_dir.join("crowd.bin")).expect("binary file exists");
        prop_assert_eq!(first, second, "binary round-trip must be byte-identical");
        std::fs::remove_dir_all(&json_dir).ok();
        std::fs::remove_dir_all(&bin_dir).ok();
    }
}

/// The full acceptance loop in-process: a saved smoke run reloads into a
/// byte-identical `Report`, with the observer proving the measurement
/// stages never re-ran.
#[test]
fn stored_smoke_report_is_byte_identical() {
    let dir = tmp("byte-identical");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    let direct = producer.run();
    producer.save_artifacts(&dir).expect("save");

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    let reloaded = consumer.run();
    assert_eq!(direct.to_json(), reloaded.to_json(), "JSON must match");
    assert_eq!(
        direct.render_all(),
        reloaded.render_all(),
        "rendered report must match byte for byte"
    );
    for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
        assert_eq!(observer.starts(kind), 0, "{kind} must not recompute");
        assert_eq!(observer.loads(kind), 1, "{kind} must load from the store");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption is rejected: a scribbled-over artifact file fails its
/// envelope check, the engine recomputes, and `verify` flags the entry.
#[test]
fn corrupted_artifacts_are_rejected_and_recomputed() {
    let dir = tmp("corrupt");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    producer.crowd();
    producer.save_artifacts(&dir).expect("save");
    std::fs::write(dir.join("crowd.json"), "{\"schema_version\":1,").expect("corrupt the file");

    let s = ArtifactStore::open(&dir).expect("manifest still fine");
    let fp = store::crowd_fingerprint(&RunPlan::new(ExperimentConfig::smoke(7)));
    assert!(matches!(
        s.load::<CrowdArtifact>("crowd", fp),
        Err(StoreError::Corrupt { .. })
    ));
    assert!(matches!(s.verify()[0].1, EntryHealth::Corrupt(_)));

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    consumer.crowd();
    assert_eq!(observer.loads(StageKind::Crowd), 0, "corrupt must not load");
    assert_eq!(
        observer.starts(StageKind::Crowd),
        1,
        "corrupt must recompute"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Binary corruption is rejected chunk-by-chunk: scribbling over the
/// chunk region fails the per-chunk checksums at open, both the full
/// load and the streaming probe report `Corrupt`, and the engine falls
/// back to recomputing the stage.
#[test]
fn corrupted_binary_chunks_are_rejected_and_recomputed() {
    let dir = tmp("corrupt-binary");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .store_format(StoreFormat::Binary)
        .build()
        .expect("smoke builds");
    producer.crawl();
    producer.save_artifacts(&dir).expect("save");

    // Flip bytes near the end of the file — inside the last domain
    // chunk, well past the header — then also try a truncated copy.
    let path = dir.join("crawl.bin");
    let pristine = std::fs::read(&path).expect("binary artifact exists");
    let mut flipped = pristine.clone();
    let at = flipped.len() - 32;
    for b in &mut flipped[at..] {
        *b ^= 0xff;
    }
    let fp = store::crawl_fingerprint(&RunPlan::new(ExperimentConfig::smoke(7)));
    for (label, bytes) in [
        ("flipped", flipped),
        ("truncated", pristine[..pristine.len() - 16].to_vec()),
    ] {
        std::fs::write(&path, bytes).expect("corrupt the file");
        let s = ArtifactStore::open(&dir).expect("manifest still fine");
        assert!(
            matches!(
                s.load::<CrawlArtifact>("crawl", fp),
                Err(StoreError::Corrupt { .. })
            ),
            "{label} chunk must fail the full load"
        );
        assert!(
            matches!(s.open_chunked("crawl", fp), Err(StoreError::Corrupt { .. })),
            "{label} chunk must fail the streaming probe"
        );
    }

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    consumer.crawl();
    assert_eq!(observer.loads(StageKind::Crawl), 0, "corrupt must not load");
    assert_eq!(
        observer.starts(StageKind::Crawl),
        1,
        "corrupt must recompute"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Flips the last 32 bytes of `path` — inside the last domain chunk of a
/// binary artifact, well past its header.
fn flip_tail(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).expect("binary artifact exists");
    let at = bytes.len() - 32;
    for b in &mut bytes[at..] {
        *b ^= 0xff;
    }
    std::fs::write(path, bytes).expect("corrupt the file");
}

/// A save repairs a corrupt entry: the engine that recomputed a stage
/// because its stored copy was corrupt overwrites that copy (a matching
/// manifest fingerprint alone does not make it fresh), so the next
/// engine loads the stage instead of recomputing it forever.
#[test]
fn save_repairs_a_corrupt_entry() {
    let dir = tmp("repair");
    let smoke = || {
        Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .store_format(StoreFormat::Binary)
    };
    let mut producer = smoke().build().expect("smoke builds");
    producer.crawl();
    producer.save_artifacts(&dir).expect("save");
    flip_tail(&dir.join("crawl.bin"));

    let mut repairer = smoke()
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    repairer.crawl();
    assert!(
        repairer.loaded_stages().is_empty(),
        "corrupt must recompute"
    );
    let summary = repairer.save_artifacts(&dir).expect("re-save");
    assert_eq!(summary.saved, vec!["crawl"], "{summary:?}");
    assert!(summary.fresh.is_empty(), "{summary:?}");

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = smoke()
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    consumer.crawl();
    assert_eq!(observer.loads(StageKind::Crawl), 1, "repaired entry loads");
    assert_eq!(observer.starts(StageKind::Crawl), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A chunk that rots *after* its checksums passed at open fails the
/// streamed read mid-analysis: the engine drops its chunked handles,
/// recomputes in memory to the byte-identical report, and no longer
/// counts the crawl as loaded from the store.
#[test]
fn chunk_rot_after_open_falls_back_to_memory() {
    let dir = tmp("mid-read");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .store_format(StoreFormat::Binary)
        .build()
        .expect("smoke builds");
    let direct = producer.run();
    producer.save_artifacts(&dir).expect("save");

    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    assert!(consumer
        .load_artifacts(&dir)
        .expect("store opens")
        .complete());
    assert!(consumer.loaded_stages().contains(&StageKind::Crawl));
    flip_tail(&dir.join("crawl.bin"));

    let reloaded = consumer.run();
    assert_eq!(direct.to_json(), reloaded.to_json(), "JSON must match");
    assert!(
        !consumer.loaded_stages().contains(&StageKind::Crawl),
        "a recomputed crawl must not count as loaded: {:?}",
        consumer.loaded_stages()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Each analysis decodes every stored row chunk at most once: a cold
/// `analyze()` of a binary smoke store decodes exactly the row chunks of
/// crowd `raw` + `cleaned` and crawl `store` (the Sec. 3.2 summary is
/// cut from the same reads as the frames), and a second `analyze()` on
/// the same frame cache decodes none — it even survives the row files
/// disappearing under it.
#[test]
fn analysis_decodes_each_row_chunk_once_and_a_warm_one_none() {
    let dir = tmp("decode-once");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .store_format(StoreFormat::Binary)
        .build()
        .expect("smoke builds");
    let direct = producer.run();
    producer.save_artifacts(&dir).expect("save");

    let plan = RunPlan::new(ExperimentConfig::smoke(7));
    let artifacts = ArtifactStore::open(&dir).expect("store opens");
    let crowd = artifacts
        .open_chunked("crowd", store::crowd_fingerprint(&plan))
        .expect("binary crowd");
    let crawl = artifacts
        .open_chunked("crawl", store::crawl_fingerprint(&plan))
        .expect("binary crawl");
    let row_chunks = crowd.chunk_names("raw").len()
        + crowd.chunk_names("cleaned").len()
        + crawl.chunk_names("store").len();
    assert!(row_chunks > 0);

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .observer(observer.clone())
        .build()
        .expect("smoke builds");
    assert!(consumer
        .load_artifacts(&dir)
        .expect("store opens")
        .complete());
    let decoded = |run: usize| -> u64 {
        observer
            .timings()
            .iter()
            .filter(|t| t.stage == StageKind::Analysis)
            .nth(run)
            .expect("analysis ran")
            .counters
            .iter()
            .filter(|(name, _)| name == "frames_chunks_loaded")
            .map(|(_, value)| *value)
            .sum()
    };
    let cold = consumer.analyze();
    assert_eq!(cold.report.to_json(), direct.to_json());
    assert_eq!(decoded(0), row_chunks as u64, "cold: every row chunk once");
    // With the row files gone, a warm analysis can only succeed if it
    // reads nothing: any decode would fail and fall back to measuring.
    for stage in ["crowd", "crawl"] {
        std::fs::remove_file(dir.join(format!("{stage}.bin"))).expect("binary entry exists");
    }
    let warm = consumer.analyze();
    assert_eq!(warm.report.to_json(), direct.to_json());
    assert_eq!(decoded(1), 0, "warm: the frame cache decodes nothing");
    for kind in [StageKind::Crowd, StageKind::Crawl] {
        assert_eq!(observer.starts(kind), 0, "{kind} must not be recomputed");
        assert!(
            consumer.loaded_stages().contains(&kind),
            "{kind} stays loaded"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Formats and container versions mix freely within one store: a v2-era
/// JSON crawl (schema_version 2 envelope, no format/chunks manifest
/// keys) sits beside v3 binary stages, and a consumer loads all of them
/// into a byte-identical report.
#[test]
fn mixed_version_mixed_format_store_loads() {
    let dir = tmp("mixed-version");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .store_format(StoreFormat::Binary)
        .build()
        .expect("smoke builds");
    let direct = producer.run();
    producer.save_artifacts(&dir).expect("save");

    // Re-save the crawl the way a v2 build laid it down: JSON payload,
    // schema_version 2 envelope, manifest entry without format/chunks.
    let plan = RunPlan::new(ExperimentConfig::smoke(7));
    let fp = store::crawl_fingerprint(&plan);
    let mut s = ArtifactStore::open(&dir).expect("store opens");
    let crawl: CrawlArtifact = s.load("crawl", fp).expect("binary crawl loads");
    s.set_format(StoreFormat::Json);
    s.save("crawl", fp, &[], &crawl).expect("json re-save");
    let envelope_path = dir.join("crawl.json");
    let mut envelope: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&envelope_path).expect("read"))
            .expect("parse");
    if let serde_json::Value::Object(map) = &mut envelope {
        map.insert("schema_version".to_owned(), serde_json::Value::UInt(2));
    }
    std::fs::write(
        &envelope_path,
        serde_json::to_string(&envelope).expect("render"),
    )
    .expect("write");
    let manifest_path = dir.join("manifest.json");
    let mut manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest_path).expect("read"))
            .expect("parse");
    if let serde_json::Value::Object(map) = &mut manifest {
        if let Some(serde_json::Value::Array(entries)) = map.get_mut("entries") {
            for entry in entries {
                if let serde_json::Value::Object(entry) = entry {
                    if entry.get("stage") == Some(&serde_json::Value::String("crawl".to_owned())) {
                        entry.remove("format");
                        entry.remove("chunks");
                    }
                }
            }
        }
    }
    std::fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&manifest).expect("render"),
    )
    .expect("write");

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    let reloaded = consumer.run();
    assert_eq!(direct.to_json(), reloaded.to_json(), "JSON must match");
    for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
        assert_eq!(observer.starts(kind), 0, "{kind} must not recompute");
        assert_eq!(observer.loads(kind), 1, "{kind} must load from the store");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Stale fingerprints are rejected even when every file name looks
/// right: artifacts produced under seed 7 must not satisfy a seed-8 run.
#[test]
fn stale_fingerprints_are_rejected() {
    let dir = tmp("stale");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    producer.crowd();
    producer.save_artifacts(&dir).expect("save");

    let s = ArtifactStore::open(&dir).expect("store opens");
    let fp8 = store::crowd_fingerprint(&RunPlan::new(ExperimentConfig::smoke(8)));
    assert!(matches!(
        s.load::<CrowdArtifact>("crowd", fp8),
        Err(StoreError::StaleFingerprint { .. })
    ));

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(8)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    consumer.crowd();
    assert_eq!(observer.loads(StageKind::Crowd), 0);
    assert_eq!(observer.starts(StageKind::Crowd), 1);
    std::fs::remove_dir_all(&dir).ok();
}

fn pd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pd"))
}

/// The cross-process acceptance: one process measures and persists, a
/// second process re-analyzes the stored crawl, and the reports agree
/// byte for byte. Also proves the second process skipped the
/// measurement stages (its stdout names the reused artifacts).
#[test]
fn rerun_reanalyzes_a_stored_smoke_crawl_across_processes() {
    let dir = tmp("cross-process");
    let direct_json = dir.join("direct.json");
    let rerun_json = dir.join("rerun.json");
    std::fs::create_dir_all(&dir).expect("mkdir");

    let run = pd()
        .args(["run", "smoke", "--seed", "7", "--artifacts"])
        .arg(&dir)
        .arg("--json")
        .arg(&direct_json)
        .output()
        .expect("pd run executes");
    assert!(run.status.success(), "pd run failed: {run:?}");

    let rerun = pd()
        .arg("rerun")
        .arg(&dir)
        .arg("--json")
        .arg(&rerun_json)
        .output()
        .expect("pd rerun executes");
    assert!(rerun.status.success(), "pd rerun failed: {rerun:?}");
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(
        stdout.contains("reused crowd, crawl, personas"),
        "rerun must reuse every measurement stage:\n{stdout}"
    );

    let direct = std::fs::read(&direct_json).expect("direct report written");
    let reran = std::fs::read(&rerun_json).expect("rerun report written");
    assert_eq!(direct, reran, "rerun JSON must equal the direct run's");

    // `pd artifacts ls` sees a healthy, fully-lineaged store.
    let ls = pd()
        .args(["artifacts", "ls"])
        .arg(&dir)
        .output()
        .expect("ls");
    assert!(ls.status.success());
    let ls_out = String::from_utf8_lossy(&ls.stdout);
    for needle in ["crowd", "crawl", "personas", "analysis", "upstream", "ok"] {
        assert!(ls_out.contains(needle), "missing {needle:?} in:\n{ls_out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The binary-format acceptance, cross-process: `pd run --format
/// binary` writes a store several times smaller than JSON, `pd rerun`
/// reproduces the direct report byte for byte from it, `pd artifacts
/// ls` shows the format and chunk counts, and `pd artifacts migrate`
/// converts in place without changing what a rerun computes.
#[test]
fn binary_store_reruns_byte_identically_across_processes() {
    let bin_dir = tmp("cross-binary");
    let json_dir = tmp("cross-binary-json");
    let direct_json = bin_dir.join("direct.json");
    let rerun_json = bin_dir.join("rerun.json");
    let migrated_json = bin_dir.join("migrated.json");
    std::fs::create_dir_all(&bin_dir).expect("mkdir");

    let run = pd()
        .args(["run", "smoke", "--seed", "7", "--artifacts"])
        .arg(&bin_dir)
        .args(["--format", "binary", "--json"])
        .arg(&direct_json)
        .output()
        .expect("pd run executes");
    assert!(run.status.success(), "pd run failed: {run:?}");
    let run_json = pd()
        .args(["run", "smoke", "--seed", "7", "--artifacts"])
        .arg(&json_dir)
        .output()
        .expect("pd run executes");
    assert!(run_json.status.success(), "pd run failed: {run_json:?}");

    // The compression target: the binary payloads together are at
    // least 3x smaller than their JSON twins.
    let total = |dir: &PathBuf, ext: &str| -> u64 {
        ["crowd", "crawl", "personas", "analysis"]
            .iter()
            .map(|stage| {
                std::fs::metadata(dir.join(format!("{stage}.{ext}")))
                    .unwrap_or_else(|_| panic!("{stage}.{ext} missing"))
                    .len()
            })
            .sum()
    };
    let (bin_total, json_total) = (total(&bin_dir, "bin"), total(&json_dir, "json"));
    assert!(
        bin_total * 3 <= json_total,
        "binary stores must be >= 3x smaller: {bin_total} vs {json_total} bytes"
    );

    let rerun = pd()
        .arg("rerun")
        .arg(&bin_dir)
        .arg("--json")
        .arg(&rerun_json)
        .output()
        .expect("pd rerun executes");
    assert!(rerun.status.success(), "pd rerun failed: {rerun:?}");
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(
        stdout.contains("reused crowd, crawl, personas"),
        "rerun must reuse every measurement stage:\n{stdout}"
    );
    let direct = std::fs::read(&direct_json).expect("direct report written");
    assert_eq!(
        direct,
        std::fs::read(&rerun_json).expect("rerun report written"),
        "rerun from the binary store must equal the direct run's JSON"
    );

    let ls = pd()
        .args(["artifacts", "ls"])
        .arg(&bin_dir)
        .output()
        .expect("ls");
    assert!(ls.status.success());
    let ls_out = String::from_utf8_lossy(&ls.stdout);
    assert!(
        ls_out.contains("binary"),
        "ls must show the format:\n{ls_out}"
    );
    assert!(
        ls_out.contains("chunks"),
        "ls must show chunk counts:\n{ls_out}"
    );

    // Migrate binary -> json in place; a rerun still reproduces the
    // same report from the converted store.
    let migrate = pd()
        .args(["artifacts", "migrate"])
        .arg(&bin_dir)
        .args(["--format", "json"])
        .output()
        .expect("migrate");
    assert!(migrate.status.success(), "migrate failed: {migrate:?}");
    assert!(
        bin_dir.join("crawl.json").exists(),
        "migrate must re-encode"
    );
    assert!(
        !bin_dir.join("crawl.bin").exists(),
        "migrate must drop the old file"
    );
    let rerun2 = pd()
        .arg("rerun")
        .arg(&bin_dir)
        .arg("--json")
        .arg(&migrated_json)
        .output()
        .expect("pd rerun executes");
    assert!(
        rerun2.status.success(),
        "rerun after migrate failed: {rerun2:?}"
    );
    assert_eq!(
        direct,
        std::fs::read(&migrated_json).expect("migrated report written"),
        "rerun after migrate must equal the direct run's JSON"
    );
    std::fs::remove_dir_all(&bin_dir).ok();
    std::fs::remove_dir_all(&json_dir).ok();
}

/// CLI error-path contract: unknown scenarios/commands/stores exit
/// nonzero with the diagnostic on stderr (and the scenario list where
/// it helps), never a quiet success.
#[test]
fn cli_errors_hit_stderr_with_nonzero_exit() {
    let bad_scenario = pd().args(["run", "nope"]).output().expect("runs");
    assert_eq!(bad_scenario.status.code(), Some(2));
    let err = String::from_utf8_lossy(&bad_scenario.stderr);
    assert!(err.contains("unknown scenario"), "stderr: {err}");
    assert!(
        err.contains("desync-ablation") && err.contains("paper"),
        "error must list the registered scenarios: {err}"
    );
    assert!(bad_scenario.stdout.is_empty(), "errors must not hit stdout");

    let bad_cmd = pd().arg("frobnicate").output().expect("runs");
    assert_eq!(bad_cmd.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_cmd.stderr).contains("unknown command"));

    let no_store = pd()
        .arg("rerun")
        .arg(std::env::temp_dir().join("pd-definitely-not-a-store"))
        .output()
        .expect("runs");
    assert_eq!(no_store.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&no_store.stderr).contains("not an artifact store"));

    let bad_flag = pd().args(["run", "smoke", "--wat"]).output().expect("runs");
    assert_eq!(bad_flag.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_flag.stderr).contains("unknown flag"));
}

/// A store produced by one run is never silently destroyed by another:
/// saving under a different seed fails with guidance, succeeds with
/// `--overwrite-artifacts`, and the original artifacts survive the
/// refusal untouched.
#[test]
fn different_plan_never_clobbers_a_store_without_consent() {
    let dir = tmp("no-clobber");
    let run7 = pd()
        .args(["run", "smoke", "--seed", "7", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("seed-7 run");
    assert!(run7.status.success());
    let crowd_before = std::fs::read(dir.join("crowd.json")).expect("stored");

    let run8 = pd()
        .args(["run", "smoke", "--seed", "8", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("seed-8 run");
    assert_eq!(run8.status.code(), Some(1), "clobber must be refused");
    let err = String::from_utf8_lossy(&run8.stderr);
    assert!(err.contains("different run plan"), "stderr: {err}");
    assert!(err.contains("--overwrite-artifacts"), "stderr: {err}");
    assert_eq!(
        std::fs::read(dir.join("crowd.json")).expect("still stored"),
        crowd_before,
        "the refused save must leave the original artifacts intact"
    );

    let run8_forced = pd()
        .args([
            "run",
            "smoke",
            "--seed",
            "8",
            "--overwrite-artifacts",
            "--artifacts",
        ])
        .arg(&dir)
        .output()
        .expect("forced seed-8 run");
    assert!(run8_forced.status.success(), "{run8_forced:?}");
    let ls = pd()
        .args(["artifacts", "ls"])
        .arg(&dir)
        .output()
        .expect("ls");
    assert!(String::from_utf8_lossy(&ls.stdout).contains("seed 8"));
    std::fs::remove_dir_all(&dir).ok();
}
