//! Persistent-store integration tests: report round-trips across every
//! machine kind (with and without telemetry), corruption injection, and
//! cross-process determinism through the `stats` binary.

use omega_bench::json::Json;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind, Session};
use omega_bench::store::value_fingerprint;
use omega_bench::ExperimentStore;
use omega_core::runner::Runner;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_ligra::ExecConfig;
use omega_sim::telemetry::TelemetryConfig;
use std::path::PathBuf;

/// A unique, initially absent store root under the system temp dir.
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("omega-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const ALL_MACHINES: [MachineKind; 10] = [
    MachineKind::Baseline,
    MachineKind::Omega,
    MachineKind::OmegaScaledSp { permille: 500 },
    MachineKind::OmegaNoPisc,
    MachineKind::OmegaNoSvb,
    MachineKind::OmegaChunkMismatch,
    MachineKind::OmegaOffchip,
    MachineKind::LockedCache,
    MachineKind::PimRank,
    MachineKind::SpecializedCache,
];

#[test]
fn reports_round_trip_across_all_machine_kinds_and_telemetry() {
    let dir = temp_store("roundtrip");
    let store = ExperimentStore::open(&dir).expect("store opens");
    let g = Dataset::Sd
        .build(DatasetScale::Tiny)
        .expect("dataset builds");
    for telemetry in [TelemetryConfig::off(), TelemetryConfig::windowed(2048)] {
        for m in ALL_MACHINES {
            let spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, m);
            let mut system = m.system();
            system.machine.telemetry = telemetry;
            let report = Runner::new(system).run(&g, spec.algo.algo(&g));
            let fp = spec.fingerprint(DatasetScale::Tiny, telemetry);
            store
                .store_report(fp, &spec.label(), &report)
                .expect("persist");
            let loaded = store.load_report(fp).expect("load back");
            assert_eq!(loaded, report, "{}", spec.label());
        }
    }
    // 10 machines × 2 telemetry settings → 20 distinct fingerprints, all
    // verifying.
    let outcome = store.verify().expect("verify");
    assert_eq!(outcome.ok, 20);
    assert!(outcome.corrupt.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn old_format_version_entries_are_misses_not_errors() {
    let dir = temp_store("oldversion");
    let spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline);
    let mut s = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir)
        .expect("store opens");
    s.report(spec);
    let fp = spec.fingerprint(DatasetScale::Tiny, TelemetryConfig::off());
    let path = s.store().expect("attached").entry_path(fp);
    drop(s);

    // Rewrite the embedded format version to the previous one, as if the
    // entry had been written by an older build whose fingerprint happened
    // to collide. The payload and checksum are untouched, so only the
    // version gate can reject it — and it must reject silently, as a
    // counted miss, never an error.
    let text = std::fs::read_to_string(&path).expect("entry readable");
    let old = format!(
        "\"version\": {}",
        omega_bench::store::STORE_FORMAT_VERSION - 1
    );
    let downgraded = text.replace(
        &format!("\"version\": {}", omega_bench::store::STORE_FORMAT_VERSION),
        &old,
    );
    assert_ne!(text, downgraded, "version field must be present to rewrite");
    std::fs::write(&path, downgraded).expect("rewrite");

    let store = ExperimentStore::open(&dir).expect("reopen");
    assert!(
        store.load_report(fp).is_none(),
        "old-version entry must be a miss"
    );
    let counters = store.counters();
    assert_eq!(counters.misses, 1);
    assert_eq!(counters.corrupt, 1, "the miss is classified, not fatal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_are_a_silent_miss_and_heal() {
    let dir = temp_store("corrupt");
    let spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega);
    let mut s = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir)
        .expect("store opens");
    let original = s.report(spec).clone();
    let fp = spec.fingerprint(DatasetScale::Tiny, TelemetryConfig::off());
    let path = s.store().expect("attached").entry_path(fp);
    assert!(path.is_file(), "entry persisted at {}", path.display());
    let intact = std::fs::read(&path).expect("entry readable");
    drop(s);

    // Truncation → silent miss, counted as corrupt.
    std::fs::write(&path, &intact[..intact.len() / 2]).expect("truncate");
    let store = ExperimentStore::open(&dir).expect("reopen");
    assert!(store.load_report(fp).is_none(), "truncated entry must miss");
    assert_eq!(store.counters().corrupt, 1);

    // A single flipped bit near the end (inside the payload) → the
    // embedded checksum catches it.
    let mut flipped = intact.clone();
    let i = flipped.len() - 20;
    flipped[i] ^= 0x01;
    std::fs::write(&path, &flipped).expect("flip");
    assert!(
        store.load_report(fp).is_none(),
        "bit-flipped entry must miss"
    );
    assert_eq!(store.verify().expect("verify").corrupt, vec![path.clone()]);

    // A fresh session recomputes the identical report and rewrites the
    // entry; gc then finds nothing left to remove.
    let mut healed = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir)
        .expect("store opens");
    assert_eq!(*healed.report(spec), original);
    let counters = healed.store().expect("attached").counters();
    assert_eq!(counters.corrupt, 1);
    assert_eq!(counters.writes, 1);
    let outcome = ExperimentStore::open(&dir)
        .expect("reopen")
        .gc()
        .expect("gc");
    assert_eq!(outcome.kept, 1);
    assert!(outcome.removed.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_process_dump_is_deterministic_and_warm() {
    let dir = temp_store("xproc");
    let run = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_stats"))
            .args([
                "dump",
                "--dataset",
                "sd",
                "--algo",
                "pagerank",
                "--machine",
                "omega",
                "--scale",
                "tiny",
                "--window",
                "2048",
                "--store",
                dir.to_str().expect("utf8 temp path"),
            ])
            .output()
            .expect("stats runs");
        assert!(
            out.status.success(),
            "stats dump failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 dump")
    };
    let cold = run();
    let warm = run();

    // The documents must be byte-identical apart from the store-counter
    // object, which is exactly what distinguishes a warm run from a cold
    // one.
    let strip = |text: &str| {
        let doc = Json::parse(text).expect("dump parses");
        let store = doc.get("store").expect("store counters present");
        let hits = store.get("hits").and_then(Json::as_u64).expect("hits");
        let misses = store.get("misses").and_then(Json::as_u64).expect("misses");
        let mut rest = Json::obj();
        for (k, v) in doc.as_object().expect("object") {
            if k != "store" {
                rest.set(k.as_str(), v.clone());
            }
        }
        (rest.dump(), hits, misses)
    };
    let (cold_doc, cold_hits, cold_misses) = strip(&cold);
    let (warm_doc, warm_hits, warm_misses) = strip(&warm);
    assert_eq!(cold_doc, warm_doc, "warm dump differs from cold dump");
    assert_eq!(cold_hits, 0);
    assert!(cold_misses >= 1);
    assert!(warm_hits >= 1);
    assert_eq!(warm_misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Store keys of every machine kind and of one figure value, pinned at
/// format v3. A silent drift in the canonical encoding would orphan every
/// warm store, so a deliberate change must bump `STORE_FORMAT_VERSION` and
/// re-capture these constants.
#[test]
fn fingerprints_match_the_golden_digests() {
    let golden: [(MachineKind, u64); 10] = [
        (MachineKind::Baseline, 0xd05a7c48116fe141),
        (MachineKind::Omega, 0xb85ffd8dbe774a03),
        (MachineKind::OmegaNoPisc, 0xd281aabc7d5d4522),
        (MachineKind::OmegaNoSvb, 0x0b15017828662b9c),
        (MachineKind::OmegaChunkMismatch, 0x2d6f1600eee78f87),
        (MachineKind::OmegaOffchip, 0x13bf614d36fc2728),
        (MachineKind::LockedCache, 0x53c9ac0990088aca),
        (MachineKind::PimRank, 0xa2cec2924283fda8),
        (MachineKind::SpecializedCache, 0xebe9276387312d12),
        (
            MachineKind::OmegaScaledSp { permille: 500 },
            0x5d906ab27e18a513,
        ),
    ];
    assert!(MachineKind::NAMED
        .iter()
        .all(|m| golden.iter().any(|(g, _)| g == m)));
    for (m, want) in golden {
        let spec = ExperimentSpec::new(Dataset::Lj, AlgoKey::PageRank, m);
        let got = spec.fingerprint(DatasetScale::Tiny, TelemetryConfig::off());
        assert_eq!(got, want, "{}: {got:#018x}", spec.label());
    }
    let value = value_fingerprint(
        "table2-trace-class",
        "tiny",
        Some(&ExecConfig::default()),
        |h| {
            h.write_str("ap");
            h.write_str("PageRank");
        },
    );
    assert_eq!(value, 0x901470583914b736, "{value:#018x}");
}
