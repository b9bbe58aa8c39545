//! Determinism gate for the one parallelism mechanism: `Session::prefetch`
//! fans `(trace group, machine)` replays out over a worker pool that
//! shares each group's one functional trace. The pool may only change
//! wall-clock time, never a single byte of output: at `jobs` 1, 2 and 4
//! every report, its serialised `omega-run-report` document and the
//! persisted store entries must be byte-identical.

use omega_bench::report_json::run_report_to_json;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind, Session};
use omega_graph::datasets::{Dataset, DatasetScale};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The shape of the sensitivity and rivals figures: two trace groups of
/// unequal cost, each replayed on all ten machine kinds (the nine named
/// ones plus a Fig. 19 `omega-spNNN` point).
fn fanout_specs() -> Vec<ExperimentSpec> {
    let sp = MachineKind::scaled_sp(MachineKind::Omega, 250).expect("250 ‰ is a valid scale");
    let machines: Vec<MachineKind> = MachineKind::NAMED.into_iter().chain([sp]).collect();
    [Dataset::Lj, Dataset::RoadCa]
        .into_iter()
        .flat_map(|d| {
            machines
                .iter()
                .map(move |&m| ExperimentSpec::new(d, AlgoKey::PageRank, m))
        })
        .collect()
}

/// Every file under `root`, keyed by its path relative to `root`.
fn store_files(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("store directory is readable") {
            let path = entry.expect("store entry is readable").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("store file is readable");
                files.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

/// One cold prefetch of `specs` at `jobs` workers into a fresh store:
/// the report documents (in spec order) and the store's files.
fn prefetch_at(jobs: usize, specs: &[ExperimentSpec]) -> (Vec<String>, BTreeMap<PathBuf, Vec<u8>>) {
    let dir = std::env::temp_dir().join(format!(
        "omega-parallel-replay-{}-jobs{jobs}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .jobs(jobs)
        .with_store(&dir)
        .expect("temp dir is writable");
    let outcome = session.prefetch(specs);
    assert_eq!(
        outcome.computed(),
        specs.len(),
        "jobs={jobs}: cold prefetch"
    );
    let docs = specs
        .iter()
        .map(|&spec| {
            let report = session.report(spec).clone();
            format!(
                "{report:?}\n{}",
                run_report_to_json(&report, &spec.machine.system()).dump()
            )
        })
        .collect();
    let files = store_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    (docs, files)
}

#[test]
fn prefetch_output_is_byte_identical_at_any_jobs() {
    let specs = fanout_specs();
    assert_eq!(specs.len(), 20);
    let (reference_docs, reference_files) = prefetch_at(1, &specs);
    assert_eq!(
        reference_files.len(),
        specs.len(),
        "one store entry per spec"
    );
    for jobs in [2usize, 4] {
        let (docs, files) = prefetch_at(jobs, &specs);
        for ((spec, doc), reference) in specs.iter().zip(&docs).zip(&reference_docs) {
            assert_eq!(doc, reference, "jobs={jobs} diverged on {}", spec.label());
        }
        assert_eq!(
            files.keys().collect::<Vec<_>>(),
            reference_files.keys().collect::<Vec<_>>(),
            "jobs={jobs}: store entry names differ"
        );
        for (path, bytes) in &files {
            assert!(
                *bytes == reference_files[path],
                "jobs={jobs}: store bytes differ in {}",
                path.display()
            );
        }
    }
}
