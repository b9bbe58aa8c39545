//! Regression test for the grouped prefetch: one functional trace per
//! `(Dataset, AlgoKey)` group, shared by every requested machine, at any
//! worker count.
//!
//! Lives in its own integration-test binary so the process-wide
//! functional-trace counter is not disturbed by unrelated tests running
//! in parallel threads.

use omega_bench::session::AlgoKey;
use omega_bench::{MachineKind, Session};
use omega_core::runner::functional_trace_count;
use omega_graph::datasets::{Dataset, DatasetScale};

#[test]
fn prefetch_traces_once_per_group_and_fills_every_machine() {
    for jobs in [1, 2, 4] {
        check_one_trace_per_group(jobs);
    }
}

fn check_one_trace_per_group(jobs: usize) {
    let mut s = Session::new(DatasetScale::Tiny).verbose(false).jobs(jobs);
    let machines = [
        MachineKind::Baseline,
        MachineKind::Omega,
        MachineKind::OmegaNoPisc,
        MachineKind::OmegaNoSvb,
        MachineKind::LockedCache,
    ];
    let mut work = Vec::new();
    for (d, a) in [
        (Dataset::Sd, AlgoKey::PageRank),
        (Dataset::Sd, AlgoKey::Bfs),
        (Dataset::Usa, AlgoKey::Sssp),
    ] {
        for m in machines {
            work.push((d, a, m));
        }
    }
    // Duplicates must not add groups.
    work.push((Dataset::Sd, AlgoKey::PageRank, MachineKind::Baseline));

    let before = functional_trace_count();
    s.prefetch(&work);
    let traced = functional_trace_count() - before;
    assert_eq!(
        traced, 3,
        "jobs={jobs}: expected one functional trace per (dataset, algo) group"
    );

    // Every requested machine got a cached report without re-tracing, and
    // the shared-trace replays agree with the per-machine checksums.
    let before = functional_trace_count();
    let mut checksums = Vec::new();
    for &(d, a, m) in &work {
        let r = s.report((d, a, m)).clone();
        assert!(r.total_cycles > 0, "{:?}/{:?}/{:?} not simulated", d, a, m);
        checksums.push(((d, a), r.checksum));
    }
    assert_eq!(
        functional_trace_count(),
        before,
        "report() after prefetch must be pure cache hits"
    );
    for (key, sum) in &checksums {
        for (other_key, other_sum) in &checksums {
            if key == other_key {
                assert_eq!(
                    sum, other_sum,
                    "checksum differs across machines of {key:?}"
                );
            }
        }
    }
}
