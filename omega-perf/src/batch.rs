//! The two batch workloads, both driven through `Session::prefetch` —
//! the entry point `figures` uses.
//!
//! * `sweep-cold`: every sweep dataset × all eight algorithms (where the
//!   graph supports them) × {baseline, omega}, `jobs = nproc`, a fresh
//!   store each round. Many groups keep the worker pool busy; it has the
//!   largest trace share and real store writes.
//! * `replay-fanout`: two trace groups of unequal cost (lj/PageRank and
//!   rCA/PageRank), each replayed on the nine named machine kinds plus a
//!   ladder of `omega-spNNN` points, no store. One group's sequential
//!   replays are the critical path, and every memory-system kind runs
//!   through the timing loop.
//!
//! Both run at tiny scale. A small-scale sweep takes about 16 s, and a
//! round that long cannot be scaled by the host-speed calibration, which
//! samples between rounds (see `host::Calibrator`).
//!
//! A round is one fresh `Session` (its graph builds are one set-up
//! sample) followed by one timed `prefetch` of the whole spec list.
//! Rounds repeat until the timed phase has lasted `--seconds`.

use crate::traced::{self, sim_ops, Layers};
use crate::{host, Report, Workload};
use omega_bench::session::{trace_groups, AlgoKey, ExperimentSpec, MachineKind, Session};
use omega_core::runner::RunReport;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::rng::SmallRng;
use omega_sim::telemetry::TelemetryConfig;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// The `figures` sweep datasets: seven power-law graphs and two road
/// networks.
const SWEEP: [Dataset; 9] = [
    Dataset::Sd,
    Dataset::Ap,
    Dataset::Rmat,
    Dataset::Orkut,
    Dataset::Wiki,
    Dataset::Lj,
    Dataset::Ic,
    Dataset::RoadPa,
    Dataset::RoadCa,
];

/// `replay-fanout`'s two groups: a heavy power-law group and a lighter
/// road-network group.
const FANOUT_GROUPS: [(Dataset, AlgoKey); 2] = [
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::RoadCa, AlgoKey::PageRank),
];

/// The `omega-spNNN` ladder (permille of the standard scratchpad).
const LADDER: [u32; 6] = [125, 250, 375, 500, 625, 750];

/// Set-up samples taken per run, at least (one per round, topped up).
const SETUP_SAMPLES: usize = 5;

const SCALE: DatasetScale = DatasetScale::Tiny;

/// The workload's spec list for `seed`, and whether rounds use a store.
pub fn plan(workload: Workload, seed: u64) -> (Vec<ExperimentSpec>, bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    match workload {
        Workload::SweepCold => {
            // Support is a property of the graph's directedness, which
            // does not depend on scale; tiny graphs decide it cheaply.
            let mut probe = Session::new(DatasetScale::Tiny).verbose(false);
            let mut specs = Vec::new();
            for d in SWEEP {
                for a in AlgoKey::ALL {
                    if !probe.supports((d, a)) {
                        continue;
                    }
                    // The seed orders each group's two machines; the group
                    // order stays the `figures` order, so the critical
                    // path does not move with the seed.
                    let mut pair = [MachineKind::Baseline, MachineKind::Omega];
                    if rng.gen_bool() {
                        pair.reverse();
                    }
                    specs.extend(pair.map(|m| ExperimentSpec::new(d, a, m)));
                }
            }
            (specs, true)
        }
        Workload::ReplayFanout => {
            let mut machines: Vec<MachineKind> = MachineKind::NAMED.to_vec();
            for permille in LADDER {
                machines.push(
                    MachineKind::scaled_sp(MachineKind::Omega, permille)
                        .expect("ladder points are valid scratchpad scales"),
                );
            }
            // Seeded Fisher–Yates: the seed orders each group's replays.
            // It does not change the set, so every seed simulates the same
            // work and the spread across seeds is the host's alone.
            for i in (1..machines.len()).rev() {
                machines.swap(i, rng.gen_range(0..=i));
            }
            let specs = FANOUT_GROUPS
                .iter()
                .flat_map(|&(d, a)| machines.iter().map(move |&m| ExperimentSpec::new(d, a, m)))
                .collect();
            (specs, false)
        }
        Workload::ServeMixed => unreachable!("serve-mixed is not a batch workload"),
    }
}

/// A fresh session with every graph of `specs` built; returns it with the
/// build time (one set-up sample).
fn fresh_session(specs: &[ExperimentSpec], store: Option<&Path>) -> (Session, f64) {
    let t = Instant::now();
    let mut session = Session::new(SCALE).verbose(false).jobs(host::nproc());
    if let Some(dir) = store {
        session = session
            .with_store(dir)
            .expect("the work directory is writable");
    }
    for spec in specs {
        session.graph(spec.dataset);
    }
    (session, t.elapsed().as_secs_f64())
}

/// One timed round: `prefetch` of the whole list on a fresh session.
struct Round {
    wall_s: f64,
    cpu_s: f64,
    reports: HashMap<ExperimentSpec, RunReport>,
}

fn round(
    specs: &[ExperimentSpec],
    mut session: Session,
    with_store: bool,
    report: &mut Report,
) -> Round {
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let outcome = session.prefetch(specs);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    report.check(outcome.computed() == specs.len(), || {
        format!(
            "prefetch computed {} of {} specs on a cold session",
            outcome.computed(),
            specs.len()
        )
    });
    let mut reports = HashMap::with_capacity(specs.len());
    for &spec in specs {
        let r = session.report(spec).clone();
        if with_store {
            let store = session.store().expect("the round opened a store");
            let reloaded = store.load_report(spec.fingerprint(SCALE, TelemetryConfig::off()));
            report.check(reloaded.as_ref() == Some(&r), || {
                format!(
                    "{}: store reload differs from the in-memory report",
                    spec.label()
                )
            });
        }
        reports.insert(spec, r);
    }
    Round {
        wall_s,
        cpu_s,
        reports,
    }
}

/// The untraced run: rounds until `seconds` of timed phase, then the
/// end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, dir: &crate::host::WorkDir) -> Report {
    let mut report = Report::default();
    let (specs, with_store) = plan(workload, seed);
    let mut timings = host::Timings::default();
    let (mut ops, mut results, mut cpu) = (0u64, 0u64, 0.0);
    let mut first: Option<HashMap<ExperimentSpec, RunReport>> = None;
    timings.calibrate();
    host::reset_peak_rss();
    while timings.timed_raw() < seconds {
        let store = with_store.then(|| dir.sub(&format!("round{}", timings.rounds())));
        let (session, setup_s) = fresh_session(&specs, store.as_deref());
        timings.setup(setup_s);
        let r = round(&specs, session, with_store, &mut report);
        timings.round(r.wall_s);
        timings.take_peak_rss();
        timings.calibrate_if_due();
        cpu += r.cpu_s;
        results += r.reports.len() as u64;
        ops += r.reports.values().map(sim_ops).sum::<u64>();
        // Every round simulates the same inputs, so every report must
        // repeat the first round's exactly.
        match &first {
            None => first = Some(r.reports),
            Some(first) => {
                for (spec, rep) in &r.reports {
                    report.check(first.get(spec) == Some(rep), || {
                        format!(
                            "{}: round {} differs from round 0",
                            spec.label(),
                            timings.rounds()
                        )
                    });
                }
            }
        }
        if let Some(store) = store {
            let _ = std::fs::remove_dir_all(store);
        }
        host::reset_peak_rss();
    }
    while timings.setups() < SETUP_SAMPLES {
        timings.setup(fresh_session(&specs, None).1);
    }
    timings.calibrate();
    timings.emit(&mut report, ops, results);
    report.line(format!(
        "timed phase: {} rounds of {} specs in {:.3} s, {} simulated ops, \
         prefetch cpu/(wall*jobs) = {:.3}",
        timings.rounds(),
        specs.len(),
        timings.timed_raw(),
        ops,
        cpu / (timings.timed_raw() * host::nproc() as f64)
    ));
    report.line(
        "req_p50_ms, req_p99_ms: not reported: a batch sweep's results arrive together".into(),
    );
    report
}

/// The traced run: one untraced round (the reference and the untraced
/// wall), then the serial layer pass over the same spec list.
pub fn traced(workload: Workload, seed: u64, dir: &crate::host::WorkDir) -> Report {
    let mut report = Report::default();
    let (specs, with_store) = plan(workload, seed);
    let store_dir = with_store.then(|| dir.sub("untraced"));
    let (session, _) = fresh_session(&specs, store_dir.as_deref());
    let untraced = round(&specs, session, with_store, &mut report);
    let mut layers = Layers::default();
    layers.prefetch_s = untraced.wall_s;
    layers.groups = trace_groups(specs.iter().copied()).len() as u64;
    layers.cpu_util = untraced.cpu_s / (untraced.wall_s * host::nproc() as f64);
    let store = with_store.then(|| {
        omega_bench::ExperimentStore::open(dir.sub("traced"))
            .expect("the work directory is writable")
    });
    traced::pass(
        SCALE,
        &specs,
        store.as_ref(),
        &untraced.reports,
        &mut layers,
        &mut report,
    );
    layers.store_writes = store.as_ref().map_or(0, |s| s.counters().writes);
    layers.trace_overhead_s = layers.pass_s - untraced.wall_s;
    report.line(format!(
        "traced pass: {:.3} s of timed calls vs {:.3} s untraced round",
        layers.pass_s, untraced.wall_s
    ));
    layers.emit(&mut report);
    report
}
