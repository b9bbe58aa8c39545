//! The traced run's layer pass and the per-layer metric table.
//!
//! Nothing inside the program is instrumented: every layer is timed from
//! here, around calls to its public entry points, serially, so each span
//! has the machine to itself. Simulated-model counts are exact sums over
//! the pass's replays and must repeat bit for bit for a fixed seed.

use crate::{host, Report};
use omega_bench::session::{trace_groups, ExperimentSpec, MachineKind};
use omega_bench::store::{codec, ExperimentStore};
use omega_core::config::SystemConfig;
use omega_core::layout::Layout;
use omega_core::lower::{LoweringStream, Target};
use omega_core::runner::{replay, replay_audited, trace_algorithm, RunReport};
use omega_core::OmegaMemory;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::CsrGraph;
use omega_ligra::ExecConfig;
use omega_sim::stats::MemStats;
use omega_sim::telemetry::{TelemetryConfig, TelemetryReport};
use omega_sim::{EngineReport, OpSource};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-kind replay-cost keys: the nine named kinds, then the whole
/// `omega-spNNN` family as one.
pub const KINDS: [&str; 10] = [
    "baseline",
    "omega",
    "omega-nopisc",
    "omega-nosvb",
    "omega-chunkmis",
    "omega-offchip",
    "locked-cache",
    "pim-rank",
    "specialized-cache",
    "omega-sp",
];

fn kind_index(m: MachineKind) -> usize {
    match m {
        MachineKind::OmegaScaledSp { .. } => KINDS.len() - 1,
        other => {
            let label = other.label();
            KINDS
                .iter()
                .position(|k| *k == label)
                .expect("every named kind has a KINDS entry")
        }
    }
}

/// The machine a workload runs `m` on: the session's configuration with
/// telemetry off, exactly as `Session` and `omega-serve` build it.
pub fn system_for(m: MachineKind) -> SystemConfig {
    let mut sys = m.system();
    sys.machine.telemetry = TelemetryConfig::off();
    sys
}

/// Simulated core operations of one report.
pub fn sim_ops(r: &RunReport) -> u64 {
    r.engine.per_core.iter().map(|c| c.ops).sum()
}

/// Exact simulated-model counts summed over a pass's replays.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    ops: u64,
    cycles: u64,
    memory_stall: u64,
    atomic_stall: u64,
    l1_hits: u64,
    l1_accesses: u64,
    l2_hits: u64,
    l2_accesses: u64,
    noc_packets: u64,
    noc_bytes: u64,
    dram_requests: u64,
    dram_row_hits: u64,
    dram_open_page: u64,
    atomics: u64,
    lock_wait: u64,
    sp_accesses: u64,
    pisc_ops: u64,
    pim_ops: u64,
    svb_hits: u64,
    svb_lookups: u64,
}

impl Counts {
    fn add(&mut self, e: &EngineReport, m: &MemStats) {
        self.ops += e.per_core.iter().map(|c| c.ops).sum::<u64>();
        self.cycles += e.total_cycles;
        self.memory_stall += e
            .per_core
            .iter()
            .map(|c| c.memory_stall_cycles)
            .sum::<u64>();
        self.atomic_stall += e
            .per_core
            .iter()
            .map(|c| c.atomic_stall_cycles)
            .sum::<u64>();
        self.l1_hits += m.l1.hits;
        self.l1_accesses += m.l1.accesses();
        self.l2_hits += m.l2.hits;
        self.l2_accesses += m.l2.accesses();
        self.noc_packets += m.noc.packets;
        self.noc_bytes += m.noc.bytes;
        self.dram_requests += m.dram.accesses();
        self.dram_row_hits += m.dram.row_hits;
        self.dram_open_page += m.dram.open_page_accesses;
        self.atomics += m.atomics.executed;
        self.lock_wait += m.atomics.lock_wait_cycles;
        self.sp_accesses += m.scratchpad.accesses();
        self.pisc_ops += m.scratchpad.pisc_ops;
        self.pim_ops += m.scratchpad.pim_ops;
        self.svb_hits += m.scratchpad.svb_hits;
        self.svb_lookups += m.scratchpad.svb_hits + m.scratchpad.svb_misses;
    }
}

/// Client-side serve measurements of the traced request round.
#[derive(Debug, Default)]
pub struct ServeLayer {
    pub hot_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub memo_hits: u64,
    pub memo_evictions: u64,
    pub store_hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub errors: u64,
}

/// Everything the traced run measures, layer by layer.
#[derive(Debug, Default)]
pub struct Layers {
    build_s: f64,
    arcs: u64,
    trace_s: f64,
    events: u64,
    drain_s: f64,
    lower_ops: u64,
    replay_s: f64,
    /// `(seconds, simulated ops)` per [`KINDS`] entry.
    per_kind: [(f64, u64); 10],
    counts: Counts,
    /// Wall of the pass's timed calls (audit replays excluded).
    pub pass_s: f64,
    pub prefetch_s: f64,
    pub groups: u64,
    pub cpu_util: f64,
    largest_group_s: f64,
    pub store_writes: u64,
    write_ms: Vec<f64>,
    load_ms: Vec<f64>,
    entry_kb: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    pub serve: ServeLayer,
    pub trace_overhead_s: f64,
}

/// The per-layer metrics in the order `BENCHMARK.json` lists them:
/// `(name, unit, exact)`. Exact metrics must repeat bit for bit across
/// runs with the same seed. A metric whose layer the workload does not
/// exercise reads 0 (for example `serve.*` on the batch workloads).
pub const PER_LAYER: [(&str, &str, bool); 59] = [
    ("graph.build_s", "s", false),
    ("graph.arcs", "count", true),
    ("ligra.trace_s", "s", false),
    ("ligra.events", "count", true),
    ("ligra.ns_per_event", "ns", false),
    ("lower.drain_s", "s", false),
    ("lower.ops", "count", true),
    ("lower.ns_per_op", "ns", false),
    ("replay.ns_per_op", "ns", false),
    ("replay.self_ns_per_op", "ns", false),
    ("replay.ns_per_op.baseline", "ns", false),
    ("replay.ns_per_op.omega", "ns", false),
    ("replay.ns_per_op.omega-nopisc", "ns", false),
    ("replay.ns_per_op.omega-nosvb", "ns", false),
    ("replay.ns_per_op.omega-chunkmis", "ns", false),
    ("replay.ns_per_op.omega-offchip", "ns", false),
    ("replay.ns_per_op.locked-cache", "ns", false),
    ("replay.ns_per_op.pim-rank", "ns", false),
    ("replay.ns_per_op.specialized-cache", "ns", false),
    ("replay.ns_per_op.omega-sp", "ns", false),
    ("engine.ops", "count", true),
    ("engine.sim_cycles", "cycles", true),
    ("engine.memory_stall_cycles", "cycles", true),
    ("engine.atomic_stall_cycles", "cycles", true),
    ("l1.accesses", "count", true),
    ("l1.hit_rate", "ratio", true),
    ("l2.accesses", "count", true),
    ("l2.hit_rate", "ratio", true),
    ("noc.packets", "count", true),
    ("noc.bytes", "bytes", true),
    ("dram.requests", "count", true),
    ("dram.row_hit_rate", "ratio", true),
    ("atomics.executed", "count", true),
    ("atomics.lock_wait_cycles", "cycles", true),
    ("scratchpad.accesses", "count", true),
    ("scratchpad.pisc_ops", "count", true),
    ("scratchpad.pim_ops", "count", true),
    ("svb.hit_rate", "ratio", true),
    ("session.prefetch_s", "s", false),
    ("session.groups", "count", true),
    ("session.cpu_util", "ratio", false),
    ("session.largest_group_s", "s", false),
    ("store.writes", "count", true),
    ("store.write_ms_p50", "ms", false),
    ("store.load_ms_p50", "ms", false),
    ("store.entry_kb", "KiB", true),
    ("codec.encode_us", "us", false),
    ("codec.decode_us", "us", false),
    ("serve.hot_p50_ms", "ms", false),
    ("serve.warm_p50_ms", "ms", false),
    ("serve.cold_p50_ms", "ms", false),
    ("serve.memo_hits", "count", true),
    ("serve.memo_evictions", "count", true),
    ("serve.store_hits", "count", true),
    ("serve.misses", "count", true),
    ("serve.coalesced", "count", true),
    ("serve.shed", "count", true),
    ("serve.errors", "count", true),
    ("trace_overhead", "s", false),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    /// Adds every [`PER_LAYER`] metric to `report`, in table order.
    pub fn emit(&self, report: &mut Report) {
        let c = &self.counts;
        let ns = |s: f64, n: u64| ratio(s * 1e9, n as f64);
        let p50 = |xs: &[f64]| host::median(xs);
        let s = &self.serve;
        let mut values: Vec<f64> = vec![
            self.build_s,
            self.arcs as f64,
            self.trace_s,
            self.events as f64,
            ns(self.trace_s, self.events),
            self.drain_s,
            self.lower_ops as f64,
            ns(self.drain_s, self.lower_ops),
            ns(self.replay_s, c.ops),
            ns(self.replay_s - self.drain_s, c.ops),
        ];
        values.extend(self.per_kind.iter().map(|&(secs, ops)| ns(secs, ops)));
        values.extend([
            c.ops as f64,
            c.cycles as f64,
            c.memory_stall as f64,
            c.atomic_stall as f64,
            c.l1_accesses as f64,
            ratio(c.l1_hits as f64, c.l1_accesses as f64),
            c.l2_accesses as f64,
            ratio(c.l2_hits as f64, c.l2_accesses as f64),
            c.noc_packets as f64,
            c.noc_bytes as f64,
            c.dram_requests as f64,
            ratio(c.dram_row_hits as f64, c.dram_open_page as f64),
            c.atomics as f64,
            c.lock_wait as f64,
            c.sp_accesses as f64,
            c.pisc_ops as f64,
            c.pim_ops as f64,
            ratio(c.svb_hits as f64, c.svb_lookups as f64),
            self.prefetch_s,
            self.groups as f64,
            self.cpu_util,
            self.largest_group_s,
            self.store_writes as f64,
            p50(&self.write_ms),
            p50(&self.load_ms),
            p50(&self.entry_kb),
            p50(&self.encode_us),
            p50(&self.decode_us),
            p50(&s.hot_ms),
            p50(&s.warm_ms),
            p50(&s.cold_ms),
            s.memo_hits as f64,
            s.memo_evictions as f64,
            s.store_hits as f64,
            s.misses as f64,
            s.coalesced as f64,
            s.shed as f64,
            s.errors as f64,
            self.trace_overhead_s,
        ]);
        assert_eq!(values.len(), PER_LAYER.len(), "one value per table row");
        for (&(name, unit, _), value) in PER_LAYER.iter().zip(values) {
            report.metric(name, unit, value);
        }
    }
}

/// Drains a lowering stream on its own, core by core, and returns the
/// number of operations it produced.
fn drain(stream: &mut LoweringStream<'_>) -> u64 {
    let mut ops = 0u64;
    for core in 0..stream.n_cores() {
        while let Some(op) = stream.next(core) {
            black_box(op);
            ops += 1;
        }
    }
    ops
}

type Parts = (EngineReport, MemStats, u32, Option<TelemetryReport>);

/// Runs the layer pass over `specs` at `scale`: builds each graph, traces
/// each `(dataset, algo)` group once, and for every machine drains the
/// lowering alone and then replays, each step timed on its own. Every
/// replay is re-run through `replay_audited` outside the timed calls and
/// must come back audit-clean and identical; every result must equal
/// `reference` (the untraced run's report for the same spec) in its
/// `EngineReport` and `MemStats`. With a `store`, each result is also
/// encoded, written, reloaded and decoded, timed per step.
pub fn pass(
    scale: DatasetScale,
    specs: &[ExperimentSpec],
    store: Option<&ExperimentStore>,
    reference: &HashMap<ExperimentSpec, RunReport>,
    layers: &mut Layers,
    report: &mut Report,
) {
    let mut graphs: HashMap<Dataset, CsrGraph> = HashMap::new();
    for spec in specs {
        if graphs.contains_key(&spec.dataset) {
            continue;
        }
        let t = Instant::now();
        let g = spec
            .dataset
            .build(scale)
            .expect("dataset registry parameters are valid");
        layers.build_s += t.elapsed().as_secs_f64();
        layers.arcs += g.num_arcs();
        graphs.insert(spec.dataset, g);
    }
    // The untraced round builds its graphs in set-up, so the pass's wall
    // starts after the builds too.
    let started = Instant::now();
    let mut untimed_s = 0.0;
    for group in trace_groups(specs.iter().copied()) {
        let g = &graphs[&group.dataset];
        let algo = group.algo.algo(g);
        let exec = ExecConfig {
            n_cores: group.machines[0].system().machine.core.n_cores,
            ..ExecConfig::default()
        };
        let t = Instant::now();
        let (checksum, raw, meta) = trace_algorithm(g, algo, &exec);
        let trace_s = t.elapsed().as_secs_f64();
        layers.trace_s += trace_s;
        layers.events += raw.events();
        let mut group_s = trace_s;
        let layout = Layout::new(&meta);
        let mut timed: Vec<(MachineKind, Parts)> = Vec::with_capacity(group.machines.len());
        for &m in &group.machines {
            let system = system_for(m);
            let target = if system.is_omega() {
                let hot_count = OmegaMemory::new(&system, layout.clone(), &meta).hot_count();
                Target::Omega { hot_count }
            } else {
                Target::Baseline
            };
            let t = Instant::now();
            let lower_ops = drain(&mut LoweringStream::new(&raw, &layout, target));
            let drain_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let parts = replay(&raw, &meta, &system);
            let replay_s = t.elapsed().as_secs_f64();
            let ops: u64 = parts.0.per_core.iter().map(|c| c.ops).sum();
            layers.drain_s += drain_s;
            layers.lower_ops += lower_ops;
            layers.replay_s += replay_s;
            let k = &mut layers.per_kind[kind_index(m)];
            k.0 += replay_s;
            k.1 += ops;
            group_s += replay_s;
            timed.push((m, parts));
        }
        layers.largest_group_s = layers.largest_group_s.max(group_s);

        // Audit replays: outside the timed calls, fanned out over the
        // host's CPUs since nothing here is being timed.
        let t = Instant::now();
        let audits = audit_all(&group.machines, &raw, &meta);
        untimed_s += t.elapsed().as_secs_f64();

        for ((m, parts), (audited, audit)) in timed.iter().zip(audits) {
            let spec = ExperimentSpec::new(group.dataset, group.algo, *m);
            let label = spec.label();
            report.check(audit.is_clean(), || {
                format!("{label}: audit reported {:?}", audit.violations())
            });
            report.check(audited.0 == parts.0 && audited.1 == parts.1, || {
                format!("{label}: audited replay differs from the timed replay")
            });
            let reference = reference.get(&spec);
            report.check(
                reference.is_some_and(|r| {
                    r.engine == parts.0
                        && r.mem == parts.1
                        && r.checksum.to_bits() == checksum.to_bits()
                }),
                || format!("{label}: traced replay differs from the untraced run's report"),
            );
            layers.counts.add(&parts.0, &parts.1);
            if let Some(store) = store {
                let system = system_for(*m);
                let r = RunReport {
                    algo: algo.name().to_string(),
                    machine: system.label().to_string(),
                    checksum,
                    total_cycles: parts.0.total_cycles,
                    engine: parts.0.clone(),
                    mem: parts.1,
                    hot_count: parts.2,
                    n_vertices: meta.n_vertices,
                    n_arcs: meta.n_arcs,
                    telemetry: parts.3.clone(),
                };
                store_round_trip(store, scale, spec, &r, layers, report);
            }
        }
    }
    layers.pass_s = started.elapsed().as_secs_f64() - untimed_s;
}

/// `replay_audited` for every machine of one group, spread over the
/// host's CPUs; results come back in machine order.
fn audit_all(
    machines: &[MachineKind],
    raw: &omega_ligra::trace::RawTrace,
    meta: &omega_ligra::trace::TraceMeta,
) -> Vec<(Parts, omega_sim::AuditReport)> {
    let threads = host::nproc().min(machines.len()).max(1);
    let chunk = machines.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = machines
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&m| replay_audited(raw, meta, &system_for(m)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("an audit replay panicked"))
            .collect()
    })
}

/// Times the store layer on one report: codec encode, entry write, entry
/// load, codec decode. Both the reload and the decode must reproduce `r`.
fn store_round_trip(
    store: &ExperimentStore,
    scale: DatasetScale,
    spec: ExperimentSpec,
    r: &RunReport,
    layers: &mut Layers,
    report: &mut Report,
) {
    let label = spec.label();
    let fp = spec.fingerprint(scale, TelemetryConfig::off());
    let t = Instant::now();
    let encoded = black_box(codec::report_to_json(r));
    layers.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
    let t = Instant::now();
    let written = store.store_report(fp, &label, r);
    layers.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
    report.check(written.is_ok(), || {
        format!("{label}: store write failed: {written:?}")
    });
    let t = Instant::now();
    let loaded = store.load_report(fp);
    layers.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    report.check(loaded.as_ref() == Some(r), || {
        format!("{label}: store reload differs from the replayed report")
    });
    let t = Instant::now();
    let decoded = codec::report_from_json(&encoded);
    layers.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
    report.check(decoded.as_ref().ok() == Some(r), || {
        format!("{label}: codec round trip differs from the replayed report")
    });
    if let Ok(meta) = std::fs::metadata(store.entry_path(fp)) {
        layers.entry_kb.push(meta.len() as f64 / 1024.0);
    }
}
