//! One-call experiment execution: functional run → trace → lowering →
//! timing replay → report.
//!
//! [`Runner`] is the entry point used by the figure harness, the examples,
//! and the integration tests. It executes an algorithm functionally under
//! the tracing framework, lowers the trace for the requested machine(s),
//! and replays it cycle-accurately, returning a [`RunReport`] per machine
//! with the functional checksum (identical across machines — the
//! architecture must not change results) and all timing/memory statistics.
//! The free functions [`run`] and [`run_pair`] remain as thin wrappers over
//! the builder.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::SystemConfig;
use crate::layout::Layout;
use crate::lower::{LoweringStream, Target};
use crate::machine::OmegaMemory;
use omega_graph::CsrGraph;
use omega_ligra::algorithms::Algo;
use omega_ligra::trace::{CollectingTracer, RawTrace, TraceMeta};
use omega_ligra::{Ctx, ExecConfig};
use omega_sim::audit::{self, AuditReport};
use omega_sim::fingerprint::{Canonicalize, Fnv64};
use omega_sim::hierarchy::CacheHierarchy;
use omega_sim::obs;
use omega_sim::stats::MemStats;
use omega_sim::telemetry::{TelemetryConfig, TelemetryReport};
use omega_sim::{engine, EngineReport, MemorySystem};

/// Everything needed to execute one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// The machine (baseline or OMEGA).
    pub system: SystemConfig,
    /// Framework execution parameters (cores, chunking, compute weights).
    pub exec: ExecConfigSer,
}

/// Serialisable mirror of [`ExecConfig`] (which lives in `omega-ligra` and
/// stays serde-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ExecConfigSer {
    pub n_cores: usize,
    pub chunk_size: usize,
    pub dense_threshold_div: u64,
    pub compute_per_edge_x100: u32,
    pub compute_per_vertex_x100: u32,
}

impl From<ExecConfig> for ExecConfigSer {
    fn from(e: ExecConfig) -> Self {
        ExecConfigSer {
            n_cores: e.n_cores,
            chunk_size: e.chunk_size,
            dense_threshold_div: e.dense_threshold_div,
            compute_per_edge_x100: e.compute_per_edge_x100,
            compute_per_vertex_x100: e.compute_per_vertex_x100,
        }
    }
}

impl From<ExecConfigSer> for ExecConfig {
    fn from(e: ExecConfigSer) -> Self {
        ExecConfig {
            n_cores: e.n_cores,
            chunk_size: e.chunk_size,
            dense_threshold_div: e.dense_threshold_div,
            compute_per_edge_x100: e.compute_per_edge_x100,
            compute_per_vertex_x100: e.compute_per_vertex_x100,
        }
    }
}

impl Canonicalize for ExecConfigSer {
    fn canonicalize(&self, h: &mut Fnv64) {
        h.write_usize(self.n_cores);
        h.write_usize(self.chunk_size);
        h.write_u64(self.dense_threshold_div);
        h.write_u32(self.compute_per_edge_x100);
        h.write_u32(self.compute_per_vertex_x100);
    }
}

impl RunConfig {
    /// A run configuration with framework defaults, matched to the
    /// machine's core count.
    pub fn new(system: SystemConfig) -> Self {
        let exec = ExecConfig {
            n_cores: system.machine.core.n_cores,
            ..ExecConfig::default()
        };
        RunConfig {
            system,
            exec: exec.into(),
        }
    }

    /// Overrides the framework's OpenMP-style chunk size (the §V.D chunk
    /// ablation changes only the scratchpad mapping side, this changes the
    /// scheduling side).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.exec.chunk_size = chunk;
        self
    }
}

/// Builder over the trace/replay pipeline: one functional trace, replayed
/// on one or more machines.
///
/// ```
/// use omega_core::config::SystemConfig;
/// use omega_core::runner::Runner;
/// use omega_graph::datasets::{Dataset, DatasetScale};
/// use omega_ligra::algorithms::Algo;
///
/// let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
/// let reports = Runner::new(SystemConfig::mini_baseline())
///     .also(SystemConfig::mini_omega())
///     .run_many(&g, Algo::PageRank { iters: 1 });
/// assert_eq!(reports[0].checksum, reports[1].checksum);
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    systems: Vec<SystemConfig>,
    exec: Option<ExecConfigSer>,
    chunk_size: Option<usize>,
    telemetry: Option<TelemetryConfig>,
    audit: bool,
}

impl Runner {
    /// A runner targeting one machine. Framework execution parameters
    /// default to [`ExecConfig::default`] with the core count taken from
    /// this (first) machine.
    pub fn new(system: SystemConfig) -> Self {
        Runner {
            systems: vec![system],
            exec: None,
            chunk_size: None,
            telemetry: None,
            audit: false,
        }
    }

    /// Adds another machine replaying the same functional trace. All
    /// machines must share the first machine's core count — the trace is
    /// per-core.
    pub fn also(mut self, system: SystemConfig) -> Self {
        self.systems.push(system);
        self
    }

    /// Overrides the framework execution parameters.
    pub fn exec(mut self, exec: impl Into<ExecConfigSer>) -> Self {
        self.exec = Some(exec.into());
        self
    }

    /// Overrides the framework's OpenMP-style chunk size (applied on top of
    /// whatever [`Runner::exec`] set).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = Some(chunk);
        self
    }

    /// Enables telemetry collection on every target machine, overriding
    /// each machine's own `machine.telemetry` setting.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Audit mode: every replay is followed by the model-conservation
    /// audit ([`omega_sim::audit`]), and [`Runner::run_many`] panics with
    /// the full violation report if any invariant fails. Use
    /// [`Runner::run_many_audited`] to collect the report instead of
    /// panicking.
    pub fn audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// The effective execution parameters this runner will trace with.
    pub fn resolved_exec(&self) -> ExecConfigSer {
        let mut exec = self.exec.unwrap_or_else(|| {
            ExecConfig {
                n_cores: self.systems[0].machine.core.n_cores,
                ..ExecConfig::default()
            }
            .into()
        });
        if let Some(chunk) = self.chunk_size {
            exec.chunk_size = chunk;
        }
        exec
    }

    /// The effective system configurations, with any [`Runner::telemetry`]
    /// override applied.
    pub fn resolved_systems(&self) -> Vec<SystemConfig> {
        self.systems
            .iter()
            .map(|sys| {
                let mut sys = *sys;
                if let Some(t) = self.telemetry {
                    sys.machine.telemetry = t;
                }
                sys
            })
            .collect()
    }

    /// Traces `algo` on `g` once and replays it on every target machine,
    /// returning one report per [`Runner::new`]/[`Runner::also`] machine in
    /// order.
    ///
    /// # Panics
    ///
    /// In [`Runner::audit`] mode, panics if any replay violates a model
    /// conservation invariant.
    pub fn run_many(&self, g: &CsrGraph, algo: Algo) -> Vec<RunReport> {
        if self.audit {
            return self
                .run_many_audited(g, algo)
                .into_iter()
                .map(|(report, audit)| {
                    assert!(
                        audit.is_clean(),
                        "model audit failed for {} on {}:\n{audit}",
                        report.algo,
                        report.machine
                    );
                    report
                })
                .collect();
        }
        let exec: ExecConfig = self.resolved_exec().into();
        let (checksum, raw, meta) = trace_algorithm(g, algo, &exec);
        self.resolved_systems()
            .iter()
            .map(|sys| replay_report(algo.name(), checksum, &raw, &meta, sys))
            .collect()
    }

    /// Like [`Runner::run_many`], but runs the model-conservation audit
    /// after each replay and returns the audit report alongside each run
    /// report instead of panicking — the `audit` binary's collection path.
    pub fn run_many_audited(&self, g: &CsrGraph, algo: Algo) -> Vec<(RunReport, AuditReport)> {
        let exec: ExecConfig = self.resolved_exec().into();
        let (checksum, raw, meta) = trace_algorithm(g, algo, &exec);
        self.resolved_systems()
            .iter()
            .map(|sys| {
                let (parts, audit) = replay_audited(&raw, &meta, sys);
                (
                    report_from_parts(algo.name(), checksum, &meta, sys, parts),
                    audit,
                )
            })
            .collect()
    }

    /// Runs end to end on the first (usually only) target machine.
    pub fn run(&self, g: &CsrGraph, algo: Algo) -> RunReport {
        self.run_many(g, algo)
            .into_iter()
            .next()
            .expect("a runner always has at least one machine")
    }
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Algorithm name.
    pub algo: String,
    /// Machine label ("baseline" / "omega").
    pub machine: String,
    /// Deterministic functional result summary (machine-independent).
    pub checksum: f64,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Engine-side cycle attribution.
    pub engine: EngineReport,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Number of scratchpad-resident vertices (0 on the baseline).
    pub hot_count: u32,
    /// Vertices in the graph.
    pub n_vertices: u64,
    /// Stored arcs in the graph.
    pub n_arcs: u64,
    /// Telemetry collected during the replay; `None` unless the machine
    /// config enabled it (`system.machine.telemetry`).
    pub telemetry: Option<TelemetryReport>,
}

impl RunReport {
    /// Speedup of this run relative to `other` (`other` is the baseline).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        other.total_cycles as f64 / self.total_cycles as f64
    }

    /// DRAM bandwidth utilisation over the run (Fig. 16 metric).
    pub fn dram_utilization(&self, system: &SystemConfig) -> f64 {
        self.mem
            .dram
            .utilization(self.total_cycles, system.machine.dram.channels)
    }
}

/// Number of functional (tracing) runs executed by this process — a probe
/// for tests asserting that harnesses share traces instead of re-running
/// the functional phase per machine configuration.
static FUNCTIONAL_TRACES: AtomicU64 = AtomicU64::new(0);

/// How many functional traces this process has collected so far.
pub fn functional_trace_count() -> u64 {
    FUNCTIONAL_TRACES.load(Ordering::Relaxed)
}

/// Number of timing replays executed by this process — the counterpart of
/// [`functional_trace_count`] used by the warm-store CI check to prove a
/// cached sweep simulates nothing at all.
static TIMING_REPLAYS: AtomicU64 = AtomicU64::new(0);

/// How many timing replays this process has executed so far.
pub fn timing_replay_count() -> u64 {
    TIMING_REPLAYS.load(Ordering::Relaxed)
}

/// Runs `algo` on `g` functionally, collecting the trace (shared step of
/// every experiment). Returns `(checksum, raw trace, meta)`.
pub fn trace_algorithm(g: &CsrGraph, algo: Algo, exec: &ExecConfig) -> (f64, RawTrace, TraceMeta) {
    let _span = obs::span("runner.trace");
    FUNCTIONAL_TRACES.fetch_add(1, Ordering::Relaxed);
    let mut tracer = CollectingTracer::new(exec.n_cores);
    let mut ctx = Ctx::new(*exec, &mut tracer);
    let output = algo.run(g, &mut ctx);
    let meta = ctx.meta_for(g.num_vertices() as u64, g.num_arcs(), g.is_weighted());
    (output.checksum(), tracer.finish(), meta)
}

/// Replays an already-collected trace on a machine. Used directly by the
/// harness to reuse one functional run across many machine configurations.
///
/// The trace is lowered lazily through a [`LoweringStream`] as the engine
/// pulls operations — no materialised `Vec<Trace>` is ever allocated.
pub fn replay(
    raw: &RawTrace,
    meta: &TraceMeta,
    system: &SystemConfig,
) -> (EngineReport, MemStats, u32, Option<TelemetryReport>) {
    replay_impl(raw, meta, system, None)
}

/// Like [`replay`], but runs the model-conservation audit alongside: each
/// machine's internal ledgers are checked after the replay (before telemetry
/// is consumed), then the engine report and telemetry are cross-checked
/// against the memory stats. Violations are collected, not panicked on.
pub fn replay_audited(
    raw: &RawTrace,
    meta: &TraceMeta,
    system: &SystemConfig,
) -> (
    (EngineReport, MemStats, u32, Option<TelemetryReport>),
    AuditReport,
) {
    let mut report = AuditReport::new();
    let parts = replay_impl(raw, meta, system, Some(&mut report));
    audit::check_engine(&parts.0, &mut report);
    if let Some(telemetry) = &parts.3 {
        audit::check_telemetry(&parts.1, telemetry, &mut report);
    }
    (parts, report)
}

fn replay_impl(
    raw: &RawTrace,
    meta: &TraceMeta,
    system: &SystemConfig,
    mut audit: Option<&mut AuditReport>,
) -> (EngineReport, MemStats, u32, Option<TelemetryReport>) {
    let _span = obs::span("runner.replay");
    // In trace mode, scope a simulated session so the memory models built
    // below capture their cycle-domain intervals under this machine's
    // label. Inert (one branch) otherwise.
    let _sim = obs::sim_session(system.label());
    TIMING_REPLAYS.fetch_add(1, Ordering::Relaxed);
    let layout = Layout::new(meta);
    let run = |target: Target, mem: &mut dyn MemorySystem| -> EngineReport {
        let mut stream = LoweringStream::new(raw, &layout, target);
        engine::run_source(&mut stream, mem, &system.machine)
    };
    if system.is_omega() {
        let mut mem = OmegaMemory::new(system, layout.clone(), meta);
        let hot = mem.hot_count();
        let report = run(Target::Omega { hot_count: hot }, &mut mem);
        if let Some(out) = audit.as_deref_mut() {
            mem.audit_into(out);
        }
        let stats = mem.stats();
        let telemetry = mem.take_telemetry();
        (report, stats, hot, telemetry)
    } else if system.pim_rank.is_some() {
        let mut mem = crate::pim::PimRankMemory::new(system, layout.clone(), meta);
        let report = run(Target::Baseline, &mut mem);
        if let Some(out) = audit.as_deref_mut() {
            mem.audit_into(out);
        }
        let stats = mem.stats();
        let telemetry = mem.take_telemetry();
        (report, stats, 0, telemetry)
    } else if let Some(sc) = &system.specialized_cache {
        let (mut mem, _protected) =
            crate::grasp::specialized_cache_memory(&system.machine, &layout, meta, sc);
        let report = run(Target::Baseline, &mut mem);
        if let Some(out) = audit.as_deref_mut() {
            MemorySystem::audit_into(&mem, out);
        }
        let stats = mem.stats();
        let telemetry = mem.take_telemetry();
        (report, stats, 0, telemetry)
    } else if let Some(budget) = system.locked_cache_bytes {
        let (mut mem, _pinned) =
            crate::locked::locked_cache_memory(&system.machine, &layout, meta, budget);
        let report = run(Target::Baseline, &mut mem);
        if let Some(out) = audit.as_deref_mut() {
            MemorySystem::audit_into(&mem, out);
        }
        let stats = mem.stats();
        let telemetry = mem.take_telemetry();
        (report, stats, 0, telemetry)
    } else {
        let mut mem = CacheHierarchy::new(&system.machine);
        let report = run(Target::Baseline, &mut mem);
        if let Some(out) = audit {
            MemorySystem::audit_into(&mem, out);
        }
        let stats = mem.stats();
        let telemetry = mem.take_telemetry();
        (report, stats, 0, telemetry)
    }
}

/// Builds a full [`RunReport`] by replaying an already-collected functional
/// trace on `system` — the shared-trace path behind [`run`], [`run_pair`],
/// and the benchmark session's grouped prefetch.
pub fn replay_report(
    algo_name: &str,
    checksum: f64,
    raw: &RawTrace,
    meta: &TraceMeta,
    system: &SystemConfig,
) -> RunReport {
    let parts = replay(raw, meta, system);
    report_from_parts(algo_name, checksum, meta, system, parts)
}

fn report_from_parts(
    algo_name: &str,
    checksum: f64,
    meta: &TraceMeta,
    system: &SystemConfig,
    (engine_report, mem, hot, telemetry): (EngineReport, MemStats, u32, Option<TelemetryReport>),
) -> RunReport {
    RunReport {
        algo: algo_name.to_string(),
        machine: system.label().to_string(),
        checksum,
        total_cycles: engine_report.total_cycles,
        engine: engine_report,
        mem,
        hot_count: hot,
        n_vertices: meta.n_vertices,
        n_arcs: meta.n_arcs,
        telemetry,
    }
}

/// Runs `algo` on `g` under `cfg` end to end.
///
/// Thin wrapper kept for call-site compatibility; prefer
/// `Runner::new(cfg.system).exec(cfg.exec).run(g, algo)`.
pub fn run(g: &CsrGraph, algo: Algo, cfg: &RunConfig) -> RunReport {
    Runner::new(cfg.system).exec(cfg.exec).run(g, algo)
}

/// Convenience: runs `algo` on both the baseline and the OMEGA machine
/// (sharing one functional trace) and returns `(baseline, omega)`.
///
/// Thin wrapper kept for call-site compatibility; prefer
/// `Runner::new(*baseline).also(*omega).run_many(g, algo)`.
pub fn run_pair(
    g: &CsrGraph,
    algo: Algo,
    baseline: &SystemConfig,
    omega: &SystemConfig,
) -> (RunReport, RunReport) {
    let mut reports = Runner::new(*baseline).also(*omega).run_many(g, algo);
    let o = reports.pop().expect("two machines yield two reports");
    let b = reports.pop().expect("two machines yield two reports");
    (b, o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::datasets::{Dataset, DatasetScale};
    use omega_ligra::algorithms::Algo;

    #[test]
    fn baseline_and_omega_compute_identical_results() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let (base, omega) = run_pair(
            &g,
            algo,
            &SystemConfig::mini_baseline(),
            &SystemConfig::mini_omega(),
        );
        assert_eq!(base.checksum, omega.checksum);
        assert!(base.total_cycles > 0);
        assert!(omega.total_cycles > 0);
    }

    #[test]
    fn omega_speeds_up_pagerank_on_a_natural_graph() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let (base, omega) = run_pair(
            &g,
            algo,
            &SystemConfig::mini_baseline(),
            &SystemConfig::mini_omega(),
        );
        let speedup = omega.speedup_over(&base);
        assert!(speedup > 1.2, "expected a clear win, got {speedup:.2}x");
    }

    #[test]
    fn omega_uses_scratchpads_baseline_does_not() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::Bfs { root: 0 }.with_default_root(&g);
        let (base, omega) = run_pair(
            &g,
            algo,
            &SystemConfig::mini_baseline(),
            &SystemConfig::mini_omega(),
        );
        assert_eq!(base.mem.scratchpad.accesses(), 0);
        assert!(omega.mem.scratchpad.accesses() > 0);
        assert_eq!(base.hot_count, 0);
        assert!(omega.hot_count > 0);
    }

    #[test]
    fn reports_are_deterministic() {
        let g = Dataset::Ap.build(DatasetScale::Tiny).unwrap();
        let cfg = RunConfig::new(SystemConfig::mini_omega());
        let a = run(&g, Algo::Cc, &cfg);
        let b = run(&g, Algo::Cc, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn builder_matches_the_free_functions() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let cfg = RunConfig::new(SystemConfig::mini_omega());
        assert_eq!(
            Runner::new(cfg.system).exec(cfg.exec).run(&g, algo),
            run(&g, algo, &cfg)
        );
        let (b, o) = run_pair(
            &g,
            algo,
            &SystemConfig::mini_baseline(),
            &SystemConfig::mini_omega(),
        );
        let many = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&g, algo);
        assert_eq!(many, vec![b, o]);
    }

    #[test]
    fn builder_applies_telemetry_and_chunk_overrides() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let runner = Runner::new(SystemConfig::mini_baseline())
            .chunk_size(8)
            .telemetry(omega_sim::telemetry::TelemetryConfig::windowed(4096));
        assert_eq!(runner.resolved_exec().chunk_size, 8);
        assert!(runner.resolved_systems()[0].machine.telemetry.enabled);
        let r = runner.run(&g, Algo::PageRank { iters: 1 });
        assert!(r.telemetry.is_some());
    }

    #[test]
    fn run_many_shares_one_trace_and_counts_replays() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let traces0 = functional_trace_count();
        let replays0 = timing_replay_count();
        let reports = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .also(SystemConfig::mini_locked_cache())
            .also(SystemConfig::mini_pim_rank())
            .also(SystemConfig::mini_specialized_cache())
            .run_many(&g, Algo::Bfs { root: 0 }.with_default_root(&g));
        assert_eq!(reports.len(), 5);
        // Same functional result on every machine.
        for r in &reports[1..] {
            assert_eq!(r.checksum, reports[0].checksum);
        }
        // Counters are process-global; other parallel tests can only add.
        assert!(functional_trace_count() > traces0);
        assert!(timing_replay_count() >= replays0 + 5);
    }

    #[test]
    fn audited_runs_are_clean_and_match_unaudited_reports() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let runner = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .also(SystemConfig::mini_locked_cache())
            .also(SystemConfig::mini_pim_rank())
            .also(SystemConfig::mini_specialized_cache())
            .telemetry(omega_sim::telemetry::TelemetryConfig::windowed(4096));
        let audited = runner.clone().audit(true).run_many(&g, algo);
        let plain = runner.run_many(&g, algo);
        assert_eq!(audited, plain, "auditing must not perturb the model");
        for (report, audit) in Runner::new(SystemConfig::mini_omega()).run_many_audited(&g, algo) {
            assert!(audit.checks_run() > 0);
            assert!(
                audit.is_clean(),
                "{} on {}:\n{audit}",
                report.algo,
                report.machine
            );
        }
    }

    #[test]
    fn omega_reduces_onchip_traffic_for_pagerank() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let (base, omega) = run_pair(
            &g,
            Algo::PageRank { iters: 1 },
            &SystemConfig::mini_baseline(),
            &SystemConfig::mini_omega(),
        );
        assert!(
            omega.mem.noc.bytes < base.mem.noc.bytes,
            "word-granularity packets must cut traffic: {} vs {}",
            omega.mem.noc.bytes,
            base.mem.noc.bytes
        );
    }
}
