//! Randomized property tests over the timing simulator itself: random
//! operation streams must never violate the structural invariants of the
//! machine models (conservation of accesses, causality, stat consistency).
//!
//! Cases are drawn from the repo's deterministic [`SmallRng`] (the
//! hermetic build has no proptest); the failing case index is in the
//! panic message.

use omega_repro::core::config::SystemConfig;
use omega_repro::core::layout::Layout;
use omega_repro::core::machine::OmegaMemory;
use omega_repro::graph::rng::SmallRng;
use omega_repro::ligra::trace::{PropSpec, TraceMeta};
use omega_repro::sim::hierarchy::CacheHierarchy;
use omega_repro::sim::{engine, AccessKind, AtomicKind, CoreOp, MemAccess, MemorySystem, Trace};

const N_VERTICES: u64 = 4096;
const CASES: u64 = 64;

fn meta() -> TraceMeta {
    TraceMeta {
        props: vec![PropSpec {
            entry_bytes: 8,
            len: N_VERTICES,
            monitored: true,
        }],
        n_vertices: N_VERTICES,
        n_arcs: 10 * N_VERTICES,
        weighted: false,
    }
}

/// A random memory access over a constrained address space.
fn arb_access(rng: &mut SmallRng, layout: &Layout) -> MemAccess {
    let v = rng.gen_range(0u32..N_VERTICES as u32);
    let addr = layout.prop_addr(0, v);
    match rng.gen_range(0u32..4) {
        0 => MemAccess::read(addr, 8),
        1 => MemAccess {
            addr,
            size: 8,
            kind: AccessKind::ReadStable,
        },
        2 => MemAccess::write(addr, 8),
        _ => MemAccess::atomic(addr, 8, AtomicKind::FpAdd),
    }
}

/// A random core operation.
fn arb_op(rng: &mut SmallRng, layout: &Layout) -> CoreOp {
    match rng.gen_range(0u32..3) {
        0 => CoreOp::ComputeX100(rng.gen_range(1u32..400)),
        1 => CoreOp::Access(arb_access(rng, layout)),
        _ => CoreOp::Barrier,
    }
}

/// Between 1 and 7 core streams of up to 120 random ops each.
fn arb_traces(rng: &mut SmallRng) -> Vec<Trace> {
    let layout = Layout::new(&meta());
    let n_cores = rng.gen_range(1usize..8);
    (0..n_cores)
        .map(|_| {
            let len = rng.gen_range(0usize..120);
            (0..len).map(|_| arb_op(rng, &layout)).collect()
        })
        .collect()
}

fn for_each_traces(seed: u64, mut check: impl FnMut(&[Trace])) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..CASES {
        let traces = arb_traces(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(&traces);
        }));
        if let Err(e) = result {
            panic!("case {case} ({} cores) failed: {e:?}", traces.len());
        }
    }
}

fn count_accesses(traces: &[Trace]) -> (u64, u64) {
    let mut accesses = 0;
    let mut atomics = 0;
    for t in traces {
        for op in t {
            if let CoreOp::Access(a) = op {
                accesses += 1;
                if matches!(a.kind, AccessKind::Atomic(_)) {
                    atomics += 1;
                }
            }
        }
    }
    (accesses, atomics)
}

/// The baseline hierarchy conserves accesses: every issued memory op is
/// either an L1 hit or an L1 miss, and every atomic is counted.
#[test]
fn baseline_conserves_accesses() {
    for_each_traces(0x51AB_0001, |traces| {
        let cfg = SystemConfig::mini_baseline();
        let mut mem = CacheHierarchy::new(&cfg.machine);
        let report = engine::run(traces.to_vec(), &mut mem, &cfg.machine);
        let stats = mem.stats();
        let (accesses, atomics) = count_accesses(traces);
        assert_eq!(stats.l1.accesses(), accesses);
        assert_eq!(stats.atomics.executed, atomics);
        // Causality: somebody finished no earlier than their op count allows.
        let total_ops: u64 = traces.iter().map(|t| t.len() as u64).sum();
        assert!(
            report.total_cycles <= total_ops * 100_000,
            "absurd cycle count"
        );
    });
}

/// The OMEGA machine conserves accesses across its three paths
/// (scratchpad, PISC, cold/cache fallback).
#[test]
fn omega_routes_every_access_somewhere() {
    for_each_traces(0x51AB_0002, |traces| {
        let cfg = SystemConfig::mini_omega();
        let m = meta();
        let layout = Layout::new(&m);
        let mut mem = OmegaMemory::new(&cfg, layout, &m);
        engine::run(traces.to_vec(), &mut mem, &cfg.machine);
        let stats = mem.stats();
        let (accesses, _) = count_accesses(traces);
        // svb hits don't reach the scratchpads; everything else lands in
        // exactly one of: local SP, remote SP, cold-path cache access.
        let routed = stats.scratchpad.local_accesses
            + stats.scratchpad.remote_accesses
            + stats.scratchpad.svb_hits
            + stats.l1.accesses();
        assert_eq!(routed, accesses, "stats: {:?}", stats.scratchpad);
    });
}

/// Simulated time is monotone in workload: appending operations never
/// reduces total cycles.
#[test]
fn more_work_never_finishes_earlier() {
    let layout = Layout::new(&meta());
    let mut rng = SmallRng::seed_from_u64(0x51AB_0003);
    for _ in 0..CASES {
        let cfg = SystemConfig::mini_baseline();
        let len = rng.gen_range(1usize..80);
        let trace_without_barriers: Trace = (0..len)
            .map(|_| arb_op(&mut rng, &layout))
            .filter(|o| !matches!(o, CoreOp::Barrier))
            .collect();
        let half = trace_without_barriers.len() / 2;
        let mut mem1 = CacheHierarchy::new(&cfg.machine);
        let short = engine::run(
            vec![trace_without_barriers[..half].to_vec()],
            &mut mem1,
            &cfg.machine,
        );
        let mut mem2 = CacheHierarchy::new(&cfg.machine);
        let long = engine::run(vec![trace_without_barriers], &mut mem2, &cfg.machine);
        assert!(long.total_cycles >= short.total_cycles);
    }
}

/// Barriers synchronise: after replay, every core's report exists and
/// barrier waiting never exceeds total time.
#[test]
fn barrier_accounting_is_bounded() {
    for_each_traces(0x51AB_0004, |traces| {
        let cfg = SystemConfig::mini_baseline();
        let mut mem = CacheHierarchy::new(&cfg.machine);
        let report = engine::run(traces.to_vec(), &mut mem, &cfg.machine);
        assert_eq!(report.per_core.len(), traces.len());
        for core in &report.per_core {
            assert!(core.finish_time <= report.total_cycles);
            assert!(core.barrier_cycles <= core.finish_time);
            assert!(core.compute_cycles <= core.finish_time);
            assert_eq!(
                core.attributed_cycles(),
                core.finish_time,
                "stall buckets must partition wall time exactly"
            );
        }
    });
}

/// DRAM byte accounting equals 64 bytes per line request on the
/// baseline (no word-granularity path exists there).
#[test]
fn baseline_dram_moves_whole_lines() {
    for_each_traces(0x51AB_0005, |traces| {
        let cfg = SystemConfig::mini_baseline();
        let mut mem = CacheHierarchy::new(&cfg.machine);
        engine::run(traces.to_vec(), &mut mem, &cfg.machine);
        let d = mem.stats().dram;
        assert_eq!(d.bytes, 64 * (d.reads + d.writes));
    });
}
