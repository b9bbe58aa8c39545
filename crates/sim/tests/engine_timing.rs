//! Engine timing-model tests: fractional issue costs, window behaviour,
//! and barrier/finish interplay, against a deterministic fixed-latency
//! memory.

use omega_sim::{
    engine, AccessKind, AccessOutcome, Blocking, CoreOp, MachineConfig, MemAccess, MemorySystem,
    Trace,
};

#[derive(Debug, Default)]
struct FixedMem {
    latency: u64,
}

impl MemorySystem for FixedMem {
    fn access(&mut self, _core: usize, access: MemAccess, now: u64) -> AccessOutcome {
        let blocking = match access.kind {
            AccessKind::Read | AccessKind::ReadStable => Blocking::Window,
            AccessKind::Write => Blocking::None,
            AccessKind::Atomic(_) => Blocking::Full,
        };
        AccessOutcome {
            completion: now + self.latency,
            blocking,
        }
    }
    fn stats(&self) -> omega_sim::stats::MemStats {
        omega_sim::stats::MemStats::default()
    }
}

fn cfg(issue_cost_x100: u32, window: usize) -> MachineConfig {
    let mut c = MachineConfig::mini_baseline();
    c.core.issue_cost_x100 = issue_cost_x100;
    c.core.max_outstanding = window;
    c
}

#[test]
fn eight_wide_issue_retires_four_accesses_per_cycle() {
    // issue_cost 25/100 cycles per op → 100 stores take 25 cycles.
    let mut mem = FixedMem { latency: 0 };
    let t: Trace = (0..100)
        .map(|i| CoreOp::Access(MemAccess::write(i * 64, 8)))
        .collect();
    let r = engine::run(vec![t], &mut mem, &cfg(25, 4));
    assert_eq!(r.total_cycles, 25);
}

#[test]
fn fractional_compute_accumulates_exactly() {
    let mut mem = FixedMem::default();
    // 150 x100-units per op × 8 ops = 12 cycles, no rounding drift.
    let t: Trace = (0..8).map(|_| CoreOp::ComputeX100(150)).collect();
    let r = engine::run(vec![t], &mut mem, &cfg(100, 4));
    assert_eq!(r.total_cycles, 12);
}

#[test]
fn window_retires_opportunistically() {
    // Latency 10, window 2, issue 1/cycle: loads overlap pairwise, so 6
    // loads finish far sooner than 6 × 10 serial.
    let mut mem = FixedMem { latency: 10 };
    let t: Trace = (0..6)
        .map(|i| CoreOp::Access(MemAccess::read(i * 64, 8)))
        .collect();
    let r = engine::run(vec![t], &mut mem, &cfg(100, 2)).total_cycles;
    assert!(r < 40, "got {r}");
    // Window of 1 forces near-serial execution.
    let mut mem = FixedMem { latency: 10 };
    let t: Trace = (0..6)
        .map(|i| CoreOp::Access(MemAccess::read(i * 64, 8)))
        .collect();
    let serial = engine::run(vec![t], &mut mem, &cfg(100, 1)).total_cycles;
    assert!(
        serial > r,
        "window=1 ({serial}) must be slower than window=2 ({r})"
    );
}

#[test]
fn trailing_barrier_then_empty_trace_terminates() {
    let mut mem = FixedMem::default();
    let t = vec![CoreOp::compute(5), CoreOp::Barrier];
    let r = engine::run(vec![t, vec![CoreOp::Barrier]], &mut mem, &cfg(100, 4));
    assert_eq!(r.total_cycles, 5);
}

#[test]
fn consecutive_barriers_do_not_deadlock() {
    let mut mem = FixedMem::default();
    let t1 = vec![CoreOp::Barrier, CoreOp::Barrier, CoreOp::compute(1)];
    let t2 = vec![CoreOp::Barrier, CoreOp::Barrier, CoreOp::compute(2)];
    let r = engine::run(vec![t1, t2], &mut mem, &cfg(100, 4));
    assert_eq!(r.total_cycles, 2);
}

#[test]
fn full_blocking_serialises_with_window_pending() {
    // A load in flight does not let a Full-blocking atomic start earlier.
    let mut mem = FixedMem { latency: 50 };
    let t = vec![
        CoreOp::Access(MemAccess::read(0, 8)),
        CoreOp::Access(MemAccess::atomic(64, 8, omega_sim::AtomicKind::FpAdd)),
    ];
    let r = engine::run(vec![t], &mut mem, &cfg(100, 4));
    // Atomic issues at ~2 and completes at ~52; the pending load (done at
    // 51) drains by then; trace end waits for the max.
    assert!(r.total_cycles >= 52, "got {}", r.total_cycles);
    assert!(r.per_core[0].atomic_stall_cycles >= 49);
}

#[test]
fn stall_attribution_partitions_time() {
    let mut mem = FixedMem { latency: 30 };
    let t: Trace = (0..20)
        .flat_map(|i| {
            [
                CoreOp::compute(2),
                CoreOp::Access(MemAccess::read(i * 64, 8)),
            ]
        })
        .collect();
    let r = engine::run(vec![t], &mut mem, &cfg(100, 2));
    let c = &r.per_core[0];
    assert_eq!(c.finish_time, r.total_cycles);
    assert_eq!(
        c.attributed_cycles(),
        c.finish_time,
        "every cycle must land in exactly one attribution bucket"
    );
    assert!(c.memory_stall_cycles + c.drain_cycles > 0);
}
