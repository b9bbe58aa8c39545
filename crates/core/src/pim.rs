//! `PimRankMemory`: the processing-in-memory rival machine (ALPHA-PIM /
//! PIUMA-style, see PAPERS.md).
//!
//! Where OMEGA pulls hot vertex state *on-chip* into scratchpads, the PIM
//! machine pushes the compute *off-chip*: every atomic reduce/apply on a
//! monitored vtxProp entry — hot or cold, there is no residency concept —
//! is offloaded to a compute engine at the DRAM rank that owns the
//! address. The core sends a fire-and-forget command packet and continues;
//! the rank engine performs the read-modify-write inside the rank
//! (close-page, word granularity), serialising operations per rank, which
//! trades NoC round trips for bank-level parallelism.
//!
//! The substrate is the unmodified baseline CMP (full-size L2, no
//! scratchpad, no PISC): plain reads/writes and unmonitored traffic are
//! untouched. All rank-engine and DRAM state is **globally-ordered
//! contention state** — it is only touched from the serial timing loop.

use crate::config::PimRankConfig;
use crate::layout::Layout;
use crate::pisc::PiscEngine;
use omega_ligra::trace::TraceMeta;
use omega_sim::audit::{self, AuditReport};
use omega_sim::dram::RowMode;
use omega_sim::hierarchy::CacheHierarchy;
use omega_sim::stats::{AtomicStats, MemStats, ScratchpadStats};
use omega_sim::telemetry::{TelemetryReport, WindowSampler};
use omega_sim::{
    AccessKind, AccessOutcome, Blocking, Cycle, MachineConfig, MemAccess, MemorySystem, LINE_BYTES,
};

/// The PIM-rank memory system. See the module docs for the request flow.
#[derive(Debug)]
pub struct PimRankMemory {
    inner: CacheHierarchy,
    cfg: PimRankConfig,
    layout: Layout,
    /// Which property arrays are monitored (the same address-monitoring
    /// registers OMEGA's controller uses, §V.A).
    monitored: Vec<bool>,
    /// Per-rank compute ledgers, indexed `channel * ranks_per_channel +
    /// rank`. Ops and busy cycles per engine feed the audit.
    ranks: Vec<PiscEngine>,
    atomics_executed: u64,
    atomic_lock_wait: u64,
    pim_ops: u64,
    /// Window sampler taken over from the inner hierarchy so windows see
    /// the combined (rank-op) counters. `None` when telemetry is off.
    sampler: Option<WindowSampler>,
}

impl PimRankMemory {
    /// Builds the PIM-rank machine over the CMP substrate `machine` for
    /// one traced run.
    pub fn new(
        machine: &MachineConfig,
        cfg: PimRankConfig,
        layout: Layout,
        meta: &TraceMeta,
    ) -> Self {
        let channels = machine.dram.channels;
        let mut inner = CacheHierarchy::new(machine);
        let sampler = inner.take_sampler();
        PimRankMemory {
            inner,
            cfg,
            layout,
            monitored: meta.props.iter().map(|p| p.monitored).collect(),
            // The rank engine's "scratchpad" is the in-rank row buffer; its
            // service time is dominated by the in-memory RMW, same as the
            // §IX.2 channel-PIM extension.
            ranks: (0..channels * cfg.ranks_per_channel)
                .map(|_| PiscEngine::new(cfg.rank_latency))
                .collect(),
            atomics_executed: 0,
            atomic_lock_wait: 0,
            pim_ops: 0,
            sampler,
        }
    }

    /// The engine index owning `addr`: its DRAM channel, then the rank the
    /// line maps to within the channel (line-interleaved across ranks, the
    /// same modulo scheme the channels use).
    fn rank_of(&self, addr: u64) -> usize {
        let channels = self.inner.config().dram.channels;
        let ch = self.inner.config().dram_channel_of(addr);
        let rank =
            ((addr / LINE_BYTES / channels as u64) % self.cfg.ranks_per_channel as u64) as usize;
        ch * self.cfg.ranks_per_channel + rank
    }

    /// Total operations executed across all rank engines (the ledger side
    /// of the `pim_ops` audit).
    pub fn rank_ops(&self) -> u64 {
        self.ranks.iter().map(|r| r.ops()).sum()
    }

    /// Ticks the window sampler if `now` crossed a boundary.
    fn sample_if_due(&mut self, now: Cycle) {
        if self.sampler.as_ref().is_some_and(|s| s.due(now)) {
            let cumulative = self.stats();
            if let Some(s) = self.sampler.as_mut() {
                s.tick(now, &cumulative);
            }
        }
    }

    /// Whether `addr` falls inside a monitored vtxProp region.
    fn is_monitored(&self, addr: u64) -> bool {
        self.layout
            .prop_of_addr(addr)
            .is_some_and(|(prop, _)| self.monitored[prop as usize])
    }
}

impl MemorySystem for PimRankMemory {
    fn access(&mut self, core: usize, access: MemAccess, now: Cycle) -> AccessOutcome {
        self.sample_if_due(now);
        let AccessKind::Atomic(kind) = access.kind else {
            return self.inner.access(core, access, now);
        };
        if !self.is_monitored(access.addr) {
            return self.inner.access(core, access, now);
        }
        self.atomics_executed += 1;
        self.pim_ops += 1;
        // Offload packet to the owning rank; the engine performs the
        // word-granularity RMW in memory (close-page — the rank-local
        // access never populates a row buffer the channel queue could
        // observe, so it contributes no row outcome).
        let engine = self.rank_of(access.addr);
        let arrival = now + self.inner.config().noc.latency as u64 + 1;
        let rmw_start = self.ranks[engine].execute(kind, arrival);
        let done = self.inner.dram_mut().access(
            access.addr,
            access.size as u32,
            true,
            RowMode::ClosePage,
            rmw_start,
        );
        // Fire-and-forget with a bounded backlog, exactly as PISC offload:
        // the core is held only for the memory-mapped command stores
        // unless the rank's queue is saturated.
        let issue_done = now + 4;
        let backlog_free = done.saturating_sub(self.cfg.rank_backlog_cycles);
        self.inner
            .record_lock_wait(backlog_free.saturating_sub(issue_done));
        if backlog_free > issue_done {
            self.atomic_lock_wait += backlog_free - issue_done;
            AccessOutcome {
                completion: backlog_free,
                blocking: Blocking::Full,
            }
        } else {
            AccessOutcome {
                completion: issue_done,
                blocking: Blocking::Full,
            }
        }
    }

    fn barrier(&mut self, now: Cycle) {
        self.inner.barrier(now);
    }

    fn finish(&mut self, now: Cycle) {
        if self.sampler.is_some() {
            let cumulative = self.stats();
            if let Some(s) = self.sampler.as_mut() {
                s.flush(now, &cumulative);
            }
        }
        self.inner.finish(now);
    }

    fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let mut report = self.inner.take_telemetry()?;
        if let Some(s) = self.sampler.take() {
            report.windows = s.into_samples();
        }
        Some(report)
    }

    /// Merged statistics: the hierarchy's counters plus the rank-offload
    /// activity (reported through the `pim_ops` channel the §IX.2
    /// extension established).
    fn stats(&self) -> MemStats {
        let mut s = self.inner.stats();
        s.scratchpad.merge(&ScratchpadStats {
            pim_ops: self.pim_ops,
            ..ScratchpadStats::default()
        });
        s.atomics.merge(&AtomicStats {
            executed: self.atomics_executed,
            lock_wait_cycles: self.atomic_lock_wait,
        });
        s
    }

    fn audit_into(&self, out: &mut AuditReport) {
        self.inner.audit_components(out);
        audit::check_mem_stats(&self.stats(), out);
        // Per-rank compute ledger: every offloaded op must be owned by
        // exactly one rank engine.
        let ledger = self.rank_ops();
        out.check(
            "pim-rank",
            "rank ledgers sum to the offloaded op count",
            ledger == self.pim_ops,
            || format!("rank ledger {} vs pim_ops {}", ledger, self.pim_ops),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ligra::trace::PropSpec;
    use omega_sim::AtomicKind;

    fn meta(n: u64) -> TraceMeta {
        TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: n,
                monitored: true,
            }],
            n_vertices: n,
            n_arcs: 10 * n,
            weighted: false,
        }
    }

    fn machine(n: u64) -> PimRankMemory {
        let m = meta(n);
        let layout = Layout::new(&m);
        PimRankMemory::new(
            &MachineConfig::mini_baseline(),
            PimRankConfig::default(),
            layout,
            &m,
        )
    }

    #[test]
    fn monitored_atomics_offload_to_ranks() {
        let mut m = machine(10_000);
        let a = m.layout.prop_addr(0, 7);
        let out = m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 100);
        // Fire-and-forget: the core is held only for the command stores.
        assert_eq!(out.completion, 104);
        assert_eq!(out.blocking, Blocking::Full);
        let s = m.stats();
        assert_eq!(s.scratchpad.pim_ops, 1);
        assert_eq!(s.atomics.executed, 1);
        assert_eq!(s.dram.writes, 1, "the rank RMW issues one DRAM write");
        assert_eq!(s.dram.bytes, 8, "word, not line");
        assert_eq!(s.l1.misses, 0, "the offload bypasses the caches");
        assert_eq!(m.rank_ops(), 1);
    }

    #[test]
    fn plain_traffic_uses_the_unmodified_hierarchy() {
        let mut m = machine(10_000);
        let a = m.layout.prop_addr(0, 7);
        m.access(0, MemAccess::read(a, 8), 0);
        m.access(0, MemAccess::read(0x9000_0000, 8), 100);
        let s = m.stats();
        assert_eq!(s.scratchpad.pim_ops, 0);
        assert_eq!(s.l1.misses, 2);
    }

    #[test]
    fn unmonitored_atomics_execute_in_the_hierarchy() {
        let mt = TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: 1000,
                monitored: false,
            }],
            n_vertices: 1000,
            n_arcs: 0,
            weighted: false,
        };
        let layout = Layout::new(&mt);
        let a = layout.prop_addr(0, 3);
        let mut m = PimRankMemory::new(
            &MachineConfig::mini_baseline(),
            PimRankConfig::default(),
            layout,
            &mt,
        );
        m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
        let s = m.stats();
        assert_eq!(s.scratchpad.pim_ops, 0);
        assert!(s.atomics.executed > 0, "the hierarchy executed the atomic");
    }

    #[test]
    fn rank_engines_spread_by_address() {
        let mut m = machine(100_000);
        for v in 0..64u32 {
            let a = m.layout.prop_addr(0, v * 8); // stride across lines
            m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
        }
        let busy_ranks = m.ranks.iter().filter(|r| r.ops() > 0).count();
        assert!(
            busy_ranks > 1,
            "line-interleaving must engage more than one rank"
        );
        assert_eq!(m.rank_ops(), 64);
    }

    #[test]
    fn saturated_rank_backpressures() {
        let mut m = machine(10_000);
        let a = m.layout.prop_addr(0, 0);
        let mut waited = false;
        for _ in 0..200 {
            let out = m.access(1, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
            if out.completion > 4 {
                waited = true;
                break;
            }
        }
        assert!(waited, "an endlessly hammered rank must back-pressure");
        assert!(m.stats().atomics.lock_wait_cycles > 0);
    }

    #[test]
    fn audit_is_clean_on_mixed_traffic() {
        let mut m = machine(10_000);
        for i in 0..50u32 {
            let a = m.layout.prop_addr(0, i * 3);
            m.access(
                (i % 4) as usize,
                MemAccess::atomic(a, 8, AtomicKind::FpAdd),
                i as u64 * 20,
            );
            m.access((i % 4) as usize, MemAccess::read(a, 8), i as u64 * 20 + 7);
            m.access(
                (i % 4) as usize,
                MemAccess::read(0x9000_0000 + i as u64 * 64, 8),
                i as u64 * 20 + 13,
            );
        }
        m.finish(10_000);
        let mut report = AuditReport::new();
        m.audit_into(&mut report);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn rank_local_writes_produce_no_row_outcome() {
        let mut m = machine(10_000);
        for i in 0..20u32 {
            let a = m.layout.prop_addr(0, i * 11);
            m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), i as u64 * 9);
        }
        let s = m.stats();
        assert_eq!(s.dram.open_page_accesses, 0);
        assert_eq!(s.dram.row_hits + s.dram.row_conflicts + s.dram.row_opens, 0);
    }
}
