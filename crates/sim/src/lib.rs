//! # omega-sim
//!
//! A discrete-event, cycle-level chip-multiprocessor timing simulator — the
//! substrate on which the OMEGA reproduction runs (the paper used gem5).
//!
//! The simulator is *trace-driven*: each simulated core consumes a stream of
//! [`CoreOp`]s (compute bundles, loads, stores, atomics, barriers) produced
//! by the instrumented graph framework in `omega-ligra`. Timing comes from:
//!
//! * [`engine`] — the replay engine: per-core in-order issue into a bounded
//!   outstanding-miss window (approximating the memory-level parallelism of
//!   the paper's 8-wide, 192-entry-ROB out-of-order cores), full stalls on
//!   blocking atomics, barrier synchronisation, and exhaustive cycle
//!   attribution (issue vs. memory-stall vs. atomic-stall vs. barrier vs.
//!   drain — the TMAM proxy of Fig. 3; buckets sum to each core's total).
//! * [`cache`] — set-associative, write-back, write-allocate cache arrays
//!   with LRU replacement.
//! * [`hierarchy`] — the baseline CMP memory system of Table III: private
//!   L1s, a shared banked L2 with a directory-based MESI-style coherence
//!   filter, line-granularity transfers, and per-line atomic locking.
//! * [`noc`] — a crossbar interconnect with per-port bandwidth reservation
//!   and byte-level traffic accounting (Fig. 17).
//! * [`dram`] — DDR3-like channels with fixed access latency plus
//!   channel-occupancy-based bandwidth contention (Fig. 16).
//! * [`telemetry`] — opt-in latency histograms and cycle-windowed
//!   [`stats::MemStats`] time series (off by default; zero hot-path cost
//!   when disabled).
//!
//! The OMEGA machine (scratchpads + PISC engines) lives in `omega-core` and
//! plugs in through the [`MemorySystem`] trait.
//!
//! # Example
//!
//! ```
//! use omega_sim::{engine, hierarchy::CacheHierarchy, CoreOp, MachineConfig, MemAccess, MemorySystem};
//!
//! let cfg = MachineConfig::mini_baseline();
//! let mut mem = CacheHierarchy::new(&cfg);
//! // One core issuing two loads to the same line: miss then hit.
//! let trace = vec![vec![
//!     CoreOp::Access(MemAccess::read(0x1000, 8)),
//!     CoreOp::Access(MemAccess::read(0x1008, 8)),
//! ]];
//! let report = engine::run(trace, &mut mem, &cfg);
//! assert!(report.total_cycles > cfg.dram.latency as u64);
//! assert_eq!(mem.stats().l1.hits, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
pub mod fingerprint;
pub mod hierarchy;
pub mod mem;
pub mod noc;
pub mod obs;
pub mod stats;
pub mod telemetry;

pub use audit::{AuditReport, AuditViolation};
pub use config::{CacheConfig, CoreConfig, DramConfig, MachineConfig, NocConfig};
pub use engine::{EngineReport, OpSource, Trace, VecOpSource};
pub use fingerprint::{Canonicalize, Fnv64};
pub use mem::{AccessKind, AccessOutcome, AtomicKind, Blocking, CoreOp, MemAccess, MemorySystem};
pub use telemetry::{TelemetryConfig, TelemetryReport};

/// Simulation time, in core clock cycles.
pub type Cycle = u64;

/// Cache-line size in bytes, fixed at 64 as in Table III.
pub const LINE_BYTES: u64 = 64;

/// Rounds an address down to its cache-line base.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}
