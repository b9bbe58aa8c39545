//! Host-side measurement helpers: CPU count, process CPU time, steal,
//! peak RSS, and the order statistics every metric is reported with.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU-time fields (`USER_HZ`, 100
/// on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// The worker budget the workloads use: `available_parallelism`.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// User + system CPU seconds this process has used (all threads).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / USER_HZ,
        _ => 0.0,
    }
}

/// Host-wide steal ticks so far (`/proc/stat`, aggregate `cpu` line).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the heap's free memory to the system, then resets the peak
/// resident set (`VmHWM`) to the current resident set, so that a later
/// [`peak_rss_mb`] covers only what ran after this call. The workloads
/// call it after set-up and after their own calibration and output checks,
/// so `peak_rss_mb` reports the program's memory rather than the
/// benchmark's. Without the trim, the allocator keeps what those steps
/// freed, and the reset would count it.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only releases free pages of glibc's own heap.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// About what a [`Calibrator`] sample reads on the reference host (a
/// 2-vCPU 2.1 GHz Xeon VM) in its usual state. Scaled timings are
/// "seconds at the reference host's speed":
/// `raw × REFERENCE_CAL_S / median calibration`.
pub const REFERENCE_CAL_S: f64 = 0.016;

const SETS: usize = 1 << 11;
const WAYS: usize = 8;
/// Directory slots: 4 MiB of `u64`, twice the line space, in 64 KiB chunks.
const SLOTS: usize = 1 << 19;
const CHUNK: usize = 1 << 13;

/// Buffers of one calibration thread. A [`Calibrator`] sample allocates
/// them on the calling thread and drops them when it ends, so they return
/// to the heap [`reset_peak_rss`] trims rather than staying in the resident
/// set the workloads report. No allocation reaches glibc's 128 KiB mmap
/// threshold: freeing a larger one would raise that threshold for the
/// whole process and change how the program's own buffers are kept.
struct KernelState {
    tags: Vec<u64>,
    directory: Vec<Vec<u64>>,
}

impl KernelState {
    fn new() -> KernelState {
        KernelState {
            tags: vec![0; SETS * WAYS],
            directory: (0..SLOTS / CHUNK).map(|_| vec![0; CHUNK]).collect(),
        }
    }

    /// One pass of the calibration kernel: simulator-like memory work (a
    /// set-associative LRU tag array plus an open-addressing directory of
    /// the missed lines over a pseudo-random line stream), then a
    /// dependent, branchy arithmetic chain. It shares no code with the
    /// program, so a program change cannot move it.
    fn run(&mut self, seed: u64) -> u64 {
        self.tags.fill(0);
        self.directory.iter_mut().for_each(|c| c.fill(0));
        let (mut x, mut hits, mut distinct) = (seed | 1, 0u64, 0u64);
        for _ in 0..300_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % (1 << 18);
            let set = line as usize % SETS;
            let row = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            match row.iter().position(|&t| t == line) {
                Some(way) => {
                    row[..=way].rotate_right(1);
                    hits += 1;
                }
                None => {
                    row.rotate_right(1);
                    row[0] = line;
                    // Slots hold `line + 1`, so 0 marks an empty slot.
                    let mut slot = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 45) as usize;
                    loop {
                        let entry = &mut self.directory[slot / CHUNK][slot % CHUNK];
                        if *entry == 0 {
                            *entry = line + 1;
                            distinct += 1;
                            break;
                        }
                        if *entry == line + 1 {
                            break;
                        }
                        slot = (slot + 1) % SLOTS;
                    }
                }
            }
        }
        let mut y = x;
        for i in 0..3_000_000u64 {
            y = y.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
            if y & 4 == 0 {
                y = y.wrapping_add(hits);
            } else {
                y ^= y >> 29;
            }
        }
        y ^ (hits + distinct)
    }
}

/// Measures the host's current speed: the calibration kernel runs on every
/// CPU at once, and a sample is the mean per-thread time, median of three
/// passes.
///
/// The host this benchmark was built on changes speed by up to 1.5× over
/// minutes as neighbouring tenants come and go, and every program timing
/// moves with it. Each run therefore calibrates between its timed steps
/// and scales its timings by [`REFERENCE_CAL_S`] / (median calibration),
/// so they track the program rather than the neighbours. The raw timings
/// are printed beside the scaled ones.
#[derive(Default)]
pub struct Calibrator {
    samples: Vec<f64>,
}

impl Calibrator {
    /// Takes one calibration sample.
    pub fn sample(&mut self) {
        let mut states: Vec<KernelState> = (0..nproc()).map(|_| KernelState::new()).collect();
        let mut passes: Vec<f64> = (0..3)
            .map(|_| {
                let per_thread: Vec<f64> = std::thread::scope(|scope| {
                    let handles: Vec<_> = states
                        .iter_mut()
                        .enumerate()
                        .map(|(i, state)| {
                            scope.spawn(move || {
                                let t = Instant::now();
                                black_box(state.run(i as u64 + 7));
                                t.elapsed().as_secs_f64()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("a calibration thread panicked"))
                        .collect()
                });
                per_thread.iter().sum::<f64>() / per_thread.len() as f64
            })
            .collect();
        passes.sort_by(f64::total_cmp);
        self.samples.push(passes[1]);
    }

    /// `REFERENCE_CAL_S / median sample`: multiply a raw host time by
    /// this to get it at the reference host's speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_CAL_S / median(&self.samples)
    }

    /// The samples' spread, for the printed lines.
    pub fn summary(&self) -> String {
        summary(&self.samples)
    }
}

/// The timed-phase figures every workload reports: set-up samples and
/// round walls in raw host time, the calibrations that scale them, and the
/// peak resident set of the timed phase.
#[derive(Default)]
pub struct Timings {
    setup: Vec<f64>,
    walls: Vec<f64>,
    calibrator: Calibrator,
    last_calibration: Option<Instant>,
    peak_rss_mb: f64,
}

impl Timings {
    /// Takes a calibration sample; call it between timed steps.
    pub fn calibrate(&mut self) {
        self.calibrator.sample();
        self.last_calibration = Some(Instant::now());
    }

    /// Calibrates if a second or more has passed since the last sample,
    /// so the samples follow the host's speed without dominating a run of
    /// short rounds.
    pub fn calibrate_if_due(&mut self) {
        if self
            .last_calibration
            .is_none_or(|t| t.elapsed().as_secs_f64() >= 1.0)
        {
            self.calibrate();
        }
    }

    /// Records one set-up sample.
    pub fn setup(&mut self, raw_s: f64) {
        self.setup.push(raw_s);
    }

    /// Records one round.
    pub fn round(&mut self, raw_s: f64) {
        self.walls.push(raw_s);
    }

    /// Folds the peak resident set since the last [`reset_peak_rss`] into
    /// the run's `peak_rss_mb`.
    pub fn take_peak_rss(&mut self) {
        self.peak_rss_mb = self.peak_rss_mb.max(peak_rss_mb());
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> usize {
        self.walls.len()
    }

    /// Set-up samples recorded so far.
    pub fn setups(&self) -> usize {
        self.setup.len()
    }

    /// Raw host time of the timed phase so far.
    pub fn timed_raw(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// Adds the end-to-end metrics, scaled to the reference host's speed:
    /// `setup_s` as the median set-up sample; `wall_s` as the mean round
    /// (timed phase ÷ rounds); `sim_mops` and `req_per_s` as `ops` and
    /// `results` over the timed phase; and `peak_rss_mb` as folded by
    /// [`Timings::take_peak_rss`]. Round times are averaged rather than
    /// medianed: where the critical path lands on a busier or an idler
    /// CPU, round times form two clusters, and a median jumps between them
    /// while the mean does not. The raw figures and the calibrations go on
    /// printed lines.
    pub fn emit(&self, report: &mut crate::Report, ops: u64, results: u64) {
        let f = self.calibrator.factor();
        let timed = self.timed_raw();
        let (setup, wall) = (median(&self.setup), timed / self.walls.len().max(1) as f64);
        report.metric("setup_s", "s", setup * f);
        report.metric("wall_s", "s", wall * f);
        report.metric("sim_mops", "Mop/s", ops as f64 / (timed * f) / 1e6);
        report.metric("req_per_s", "1/s", results as f64 / (timed * f));
        report.metric("peak_rss_mb", "MiB", self.peak_rss_mb);
        report.line(format!(
            "alt raw: setup_s={setup} wall_s={wall} sim_mops={} req_per_s={} cal_s={}",
            ops as f64 / timed / 1e6,
            results as f64 / timed,
            REFERENCE_CAL_S / f
        ));
        report.line(format!(
            "calibration min / q1 / median / q3 / max: {} s; reference {REFERENCE_CAL_S} s, \
             so raw times scale by {f:.4}",
            self.calibrator.summary()
        ));
        report.line(format!(
            "raw round wall min / q1 / median / q3 / max: {} s",
            summary(&self.walls)
        ));
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles `(q1, median, q3)` computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive" method),
/// so the self-check reads the same spreads an outside checker computes.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// `min / q1 / median / q3 / max` of `xs`, for explaining a noisy run.
pub fn summary(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match quartiles(xs) {
        Some((q1, med, q3)) => format!("{min:.4} / {q1:.4} / {med:.4} / {q3:.4} / {max:.4}"),
        None => format!("{min:.4} (one sample)"),
    }
}

/// Nearest-rank percentile of ascending `sorted` and the number of samples
/// strictly beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// A scratch directory inside the current working directory, removed
/// (with everything in it) when dropped.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Creates `./.omega-perf-work/<tag>-<pid>`.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let root = Path::new(".omega-perf-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// A fresh, empty sub-directory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Drop the shared parent too once no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    }

    #[test]
    fn percentile_counts_the_tail() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), (990.0, 10));
        assert_eq!(percentile(&xs, 0.5), (500.0, 500));
    }
}
