//! `omega-perf`: the end-to-end and per-layer benchmark of the OMEGA
//! reproduction. See `README.md` beside this package for the workloads,
//! the metrics and how to reproduce a traced run.
//!
//! ```text
//! omega-perf --workload <sweep-cold|replay-fanout|serve-mixed> --seed N --seconds S --trace 0|1
//! omega-perf --selfcheck K [--seconds S]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! output check makes the command exit non-zero.

mod batch;
mod host;
mod selfcheck;
mod serve_mixed;
mod traced;

use std::fmt::Write as _;
use std::time::Instant;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The cold `figures` sweep through `Session::prefetch`, fresh store.
    SweepCold,
    /// Two unequal trace groups replayed on every machine kind.
    ReplayFanout,
    /// An in-process `omega-serve` under a hot/warm/cold request mix.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SweepCold,
        Workload::ReplayFanout,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::ReplayFanout => "replay-fanout",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one run reports: the metrics of the final JSON line, the
/// extra lines printed above it, and the output-check tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations (results, responses, reconciliations).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The metrics of the final JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    /// Records one checked operation; a failure is printed to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("omega-perf: check failed: {}", what());
            }
        }
        ok
    }

    /// Adds a metric to the final JSON line.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        });
    }

    /// Adds a printed-only line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        selfcheck: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--selfcheck" => {
                let k: usize = value()?.parse().map_err(|e| format!("--selfcheck: {e}"))?;
                if k < 2 {
                    return Err("--selfcheck needs at least 2 runs".into());
                }
                args.selfcheck = Some(k);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_none() && args.selfcheck.is_none() {
        return Err("--workload or --selfcheck is required".into());
    }
    Ok(args)
}

const USAGE: &str = "usage: omega-perf --workload <sweep-cold|replay-fanout|serve-mixed> \
--seed N --seconds S --trace 0|1\n       omega-perf --selfcheck K [--seconds S]";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omega-perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(k) = args.selfcheck {
        std::process::exit(selfcheck::run(k, args.seconds));
    }
    let workload = args.workload.expect("checked by parse_args");
    let (wall0, cpu0, steal0) = (Instant::now(), host::cpu_seconds(), host::steal_ticks());
    let report = match host::WorkDir::new(workload.name()) {
        Ok(dir) => match (workload, args.trace) {
            (Workload::ServeMixed, false) => serve_mixed::run(args.seed, args.seconds, &dir),
            (Workload::ServeMixed, true) => serve_mixed::traced(args.seed, &dir),
            (w, false) => batch::run(w, args.seed, args.seconds, &dir),
            (w, true) => batch::traced(w, args.seed, &dir),
        },
        Err(e) => {
            eprintln!("omega-perf: cannot create the work directory: {e}");
            std::process::exit(1);
        }
    };
    let wall = wall0.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu0;
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "fail_ratio = {} ratio ({} of {} checked operations failed)",
        report.fail_ratio(),
        report.failed,
        report.attempted
    );
    println!(
        "host: workload={} seed={} trace={} nproc={} wall_s={wall:.3} cpu_s={cpu:.2} \
         cpu_per_wall={:.3} steal_ticks={}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        cpu / wall,
        host::steal_ticks().saturating_sub(steal0)
    );
    println!("{}", result_line(&report));
    if report.failed > 0 || report.attempted == 0 {
        std::process::exit(1);
    }
}

/// The final JSON line. Values print with every digit Rust's shortest
/// round-trip formatting gives.
fn result_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
