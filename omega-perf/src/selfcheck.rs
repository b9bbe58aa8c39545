//! `--selfcheck K`: the steadiness and determinism check.
//!
//! Runs every workload K times, interleaved (round r runs each workload
//! once with seed r), each as its own `--workload` child process. Prints
//! each end-to-end metric's median, quartiles, min/max and quartile
//! spread, with every run's host context (process CPU vs wall, steal) so a
//! noisy run can be explained. Then runs each workload's traced run twice
//! with one seed and fails if any exact per-layer count differs. With a
//! `BENCHMARK.json` in the working directory, the metric names and units
//! it lists must match what the runs printed.

use crate::traced::PER_LAYER;
use crate::{host, Workload};
use omega_bench::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// One child run's parsed result line.
struct RunResult {
    correct: bool,
    metrics: Vec<(String, String, f64)>,
    /// The unscaled timings from the `alt raw:` line.
    raw: Vec<(String, f64)>,
    host_line: String,
}

fn run_child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{} seed {seed}: no result line ({e:?}); stderr: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
            (name.clone(), unit.to_string(), value)
        })
        .collect();
    // The `alt raw: k=v ...` line carries the timings before host-speed
    // scaling, tabulated as `raw.k`.
    let raw = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("alt raw: "))
        .flat_map(|rest| {
            rest.split_whitespace().filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((format!("raw.{k}"), v.parse().ok()?))
            })
        })
        .collect();
    Ok(RunResult {
        correct: out.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
        raw,
        host_line: stdout
            .lines()
            .find(|l| l.starts_with("host:"))
            .unwrap_or("host: (missing)")
            .to_string(),
    })
}

/// Returns the process exit code.
pub fn run(k: usize, seconds: f64) -> i32 {
    let mut failures = 0;
    let mut values: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut e2e_names: Vec<(String, String)> = Vec::new();
    for r in 0..k {
        for (wi, &w) in Workload::ALL.iter().enumerate() {
            let seed = r as u64 + 1;
            match run_child(w, seed, seconds, false) {
                Ok(res) => {
                    let figures: Vec<String> = res
                        .metrics
                        .iter()
                        .map(|(n, _, v)| (n, v))
                        .chain(res.raw.iter().map(|(n, v)| (n, v)))
                        .map(|(n, v)| format!("{n}={v:.4}"))
                        .collect();
                    println!(
                        "{}{}\n    {}",
                        res.host_line,
                        if res.correct { "" } else { "  FAILED CHECKS" },
                        figures.join(" ")
                    );
                    failures += usize::from(!res.correct);
                    for (name, unit, value) in res.metrics {
                        if !e2e_names.iter().any(|(n, _)| *n == name) {
                            e2e_names.push((name.clone(), unit.clone()));
                        }
                        values
                            .entry((wi, name))
                            .or_insert((unit, Vec::new()))
                            .1
                            .push(value);
                    }
                    for (name, value) in res.raw {
                        values.entry((wi, name)).or_default().1.push(value);
                    }
                }
                Err(e) => {
                    println!("run failed: {e}");
                    failures += 1;
                }
            }
        }
    }

    println!("\nraw.* rows are the same timings before host-speed scaling.");
    println!("workload        metric            unit     median        q1            q3            min           max           spread");
    for ((wi, name), (unit, xs)) in &values {
        let Some((q1, med, q3)) = host::quartiles(xs) else {
            continue;
        };
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<15} {:<17} {:<8} {:<13.6} {:<13.6} {:<13.6} {:<13.6} {:<13.6} {:.4}",
            Workload::ALL[*wi].name(),
            name,
            unit,
            med,
            q1,
            q3,
            min,
            max,
            (q3 - q1) / med
        );
    }

    // Exact counts: two traced runs with one seed must agree bit for bit.
    let mut layer_names: Vec<(String, String)> = Vec::new();
    for w in Workload::ALL {
        let runs: Vec<_> = (0..2).map(|_| run_child(w, 1, seconds, true)).collect();
        match (&runs[0], &runs[1]) {
            (Ok(a), Ok(b)) => {
                failures += usize::from(!a.correct) + usize::from(!b.correct);
                layer_names = a
                    .metrics
                    .iter()
                    .map(|(n, u, _)| (n.clone(), u.clone()))
                    .collect();
                let mut drift = 0;
                for (&(name, _, exact), ((_, _, va), (_, _, vb))) in
                    PER_LAYER.iter().zip(a.metrics.iter().zip(&b.metrics))
                {
                    if exact && va.to_bits() != vb.to_bits() {
                        println!("{}: exact count {name} drifted: {va} vs {vb}", w.name());
                        drift += 1;
                    }
                }
                failures += drift;
                println!(
                    "{}: {} exact per-layer counts {} across two traced runs",
                    w.name(),
                    PER_LAYER.iter().filter(|m| m.2).count(),
                    if drift == 0 {
                        "repeat exactly"
                    } else {
                        "DRIFTED"
                    }
                );
            }
            (Err(e), _) | (_, Err(e)) => {
                println!("traced run failed: {e}");
                failures += 1;
            }
        }
    }

    failures += check_declared(&e2e_names, &layer_names);
    println!("\nselfcheck: {failures} failure(s)");
    i32::from(failures > 0)
}

/// Compares the metric names and units the runs printed with the lists in
/// `./BENCHMARK.json`, if there is one. Returns the number of mismatches.
fn check_declared(e2e: &[(String, String)], layers: &[(String, String)]) -> usize {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return 0;
    };
    let Ok(doc) = Json::parse(&text) else {
        println!("BENCHMARK.json does not parse");
        return 1;
    };
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let mut bad = 0;
    for (key, printed) in [("end_to_end", e2e), ("per_layer", layers)] {
        if !printed.is_empty() && declared(key) != printed {
            println!("BENCHMARK.json {key} does not list the metrics the runs printed");
            bad += 1;
        }
    }
    bad
}
