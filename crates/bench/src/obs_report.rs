//! Rendering for the host-side observability layer (`omega_sim::obs`).
//!
//! Three consumers share one [`ObsDump`]:
//!
//! * [`profile_report_to_json`] — the machine-readable
//!   `omega-profile-report/v1` document behind `--profile-out`;
//! * [`profile_table`] — the human text table behind `--profile`
//!   (printed to **stderr**, so figure stdout stays byte-stable);
//! * [`chrome_trace_to_json`] — the Chrome Trace Event / Perfetto
//!   timeline behind `--trace`, carrying host spans (µs) and
//!   simulated-time intervals (cycles rendered as µs on separate trace
//!   processes).
//!
//! [`check_chrome_trace`] validates an exported trace (used by
//! `stats trace-check` and CI) and [`ObsOptions`] is the shared CLI
//! surface every bin mounts.

use crate::json::Json;
use crate::table::Table;
use omega_core::error::OmegaError;
use omega_sim::obs::{self, ObsDump};

/// Schema tag of the profile report document.
pub const PROFILE_REPORT_SCHEMA: &str = "omega-profile-report/v1";

/// Serialises a drained [`ObsDump`] as `omega-profile-report/v1`.
/// Aggregates are ordered by descending self time — the profile's
/// headline ranking.
pub fn profile_report_to_json(dump: &ObsDump) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(PROFILE_REPORT_SCHEMA.into()));
    doc.set("wall_ns", Json::Num(dump.wall_ns as f64));
    doc.set("coverage", Json::Num(dump.coverage()));
    doc.set("hw_threads", Json::Num(dump.hw_threads as f64));
    doc.set("busy_ns", Json::Num(dump.busy_ns() as f64));
    doc.set("cpu_utilisation", Json::Num(dump.cpu_utilisation()));
    let threads = dump
        .threads
        .iter()
        .map(|t| {
            let mut o = Json::obj();
            o.set("tid", Json::Num(t.tid as f64));
            o.set("busy_ns", Json::Num(t.busy_ns as f64));
            o.set("wait_ns", Json::Num(t.wait_ns as f64));
            o
        })
        .collect();
    doc.set("threads", Json::Arr(threads));
    doc.set("spans_opened", Json::Num(dump.opened as f64));
    doc.set("spans_closed", Json::Num(dump.closed as f64));
    doc.set("open_spans", Json::Num(dump.open_spans() as f64));
    doc.set("spans_dropped", Json::Num(dump.spans_dropped as f64));
    doc.set("sim_dropped", Json::Num(dump.sim_dropped as f64));
    let mut aggs = dump.aggregates.clone();
    aggs.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    let spans = aggs
        .iter()
        .map(|a| {
            let mut s = Json::obj();
            s.set("name", Json::Str(a.name.clone()));
            s.set("count", Json::Num(a.count as f64));
            s.set("total_ns", Json::Num(a.total_ns as f64));
            s.set("self_ns", Json::Num(a.self_ns as f64));
            s.set("min_ns", Json::Num(a.min_ns as f64));
            s.set("max_ns", Json::Num(a.max_ns as f64));
            s.set("wait", Json::Bool(a.wait));
            s
        })
        .collect();
    doc.set("spans", Json::Arr(spans));
    let mut counters = Json::obj();
    for (name, v) in &dump.counters {
        counters.set(name, Json::Num(*v as f64));
    }
    doc.set("counters", counters);
    doc.set("sim_sessions", Json::Num(dump.sim_sessions.len() as f64));
    doc.set("sim_tracks", Json::Num(dump.sim_tracks.len() as f64));
    doc
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Renders the human-readable profile table, ranked by self time, plus a
/// coverage and a CPU-utilisation footer. `self %` is a share of the busy
/// time summed over all threads, so the work spans total 100 %; wait
/// spans read `wait` there instead.
pub fn profile_table(dump: &ObsDump) -> String {
    let mut aggs = dump.aggregates.clone();
    aggs.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    let mut t = Table::new([
        "span", "count", "total ms", "self ms", "self %", "min ms", "max ms",
    ]);
    let busy = dump.busy_ns().max(1) as f64;
    for a in &aggs {
        t.row([
            a.name.clone(),
            a.count.to_string(),
            ms(a.total_ns),
            ms(a.self_ns),
            if a.wait {
                "wait".to_string()
            } else {
                format!("{:.1}", a.self_ns as f64 / busy * 100.0)
            },
            ms(a.min_ns),
            ms(a.max_ns),
        ]);
    }
    let mut out = String::from("[profile] host spans (self-time ranked)\n");
    out.push_str(&t.render());
    for (name, v) in &dump.counters {
        out.push_str(&format!("counter {name} = {v}\n"));
    }
    out.push_str(&format!(
        "wall {} ms, coverage {:.1}% of wall in root spans, {} spans ({} open), {} sim sessions\n",
        ms(dump.wall_ns),
        dump.coverage() * 100.0,
        dump.closed,
        dump.open_spans(),
        dump.sim_sessions.len(),
    ));
    for th in &dump.threads {
        out.push_str(&format!(
            "thread {}: busy {} ms, waiting {} ms\n",
            th.tid,
            ms(th.busy_ns),
            ms(th.wait_ns)
        ));
    }
    out.push_str(&format!(
        "cpu utilisation = Σ busy / (wall × threads) = {} ms / ({} ms × {}) = {:.2}\n",
        ms(dump.busy_ns()),
        ms(dump.wall_ns),
        dump.hw_threads.max(1),
        dump.cpu_utilisation(),
    ));
    out
}

/// Serialises a drained [`ObsDump`] as a Chrome Trace Event JSON object
/// (the Perfetto-loadable `{"traceEvents": [...]}` form).
///
/// Host spans land on pid 1 with their real thread ids, timestamps in
/// microseconds of host wall-clock. Each simulated session becomes its
/// own process (pid `1000 + session id`) whose tracks (DRAM channels,
/// NoC ports, cores) are threads; simulated *cycles* are emitted in the
/// `ts`/`dur` fields directly, so one viewer shows both domains without
/// pretending they share a clock.
pub fn chrome_trace_to_json(dump: &ObsDump) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let meta = |pid: u64, tid: u64, what: &str, name: &str| {
        let mut e = Json::obj();
        e.set("name", Json::Str(what.into()));
        e.set("ph", Json::Str("M".into()));
        e.set("pid", Json::Num(pid as f64));
        e.set("tid", Json::Num(tid as f64));
        let mut args = Json::obj();
        args.set("name", Json::Str(name.into()));
        e.set("args", args);
        e
    };
    events.push(meta(1, 0, "process_name", "host"));
    let mut tids: Vec<u64> = dump.spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &t in &tids {
        let label = if t == dump.main_tid {
            "main".to_string()
        } else {
            format!("thread{t}")
        };
        events.push(meta(1, t, "thread_name", &label));
    }
    for s in &dump.spans {
        let mut e = Json::obj();
        e.set("name", Json::Str(s.name.clone()));
        e.set("cat", Json::Str("host".into()));
        e.set("ph", Json::Str("X".into()));
        e.set("pid", Json::Num(1.0));
        e.set("tid", Json::Num(s.tid as f64));
        e.set("ts", Json::Num(s.start_ns as f64 / 1e3));
        e.set("dur", Json::Num(s.dur_ns as f64 / 1e3));
        events.push(e);
    }
    // Simulated sessions: one process per replay, one thread per track.
    for (i, label) in dump.sim_sessions.iter().enumerate() {
        let session = i as u64 + 1;
        if dump.sim_tracks.iter().any(|t| t.session == session) {
            events.push(meta(
                1000 + session,
                0,
                "process_name",
                &format!("sim:{label}"),
            ));
        }
    }
    for (ti, track) in dump.sim_tracks.iter().enumerate() {
        let pid = 1000 + track.session;
        let tid = ti as u64 + 1;
        events.push(meta(pid, tid, "thread_name", &track.name));
        for &(start, end) in &track.intervals {
            let mut e = Json::obj();
            e.set("name", Json::Str(track.name.clone()));
            e.set("cat", Json::Str("sim".into()));
            e.set("ph", Json::Str("X".into()));
            e.set("pid", Json::Num(pid as f64));
            e.set("tid", Json::Num(tid as f64));
            e.set("ts", Json::Num(start as f64));
            e.set("dur", Json::Num((end - start) as f64));
            events.push(e);
        }
    }
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc.set("displayTimeUnit", Json::Str("ms".into()));
    let mut other = Json::obj();
    other.set("open_spans", Json::Num(dump.open_spans() as f64));
    other.set("spans_dropped", Json::Num(dump.spans_dropped as f64));
    other.set("sim_dropped", Json::Num(dump.sim_dropped as f64));
    other.set("coverage", Json::Num(dump.coverage()));
    doc.set("otherData", other);
    doc
}

/// Summary counts from a validated Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// All events, metadata included.
    pub events: usize,
    /// Host-side complete (`ph == "X"`, `cat == "host"`) spans.
    pub host_spans: usize,
    /// Simulated-time complete (`cat == "sim"`) intervals.
    pub sim_intervals: usize,
}

/// Validates a parsed Chrome Trace Event document: `traceEvents` must be
/// an array of well-formed events (every `"X"` event carries numeric
/// `ts`/`dur >= 0`, `pid`, and `tid`), and the embedded span balance
/// (`otherData.open_spans`) must be zero.
pub fn check_chrome_trace(doc: &Json) -> Result<TraceStats, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents array")?;
    let mut stats = TraceStats {
        events: events.len(),
        ..Default::default()
    };
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if ph == "X" {
            for field in ["ts", "dur", "pid", "tid"] {
                let v = e
                    .get(field)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: missing numeric {field}"))?;
                if !v.is_finite() || (field == "dur" && v < 0.0) {
                    return Err(format!("event {i}: bad {field} = {v}"));
                }
            }
            match e.get("cat").and_then(Json::as_str) {
                Some("host") => stats.host_spans += 1,
                Some("sim") => stats.sim_intervals += 1,
                _ => {}
            }
        }
    }
    if let Some(open) = doc
        .get("otherData")
        .and_then(|o| o.get("open_spans"))
        .and_then(Json::as_u64)
    {
        if open != 0 {
            return Err(format!("{open} spans were never closed"));
        }
    }
    Ok(stats)
}

/// The shared `--profile` / `--profile-out` / `--trace` CLI surface.
/// Mount with [`ObsOptions::try_parse_flag`] inside an argument loop,
/// [`ObsOptions::install`] before the workload, and
/// [`ObsOptions::finish`] at exit.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Print the self-time profile table to stderr at exit.
    pub profile: bool,
    /// Write the `omega-profile-report/v1` JSON here at exit.
    pub profile_out: Option<String>,
    /// Write a Chrome Trace Event JSON timeline here at exit.
    pub trace_out: Option<String>,
}

impl ObsOptions {
    /// Consumes `arg` if it is one of the obs flags (pulling a value from
    /// `rest` where needed). Returns `Ok(true)` when consumed, `Ok(false)`
    /// when the flag is not ours, and [`OmegaError::InvalidConfig`] when a
    /// value is missing or a path-taking flag is repeated — two `--trace`
    /// destinations cannot both win, so last-wins would silently drop one.
    pub fn try_parse_flag(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, OmegaError> {
        fn take_path(
            slot: &mut Option<String>,
            flag: &str,
            rest: &mut impl Iterator<Item = String>,
        ) -> Result<bool, OmegaError> {
            if slot.is_some() {
                return Err(OmegaError::InvalidConfig(format!(
                    "{flag} given more than once"
                )));
            }
            let value = rest.next().ok_or_else(|| {
                OmegaError::InvalidConfig(format!("{flag} needs a value (an output path)"))
            })?;
            *slot = Some(value);
            Ok(true)
        }
        match arg {
            "--profile" => {
                self.profile = true;
                Ok(true)
            }
            "--profile-out" => take_path(&mut self.profile_out, arg, rest),
            "--trace" => take_path(&mut self.trace_out, arg, rest),
            _ => Ok(false),
        }
    }

    /// Whether any obs output was requested.
    pub fn active(&self) -> bool {
        self.profile || self.profile_out.is_some() || self.trace_out.is_some()
    }

    /// Enables the global obs layer to match the requested outputs.
    /// No-op when nothing was requested — disabled runs stay
    /// bit-identical.
    pub fn install(&self) {
        if self.active() {
            obs::enable(true, self.trace_out.is_some());
        }
    }

    /// Drains the obs registry and emits every requested output. The
    /// table goes to stderr; JSON documents go to their files.
    pub fn finish(&self) -> std::io::Result<()> {
        if !self.active() {
            return Ok(());
        }
        let dump = obs::drain();
        if let Some(path) = &self.trace_out {
            std::fs::write(path, chrome_trace_to_json(&dump).dump())?;
            eprintln!("[obs] trace written to {path}");
        }
        if let Some(path) = &self.profile_out {
            std::fs::write(path, profile_report_to_json(&dump).dump())?;
            eprintln!("[obs] profile report written to {path}");
        }
        if self.profile {
            eprint!("{}", profile_table(&dump));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_sim::obs::{SimTrack, SpanAgg, SpanRecord, ThreadTime};

    fn sample_dump() -> ObsDump {
        ObsDump {
            wall_ns: 10_000_000,
            main_tid: 1,
            opened: 3,
            closed: 3,
            root_ns_main: 9_500_000,
            aggregates: vec![
                SpanAgg {
                    name: "runner.replay".into(),
                    count: 2,
                    total_ns: 6_000_000,
                    self_ns: 5_500_000,
                    min_ns: 2_500_000,
                    max_ns: 3_500_000,
                    wait: false,
                },
                SpanAgg {
                    name: "store.read".into(),
                    count: 1,
                    total_ns: 500_000,
                    self_ns: 500_000,
                    min_ns: 500_000,
                    max_ns: 500_000,
                    wait: false,
                },
            ],
            threads: vec![ThreadTime {
                tid: 1,
                busy_ns: 6_000_000,
                wait_ns: 0,
            }],
            hw_threads: 1,
            counters: vec![("store.bytes".into(), 4096)],
            spans: vec![
                SpanRecord {
                    name: "runner.replay".into(),
                    tid: 1,
                    start_ns: 0,
                    dur_ns: 3_500_000,
                    depth: 0,
                },
                SpanRecord {
                    name: "store.read".into(),
                    tid: 1,
                    start_ns: 100,
                    dur_ns: 500_000,
                    depth: 1,
                },
            ],
            spans_dropped: 0,
            sim_sessions: vec!["omega".into()],
            sim_tracks: vec![SimTrack {
                session: 1,
                name: "dram.ch0".into(),
                intervals: vec![(100, 200), (300, 450)],
            }],
            sim_dropped: 0,
        }
    }

    #[test]
    fn profile_report_has_schema_and_ranked_spans() {
        let j = profile_report_to_json(&sample_dump());
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some(PROFILE_REPORT_SCHEMA)
        );
        let spans = j.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(
            spans[0].get("name").and_then(Json::as_str),
            Some("runner.replay")
        );
        // Round-trips through the parser.
        let back = Json::parse(&j.dump()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn table_mentions_every_span_and_coverage() {
        let s = profile_table(&sample_dump());
        assert!(s.contains("runner.replay"));
        assert!(s.contains("store.read"));
        assert!(s.contains("coverage 95.0%"));
        assert!(s.contains("= 0.60\n"), "{s}");
    }

    fn span_agg(name: &str, self_ns: u64, wait: bool) -> SpanAgg {
        SpanAgg {
            name: name.into(),
            count: 1,
            total_ns: self_ns,
            self_ns,
            min_ns: self_ns,
            max_ns: self_ns,
            wait,
        }
    }

    /// A prefetch on two threads: the main thread mostly waits on the
    /// pool join while one worker replays. `self %` must be a share of
    /// the busy time of both threads (totalling 100 %, not the 190 % a
    /// share of single-thread wall would give), the join must read as
    /// waiting, and the footer must give Σ busy / (wall × threads).
    #[test]
    fn table_shares_self_time_out_of_busy_time_across_threads() {
        let mut dump = sample_dump();
        dump.wall_ns = 10_000_000;
        dump.hw_threads = 2;
        dump.aggregates = vec![
            span_agg("session.prefetch", 1_000_000, false),
            span_agg("session.pool_wait", 9_000_000, true),
            span_agg("runner.replay", 8_000_000, false),
            span_agg("runner.trace", 1_000_000, false),
        ];
        dump.threads = vec![
            ThreadTime {
                tid: 1,
                busy_ns: 1_000_000,
                wait_ns: 9_000_000,
            },
            ThreadTime {
                tid: 2,
                busy_ns: 9_000_000,
                wait_ns: 0,
            },
        ];
        let table = profile_table(&dump);
        let mut total = 0.0;
        let mut waits = 0;
        for line in table.lines().skip(3).take(dump.aggregates.len()) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            match cells[4] {
                "wait" => {
                    assert_eq!(cells[0], "session.pool_wait");
                    waits += 1;
                }
                pct => total += pct.parse::<f64>().unwrap(),
            }
        }
        assert_eq!(waits, 1, "{table}");
        assert!(
            (total - 100.0).abs() < 0.2,
            "self % totals {total}:\n{table}"
        );
        assert!(table.contains("thread 1: busy 1.00 ms, waiting 9.00 ms"));
        assert!(table.contains("thread 2: busy 9.00 ms, waiting 0.00 ms"));
        assert!(
            table.contains(
                "cpu utilisation = Σ busy / (wall × threads) = 10.00 ms / (10.00 ms × 2) = 0.50"
            ),
            "{table}"
        );
        let json = profile_report_to_json(&dump);
        assert_eq!(
            json.get("cpu_utilisation").and_then(Json::as_f64),
            Some(0.5)
        );
        assert_eq!(
            json.get("threads")
                .and_then(Json::as_array)
                .map(|t| t.len()),
            Some(2)
        );
    }

    #[test]
    fn chrome_trace_round_trips_and_validates() {
        let doc = chrome_trace_to_json(&sample_dump());
        let text = doc.dump();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        let stats = check_chrome_trace(&back).unwrap();
        assert_eq!(stats.host_spans, 2);
        assert_eq!(stats.sim_intervals, 2);
        assert!(stats.events >= 7); // 2 host + 2 sim + ≥3 metadata
    }

    #[test]
    fn check_rejects_unbalanced_and_malformed_traces() {
        let mut dump = sample_dump();
        dump.closed = 2; // one span never closed
        let doc = chrome_trace_to_json(&dump);
        assert!(check_chrome_trace(&doc)
            .unwrap_err()
            .contains("never closed"));

        let mut bad = Json::obj();
        bad.set("traceEvents", Json::Str("nope".into()));
        assert!(check_chrome_trace(&bad).is_err());

        let mut ev = Json::obj();
        ev.set("name", Json::Str("x".into()));
        ev.set("ph", Json::Str("X".into()));
        let mut doc = Json::obj();
        doc.set("traceEvents", Json::Arr(vec![ev]));
        assert!(check_chrome_trace(&doc).unwrap_err().contains("ts"));
    }

    #[test]
    fn obs_options_parse_and_inactive_finish_is_noop() {
        let mut o = ObsOptions::default();
        let mut rest = vec!["out.json".to_string()].into_iter();
        assert!(o.try_parse_flag("--profile", &mut rest).unwrap());
        assert!(o.try_parse_flag("--trace", &mut rest).unwrap());
        assert!(!o.try_parse_flag("--tiny", &mut rest).unwrap());
        assert!(o.profile);
        assert_eq!(o.trace_out.as_deref(), Some("out.json"));
        // Inactive finish touches nothing.
        assert!(ObsOptions::default().finish().is_ok());
    }

    #[test]
    fn obs_flags_reject_missing_values_and_duplicates_structurally() {
        // Missing value: the error is the typed invalid-config variant
        // with the flag named, identically for both path-taking flags.
        for flag in ["--profile-out", "--trace"] {
            let mut empty = std::iter::empty();
            let err = ObsOptions::default()
                .try_parse_flag(flag, &mut empty)
                .unwrap_err();
            assert_eq!(err.code(), "invalid-config", "{flag}");
            let msg = err.to_string();
            assert!(msg.contains(flag), "{msg}");
            assert!(msg.contains("needs a value"), "{msg}");
        }
        // Duplicates: a repeated destination flag must error, not let the
        // last occurrence silently win.
        for flag in ["--profile-out", "--trace"] {
            let mut o = ObsOptions::default();
            let mut rest = vec!["a.json".to_string(), "b.json".to_string()].into_iter();
            assert!(o.try_parse_flag(flag, &mut rest).unwrap());
            let err = o.try_parse_flag(flag, &mut rest).unwrap_err();
            assert_eq!(err.code(), "invalid-config", "{flag}");
            assert!(err.to_string().contains("more than once"), "{err}");
            // The first destination survives the rejected repeat.
            let kept = o.profile_out.as_deref().or(o.trace_out.as_deref());
            assert_eq!(kept, Some("a.json"), "{flag}");
        }
        // `--profile` is an idempotent toggle: repeating it is harmless.
        let mut o = ObsOptions::default();
        let mut empty = std::iter::empty();
        assert!(o.try_parse_flag("--profile", &mut empty).unwrap());
        assert!(o.try_parse_flag("--profile", &mut empty).unwrap());
        assert!(o.profile);
    }
}
