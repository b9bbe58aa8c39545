//! `serve-mixed`: an in-process `omega-serve` under a closed-loop,
//! fixed-proportion request mix sent through `omega_serve::Client`.
//!
//! The server has a one-thread replay budget and a memo capped below the
//! hot set plus the warm pool. Requests come in blocks of every hot spec
//! and `BLOCK_WARM` warm specs; every `COLD_EVERY`-th block also carries
//! one cold spec. The seed shuffles each block:
//!
//! * hot specs are always answered from the memo: the memo is sized so
//!   that at most `2 × (BLOCK_WARM + 1) + clients` other entries can be
//!   touched between two requests for one hot spec;
//! * warm specs cycle through a pool larger than the memo, so each is
//!   evicted before it recurs and is answered from the store;
//! * cold specs (`omega-spNNN` on a few fixed groups, NNN never reused)
//!   replay and write to the store. Their groups are traced once in
//!   set-up, because the server keeps one trace per group for its life.
//!   Every round draws its cold scales from the same strata (see
//!   [`COLD_MIN_PERMILLE`]), so the work a round does does not depend on
//!   how many rounds came before it.
//!
//! Hits never reach the timing loop, so this workload stays flat when
//! replay code speeds up; it exercises the wire, the memo and store
//! reads, and its p99 is set by the cold share.

use crate::traced::{self, sim_ops, system_for, Layers};
use crate::{host, Report};
use omega_bench::session::{trace_groups, AlgoKey, ExperimentSpec, MachineKind, Session};
use omega_bench::{run_report_to_json, ExperimentStore, Json};
use omega_core::runner::RunReport;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::rng::SmallRng;
use omega_serve::{serve, Client, Response, RunRequest, ServeConfig, ServerHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const SCALE: DatasetScale = DatasetScale::Tiny;
const HOT: usize = 8;
const WARM: usize = 32;
const BLOCK_WARM: usize = 3;
/// One block in `COLD_EVERY` carries a cold request.
const COLD_EVERY: usize = 4;
const BLOCKS_PER_ROUND: usize = 80;
const SETUP_SAMPLES: usize = 5;

/// Hot and warm specs pair these datasets × algorithms with the nine named
/// machine kinds.
const POOL_DATASETS: [Dataset; 7] = [
    Dataset::Sd,
    Dataset::Ap,
    Dataset::Rmat,
    Dataset::Orkut,
    Dataset::Wiki,
    Dataset::Lj,
    Dataset::Ic,
];
const POOL_ALGOS: [AlgoKey; 4] = [AlgoKey::PageRank, AlgoKey::Bfs, AlgoKey::Sssp, AlgoKey::Bc];

/// Cold requests cycle through these groups, which have similar replay
/// costs at tiny scale.
const COLD_GROUPS: [(Dataset, AlgoKey); 4] = [
    (Dataset::Wiki, AlgoKey::PageRank),
    (Dataset::Ic, AlgoKey::PageRank),
    (Dataset::Rmat, AlgoKey::Sssp),
    (Dataset::Orkut, AlgoKey::Bfs),
];
/// Cold scratchpad scales come from `COLD_MIN_PERMILLE..COLD_MAX_PERMILLE`,
/// cut into [`COLD_PER_GROUP`] equal strata. In every round each cold
/// group gets one scale from each stratum, drawn in a seeded order without
/// replacement. So each round replays about the same cold work, and no
/// cold spec is sent twice. Set-up's trace-priming requests sit below the
/// range.
const COLD_MIN_PERMILLE: u32 = 100;
const COLD_MAX_PERMILLE: u32 = 1000;
/// Cold requests per cold group in one round.
const COLD_PER_GROUP: usize = BLOCKS_PER_ROUND / COLD_EVERY / COLD_GROUPS.len();
/// Scales per stratum: the most rounds one run can send. The timed phase
/// ends early if a host gets through them all.
const STRATUM: u32 = (COLD_MAX_PERMILLE - COLD_MIN_PERMILLE) / COLD_PER_GROUP as u32;
const PRIME_PERMILLE: u32 = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Warm,
    Cold,
}

fn clients() -> usize {
    host::nproc().min(4)
}

/// Memo capacity: the hot set plus the most other entries that can be
/// touched between two requests for one hot spec, plus slack.
fn memo_entries(clients: usize) -> usize {
    HOT + 2 * (BLOCK_WARM + 1) + clients + 2
}

fn scaled_sp(permille: u32) -> MachineKind {
    MachineKind::scaled_sp(MachineKind::Omega, permille).expect("cold scales are valid")
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The seeded request generator.
struct Mix {
    rng: SmallRng,
    hot: Vec<ExperimentSpec>,
    warm: Vec<ExperimentSpec>,
    /// Shuffled scales of stratum `j` of cold group `g`, at
    /// `g * COLD_PER_GROUP + j`.
    cold_strata: Vec<Vec<u32>>,
    warm_next: usize,
    cold_next: usize,
    blocks: usize,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = SmallRng::seed_from_u64(seed);
        // The hot set and warm pool are fixed; the seed orders the warm
        // cycle and every block. So every seed sends the same work and the
        // spread across seeds is the host's alone. Machines go round-robin
        // over the nine kinds; the pair and kind counts are coprime, so the
        // specs are distinct.
        let pairs: Vec<(Dataset, AlgoKey)> = POOL_DATASETS
            .iter()
            .flat_map(|&d| POOL_ALGOS.map(|a| (d, a)))
            .collect();
        let named = MachineKind::NAMED;
        let pool: Vec<ExperimentSpec> = (0..HOT + WARM)
            .map(|i| {
                let (d, a) = pairs[i % pairs.len()];
                ExperimentSpec::new(d, a, named[i % named.len()])
            })
            .collect();
        let mut warm = pool[HOT..].to_vec();
        shuffle(&mut warm, &mut rng);
        let cold_strata = (0..COLD_GROUPS.len() * COLD_PER_GROUP)
            .map(|i| {
                let low = COLD_MIN_PERMILLE + (i % COLD_PER_GROUP) as u32 * STRATUM;
                let mut scales: Vec<u32> = (low..low + STRATUM).collect();
                shuffle(&mut scales, &mut rng);
                scales
            })
            .collect();
        Mix {
            hot: pool[..HOT].to_vec(),
            warm,
            rng,
            cold_strata,
            warm_next: 0,
            cold_next: 0,
            blocks: 0,
        }
    }

    /// One cold request per cold group, sent in set-up to trace the group.
    fn priming(&self) -> Vec<ExperimentSpec> {
        COLD_GROUPS
            .iter()
            .zip(0u32..)
            .map(|(&(d, a), g)| ExperimentSpec::new(d, a, scaled_sp(PRIME_PERMILLE + g)))
            .collect()
    }

    /// The `k`-th cold request of a round goes to group `k % groups`,
    /// stratum `k / groups`; round `r` takes each stratum's `r`-th scale.
    fn next_cold(&mut self) -> ExperimentSpec {
        let per_round = COLD_GROUPS.len() * COLD_PER_GROUP;
        let (r, k) = (self.cold_next / per_round, self.cold_next % per_round);
        self.cold_next += 1;
        let (g, j) = (k % COLD_GROUPS.len(), k / COLD_GROUPS.len());
        let (d, a) = COLD_GROUPS[g];
        let permille = self.cold_strata[g * COLD_PER_GROUP + j][r];
        ExperimentSpec::new(d, a, scaled_sp(permille))
    }

    /// Whether every stratum's scales have been sent.
    fn spent(&self) -> bool {
        self.blocks / BLOCKS_PER_ROUND >= STRATUM as usize
    }

    /// The next `BLOCKS_PER_ROUND` blocks of requests.
    fn round(&mut self) -> Vec<(Class, ExperimentSpec)> {
        let mut list = Vec::new();
        for _ in 0..BLOCKS_PER_ROUND {
            let mut block: Vec<(Class, ExperimentSpec)> =
                self.hot.iter().map(|&s| (Class::Hot, s)).collect();
            for _ in 0..BLOCK_WARM {
                block.push((Class::Warm, self.warm[self.warm_next % WARM]));
                self.warm_next += 1;
            }
            if self.blocks.is_multiple_of(COLD_EVERY) {
                let spec = self.next_cold();
                block.push((Class::Cold, spec));
            }
            self.blocks += 1;
            shuffle(&mut block, &mut self.rng);
            list.extend(block);
        }
        list
    }
}

/// The exact bytes the server must answer `spec` with: the run-report
/// JSON `omega-serve` encodes its responses with.
fn payload_text(r: &RunReport, spec: ExperimentSpec) -> String {
    run_report_to_json(r, &system_for(spec.machine)).dump()
}

fn call(client: &mut Client, spec: ExperimentSpec) -> Result<String, String> {
    match client.run(RunRequest { spec, scale: SCALE }) {
        Ok(Response::Ok(payload)) => Ok(payload.dump()),
        Ok(other) => Err(format!("{other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// A store-less session for the offline replays the cold answers are
/// checked against. A fresh one per round keeps the memory it holds
/// bounded by one round, so `peak_rss_mb` does not grow with the number of
/// rounds a host manages.
fn offline_session() -> Session {
    Session::new(SCALE).verbose(false).jobs(host::nproc())
}

struct Live {
    handle: ServerHandle,
    addr: SocketAddr,
}

fn boot(store: &Path) -> Live {
    let c = clients();
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        workers: 1,
        queue_depth: (2 * c).max(8),
        memo_entries: memo_entries(c),
        memo_ttl_ms: 0,
        store: Some(store.to_path_buf()),
        job_delay_ms: 0,
    })
    .expect("binding a loopback port");
    Live {
        addr: handle.addr(),
        handle,
    }
}

/// Drains the server and joins every thread it started.
fn stop(live: Live) {
    Client::connect(live.addr)
        .expect("connecting to the local server")
        .shutdown()
        .expect("the server accepts shutdown");
    live.handle.wait();
}

/// The server counters the reconciliation reads.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    hits: u64,
    misses: u64,
    coalesced: u64,
    shed: u64,
    errors: u64,
    memo_hits: u64,
    memo_inserts: u64,
    memo_evictions: u64,
    memo_entries: u64,
    store_hits: u64,
    store_writes: u64,
}

/// Reads the server's counters; a missing or non-numeric one is a failed
/// check.
fn stats(addr: SocketAddr, report: &mut Report) -> Stats {
    let doc = Client::connect(addr)
        .expect("connecting to the local server")
        .stats()
        .expect("the server answers stats");
    let mut num = |path: &[&str]| -> u64 {
        let v = path
            .iter()
            .try_fold(&doc, |v, key| v.get(key))
            .and_then(Json::as_u64);
        report.check(v.is_some(), || {
            format!("server stats have no numeric {}", path.join("."))
        });
        v.unwrap_or(0)
    };
    Stats {
        hits: num(&["hits"]),
        misses: num(&["misses"]),
        coalesced: num(&["coalesced"]),
        shed: num(&["shed"]),
        errors: num(&["errors"]),
        memo_hits: num(&["memo", "hits"]),
        memo_inserts: num(&["memo", "inserts"]),
        memo_evictions: num(&["memo", "evictions"]),
        memo_entries: num(&["memo", "entries"]),
        store_hits: num(&["store", "hits"]),
        store_writes: num(&["store", "writes"]),
    }
}

/// A booted server with its store pre-warmed and its memo holding the hot
/// set.
struct Setup {
    live: Live,
    expected: HashMap<ExperimentSpec, String>,
    reports: HashMap<ExperimentSpec, RunReport>,
    primed: Vec<(ExperimentSpec, Result<String, String>)>,
    prefetch_s: f64,
    prefetch_cpu_s: f64,
    groups: u64,
}

/// Pre-warms `store` with the hot and warm specs through
/// `Session::prefetch`, boots the server on it, loads the hot set into
/// the memo and traces the cold groups. Returns the set-up and its time.
fn setup(mix: &Mix, store: &Path, report: &mut Report) -> (Setup, f64) {
    let t0 = Instant::now();
    let specs: Vec<ExperimentSpec> = mix.hot.iter().chain(&mix.warm).copied().collect();
    let mut session = Session::new(SCALE)
        .verbose(false)
        .jobs(host::nproc())
        .with_store(store)
        .expect("the work directory is writable");
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    session.prefetch(&specs);
    let prefetch_s = t.elapsed().as_secs_f64();
    let prefetch_cpu_s = host::cpu_seconds() - cpu0;
    let mut expected = HashMap::new();
    let mut reports = HashMap::new();
    for &s in &specs {
        let r = session.report(s).clone();
        expected.insert(s, payload_text(&r, s));
        reports.insert(s, r);
    }
    let live = boot(store);
    let mut client = Client::connect(live.addr).expect("connecting to the local server");
    for &s in &mix.hot {
        let got = call(&mut client, s);
        report.check(got.as_ref() == Ok(&expected[&s]), || {
            format!(
                "{}: memo warm-up answer differs from the offline replay",
                s.label()
            )
        });
    }
    let primed = mix
        .priming()
        .into_iter()
        .map(|s| (s, call(&mut client, s)))
        .collect();
    let setup = Setup {
        live,
        expected,
        reports,
        primed,
        prefetch_s,
        prefetch_cpu_s,
        groups: trace_groups(specs.iter().copied()).len() as u64,
    };
    (setup, t0.elapsed().as_secs_f64())
}

/// One response as the client saw it.
enum Got {
    /// A hot or warm answer equal to its offline payload.
    Match,
    /// A hot or warm answer that differs from it.
    Mismatch,
    /// A cold answer, checked against an offline replay between rounds.
    Body(String),
    /// An error, `busy` or transport failure.
    Failed(String),
}

struct Sample {
    class: Class,
    spec: ExperimentSpec,
    ms: f64,
    got: Got,
}

/// Sends `list` through `clients` closed-loop connections that take the
/// next request as soon as their previous one is answered. Returns the
/// wall from first send to last reply, and every sample.
fn run_round(
    addr: SocketAddr,
    list: &[(Class, ExperimentSpec)],
    expected: &HashMap<ExperimentSpec, String>,
    clients: usize,
) -> (f64, Vec<Sample>) {
    let conns: Vec<Client> = (0..clients)
        .map(|_| Client::connect(addr).expect("connecting to the local server"))
        .collect();
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(&(class, spec)) = list.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let t = Instant::now();
                        let answer = call(&mut client, spec);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let got = match (class, answer) {
                            (_, Err(e)) => Got::Failed(e),
                            (Class::Cold, Ok(body)) => Got::Body(body),
                            (_, Ok(body)) if expected.get(&spec) == Some(&body) => Got::Match,
                            (_, Ok(_)) => Got::Mismatch,
                        };
                        out.push(Sample {
                            class,
                            spec,
                            ms,
                            got,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    });
    (t.elapsed().as_secs_f64(), samples)
}

/// Per-class request counts of a set of samples.
#[derive(Debug, Default, Clone, Copy)]
struct ClassCounts {
    hot: u64,
    warm: u64,
    cold: u64,
}

impl std::ops::AddAssign for ClassCounts {
    fn add_assign(&mut self, o: ClassCounts) {
        self.hot += o.hot;
        self.warm += o.warm;
        self.cold += o.cold;
    }
}

/// Checks every hot/warm sample, collects the cold bodies for the offline
/// check, and counts the classes.
fn tally(
    samples: &[Sample],
    colds: &mut Vec<(ExperimentSpec, String)>,
    report: &mut Report,
) -> ClassCounts {
    let mut n = ClassCounts::default();
    for s in samples {
        match s.class {
            Class::Hot => n.hot += 1,
            Class::Warm => n.warm += 1,
            Class::Cold => n.cold += 1,
        }
        let label = || s.spec.label();
        match &s.got {
            Got::Match => {
                report.check(true, String::new);
            }
            Got::Mismatch => {
                report.check(false, || {
                    format!("{}: answer differs from the offline replay", label())
                });
            }
            Got::Failed(e) => {
                report.check(false, || format!("{}: request failed: {e}", label()));
            }
            Got::Body(body) => colds.push((s.spec, body.clone())),
        }
    }
    n
}

/// The bodies of set-up's priming answers; a failed priming request is a
/// failed check.
fn primed_bodies(
    primed: &[(ExperimentSpec, Result<String, String>)],
    report: &mut Report,
) -> Vec<(ExperimentSpec, String)> {
    let mut bodies = Vec::with_capacity(primed.len());
    for (spec, answer) in primed {
        match answer {
            Ok(body) => bodies.push((*spec, body.clone())),
            Err(e) => {
                report.check(false, || {
                    format!("{}: priming request failed: {e}", spec.label())
                });
            }
        }
    }
    bodies
}

/// Checks every cold answer against an offline replay of its spec
/// (`Session::prefetch` on `offline`); returns the offline reports.
fn check_colds(
    offline: &mut Session,
    colds: &[(ExperimentSpec, String)],
    report: &mut Report,
) -> HashMap<ExperimentSpec, RunReport> {
    let specs: Vec<ExperimentSpec> = colds.iter().map(|&(s, _)| s).collect();
    offline.prefetch(&specs);
    let mut reports = HashMap::with_capacity(specs.len());
    for (spec, body) in colds {
        let r = offline.report(*spec).clone();
        report.check(payload_text(&r, *spec) == *body, || {
            format!(
                "{}: cold answer differs from the offline replay",
                spec.label()
            )
        });
        reports.insert(*spec, r);
    }
    reports
}

/// The server's counter deltas must match the generated classes exactly.
fn reconcile(before: &Stats, after: &Stats, n: ClassCounts, report: &mut Report) -> Stats {
    let d = |f: fn(&Stats) -> u64| f(after).wrapping_sub(f(before));
    let delta = Stats {
        hits: d(|s| s.hits),
        misses: d(|s| s.misses),
        coalesced: d(|s| s.coalesced),
        shed: d(|s| s.shed),
        errors: d(|s| s.errors),
        memo_hits: d(|s| s.memo_hits),
        memo_inserts: d(|s| s.memo_inserts),
        memo_evictions: d(|s| s.memo_evictions),
        memo_entries: after.memo_entries,
        store_hits: d(|s| s.store_hits),
        store_writes: d(|s| s.store_writes),
    };
    let cap = memo_entries(clients()) as u64;
    let evictions = (before.memo_entries + delta.memo_inserts).saturating_sub(cap);
    let expect = [
        ("hits", delta.hits, n.hot + n.warm),
        ("misses", delta.misses, n.cold),
        ("coalesced", delta.coalesced, 0),
        ("shed", delta.shed, 0),
        ("errors", delta.errors, 0),
        ("memo.hits", delta.memo_hits, n.hot),
        ("memo.inserts", delta.memo_inserts, n.warm + n.cold),
        ("memo.evictions", delta.memo_evictions, evictions),
        ("store.hits", delta.store_hits, n.warm),
        ("store.writes", delta.store_writes, n.cold),
    ];
    for (name, got, want) in expect {
        report.check(got == want, || {
            format!("server counter {name} moved by {got}, the request mix implies {want}")
        });
    }
    delta
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, dir: &host::WorkDir) -> Report {
    let mut report = Report::default();
    let mut mix = Mix::new(seed);
    let mut timings = host::Timings::default();
    timings.calibrate();
    let mut kept = None;
    for i in 0..SETUP_SAMPLES {
        let store = dir.sub(&format!("store{i}"));
        let (s, secs) = setup(&mix, &store, &mut report);
        timings.setup(secs);
        timings.calibrate();
        if i + 1 < SETUP_SAMPLES {
            stop(s.live);
            let _ = std::fs::remove_dir_all(&store);
        } else {
            kept = Some(s);
        }
    }
    let setup = kept.expect("SETUP_SAMPLES > 0");
    let before = stats(setup.live.addr, &mut report);
    let mut lat: Vec<f64> = Vec::new();
    let mut n = ClassCounts::default();
    let mut ops = 0u64;
    // The peak resident set counts the server and the clients during
    // rounds, not the set-up sessions, the offline checks or calibration.
    host::reset_peak_rss();
    while timings.timed_raw() < seconds && !mix.spent() {
        let list = mix.round();
        let (wall, samples) = run_round(setup.live.addr, &list, &setup.expected, clients());
        timings.round(wall);
        timings.take_peak_rss();
        // Cold answers are checked between rounds, outside the timed
        // walls, so the bodies held in memory stay bounded by one round.
        let mut colds = Vec::new();
        n += tally(&samples, &mut colds, &mut report);
        let reports = check_colds(&mut offline_session(), &colds, &mut report);
        ops += reports.values().map(sim_ops).sum::<u64>();
        lat.extend(samples.iter().map(|s| s.ms));
        timings.calibrate_if_due();
        host::reset_peak_rss();
    }
    timings.calibrate();
    if mix.spent() {
        report.line(format!(
            "timed phase ended early: all {STRATUM} rounds of cold scales were sent"
        ));
    }
    let after = stats(setup.live.addr, &mut report);
    stop(setup.live);
    reconcile(&before, &after, n, &mut report);
    let primed = primed_bodies(&setup.primed, &mut report);
    check_colds(&mut offline_session(), &primed, &mut report);

    lat.sort_by(f64::total_cmp);
    timings.emit(&mut report, ops, lat.len() as u64);
    let (p50, _) = host::percentile(&lat, 0.50);
    let (p99, beyond) = host::percentile(&lat, 0.99);
    report.line(format!("req_p50_ms = {p50} ms (n = {})", lat.len()));
    if beyond >= 10 {
        report.line(format!(
            "req_p99_ms = {p99} ms (n = {}, {beyond} samples beyond it)",
            lat.len()
        ));
    } else {
        report.line(format!(
            "req_p99_ms: not reported: only {beyond} of {} samples lie beyond it",
            lat.len()
        ));
    }
    report.line(format!(
        "timed phase: {} rounds, {} requests ({} hot, {} warm, {} cold) from {} clients \
         in {:.3} s",
        timings.rounds(),
        lat.len(),
        n.hot,
        n.warm,
        n.cold,
        clients(),
        timings.timed_raw()
    ));
    report
}

/// The traced run: one untraced round, the same round sent serially to a
/// fresh server with every request timed by class, then the layer pass
/// over every spec the round touched.
pub fn traced(seed: u64, dir: &host::WorkDir) -> Report {
    let mut report = Report::default();
    let mut mix = Mix::new(seed);
    let store_a = dir.sub("untraced");
    let (a, _) = setup(&mix, &store_a, &mut report);
    let list = mix.round();
    let before = stats(a.live.addr, &mut report);
    let (wall_u, samples_u) = run_round(a.live.addr, &list, &a.expected, clients());
    let after = stats(a.live.addr, &mut report);
    let mut colds: Vec<(ExperimentSpec, String)> = Vec::new();
    let n = tally(&samples_u, &mut colds, &mut report);
    reconcile(&before, &after, n, &mut report);
    let mut layers = Layers::default();
    layers.prefetch_s = a.prefetch_s;
    layers.groups = a.groups;
    layers.cpu_util = a.prefetch_cpu_s / (a.prefetch_s * host::nproc() as f64);
    let reports = a.reports;
    let primed = a.primed;
    stop(a.live);

    // The same requests, serially, against a fresh server and store: the
    // cold specs are new to it, and the counters come out exact.
    let store_b = dir.sub("traced");
    let (b, _) = setup(&mix, &store_b, &mut report);
    let before = stats(b.live.addr, &mut report);
    let (wall_t, samples_t) = run_round(b.live.addr, &list, &b.expected, 1);
    let after = stats(b.live.addr, &mut report);
    stop(b.live);
    let n = tally(&samples_t, &mut colds, &mut report);
    let delta = reconcile(&before, &after, n, &mut report);
    colds.extend(primed_bodies(&primed, &mut report));
    colds.extend(primed_bodies(&b.primed, &mut report));
    let mut reference = check_colds(&mut offline_session(), &colds, &mut report);
    reference.extend(reports);

    let serve = &mut layers.serve;
    for s in &samples_t {
        match s.class {
            Class::Hot => serve.hot_ms.push(s.ms),
            Class::Warm => serve.warm_ms.push(s.ms),
            Class::Cold => serve.cold_ms.push(s.ms),
        }
    }
    serve.memo_hits = delta.memo_hits;
    serve.memo_evictions = delta.memo_evictions;
    serve.store_hits = delta.store_hits;
    serve.misses = delta.misses;
    serve.coalesced = delta.coalesced;
    serve.shed = delta.shed;
    serve.errors = delta.errors;
    layers.store_writes = delta.store_writes;

    let mut specs: Vec<ExperimentSpec> = Vec::new();
    for spec in list.iter().map(|&(_, s)| s).chain(mix.priming()) {
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    let store = ExperimentStore::open(dir.sub("pass")).expect("the work directory is writable");
    traced::pass(
        SCALE,
        &specs,
        Some(&store),
        &reference,
        &mut layers,
        &mut report,
    );
    layers.trace_overhead_s = wall_t - wall_u;
    report.line(format!(
        "traced round: {wall_t:.3} s serial vs {wall_u:.3} s from {} clients; \
         layer pass {:.3} s over {} specs",
        clients(),
        layers.pass_s,
        specs.len()
    ));
    layers.emit(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_round_draws_each_cold_stratum_once_and_never_repeats_a_spec() {
        let mut mix = Mix::new(7);
        let mut seen = HashSet::new();
        let mut rounds = 0;
        while !mix.spent() {
            let mut strata = HashSet::new();
            for (class, spec) in mix.round() {
                if class != Class::Cold {
                    continue;
                }
                let MachineKind::OmegaScaledSp { permille } = spec.machine else {
                    panic!("cold spec {} is not a scaled scratchpad", spec.label());
                };
                assert!((COLD_MIN_PERMILLE..COLD_MAX_PERMILLE).contains(&permille));
                assert!(seen.insert(spec), "{} sent twice", spec.label());
                let stratum = (permille - COLD_MIN_PERMILLE) / STRATUM;
                assert!(strata.insert((spec.dataset, spec.algo, stratum)));
            }
            assert_eq!(strata.len(), COLD_GROUPS.len() * COLD_PER_GROUP);
            rounds += 1;
        }
        assert_eq!(rounds, STRATUM as usize);
    }
}
