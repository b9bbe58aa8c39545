//! The service: accept loop, pipelined connections, grouped admission,
//! worker pool, bounded caches.
//!
//! ```text
//!   accept thread ──► connection threads (one per client)
//!                          │  v1 frame: handle inline, in order
//!                          │  v2 frame: handler thread per request ──► out-of-order responses
//!                          │  memo (bounded LRU+TTL) / store  ──► hit
//!                          │  join single-flight table
//!                          ▼
//!                    bounded queue of (dataset, algo, scale) GROUP jobs
//!                          │  compatible jobs coalesce into one slot
//!                          │  full queue sheds `busy`
//!                          ▼
//!                    worker pool (`jobs` sizes it)
//!                          │  graph/trace registries (build once)
//!                          │  one trace per group, one replay per spec
//!                          │  persist, memoise, retire each flight
//!                          ▼
//!                    flight completion ──► every waiter responds
//! ```
//!
//! The accept loop never does work and the queue never grows past its
//! configured depth, so overload degrades to fast structured `busy`
//! responses instead of memory growth or connect timeouts. Admission is
//! at **group** granularity: a queued job is keyed by
//! `(dataset, algo, scale)` and a compatible request joins it instead of
//! consuming a slot — the functional trace is shared exactly like
//! [`Session::prefetch`](omega_bench::session::Session::prefetch)
//! (both layers partition with [`omega_bench::session::trace_groups`]).
//! Shutdown (`shutdown` request) closes the queue, stops accepting, and
//! drains: every admitted request still receives its response.

use crate::flight::{FlightResult, Flights, Registry, Ticket};
use crate::memo::Memo;
use crate::proto::{
    self, ProtoVersion, Request, Response, ResponseFrame, RunRequest, PROTO_V2, STATS_SCHEMA,
};
use crate::wire::{self, Frame};
use omega_bench::session::{trace_groups, ExperimentSpec, MachineKind, Session};
use omega_bench::{run_report_to_json, ExperimentStore, Json};
use omega_core::config::SystemConfig;
use omega_core::runner::{replay_report, trace_algorithm};
use omega_core::OmegaError;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::CsrGraph;
use omega_ligra::trace::{RawTrace, TraceMeta};
use omega_ligra::ExecConfig;
use omega_sim::obs;
use omega_sim::telemetry::TelemetryConfig;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the server is sized and where it listens.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`] for the actual one).
    pub addr: String,
    /// Thread budget: sizes the worker pool when `workers` is 0. Each
    /// worker runs one serial replay at a time.
    pub jobs: usize,
    /// Worker-pool size; 0 sizes it automatically (`min(jobs, 4)`).
    pub workers: usize,
    /// Admission-queue capacity, in **group jobs**. A full queue sheds
    /// with `busy`; a request compatible with an already-queued group
    /// joins it without consuming a slot.
    pub queue_depth: usize,
    /// Response-memo capacity in entries (bounded LRU; evicted entries
    /// recompute byte-identically from the store).
    pub memo_entries: usize,
    /// Response-memo TTL in milliseconds; 0 disables the age bound.
    pub memo_ttl_ms: u64,
    /// Persistent experiment store shared with the batch tools.
    pub store: Option<PathBuf>,
    /// Test hook: artificial delay inside each computed replay, to make
    /// in-flight windows wide enough for deterministic concurrency
    /// tests on any machine.
    pub job_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            workers: 0,
            queue_depth: 8,
            memo_entries: 256,
            memo_ttl_ms: 0,
            store: None,
            job_delay_ms: 0,
        }
    }
}

impl ServeConfig {
    /// Actual worker-pool size after the auto rule.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            self.jobs.clamp(1, 4)
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One spec awaiting computation inside a group job.
struct JobEntry {
    fp: u64,
    machine: MachineKind,
}

/// One admitted unit of work: every queued spec sharing this
/// `(dataset, algo, scale)` key — they share one graph and one
/// functional trace, so the queue holds them as a single slot.
struct Job {
    dataset: Dataset,
    algo: omega_bench::session::AlgoKey,
    scale: DatasetScale,
    entries: Vec<JobEntry>,
}

impl Job {
    fn key(&self) -> (Dataset, omega_bench::session::AlgoKey, DatasetScale) {
        (self.dataset, self.algo, self.scale)
    }

    fn label(&self) -> String {
        format!(
            "{}-{}@{}(×{})",
            self.algo.name(),
            self.dataset.code(),
            self.scale.code(),
            self.entries.len()
        )
    }
}

enum Admission {
    /// A new group slot was taken.
    Queued,
    /// Coalesced into an already-queued compatible group (no new slot).
    Grouped,
    /// Occupancy at rejection time.
    Full(usize),
    Closed,
}

/// Fixed-capacity FIFO of group jobs feeding the worker pool. `close`
/// stops intake but lets workers drain what was already admitted.
struct Queue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
    cap: usize,
}

impl Queue {
    fn new(cap: usize) -> Queue {
        Queue {
            inner: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admits `entries` under the group key. A queued job with the same
    /// key absorbs them without consuming a slot (even when the queue
    /// is at capacity — coalescing never increases the job count);
    /// otherwise a free slot starts a new group job.
    fn try_admit(
        &self,
        dataset: Dataset,
        algo: omega_bench::session::AlgoKey,
        scale: DatasetScale,
        entries: Vec<JobEntry>,
    ) -> Admission {
        let mut inner = lock(&self.inner);
        if inner.1 {
            return Admission::Closed;
        }
        if let Some(job) = inner
            .0
            .iter_mut()
            .find(|j| j.key() == (dataset, algo, scale))
        {
            job.entries.extend(entries);
            return Admission::Grouped;
        }
        if inner.0.len() >= self.cap {
            return Admission::Full(inner.0.len());
        }
        inner.0.push_back(Job {
            dataset,
            algo,
            scale,
            entries,
        });
        self.cv.notify_one();
        Admission::Queued
    }

    /// Blocks for the next job; `None` once closed **and** drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        lock(&self.inner).1 = true;
        self.cv.notify_all();
    }

    fn depth(&self) -> usize {
        lock(&self.inner).0.len()
    }
}

/// Live service counters, mirrored into the obs layer (when profiling
/// is on) under `serve.*` names.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    batches: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    grouped: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    inflight: AtomicU64,
}

impl Counters {
    fn bump(&self, which: &'static str, cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
        obs::counter_add(which, 1);
    }
}

/// A functional trace plus everything needed to replay it.
struct TraceBundle {
    checksum: f64,
    raw: RawTrace,
    meta: TraceMeta,
}

struct ServerState {
    config: ServeConfig,
    addr: SocketAddr,
    store: Option<ExperimentStore>,
    graphs: Registry<(Dataset, DatasetScale), Result<CsrGraph, String>>,
    traces: Registry<(Dataset, &'static str, DatasetScale), Result<TraceBundle, String>>,
    /// Response payloads by fingerprint — the bounded in-process memo.
    /// Holding the serialised payload (not the report) makes warm
    /// responses trivially byte-identical to the cold ones that filled
    /// it; evicted entries recompute byte-identically via the store.
    memo: Memo,
    flights: Flights,
    queue: Queue,
    counters: Counters,
    shutting_down: AtomicBool,
}

impl ServerState {
    fn telemetry() -> TelemetryConfig {
        TelemetryConfig::off()
    }

    /// The machine `spec` runs on, built exactly as the batch tools build
    /// it, so fingerprints (and therefore store entries) are shared.
    fn system_for(spec: ExperimentSpec) -> SystemConfig {
        Session::system_for(Self::telemetry(), spec.machine)
    }

    fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// send a `shutdown` request (or use [`Client::shutdown`]) and then
/// [`ServerHandle::wait`].
///
/// [`Client::shutdown`]: crate::client::Client::shutdown
pub struct ServerHandle {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Blocks until the server has fully drained and every thread has
    /// exited. Only returns after a `shutdown` request was processed.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // No new connection threads spawn once the accept loop exited.
        loop {
            let Some(conn) = lock(&self.conns).pop() else {
                break;
            };
            let _ = conn.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds, spawns the accept loop and worker pool, and returns.
pub fn serve(config: ServeConfig) -> Result<ServerHandle, OmegaError> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let store = match &config.store {
        Some(root) => Some(ExperimentStore::open(root)?),
        None => None,
    };
    let queue = Queue::new(config.queue_depth);
    let memo = Memo::new(config.memo_entries, config.memo_ttl_ms);
    let state = Arc::new(ServerState {
        addr,
        store,
        graphs: Registry::new(),
        traces: Registry::new(),
        memo,
        flights: Flights::new(),
        queue,
        counters: Counters::default(),
        shutting_down: AtomicBool::new(false),
        config,
    });

    let workers = (0..state.config.effective_workers())
        .map(|i| {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("omega-serve-worker-{i}"))
                .spawn(move || worker_loop(&state))
                .expect("spawning a worker thread")
        })
        .collect();

    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let state = Arc::clone(&state);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("omega-serve-accept".to_string())
            .spawn(move || accept_loop(listener, &state, &conns))
            .expect("spawning the accept thread")
    };

    Ok(ServerHandle {
        state,
        accept: Some(accept),
        workers,
        conns,
    })
}

fn accept_loop(
    listener: TcpListener,
    state: &Arc<ServerState>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if state.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(state);
        let handle = std::thread::Builder::new()
            .name("omega-serve-conn".to_string())
            .spawn(move || connection_loop(&state, stream));
        match handle {
            Ok(h) => lock(conns).push(h),
            Err(e) => eprintln!("omega-serve: failed to spawn connection thread: {e}"),
        }
    }
}

/// Best-effort envelope echo for frames whose body failed to parse: if
/// the peer spoke recognisable v2 (tag + integer id), mirror both so it
/// can correlate the error; otherwise fall back to a bare v1 envelope.
fn error_envelope_for(doc: &Json) -> (ProtoVersion, Option<u64>) {
    if doc.get("proto").and_then(Json::as_str) == Some(PROTO_V2) {
        if let Some(id) = doc.get("id").and_then(Json::as_u64) {
            return (ProtoVersion::V2, Some(id));
        }
    }
    (ProtoVersion::V1, None)
}

fn write_response(
    writer: &Mutex<TcpStream>,
    version: ProtoVersion,
    id: Option<u64>,
    response: Response,
) -> bool {
    let frame = ResponseFrame {
        version,
        id,
        response,
    };
    let doc = proto::response_frame_to_json(&frame);
    wire::write_frame(&mut *lock(writer), &doc).is_ok()
}

/// One connection. v1 frames are handled inline — strictly in order,
/// the PR 8 contract. v2 frames spawn a handler thread each and may
/// complete out of order; the shared writer lock keeps frames whole.
/// The scope joins every in-flight handler before the connection
/// thread exits, so `ServerHandle::wait` still observes a full drain.
fn connection_loop(state: &Arc<ServerState>, mut stream: TcpStream) {
    // The timeout bounds how long an idle connection takes to notice
    // shutdown; it does not bound request handling.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Mutex::new(write_half);
    std::thread::scope(|scope| {
        loop {
            let frame = wire::read_frame(&mut stream, || state.draining());
            let doc = match frame {
                Ok(Frame::Doc(doc)) => doc,
                Ok(Frame::Eof) | Ok(Frame::Cancelled) => break,
                Err(e) => {
                    // Tell the peer what was wrong with its bytes, then
                    // hang up: framing is unrecoverable after an error.
                    let _ =
                        write_response(&writer, ProtoVersion::V1, None, Response::from_error(&e));
                    break;
                }
            };
            let request = match proto::request_frame_from_json(&doc) {
                Ok(frame) => frame,
                Err(e) => {
                    // The frame was well-formed JSON but not a valid
                    // request — answer the error and keep reading.
                    state.counters.bump("serve.errors", &state.counters.errors);
                    let (version, id) = error_envelope_for(&doc);
                    if !write_response(&writer, version, id, Response::from_error(&e)) {
                        break;
                    }
                    continue;
                }
            };
            match request.version {
                ProtoVersion::V1 => {
                    let _span = obs::span("serve.request");
                    let resp = handle_request(state, &request.request);
                    if !write_response(&writer, ProtoVersion::V1, None, resp) {
                        break;
                    }
                }
                ProtoVersion::V2 => {
                    let writer = &writer;
                    scope.spawn(move || {
                        let _span = obs::span("serve.request");
                        let resp = handle_request(state, &request.request);
                        write_response(writer, ProtoVersion::V2, request.id, resp);
                    });
                }
            }
        }
    });
}

fn handle_request(state: &Arc<ServerState>, request: &Request) -> Response {
    let c = &state.counters;
    c.bump("serve.requests", &c.requests);
    match request {
        Request::Ping => {
            let mut payload = Json::obj();
            payload.set("pong", Json::Bool(true));
            Response::Ok(payload)
        }
        Request::Stats => Response::Ok(stats_payload(state)),
        Request::Shutdown => {
            begin_shutdown(state);
            let mut payload = Json::obj();
            payload.set("draining", Json::Bool(true));
            Response::Ok(payload)
        }
        Request::Run(run) => match run_request(state, *run) {
            Ok(payload) => Response::Ok((*payload).clone()),
            Err(e) => {
                match *e {
                    OmegaError::Busy { .. } => {}
                    _ => c.bump("serve.errors", &c.errors),
                }
                Response::from_error(&e)
            }
        },
        Request::Batch(runs) => {
            c.bump("serve.batches", &c.batches);
            Response::Ok(batch_request(state, runs))
        }
    }
}

/// The `run` path: memo → store → single-flight admission.
fn run_request(state: &Arc<ServerState>, run: RunRequest) -> FlightResult {
    let c = &state.counters;
    let fp = run.spec.fingerprint(run.scale, ServerState::telemetry());

    if let Some(cached) = lookup(state, fp, run) {
        c.bump("serve.hits", &c.hits);
        return Ok(cached);
    }

    match state.flights.join(fp) {
        Ticket::Follower(flight) => {
            c.bump("serve.coalesced", &c.coalesced);
            flight.wait()
        }
        Ticket::Leader(flight) => {
            let admission = state.queue.try_admit(
                run.spec.dataset,
                run.spec.algo,
                run.scale,
                vec![JobEntry {
                    fp,
                    machine: run.spec.machine,
                }],
            );
            match admission {
                Admission::Queued => flight.wait(),
                Admission::Grouped => {
                    c.bump("serve.grouped", &c.grouped);
                    flight.wait()
                }
                Admission::Full(depth) => {
                    c.bump("serve.shed", &c.shed);
                    let err = Arc::new(OmegaError::Busy {
                        queue_depth: depth,
                        queue_limit: state.config.queue_depth,
                    });
                    state.flights.complete(fp, Err(Arc::clone(&err)));
                    Err(err)
                }
                Admission::Closed => {
                    let err = Arc::new(OmegaError::ShuttingDown);
                    state.flights.complete(fp, Err(Arc::clone(&err)));
                    Err(err)
                }
            }
        }
    }
}

/// Memo, then store. A store hit re-enters the memo (possibly evicting
/// something older), which is how evicted entries come back
/// byte-identically.
fn lookup(state: &Arc<ServerState>, fp: u64, run: RunRequest) -> Option<Arc<Json>> {
    if let Some(payload) = state.memo.get(fp) {
        return Some(payload);
    }
    let store = state.store.as_ref()?;
    let report = store.load_report(fp)?;
    let payload = Arc::new(run_report_to_json(
        &report,
        &ServerState::system_for(run.spec),
    ));
    state.memo.insert(fp, Arc::clone(&payload));
    Some(payload)
}

/// How one batch member will be resolved.
enum BatchSlot {
    /// Served from memo/store immediately.
    Cached(Arc<Json>),
    /// Waiting on a flight (as leader or follower); admission failures
    /// (busy/shutdown) complete the flight, so they resolve here too.
    Waiting(u64),
}

/// The `batch` path: resolve every member through the same
/// memo → store → flight discipline, but admit all cold leaders as
/// whole [`trace_groups`] so each group occupies one queue slot and
/// shares one functional trace even on an idle server.
fn batch_request(state: &Arc<ServerState>, runs: &[RunRequest]) -> Json {
    let c = &state.counters;
    let mut slots: Vec<BatchSlot> = Vec::with_capacity(runs.len());
    // (spec, scale, fp) per leader, in first-seen order.
    let mut leaders: Vec<(ExperimentSpec, DatasetScale, u64)> = Vec::new();
    let mut flights: Vec<(u64, Arc<crate::flight::Flight>)> = Vec::new();

    for run in runs {
        let fp = run.spec.fingerprint(run.scale, ServerState::telemetry());
        if let Some(cached) = lookup(state, fp, *run) {
            c.bump("serve.hits", &c.hits);
            slots.push(BatchSlot::Cached(cached));
            continue;
        }
        match state.flights.join(fp) {
            Ticket::Follower(flight) => {
                c.bump("serve.coalesced", &c.coalesced);
                flights.push((fp, flight));
                slots.push(BatchSlot::Waiting(fp));
            }
            Ticket::Leader(flight) => {
                leaders.push((run.spec, run.scale, fp));
                flights.push((fp, flight));
                slots.push(BatchSlot::Waiting(fp));
            }
        }
    }

    // Admit the cold work group-by-group. Scales are grouped separately
    // (a group job is homogeneous in scale), machines within a group
    // ride one queue slot and one functional trace.
    let mut scales: Vec<DatasetScale> = Vec::new();
    for &(_, scale, _) in &leaders {
        if !scales.contains(&scale) {
            scales.push(scale);
        }
    }
    for scale in scales {
        let specs = leaders
            .iter()
            .filter(|&&(_, s, _)| s == scale)
            .map(|&(spec, _, _)| spec);
        for group in trace_groups(specs) {
            let entries: Vec<JobEntry> = group
                .specs()
                .map(|spec| {
                    let fp = leaders
                        .iter()
                        .find(|&&(s, sc, _)| s == spec && sc == scale)
                        .map(|&(_, _, fp)| fp)
                        .expect("every group member came from `leaders`");
                    JobEntry {
                        fp,
                        machine: spec.machine,
                    }
                })
                .collect();
            let fps: Vec<u64> = entries.iter().map(|e| e.fp).collect();
            let admission = state
                .queue
                .try_admit(group.dataset, group.algo, scale, entries);
            match admission {
                Admission::Queued => {}
                Admission::Grouped => {
                    for _ in &fps {
                        c.bump("serve.grouped", &c.grouped);
                    }
                }
                Admission::Full(depth) => {
                    let err = Arc::new(OmegaError::Busy {
                        queue_depth: depth,
                        queue_limit: state.config.queue_depth,
                    });
                    for fp in fps {
                        c.bump("serve.shed", &c.shed);
                        state.flights.complete(fp, Err(Arc::clone(&err)));
                    }
                }
                Admission::Closed => {
                    let err = Arc::new(OmegaError::ShuttingDown);
                    for fp in fps {
                        state.flights.complete(fp, Err(Arc::clone(&err)));
                    }
                }
            }
        }
    }

    // Collect: every waiting slot resolves through its flight; error
    // outcomes (busy included) stay per-spec so one shed group does not
    // poison the rest of the batch.
    let results: Vec<Response> = slots
        .into_iter()
        .map(|slot| match slot {
            BatchSlot::Cached(payload) => Response::Ok((*payload).clone()),
            BatchSlot::Waiting(fp) => {
                let flight = flights
                    .iter()
                    .find(|(f, _)| *f == fp)
                    .map(|(_, flight)| Arc::clone(flight))
                    .expect("every waiting slot joined a flight");
                match flight.wait() {
                    Ok(payload) => Response::Ok((*payload).clone()),
                    Err(e) => {
                        match *e {
                            OmegaError::Busy { .. } => {}
                            _ => c.bump("serve.errors", &c.errors),
                        }
                        Response::from_error(&e)
                    }
                }
            }
        })
        .collect();
    proto::batch_payload(&results)
}

fn worker_loop(state: &Arc<ServerState>) {
    let c = &state.counters;
    while let Some(job) = state.queue.pop() {
        c.inflight.fetch_add(1, Ordering::Relaxed);
        run_job(state, job);
        c.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Computes one group job: graph and functional trace once (through the
/// build-once registries), then one replay per entry, retiring each
/// entry's flight as soon as its replay lands. A panic anywhere fails
/// the remaining entries with a structured internal error instead of
/// stranding their waiters.
fn run_job(state: &Arc<ServerState>, job: Job) {
    let c = &state.counters;
    let _span = obs::span_owned(format!("serve.group:{}", job.label()));
    let shared = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prepare(state, &job)));
    let shared = match shared {
        Ok(Ok(shared)) => shared,
        Ok(Err(e)) => {
            fail_entries(state, &job.entries, 0, e);
            return;
        }
        Err(_) => {
            fail_entries(
                state,
                &job.entries,
                0,
                Arc::new(OmegaError::Internal(format!(
                    "worker panicked preparing {}",
                    job.label()
                ))),
            );
            return;
        }
    };
    for i in 0..job.entries.len() {
        let entry = &job.entries[i];
        let spec = ExperimentSpec::new(job.dataset, job.algo, entry.machine);
        let _span = obs::span_owned(format!("serve.compute:{}", spec.label()));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compute_one(state, &shared, spec, entry.fp)
        }));
        match outcome {
            Ok(result) => {
                match &result {
                    Ok(_) => c.bump("serve.misses", &c.misses),
                    Err(_) => c.bump("serve.errors", &c.errors),
                }
                // Memo first (inside `compute_one`), then flight
                // retirement: a racing request either joins the flight
                // or hits the memo.
                state.flights.complete(entry.fp, result);
            }
            Err(_) => {
                fail_entries(
                    state,
                    &job.entries,
                    i,
                    Arc::new(OmegaError::Internal(format!(
                        "worker panicked computing {}",
                        spec.label()
                    ))),
                );
                return;
            }
        }
    }
}

/// Completes entries `from..` with `err` (error paths of [`run_job`]).
fn fail_entries(state: &Arc<ServerState>, entries: &[JobEntry], from: usize, err: Arc<OmegaError>) {
    let c = &state.counters;
    for entry in &entries[from..] {
        c.bump("serve.errors", &c.errors);
        state.flights.complete(entry.fp, Err(Arc::clone(&err)));
    }
}

/// What a group job shares across its entries.
struct SharedInputs {
    graph: Arc<Result<CsrGraph, String>>,
    bundle: Arc<Result<TraceBundle, String>>,
}

/// Builds (or fetches) the group's graph and functional trace.
fn prepare(state: &Arc<ServerState>, job: &Job) -> Result<SharedInputs, Arc<OmegaError>> {
    let d = job.dataset;
    let graph = state.graphs.get_or_build((d, job.scale), || {
        d.build(job.scale).map_err(|e| e.to_string())
    });
    let g = match graph.as_ref() {
        Ok(g) => g,
        Err(e) => {
            return Err(Arc::new(OmegaError::Internal(format!(
                "building {}: {e}",
                d.code()
            ))))
        }
    };
    let algo = job.algo.algo(g);
    if !algo.supports(g) {
        return Err(Arc::new(OmegaError::Unsupported(format!(
            "{} needs an undirected graph; {} is directed",
            job.algo.name(),
            d.code()
        ))));
    }
    // One functional trace per (dataset, algo, scale), shared by every
    // machine — all machine configurations use the same core count
    // (the same assumption `Session::prefetch` makes).
    let bundle = state
        .traces
        .get_or_build((d, job.algo.name(), job.scale), || {
            let exec = ExecConfig {
                n_cores: job.entries[0].machine.system().machine.core.n_cores,
                ..ExecConfig::default()
            };
            let (checksum, raw, meta) = trace_algorithm(g, algo, &exec);
            Ok(TraceBundle {
                checksum,
                raw,
                meta,
            })
        });
    if let Err(e) = bundle.as_ref() {
        return Err(Arc::new(OmegaError::Internal(format!(
            "tracing {}: {e}",
            job.label()
        ))));
    }
    Ok(SharedInputs { graph, bundle })
}

/// Replays one spec against the group's shared trace, persists it, and
/// memoises the serialised payload.
fn compute_one(
    state: &Arc<ServerState>,
    shared: &SharedInputs,
    spec: ExperimentSpec,
    fp: u64,
) -> FlightResult {
    if state.config.job_delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(state.config.job_delay_ms));
    }
    let g = shared
        .graph
        .as_ref()
        .as_ref()
        .expect("prepare() vetted the graph");
    let bundle = shared
        .bundle
        .as_ref()
        .as_ref()
        .expect("prepare() vetted the trace");
    let algo = spec.algo.algo(g);
    let system = ServerState::system_for(spec);
    let report = replay_report(
        algo.name(),
        bundle.checksum,
        &bundle.raw,
        &bundle.meta,
        &system,
    );
    if let Some(store) = &state.store {
        if let Err(e) = store.store_report(fp, &spec.label(), &report) {
            eprintln!(
                "omega-serve: warning: failed to persist {}: {e}",
                spec.label()
            );
        }
    }
    let payload = Arc::new(run_report_to_json(&report, &system));
    state.memo.insert(fp, Arc::clone(&payload));
    Ok(payload)
}

fn begin_shutdown(state: &Arc<ServerState>) {
    if state.shutting_down.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    state.queue.close();
    // The accept loop is blocked in `incoming`; poke it awake so it
    // observes the flag and exits.
    let _ = TcpStream::connect(state.addr);
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn stats_payload(state: &Arc<ServerState>) -> Json {
    let c = &state.counters;
    let mut o = Json::obj();
    o.set("schema", Json::Str(STATS_SCHEMA.to_string()));
    o.set("requests", num(c.requests.load(Ordering::Relaxed)));
    o.set("batches", num(c.batches.load(Ordering::Relaxed)));
    o.set("hits", num(c.hits.load(Ordering::Relaxed)));
    o.set("misses", num(c.misses.load(Ordering::Relaxed)));
    o.set("coalesced", num(c.coalesced.load(Ordering::Relaxed)));
    o.set("grouped", num(c.grouped.load(Ordering::Relaxed)));
    o.set("shed", num(c.shed.load(Ordering::Relaxed)));
    o.set("errors", num(c.errors.load(Ordering::Relaxed)));
    o.set("inflight", num(c.inflight.load(Ordering::Relaxed)));
    o.set("queue_depth", num(state.queue.depth() as u64));
    o.set("queue_limit", num(state.config.queue_depth as u64));
    o.set("open_flights", num(state.flights.open() as u64));
    o.set("workers", num(state.config.effective_workers() as u64));
    o.set("draining", Json::Bool(state.draining()));
    let mc = state.memo.counters();
    o.set("evictions", num(mc.evictions));
    let mut m = Json::obj();
    m.set("entries", num(state.memo.len() as u64));
    m.set("bytes", num(state.memo.bytes() as u64));
    m.set("capacity", num(state.memo.capacity() as u64));
    m.set("ttl_ms", num(state.memo.ttl_ms()));
    m.set("hits", num(mc.hits));
    m.set("misses", num(mc.misses));
    m.set("inserts", num(mc.inserts));
    m.set("evictions", num(mc.evictions));
    m.set("expired", num(mc.expired));
    o.set("memo", m);
    if let Some(store) = &state.store {
        let sc = store.counters();
        let mut s = Json::obj();
        s.set("hits", num(sc.hits));
        s.set("misses", num(sc.misses));
        s.set("corrupt", num(sc.corrupt));
        s.set("writes", num(sc.writes));
        o.set("store", s);
    }
    let live = obs::counters_snapshot();
    if !live.is_empty() {
        let mut counters = Json::obj();
        for (name, value) in live {
            counters.set(&name, num(value));
        }
        o.set("obs", counters);
    }
    o
}
